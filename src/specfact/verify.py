"""Executable checks for every identity a causal spectral factor must satisfy.

Each check measures one contract between a spectrum ``S`` and a candidate
factor ``X`` on a finite unit-circle grid:

* positivity of ``S`` (with ``det S`` not identically zero),
* the factorization identity ``S = X X^*`` in coefficient space,
* degree preservation (deg X <= order of S),
* outerness of ``det X`` (no roots inside the open unit disk),
* the pointwise identity ``X(z)^{-1} z^m S(z) = z^m X(z)^*`` together with
  the vanishing of the Fourier mass of its left side outside the causal
  window [0, m] -- the computable witness that the left side really is a
  polynomial of degree at most m,
* agreement of two factors up to one constant unitary matrix.

All functions are rational with known band or degree bounds, so a
sufficiently fine grid is decisive up to conditioning.  No check takes a grid:
:func:`check_positivity` runs ``laurent._positivity_scan``, which samples S
on the check grid :func:`~specfact.laurent.default_verify_grid` (the smallest
power of two >= max(256, 8(m+1)), the grid ``factor()``'s hypothesis
precheck and the generator's condition estimate use too) at the order of S
itself, and the checks that
sample a factor run on the check grid K at the larger of the orders of S and
X.  The causal check samples S and X once, on the doubled grid 2K, and
inverts X at every 2K node in one batch; from one transform of ``X^{-1} S``
on 2K it returns the gap and the anticausal mass on the K grid, which is the
even points of those samples, and how far the mass moves on the full 2K grid.
:func:`verify_all` reads a bound off the factor for every entry that S
decides, since ``S = X X^* + E`` holds exactly for any X, and where that
bound does not decide, the entry is the public check of the same name.  Its
grid record ``_Grid`` forms, at construction, what every report reads: it
samples X and ``z X'`` on K into one (2, K, r, r) array, a GEMM of the
monomial block against each one's m + 1 coefficients that leaves each a
contiguous (K, r, r) stack, inverts X there once and forms the band of
``E = S - X X^*`` once.  The
factorization entry is E's largest coefficient norm, which is
:func:`check_factorization`.  The K-node inverse and derivative samples
give, by Taylor's theorem on each arc between nodes, a lower bound
``sigma_lb`` on the smallest singular value of X over the whole circle (see
``_Grid``).  Positivity: by Weyl's inequality the minimum eigenvalue of S is
at least ``sigma_lb^2 - ||E||`` (see :func:`_positivity_bound`); a bound
above ``NEAR_SINGULAR_TOL`` times the scale passes the entry, else it is
the deficit of :func:`check_positivity`'s scan, ``laurent._positivity_scan``.
Causal:
``X^{-1} S - X^* = X^{-1} E`` bounds the gap and, by Parseval, the
anticausal mass on both grids and its change by ``||E|| / sigma_lb`` when
deg X <= m (see :func:`_causal_bound`).  For such a factor a bound within
``MASS_STABILITY_TOL`` passes the three entries with the bound as their
value; otherwise the three entries are :func:`check_causal_identity`'s
measured values, and inside ``verify`` X is sampled on 2K only there.
Outer: the winding number of det X, ``tr(X^{-1} z X')``, read off the
K-node inverse and derivative samples, passes the entry when it reads zero
with a small Fourier tail; otherwise the roots of det X decide, and
``OUTER_TOL`` is both the entry's tolerance on their deficit below 1 and the
band around the circle whose roots it reports as boundary warnings.  Those
roots come from ``laurent.check_outer_determinant``, which the generator
shares.
Checks that divide by a factor use its pointwise grid inverse, whose worst
1-norm condition number the one grid guard, ``laurent._guarded_inverse``,
caps at ``GRID_COND_MAX``.  ``_Grid`` forms its verdict on K once:
``sigma_lb`` proves it where it counts; elsewhere ``_Grid`` measures it and
drops a refused inverse, and the roots of det X decide the outer entry.  In
the public checks a refusal raises ``SingularFactorOnGrid``, which fails
the causal entries with its message.  Failures inside :func:`verify_all`
are reported as failed entries, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularFactorOnGrid, SpectralFactorError
from .laurent import (
    GRID_COND_MAX,
    NEAR_SINGULAR_TOL,
    POSITIVITY_TOL,
    RESIDUAL_TOL,
    HermitianLaurentPolynomial,
    MatrixPolynomial,
    _causal_values,
    _coefficient_scale,
    _frobenius,
    _guarded_inverse,
    _pointwise_inverse,
    _positivity_scan,
    _require_tolerance,
    _residual_against,
    _residual_band_norms,
    _worst_condition,
    check_outer_determinant,
    coefficients_from_values,
    default_verify_grid,
    sample_on_grid,
)

# Tolerances of the verify_all entries other than the factorization residual
# and positivity (laurent.POSITIVITY_TOL): causal-identity gap and anticausal
# mass, the mass change when the grid doubles, the det-root deficit below 1.
# OUTER_TOL is also the band around |z| = 1 whose det roots the outer entry
# reports as boundary warnings.
CAUSAL_IDENTITY_TOL = 1e-8
MASS_STABILITY_TOL = 1e-9
OUTER_TOL = 1e-6

# The outer entry passes by winding number alone when the count of det roots
# inside the disk reads at most WINDING_COUNT_TOL and the Fourier tail at most
# WINDING_TAIL_TOL; otherwise the roots of det X decide.
WINDING_COUNT_TOL = 1e-3
WINDING_TAIL_TOL = 1e-3


@dataclass(frozen=True)
class VerifyOptions:
    """Factorization-residual tolerance for :func:`verify_all`; the other
    tolerances are module constants."""

    residual_tol: float = RESIDUAL_TOL

    def __post_init__(self):
        _require_tolerance(self.residual_tol)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    warning: bool = False

    @property
    def status(self) -> str:
        if not self.passed:
            return "fail"
        return "warn" if self.warning else "pass"


@dataclass(frozen=True)
class VerificationReport:
    checks: list[CheckEntry] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(entry.passed for entry in self.checks)

    @property
    def has_warnings(self) -> bool:
        return any(entry.warning for entry in self.checks)


def check_positivity(S: HermitianLaurentPolynomial):
    """Minimum eigenvalue and minimum |det| of S over the circle, by the zoomed
    scan ``laurent._positivity_scan``, which samples S on the check grid and
    still sees a boundary zero that falls between grid points."""
    return _positivity_scan(S)[1:]


def _require_same_dimension(S: HermitianLaurentPolynomial, x: MatrixPolynomial) -> None:
    """The rule every (S, X) check shares: S and X are both r x r."""
    if S.r != x.r:
        raise ValueError(f"dimension mismatch: spectrum r={S.r}, factor r={x.r}")


def check_factorization(S: HermitianLaurentPolynomial, x: MatrixPolynomial) -> float:
    """Relative coefficientwise residual of the identity S = X X^*, the same
    ``_residual_against`` that ``factor()`` reports."""
    _require_same_dimension(S, x)
    return _residual_against(S.coeffs, x.coeffs)


def check_degree(S: HermitianLaurentPolynomial, x: MatrixPolynomial):
    """(order of S, degree of X, degree-preservation verdict), both trimmed."""
    return S.m, x.m, x.m <= S.m


def check_causal_identity(S: HermitianLaurentPolynomial, x: MatrixPolynomial):
    """Gap in ``X(z)^{-1} z^m S(z) = z^m X(z)^*``, the anticausal mass, and its
    change when the grid doubles: ``verify_all``'s three causal entries.

    ``gap`` is the worst Frobenius gap between the two sides on the check
    grid K, relative to the coefficient scale of S.  ``mass`` is the root sum
    of squares of the K-grid Fourier coefficients of the left side at indices
    outside [0, m]: numerically zero exactly when the left side is a causal
    polynomial of degree at most m.  ``mass_change`` is ``|mass_2K - mass|``.
    S and X are sampled once, on 2K, and X is inverted at every 2K node in
    one batch, so a factor singular at any 2K node raises
    ``SingularFactorOnGrid``.  One transform of the left side on 2K serves
    both grids: the K grid's coefficients are its fold ``c_K[n] = c_2K[n] +
    c_2K[n + K]``, which is the transform of the even samples, and the gap is
    taken at the even samples alone.  ``verify_all`` reports these values
    where the K-node bound from ``S = X X^* + E`` does not decide, and the
    bound where it does, which each measured value exceeds by rounding at
    most.
    """
    _require_same_dimension(S, x)
    K = default_verify_grid(max(S.m, x.m))
    x_vals = sample_on_grid(x, 2 * K)
    inverse = _guarded_inverse(x_vals, SingularFactorOnGrid, "factor")
    left = inverse @ sample_on_grid(S, 2 * K)
    scale = _coefficient_scale(S.coeffs)
    gaps = _causal_gap(left[::2], x_vals[::2])
    coeffs = coefficients_from_values(left, 2 * K - 1)
    mass = _anticausal_mass(coeffs[:K] + coeffs[K:], S.m, scale)
    return (float(gaps.max()) / scale, mass,
            abs(_anticausal_mass(coeffs, S.m, scale) - mass))


class _Grid:
    """What :func:`verify_all`'s bounds on one (S, X) pair read, formed once
    at construction; where a bound does not decide, the entry is the public
    check, which samples on its own.

    On the check grid K: X and ``z X' / m``, sampled by ``_causal_values``
    from their (2, m + 1, r, r) coefficients into one (2, K, r, r) array,
    so each is a C-contiguous (K, r, r) stack that no consumer copies; X's
    pointwise inverse, ``None`` when inversion fails or the grid guard
    refuses it; and ``sigma_lb``, a lower bound on the smallest singular
    value of X over the whole circle read off them.
    In coefficient space: the coefficient scale of S, the Frobenius norms of
    the coefficients of ``E = S - X X^*`` and their sum over the band,
    ``spread = ||e_0||_F + 2 sum_{n>=1} ||e_n||_F``, which bounds
    ``||E(z)||_F`` on the whole circle.  Every report reads these; nothing
    here samples or inverts on the doubled grid 2K, which only
    :func:`check_causal_identity` does.

    ``sigma_lb`` is ``-inf`` when inversion failed, when the bound is not
    positive or overflows, and when it does not prove X within the grid
    guard everywhere.  On the arc ``|theta - theta_j| <= h = pi/K`` around
    node j, Taylor's theorem gives ``X(theta) = X(theta_j) + (theta -
    theta_j) X'(theta_j) + R`` with ``||R||_2 <= (h^2/2) sum_n n^2
    ||rho_n||_F``, and sigma_min is 1-Lipschitz, so ``sigma_lb = min_j
    (1/||X(z_j)^{-1}||_F - h ||X'(z_j)||_F) - (h^2/2) sum_n n^2
    ||rho_n||_F``.  Every 1-norm condition number of X on the circle is at
    most ``r sum_n ||rho_n||_F / sigma_lb``, since ``||A||_1 ||A^{-1}||_1 <=
    r ||A||_2 / sigma_min(A)`` and ``||X(z)||_2 <= sum_n ||rho_n||_F``.  The
    bound counts only when that is within ``GRID_COND_MAX``, so a factor it
    passes is one the guard accepts on any grid, the K nodes included; where
    it does not count, the guard measures the K-node inverse and drops it on
    a refusal.  It holds up to the rounding of the inverse.
    """

    def __init__(self, S: HermitianLaurentPolynomial, x: MatrixPolynomial):
        self.x = x
        self.K = K = default_verify_grid(max(S.m, x.m))
        # The band first, so that its product's temporaries are spent before
        # the grid stacks are allocated.
        self.scale = _coefficient_scale(S.coeffs)
        self.residual_norms = _residual_band_norms(S.coeffs, x.coeffs)
        with np.errstate(over="ignore"):
            self.spread = float(self.residual_norms[0] + 2.0 * self.residual_norms[1:].sum())
        # X and z X' / m, stacked as (2, K, r, r).
        stack = np.empty((2, x.m + 1, x.r, x.r), dtype=np.complex128)
        stack[0] = x.coeffs
        stack[1] = np.arange(x.m + 1)[:, None, None] / max(x.m, 1) * x.coeffs
        self._samples = _causal_values(stack, K)
        self.x_vals, self.derivative_vals = self._samples
        self._inverse = _pointwise_inverse(self.x_vals)
        self.sigma_lb = -np.inf
        if self._inverse is not None:
            h = np.pi / K
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                norms = _frobenius(x.coeffs)
                nodes = (1.0 / _frobenius(self._inverse)
                         - h * max(x.m, 1) * _frobenius(self.derivative_vals))
                bound = nodes.min() - h * h / 2 * (np.arange(x.m + 1) ** 2 @ norms)
                if bound > 0 and x.r * norms.sum() <= GRID_COND_MAX * bound:
                    self.sigma_lb = float(bound)
        if self.sigma_lb < 0 and _worst_condition(self.x_vals, self._inverse) > GRID_COND_MAX:
            self._inverse = None


def _causal_gap(left: np.ndarray, x_vals: np.ndarray) -> np.ndarray:
    """Frobenius gap at each grid point between the left side ``X^{-1} S``,
    formed from X's pointwise inverse, and the right side ``X^*``.  This is
    the identity ``X^{-1} z^m S = z^m X^*`` with the unimodular ``z^m``
    divided out: the gap is the same, and the causal window [0, m] of the
    left side becomes [-m, 0].  A gap beyond double precision reads ``inf``,
    without a warning."""
    with np.errstate(over="ignore"):
        return _frobenius(left - x_vals.conj().transpose(0, 2, 1))


def _anticausal_mass(coeffs: np.ndarray, m: int, scale: float) -> float:
    """Root sum of squares of the coefficients of ``X^{-1} S`` on a grid of
    len(coeffs) points outside the window [-m, 0], relative to ``scale``."""
    # Indices 1..N-m-1 are, modulo N, every index outside the window [-m, 0].
    norms = _frobenius(coeffs[1 : len(coeffs) - m])
    return float(np.sqrt(np.sum(norms**2))) / scale


def _winding_number(grid: _Grid):
    """``(|count|, tail)`` of the argument principle for det X on the K grid.

    ``f = tr(X^{-1} z X') = z (det X)' / det X`` has mean value, its Fourier
    coefficient 0, equal to the number of roots of det X inside the disk.
    Each root at distance d from the circle leaves coefficients near
    ``(1 + d)^{-|k|}``, so the count is clean only when the tail, the largest
    coefficient over the indices 3K/8..5K/8 (physical ``|k| >= 3K/8``), is
    small; at K = 256 a tail of 1e-3 needs every root about 0.075 or more
    from the circle.  ``z X'`` is sampled divided by m, so its coefficients
    ``(n/m) rho_n`` stay within X's own range.  Without a K-node inverse,
    which the grid guard refused, it reads ``(inf, inf)``.
    """
    if grid._inverse is None:
        return np.inf, np.inf
    K = grid.K
    f = max(grid.x.m, 1) * np.einsum("kij,kji->k", grid._inverse, grid.derivative_vals)
    coeffs = np.abs(coefficients_from_values(f, K - 1))
    return float(coeffs[0]), float(coeffs[3 * K // 8 : 5 * K // 8 + 1].max())


def check_constant_unitary_equivalence(x1: MatrixPolynomial, x2: MatrixPolynomial):
    """How far ``U(z) = X1(z)^{-1} X2(z)`` is from one constant unitary matrix.

    Both gaps small certifies that the factors induce the same spectrum and
    differ only by the constant unitary the uniqueness statement allows.
    """
    if x1.r != x2.r:
        raise ValueError(f"dimension mismatch: r={x1.r} vs r={x2.r}")
    K = default_verify_grid(max(x1.m, x2.m))
    v1 = sample_on_grid(x1, K)
    v2 = sample_on_grid(x2, K)
    U = _guarded_inverse(v1, SingularFactorOnGrid, "left factor") @ v2
    mean = U.mean(axis=0)
    constancy_gap = float(_frobenius(U - mean).max())
    eye = np.eye(x1.r)
    unitarity_gap = float(_frobenius(U @ U.conj().transpose(0, 2, 1) - eye).max())
    return constancy_gap, unitarity_gap


def _positivity_bound(grid: _Grid) -> float:
    """A lower bound on the minimum eigenvalue of S over the whole circle,
    read off the factor's ``sigma_lb`` on the K nodes; ``-inf`` when that
    lower bound on sigma_min(X) does not count, ``nan`` or ``inf`` when a
    term overflows, without a warning.

    S = X X^* + E exactly, for any X, so by Weyl's inequality
    ``lambda_min(S(z)) >= sigma_min(X(z))^2 - ||E(z)||_2``, and
    ``||E(z)||_2 <= ||e_0||_F + 2 sum_{n>=1} ||e_n||_F``.  The bound holds up
    to rounding: for a constant X with E = 0 it is the minimum eigenvalue
    itself, to the last bits, far below the threshold that
    :func:`verify_all` compares it with.
    """
    sigma = grid.sigma_lb
    return sigma * sigma - grid.spread if sigma > 0 else -np.inf


def _causal_bound(grid: _Grid) -> float:
    """An upper bound on each of the three causal entries, read off the
    factor's ``sigma_lb`` on the K nodes; ``inf`` when that lower bound on
    sigma_min(X) does not count, ``nan`` or ``inf`` when a term overflows,
    without a warning.  Where it does not decide, :func:`verify_all` takes
    :func:`check_causal_identity`'s measured values.

    S = X X^* + E exactly, for any X, so at every point of the circle the
    left side of the causal identity is ``X^{-1} S = X^* + X^{-1} E``, so
    the gap is ``||X^{-1} E||_F``.  When deg X <= m, X^* lies in the causal
    window [-m, 0], so the anticausal mass on K and on 2K is at most the
    root mean square of ``X^{-1} E`` over the grid (Parseval); so is their
    difference.  A factor of higher degree has coefficients of X^* outside
    the window, and the bound says nothing of its mass.  Each is at most
    ``||X^{-1}||_2 ||E||_F / scale <= spread / (sigma_lb scale)``, with
    ``||E(z)||_F <= spread``, which holds on the whole circle and so on K
    and 2K.  The measured entries carry the rounding of the inverse and may
    exceed the bound by that much; the bound does not.
    """
    return grid.spread / (grid.sigma_lb * grid.scale) if grid.sigma_lb > 0 else np.inf


def _measure_positivity(S, x, grid):
    threshold = NEAR_SINGULAR_TOL * grid.scale
    bound = _positivity_bound(grid)
    if np.isfinite(bound) and bound > threshold:
        return [(0.0, f"min eigenvalue >= {bound:.3e} on the whole circle, "
                      f"from S = X X* + E", False)]
    deficit, min_eig, min_det = _positivity_scan(S)
    near_singular = min_eig <= threshold
    detail = (f"min eigenvalue {min_eig:.3e}, min |det| {min_det:.3e}"
              + ("; nearly singular on the circle" if near_singular else ""))
    return [(deficit, detail, near_singular)]


def _measure_factorization(S, x, grid):
    return [(float(grid.residual_norms.max()) / grid.scale,
             "relative coefficientwise residual of S = X X*", False)]


def _measure_degree(S, x, grid):
    deg_S, deg_x, _ = check_degree(S, x)
    return [(float(max(0, deg_x - deg_S)),
             f"order of S = {deg_S}, degree of factor = {deg_x}", False)]


def _measure_outer(S, x, grid):
    count, tail = _winding_number(grid)
    if count <= WINDING_COUNT_TOL and tail <= WINDING_TAIL_TOL:
        K = grid.K
        return [(0.0, f"no det root in the closed unit disk: winding number "
                      f"{count:.1e} of det X on K={K}, Fourier tail {tail:.1e} "
                      f"from 3K/8={3 * K // 8}", False)]
    min_root, roots = check_outer_determinant(x)
    deficit = max(0.0, 1.0 - min_root) if np.isfinite(min_root) else 0.0
    boundary = bool(np.any(np.abs(np.abs(roots) - 1.0) <= OUTER_TOL))
    detail = (f"min det-root modulus {min_root:.6g} over {len(roots)} root(s)"
              + ("; root(s) on the boundary band" if boundary else ""))
    return [(deficit, detail, boundary)]


def _measure_causal(S, x, grid):
    # A bound within the strictest causal tolerance passes all three entries;
    # it proves them only when X^* lies in the causal window, deg X <= m.
    bound = _causal_bound(grid)
    if x.m <= S.m and bound <= MASS_STABILITY_TOL:
        gap = mass = mass_change = bound
        proof = f" at most {bound:.3e}, from S = X X* + E"
    else:
        (gap, mass, mass_change), proof = check_causal_identity(S, x), ""
    K = grid.K
    return [
        (gap, f"pointwise gap of X^-1 z^m S = z^m X* on K={K}{proof}", False),
        (mass, f"Fourier mass outside the causal window [0, {S.m}]{proof}", False),
        (mass_change, f"anticausal mass change when doubling the grid to {2 * K}"
                      f"{proof}", False),
    ]


def verify_all(S: HermitianLaurentPolynomial, x: MatrixPolynomial,
               opts: VerifyOptions = VerifyOptions()) -> VerificationReport:
    """Run every (S, X) check and collect a report.

    Each check measures one value per entry; an entry passes when its value
    is at most its tolerance, and a warning is kept only on a pass.  A
    ``SpectralFactorError`` fails every entry of its check, each with its own
    tolerance, so reports for bad inputs are complete.  Overall pass is the
    conjunction of the entries.  K is
    ``default_verify_grid(max(S.m, x.m))``, so a factor of any degree is
    sampled without aliasing.  A dimension mismatch raises ``ValueError``.
    """
    _require_same_dimension(S, x)
    grid = _Grid(S, x)
    checks = (
        (_measure_positivity, {"positivity": POSITIVITY_TOL}),
        (_measure_factorization, {"factorization": opts.residual_tol}),
        (_measure_degree, {"degree": 0.0}),
        (_measure_outer, {"outer-determinant": OUTER_TOL}),
        (_measure_causal, {"causal-identity": CAUSAL_IDENTITY_TOL,
                           "anticausal-mass": CAUSAL_IDENTITY_TOL,
                           "anticausal-mass-stability": MASS_STABILITY_TOL}),
    )
    entries: list[CheckEntry] = []
    for measure, tolerances in checks:
        try:
            measurements = measure(S, x, grid)
        except SpectralFactorError as exc:
            entries.extend(CheckEntry(name, False, 0.0, tolerance, detail=str(exc))
                           for name, tolerance in tolerances.items())
            continue
        for (name, tolerance), (measured, detail, warning) in zip(
                tolerances.items(), measurements, strict=True):
            passed = measured <= tolerance
            entries.append(CheckEntry(name, passed, measured, tolerance, detail,
                                      warning and passed))
    return VerificationReport(checks=entries)


# The name the CLI binds verify_all() by (see ``cli._LAZY``).
_verify_all = verify_all

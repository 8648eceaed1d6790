"""How much slower than a quiet reference machine this one runs right now.

On a shared machine co-tenant load slows everything by up to 2x in
episodes that last from milliseconds to minutes, which swamps the
differences the benchmark exists to show.  So before the first operation and
after every one the benchmark times a fixed reference task that never calls
specfact (a change to the program cannot change it), divides by the task's
time on a quiet machine, and divides each operation's wall time by the
median slowdown measured over the few operations around it.  Set-up is
corrected the same way, step by step.  The result is in
seconds of the quiet reference machine.  (A reference taken from the run
itself, such as its fastest task time, drifts up by about 15% when the load
lasts the whole run.)

The task does the same kind of work as the operations it corrects: for
in-process operations a kernel of small complex matrix work driven from
Python loops, shaped like one grid Newton step (FFT to the grid, batched
condition numbers and solves, a truncated polynomial product and a
factorization residual) and a few rows of a banded block Cholesky; for CLI
commands a child ``python -c "import numpy"``, since a command is mostly
interpreter start and imports, which contention slows far less than Python
loops.  The match matters: measured side by side on one core while the
co-tenant load came and went, Wilson, Bauer and ``verify_all`` operations
slowed by 1.55-1.68x under load and this kernel by 1.64x, while a kernel of
batched 64-point solves and real 4x4 matmuls slowed by 1.90x and so
over-corrected loaded runs against quiet ones by about 15%.
"""

import time

import numpy as np
import scipy.linalg

# Fastest times seen on a 2-core Intel Xeon (2.1 GHz) VM, Python 3.11, numpy
# 2.4.6 with OpenBLAS 0.3.31 on one thread: the kernel took 1.16 ms and
# the import child 0.12 s.
REFERENCE_KERNEL_S = 1.16e-3
REFERENCE_IMPORT_S = 0.12

SAMPLES_AROUND = 3

_rng = np.random.default_rng(20070817)
_K, _R, _M = 64, 4, 8
_S = _rng.standard_normal((_K, _R, _R)) + 1j * _rng.standard_normal((_K, _R, _R))
_S = _S @ _S.conj().transpose(0, 2, 1) + 4.0 * np.eye(_R)
_CHI = _rng.standard_normal((_M + 1, _R, _R)) + 1j * _rng.standard_normal((_M + 1, _R, _R))
_CHI[0] += 6.0 * np.eye(_R)
_T = _rng.standard_normal((4, 2, 2)) + 1j * _rng.standard_normal((4, 2, 2))
_T[0] = _T[0] @ _T[0].conj().T + 8.0 * np.eye(2)
_L = np.linalg.cholesky(_T[0])


def _newton_step():
    buf = np.zeros((_K, _R, _R), dtype=np.complex128)
    buf[: _M + 1] = _CHI
    vals = np.fft.fft(buf, axis=0)
    np.linalg.cond(vals)
    half = np.linalg.solve(vals, _S)
    G = np.linalg.solve(vals, half.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
    plus = np.fft.ifft(G, axis=0)[: _M + 1]
    out = np.zeros((_M + 1, _R, _R), dtype=np.complex128)
    for n in range(_M + 1):
        for k in range(n + 1):
            out[n] += _CHI[k] @ plus[n - k]
    for n in range(_M + 1):
        acc = np.zeros((_R, _R), dtype=np.complex128)
        for k in range(_M - n + 1):
            acc += out[k + n] @ out[k].conj().T
        np.sqrt(np.sum(np.abs(acc) ** 2))


def _cholesky_rows(rows=6):
    band = len(_T) - 1
    cur = np.zeros((band + 1, 2, 2), dtype=np.complex128)
    for _ in range(rows):
        for d in range(band, 0, -1):
            X = np.array(_T[d])
            for e in range(d + 1, band + 1):
                X -= cur[e] @ _L.conj().T
            cur[d] = scipy.linalg.solve_triangular(_L, X.conj().T, lower=True).conj().T
        X = np.array(_T[0])
        for e in range(1, band + 1):
            X -= 1e-3 * (cur[e] @ cur[e].conj().T)
        cur[0] = np.linalg.cholesky(0.5 * (X + X.conj().T))


def _kernel():
    _newton_step()
    _cholesky_rows()


def kernel_slowdown() -> float:
    start = time.perf_counter()
    _kernel()
    return (time.perf_counter() - start) / REFERENCE_KERNEL_S


def import_slowdown(run_child) -> float:
    """``run_child(args)`` runs ``python args`` the way CLI commands run."""
    start = time.perf_counter()
    run_child(["-c", "import numpy"])
    return (time.perf_counter() - start) / REFERENCE_IMPORT_S


def corrected(latency: float, slowdowns: list[float], n: int) -> float:
    """Wall time ``latency`` of operation ``n`` on the quiet reference
    machine.  ``slowdowns[k]`` was measured just before operation k;
    the median of the SAMPLES_AROUND taken on each side of operation n
    damps the jitter of single samples."""
    lo = max(0, n + 1 - SAMPLES_AROUND)
    return latency / float(np.median(slowdowns[lo: n + 1 + SAMPLES_AROUND]))

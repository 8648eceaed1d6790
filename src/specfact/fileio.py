"""Stable on-disk formats for spectra and factors.

Both formats are JSON documents.  Complex entries are ``[re, im]`` pairs and
every float is printed with 17 significant digits, so read(write(x)) is the
identity bit-for-bit on finite doubles and fixtures are diffable.

Spectrum file::

    {"r": 2, "m": 1, "coeffs": {"0": [[[re,im],...],...], "1": ...}}

Only the nonnegative indices are required; a negative index, when present,
is cross-checked against the conjugate transpose of its mirror (tools that
export both sides stay compatible, but cannot smuggle in an asymmetry).
Each index appears at most once (``"0"`` and ``"-0"`` are one), every entry
is a numeric ``[re, im]`` pair, and ``m`` only bounds the indices.

Factor file: same shape plus a ``metadata`` block (algorithm, residual,
warnings, tool version).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import __version__
from .laurent import HermitianLaurentPolynomial, MatrixPolynomial

# Per-entry tolerance when a file supplies both sigma_n and sigma_{-n}.
MIRROR_ATOL = 1e-9


def _format_float(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError("file formats carry finite doubles only")
    return format(float(value), ".17g")


def _emit(node: Any, indent: int) -> str:
    pad = "  " * indent
    if isinstance(node, dict):
        if not node:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(key))}: {_emit(value, indent + 1)}'
            for key, value in node.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        flat = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)
        if flat:
            return "[" + ", ".join(
                _format_float(v) if isinstance(v, float) else str(v) for v in node
            ) + "]"
        items = ",\n".join(f"{pad}  {_emit(value, indent + 1)}" for value in node)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, float):
        return _format_float(node)
    if isinstance(node, (int, np.integer)):
        return str(int(node))
    if isinstance(node, str):
        return json.dumps(node)
    raise TypeError(f"cannot serialize {type(node).__name__}")


def dumps_document(doc: dict) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    return _emit(doc, 0) + "\n"


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in matrix]


def _pairs_to_matrix(node: Any, r: int, label: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{label}: expected numeric [re, im] pairs ({exc})") from None
    if arr.shape != (r, r, 2):
        raise ValueError(
            f"{label}: expected an {r}x{r} array of [re, im] pairs, got shape {arr.shape}"
        )
    # numpy also parses numeric strings, booleans and null; JSON numbers only.
    for value in (part for row in node for pair in row for part in pair):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{label}: expected numeric [re, im] pairs "
                             f"({json.dumps(value)} is not a number)")
    matrix = arr[..., 0] + 1j * arr[..., 1]
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{label}: non-finite entries")
    return matrix


def _parse_document(text: str, label: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{label}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{label}: top level must be an object")
    for key in ("r", "m", "coeffs"):
        if key not in doc:
            raise ValueError(f"{label}: missing required field '{key}'")
    r, m = doc["r"], doc["m"]
    # bool is a subclass of int, but "r": true is not a dimension.
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError(f"{label}: r must be a positive integer")
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"{label}: m must be a nonnegative integer")
    if not isinstance(doc["coeffs"], dict):
        raise ValueError(f"{label}: coeffs must be an object keyed by index")
    return doc


def _collect_coefficients(doc: dict, label: str, allow_negative: bool) -> np.ndarray:
    r, m = doc["r"], doc["m"]
    parsed: dict[int, np.ndarray] = {}
    for key, node in doc["coeffs"].items():
        try:
            index = int(key)
        except ValueError:
            raise ValueError(f"{label}: coefficient index '{key}' is not an integer") from None
        if abs(index) > m or (index < 0 and not allow_negative):
            raise ValueError(f"{label}: coefficient index {index} outside [{-m if allow_negative else 0}, {m}]")
        if index in parsed:
            raise ValueError(f"{label}: coefficient index {index} is given twice")
        parsed[index] = _pairs_to_matrix(node, r, f"{label}: coeffs[{key}]")

    # Sized by the indices present, not m: trailing zeros are trimmed anyway.
    order = max(map(abs, parsed), default=0)
    stack = np.zeros((order + 1, r, r), dtype=np.complex128)
    for n in range(order + 1):
        positive = parsed.get(n)
        negative = parsed.get(-n) if n > 0 else None
        if positive is not None and negative is not None:
            gap = np.max(np.abs(negative - positive.conj().T))
            if gap > MIRROR_ATOL:
                raise ValueError(
                    f"{label}: sigma_{-n} disagrees with the conjugate transpose of "
                    f"sigma_{n} (max entry gap {gap:.3e} > {MIRROR_ATOL:.1e})"
                )
        if positive is not None:
            stack[n] = positive
        elif negative is not None:
            stack[n] = negative.conj().T
    return stack


def read_spectrum(path: str) -> HermitianLaurentPolynomial:
    with open(path, "r", encoding="utf-8") as handle:
        doc = _parse_document(handle.read(), f"spectrum file {path}")
    stack = _collect_coefficients(doc, f"spectrum file {path}", allow_negative=True)
    try:
        return HermitianLaurentPolynomial(stack)
    except ValueError as exc:
        raise ValueError(f"spectrum file {path}: {exc}") from None


def write_spectrum(path: str, S: HermitianLaurentPolynomial) -> None:
    doc = {
        "r": S.r,
        "m": S.m,
        "coeffs": {str(n): _matrix_to_pairs(S.coeffs[n]) for n in range(S.m + 1)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(doc))


def read_factor(path: str) -> tuple[MatrixPolynomial, dict]:
    with open(path, "r", encoding="utf-8") as handle:
        doc = _parse_document(handle.read(), f"factor file {path}")
    stack = _collect_coefficients(doc, f"factor file {path}", allow_negative=False)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"factor file {path}: metadata must be an object")
    try:
        return MatrixPolynomial(stack), metadata
    except ValueError as exc:
        raise ValueError(f"factor file {path}: {exc}") from None


def write_factor(path: str, x: MatrixPolynomial, algorithm: str = "unspecified",
                 residual: float = 0.0, warnings: list[str] | None = None) -> None:
    doc = {
        "r": x.r,
        "m": x.m,
        "coeffs": {str(n): _matrix_to_pairs(x.coeffs[n]) for n in range(x.m + 1)},
        "metadata": {
            "algorithm": algorithm,
            "residual": float(residual),
            "warnings": list(warnings or []),
            "tool_version": __version__,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(doc))

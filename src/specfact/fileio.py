"""Stable on-disk formats for spectra and factors.

Both formats are JSON documents.  Complex entries are ``[re, im]`` pairs and
every float is printed with 17 significant digits, so read(write(x)) is the
identity bit-for-bit on finite doubles and fixtures are diffable.  A write
builds the whole text before it opens the file, so a refused non-finite value
leaves an existing file as it was.

Spectrum file::

    {"r": 2, "m": 1, "coeffs": {"0": [[[re,im],...],...], "1": ...}}

Only the nonnegative indices are required, and ``coeffs`` holds at least one
entry; a negative index, when present, is cross-checked against the conjugate
transpose of its mirror (tools that export both sides stay compatible, but
cannot smuggle in an asymmetry).
Each index is an optional sign and ASCII digits and appears at most once
(``"0"`` and ``"-0"`` are one), every entry is a numeric ``[re, im]`` pair
within double range, and ``m`` only bounds the indices.  A key appears at
most once in any object: the readers refuse a repeated key, which
``json.loads`` alone would resolve to its last value.

Factor file: same shape plus a ``metadata`` block (algorithm, residual,
warnings, tool version).
"""

from __future__ import annotations

import json
import re
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
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node):
            return "[" + ", ".join(_emit(v, indent + 1) for v in node) + "]"
        items = ",\n".join(f"{pad}  {_emit(value, indent + 1)}" for value in node)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(node, float):
        return _format_float(node)
    return json.dumps(node)


def dumps_document(doc: dict) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    return _emit(doc, 0) + "\n"


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in matrix]


def _pairs_to_matrix(node: Any, r: int, label: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
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
    # json.loads would keep the last value of a repeated key; note each object
    # that repeats one, with its first repeat, so that no value silently wins.
    repeats = []

    def build(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeats.append((obj, next(key for i, key in enumerate(keys) if key in keys[:i])))
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=build)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"{label}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{label}: top level must be an object")
    if repeats:
        obj, key = repeats[0]
        name = f"coefficient index {key}" if obj is doc.get("coeffs") else f"key '{key}'"
        raise ValueError(f"{label}: {name} is given twice")
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
    # Without an entry, the declared r alone would size the stack.
    if not doc["coeffs"]:
        raise ValueError(f"{label}: coeffs holds no coefficient")
    return doc


def _collect_coefficients(doc: dict, label: str, allow_negative: bool) -> np.ndarray:
    r, m = doc["r"], doc["m"]
    low = -m if allow_negative else 0
    parsed: dict[int, np.ndarray] = {}
    for key, node in doc["coeffs"].items():
        try:
            # int() alone also reads "1_0", " 1 " and non-ASCII digits.
            if not re.fullmatch(r"[+-]?[0-9]+", key):
                raise ValueError(key)
            index = int(key)
        except ValueError:
            raise ValueError(f"{label}: coefficient index '{key}' is not an integer") from None
        if not low <= index <= m:
            raise ValueError(f"{label}: coefficient index {index} outside [{low}, {m}]")
        if index in parsed:
            raise ValueError(f"{label}: coefficient index {index} is given twice")
        parsed[index] = _pairs_to_matrix(node, r, f"{label}: coeffs[{key}]")

    # Sized by the indices present, not m: trailing zeros are trimmed anyway.
    order = max(map(abs, parsed))
    stack = np.zeros((order + 1, r, r), dtype=np.complex128)
    # Ascending, so sigma_n, when given, overwrites its mirror's transpose.
    for n, matrix in sorted(parsed.items()):
        stack[abs(n)] = matrix if n >= 0 else matrix.conj().T
        if n > 0 and -n in parsed:
            gap = np.max(np.abs(parsed[-n] - matrix.conj().T))
            if gap > MIRROR_ATOL:
                raise ValueError(
                    f"{label}: sigma_{-n} disagrees with the conjugate transpose of "
                    f"sigma_{n} (max entry gap {gap:.3e} > {MIRROR_ATOL:.1e})"
                )
    return stack


def _read(path: str, kind: str, build, allow_negative: bool):
    """``build(stack, doc)`` on a ``kind`` file; a ``ValueError`` it raises names the file."""
    label = f"{kind} file {path}"
    with open(path, "r", encoding="utf-8") as handle:
        doc = _parse_document(handle.read(), label)
    stack = _collect_coefficients(doc, label, allow_negative)
    try:
        return build(stack, doc)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def read_spectrum(path: str) -> HermitianLaurentPolynomial:
    return _read(path, "spectrum", lambda stack, _: HermitianLaurentPolynomial(stack),
                 allow_negative=True)


def read_factor(path: str) -> tuple[MatrixPolynomial, dict]:
    def build(stack, doc):
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError("metadata must be an object")
        return MatrixPolynomial(stack), metadata
    return _read(path, "factor", build, allow_negative=False)


def _write(path: str, p: MatrixPolynomial | HermitianLaurentPolynomial, **blocks) -> None:
    text = dumps_document({
        "r": p.r,
        "m": p.m,
        "coeffs": {str(n): _matrix_to_pairs(p.coeffs[n]) for n in range(p.m + 1)},
        **blocks,
    })
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_spectrum(path: str, S: HermitianLaurentPolynomial) -> None:
    _write(path, S)


def write_factor(path: str, x: MatrixPolynomial, algorithm: str = "unspecified",
                 residual: float = 0.0, warnings: list[str] | None = None) -> None:
    _write(path, x, metadata={
        "algorithm": algorithm,
        "residual": float(residual),
        "warnings": list(warnings or []),
        "tool_version": __version__,
    })

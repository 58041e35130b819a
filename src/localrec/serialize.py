"""Exact JSON encoding: rationals as "p/q" strings, canonical byte output.

Every rational is written as the string "p/q" with q > 0 and gcd(|p|, q) = 1,
never as a float; matrices are row-major arrays of such strings; series
coefficients are arrays of [exponent-tuple, "p/q"] pairs sorted
lexicographically, with explicit window arrays (null marks an unbounded
side).  Serialization is canonical (sorted keys, fixed separators), so equal
objects produce identical bytes and files diff cleanly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .frobenius import CanonicalData, RMatrix
from .series import INF, MultiForm, Var


def rat_to_str(x: Fraction | int) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s) -> Fraction:
    if not isinstance(s, str):  # refuses JSON numbers and booleans too
        raise ValueError(f"rational must be a 'p/q' string, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None


def vector_from_json(v, key: str) -> list[Fraction]:
    """The JSON list ``v`` of "p/q" strings; ``key`` names it in the error."""
    if not isinstance(v, list):
        raise ValueError(f"{key} must be a list of 'p/q' strings, got {v!r}")
    return [rat_from_str(x) for x in v]


def matrix_to_json(m) -> list:
    return [[rat_to_str(x) for x in row] for row in m]


def matrix_from_json(m, key: str) -> list[list[Fraction]]:
    """The JSON list ``m`` of rows, each a list of "p/q" strings."""
    if not isinstance(m, list) or not all(isinstance(row, list) for row in m):
        raise ValueError(f"{key} must be a list of rows of 'p/q' strings, got {m!r}")
    return [[rat_from_str(x) for x in row] for row in m]


def _bound_to_json(x: int, sign: int):
    """null for the unbounded side's sentinel; the other sentinel stays a number."""
    return None if x == sign * INF else x


def _bound_from_json(x, sign: int) -> int:
    return sign * INF if x is None else int(x)


def form_to_json(f: MultiForm) -> dict:
    return {
        "vars": [[v.name, v.branch] for v in f.vars],
        "degs": list(f.degs),
        "window": {
            "lo": [_bound_to_json(x, -1) for x in f.lo],
            "hi": [_bound_to_json(x, +1) for x in f.hi],
        },
        "coeffs": [[list(e), _num_to_str(c, f.den)] for e, c in sorted(f.nums.items())],
    }


def _num_to_str(c: int, den: int) -> str:
    """The coefficient ``c / den`` as a reduced "p/q" string."""
    g = gcd(c, den)
    return f"{c // g}/{den // g}"


def form_from_json(d: dict) -> MultiForm:
    vars = tuple(Var(name, branch) for name, branch in d["vars"])
    return MultiForm(
        vars,
        tuple(d["degs"]),
        {tuple(e): rat_from_str(c) for e, c in d["coeffs"]},
        tuple(_bound_from_json(x, -1) for x in d["window"]["lo"]),
        tuple(_bound_from_json(x, +1) for x in d["window"]["hi"]),
    )


def datum_from_json(cfg: dict) -> CanonicalData:
    for key in ("u", "eta", "psi", "unit"):
        if key not in cfg:
            raise ValueError(f"missing key {key}")
    return CanonicalData.make(
        u=vector_from_json(cfg["u"], "u"),
        eta=matrix_from_json(cfg["eta"], "eta"),
        psi=matrix_from_json(cfg["psi"], "psi"),
        unit=vector_from_json(cfg["unit"], "unit"),
    )


def rmatrix_from_json(mats, exact: bool = False) -> RMatrix:
    if not isinstance(mats, list) or not mats:
        raise ValueError(f"R must be a nonempty list of matrices, got {mats!r}")
    out = [matrix_from_json(m, f"R_{l}") for l, m in enumerate(mats)]
    n = len(out[0])
    if any(len(m) != n or any(len(row) != n for row in m) for m in out):
        raise ValueError(f"every R_l must be a square matrix of size {n}")
    return RMatrix.make(out, exact=exact)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

"""Tiny exact linear algebra over Fraction for N x N data (N stays small)."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Rat = Fraction
Matrix = list[list[Rat]]
Vector = list[Rat]


def identity(n: int) -> Matrix:
    return [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]


def zeros(n: int) -> Matrix:
    return [[Rat(0)] * n for _ in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: Rat | int, a: Matrix) -> Matrix:
    c = Rat(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Rat(0)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence[Rat]) -> Vector:
    return [sum((x * y for x, y in zip(row, v)), Rat(0)) for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_inv(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [[Rat(x) for x in row] + [Rat(1) if i == j else Rat(0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


"""Semisimple canonical-coordinate data and the symplectic R-matrix.

The input datum consists of pairwise distinct critical values ``u_j``, a flat
Gram matrix ``eta``, the isometry ``psi`` from the normalized canonical frame
to flat coordinates (so that psi^T eta psi = 1), and the flat components of
the unit vector.  Hessian factors are never stored separately: they enter only
through ``psi``, which keeps every coefficient rational.

The R-matrix is an input, as in the paper: the identity, an explicit series,
or a seeded random symplectic series.  Solving for R from the grading of the
datum gives nothing new over the rationals: integrability at order 0 and the
symplectic condition at order 1 force the canonical grading to be
antisymmetric, and being similar to a real diagonal matrix it is then zero,
which forces R = 1.

A matrix is a sequence of rows, and a matrix power series is a list of
coefficient matrices.  One primitive, :func:`_series_product`, multiplies two
such series; it computes both the exponential behind a random R and every
symplectic defect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    Matrix,
    identity,
    mat_add,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_sub,
    transpose,
    zeros,
)
from .report import Report

Rat = Fraction


class DatumError(Exception):
    """The canonical datum or R-matrix violates a structural requirement."""


@dataclass(frozen=True)
class CanonicalData:
    """Semisimple datum at a fixed point: (u, eta, psi, unit)."""

    n: int
    u: tuple[Rat, ...]
    eta: tuple[tuple[Rat, ...], ...]
    psi: tuple[tuple[Rat, ...], ...]
    unit: tuple[Rat, ...]

    @staticmethod
    def make(u, eta, psi, unit) -> "CanonicalData":
        u = tuple(Rat(x) for x in u)
        n = len(u)
        return CanonicalData(
            n=n,
            u=u,
            eta=tuple(tuple(Rat(x) for x in row) for row in eta),
            psi=tuple(tuple(Rat(x) for x in row) for row in psi),
            unit=tuple(Rat(x) for x in unit),
        )


def airy_datum() -> CanonicalData:
    """The one-dimensional datum: a single nondegenerate critical point at 0."""
    return CanonicalData.make(u=[0], eta=[[1]], psi=[[1]], unit=[1])


def decoupled_datum(u_values) -> CanonicalData:
    """N independent nondegenerate critical points (eta = psi = 1)."""
    n = len(u_values)
    return CanonicalData.make(
        u=u_values, eta=identity(n), psi=identity(n), unit=[1] * n
    )


@dataclass(frozen=True)
class RMatrix:
    """Truncated symplectic series R(z) = R_0 + R_1 z + ... + R_L z^L, R_0 = 1.

    ``exact`` declares that the series genuinely terminates at order L (all
    higher coefficients are zero), which widens every downstream window to
    infinity.  Over the rationals only R = 1 can be exactly symplectic, but
    that case (and decoupled copies of it) is the workhorse test datum.
    """

    n: int
    mats: tuple[tuple[tuple[Rat, ...], ...], ...]
    exact: bool = False

    @property
    def order(self) -> int:
        return len(self.mats) - 1

    @staticmethod
    def make(mats, exact: bool = False) -> "RMatrix":
        frozen = tuple(tuple(tuple(Rat(x) for x in row) for row in m) for m in mats)
        n = len(frozen[0])
        r = RMatrix(n=n, mats=frozen, exact=exact)
        if not mat_eq(r.mat(0), identity(n)):
            raise DatumError("R_0 must be the identity")
        return r

    @staticmethod
    def identity_r(n: int) -> "RMatrix":
        return RMatrix.make([identity(n)], exact=True)

    def mat(self, k: int) -> Matrix:
        if 0 <= k <= self.order:
            return self.mats[k]
        if self.exact:
            return zeros(self.n)
        raise DatumError(f"R_{k} beyond truncation order {self.order}")


def validate_canonical(d: CanonicalData) -> Report:
    """Check every structural invariant; reports the offending entry on failure."""
    rep = Report()
    sizes_ok = (
        d.n >= 1
        and len(d.u) == d.n
        and len(d.unit) == d.n
        and len(d.eta) == d.n
        and all(len(r) == d.n for r in d.eta)
        and len(d.psi) == d.n
        and all(len(r) == d.n for r in d.psi)
    )
    detail = f"inconsistent sizes for N={d.n}" if d.n else "N must be at least 1, got 0"
    rep.add("shapes", sizes_ok, "" if sizes_ok else detail)
    if not sizes_ok:
        return rep

    coincident = [
        (i + 1, j + 1)
        for i in range(d.n)
        for j in range(i + 1, d.n)
        if d.u[i] == d.u[j]
    ]
    rep.add(
        "distinct-critical-values",
        not coincident,
        "" if not coincident else f"coincident critical values at {coincident[0]}",
    )

    # the first nonzero entry of an antisymmetric matrix lies above the diagonal
    bad = _first_nonzero(mat_sub(d.eta, transpose(d.eta)))
    rep.add("eta-symmetric", bad is None, "" if bad is None else f"entry {bad[:2]}")

    try:
        mat_inv(d.eta)
        rep.add("eta-invertible", True)
    except ValueError:
        rep.add("eta-invertible", False, "eta is singular")
        return rep

    gram = mat_mul(mat_mul(transpose(d.psi), d.eta), d.psi)
    bad = _first_nonzero(mat_sub(gram, identity(d.n)))
    detail = ""
    if bad is not None:  # the Gram entry: the defect, plus 1 on the diagonal
        i, j, x = bad
        detail = f"(psi^T eta psi)[{i},{j}] = {x + (i == j)}"
    rep.add("psi-isometry", bad is None, detail)
    return rep


def _first_nonzero(m: Matrix) -> tuple[int, int, Rat] | None:
    """The first nonzero entry in row-major order as a 1-based
    (row, column, value); None for a zero matrix."""
    return next(
        ((i + 1, j + 1, x) for i, row in enumerate(m) for j, x in enumerate(row) if x),
        None,
    )


def _series_product(a, b, top: int) -> list[Matrix]:
    """Coefficients 0..top of a(z) b(z), for series given as lists of matrices.

    All-zero coefficient matrices are skipped: the m-th power of a random
    generator starts at z^m, and multiplying its leading zeros would nearly
    double the cost of :func:`random_symplectic_r`.
    """

    def support(ser):
        return [(i, m) for i, m in enumerate(ser[: top + 1]) if any(map(any, m))]

    out = [zeros(len(a[0])) for _ in range(top + 1)]
    right = support(b)
    for i, x in support(a):
        for j, y in right:
            if i + j <= top:
                out[i + j] = mat_add(out[i + j], mat_mul(x, y))
    return out


def check_symplectic(r: RMatrix) -> Report:
    """Verify R(z) R(-z)^T = 1 order by order, exactly.

    The defect at order m is the z^m coefficient of R(z) R(-z)^T.  For a
    truncated R only orders 1..L are determined; an exact R must satisfy
    every order up to 2L (beyond that the condition is vacuous).
    """
    rep = Report()
    top = 2 * r.order if r.exact else r.order
    flipped = [mat_scale((-1) ** b, transpose(m)) for b, m in enumerate(r.mats)]
    defects = _series_product(r.mats, flipped, top)
    for m in range(1, top + 1):
        bad = _first_nonzero(defects[m])
        rep.add(
            f"symplectic-order-{m}",
            bad is None,
            "" if bad is None else f"defect[{bad[0]},{bad[1]}] = {bad[2]}",
        )
        if bad is not None:
            break
    if not rep.checks:
        rep.add("symplectic-trivial", True, "order 0 only")
    return rep


def random_symplectic_r(n: int, order: int, seed: int, coeff_bound: int = 3) -> RMatrix:
    """exp of a random infinitesimal-symplectic series, truncated at ``order``.

    The generator A(z) = sum_{k>=1} A_k z^k has A_k^T = (-1)^(k+1) A_k with
    small random rational entries, so R(z) R(-z)^T = 1 holds at every order
    the truncation determines.  Deterministic in the seed.
    """
    if order < 0:
        raise DatumError("order must be >= 0")
    rng = random.Random(seed)

    def draw() -> Rat:
        return Rat(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, coeff_bound))

    a_ser: list[Matrix] = [zeros(n)]
    for k in range(1, order + 1):
        raw = [[draw() for _ in range(n)] for _ in range(n)]
        sgn = 1 if k % 2 == 1 else -1
        a_k = mat_scale(
            Rat(1, 2), mat_add(raw, mat_scale(sgn, transpose(raw)))
        )
        a_ser.append(a_k)

    # exp(A) mod z^(order+1): term m is term (m-1) times A / m
    result: list[Matrix] = [identity(n)] + [zeros(n) for _ in range(order)]
    term: list[Matrix] = [identity(n)]
    for m in range(1, order + 1):
        term = [mat_scale(Rat(1, m), x) for x in _series_product(term, a_ser, order)]
        result = [mat_add(x, y) for x, y in zip(result, term)]
    return RMatrix.make(result, exact=False)


@dataclass(frozen=True)
class VTable:
    """Closing matrices V_{kl} with sum V_{kl} w^k z^l = (1 - R(-w)^T R(-z)) / (z + w)."""

    mats: dict  # (k, l) -> matrix as a tuple of row tuples, every k + l <= top

    def mat(self, k: int, l: int) -> Matrix:
        return self.mats[k, l]


def compute_vkl(r: RMatrix, top: int) -> VTable:
    """Expand (1 - R(-w)^T R(-z)) / (z + w) as exact matrix power series.

    The numerator vanishes at z = -w by the symplectic condition, so the
    division is exact; if it is not, the input was not symplectic.  For a
    truncated R only k + l <= L - 1 is certified; an exact R yields the whole
    (finite) table.
    """
    n = r.n
    if not r.exact and top > r.order - 1:
        raise DatumError(
            f"V_(k,l) certified only for k+l <= {r.order - 1}; requested {top}"
        )
    a_top = top + 1  # numerator degrees needed (a truncated R has them all)

    def n_ab(a: int, b: int) -> Matrix:
        base = identity(n) if (a == 0 and b == 0) else zeros(n)
        sgn = -1 if (a + b) % 2 == 0 else 1
        return mat_add(base, mat_scale(sgn, mat_mul(transpose(r.mat(a)), r.mat(b))))

    # N_{a,b} = V_{a,b-1} + V_{a-1,b}; solve row by row in a.  Every
    # k + l <= top is stored.
    v: dict[tuple[int, int], Matrix] = {}
    for a in range(0, a_top + 1):
        for b in range(0, a_top + 1 - a):
            if a == 0 and b == 0:
                if not mat_eq(n_ab(0, 0), zeros(n)):
                    raise DatumError("numerator has a constant term; R_0 != 1?")
                continue
            if b == 0:
                # coefficient of w^a z^0: equals V_{a-1,0}
                if not mat_eq(n_ab(a, 0), v.get((a - 1, 0), zeros(n))):
                    raise DatumError(
                        f"numerator not divisible by z+w at w^{a}: symplectic condition broken"
                    )
                continue
            v[(a, b - 1)] = mat_sub(n_ab(a, b), v.get((a - 1, b), zeros(n)))

    for (k, l), m in sorted(v.items()):
        if not mat_eq(m, transpose(v[(l, k)])):
            raise DatumError(f"V_({k},{l}) != V_({l},{k})^T; symplectic condition broken")
    frozen = {kl: tuple(tuple(row) for row in m) for kl, m in v.items()}
    return VTable(mats=frozen)


def double_factorial(n: int) -> int:
    """(2k-1)!! style odd double factorial; defined as 1 for n in {-1, 0}."""
    if n <= 0:
        return 1
    out = 1
    while n > 0:
        out *= n
        n -= 2
    return out

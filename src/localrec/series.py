"""Sparse multivariate Laurent forms over exact rationals, with truncation windows.

Every quantity in this package is a finite Laurent expansion in local branch
variables ``s_j`` attached to the double cover ``lambda = u_j + s_j**2 / 2``.
A :class:`MultiForm` stores such an expansion together with

* a form degree per variable (the number of ``ds`` factors carried, from -1
  for kernel denominators up to 2 for the symmetric square ``dlambda.dlambda``),
* a per-variable *window* ``[lo, hi]`` recording which coefficients are
  certified.

Window semantics (the propagation rule used throughout):

* a coefficient at exponent tuple ``E`` is certified exact whenever
  ``E[v] <= hi[v]`` for every variable; unstored certified coefficients are 0;
* ``lo[v]`` is a support bound: within the certified region nothing lives
  below ``lo``; it exists so that products can propagate ``hi`` honestly;
* coefficients with some ``E[v] > hi[v]`` are unknown, never zero.  Truncated
  input series (the R-matrix) make the high-order tail untrustworthy, and the
  window is what stops a silent truncation error from looking like a result.

Addition takes ``lo = min``, ``hi = min``; :func:`sum_forms` applies that rule
to many summands in one pass.  Multiplication takes
``lo = a.lo + b.lo`` and ``hi = min(a.hi + b.lo, b.hi + a.lo)`` per variable:
an unknown coefficient of one factor can first contaminate the product at its
own exponent plus the other factor's support bound.  This rule is sound as
long as at most one variable is finitely windowed in both factors at once
(checked at runtime); every product formed by this package satisfies it.
The sentinel ``INF`` marks an unbounded side (``hi = INF``: exact in that
direction; ``lo = -INF``: no support bound).  Bound sums saturate at +-INF,
an exact factor spreads no unknown coefficient (its term of the hi rule is
INF), and ``INF + -INF`` is refused.

Products and sums run on integers: the coefficients of each factor (or of
all summands) are put over one common denominator
(:func:`common_denominator`), the numerators are multiplied and summed as
integers, and each output term builds one Fraction.  A branch residue reads
only the ``v**-1`` slice of an integrand, so :func:`residue_of_product`
gives ``(a * b).residue_half_loop(v)`` without forming ``a * b``: under the
product's windows and degrees it pairs each term of ``a`` only with the terms
of ``b`` that land on ``v**-1``.  It checks single valuedness on the factors
(each of definite reflection parity in ``v``, the parities summing to odd),
which implies the residue's check on every product term;
:meth:`MultiForm.residue_half_loop` is the case of a constant second factor.

All values are immutable after construction and all operations are pure, so
forms may be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, le
from typing import Iterable, Mapping

Rat = Fraction

#: Window sentinel meaning "certified at every exponent in this direction".
INF = 10**9


class SeriesError(Exception):
    """Base class for exact-series failures."""


class WindowError(SeriesError):
    """A coefficient outside the certified window was required."""


class DegreeError(SeriesError):
    """Form degrees or variable sets are incompatible."""


class MonodromyError(SeriesError):
    """An integrand fed to a branch residue is not single valued."""


class Var:
    """A local expansion variable tagged with the branch point it lives at.

    Variables order by ``key``: the name with any trailing integer compared
    as a number, so slots ``x2`` < ``x10`` keep their index order.
    """

    __slots__ = ("name", "branch", "key")

    def __init__(self, name: str, branch: int = 1):
        self.name = name
        self.branch = branch
        stem = name.rstrip("0123456789")
        self.key = (stem, int(name[len(stem):]) if stem != name else -1, name)

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.branch})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Var)
            and self.name == other.name
            and self.branch == other.branch
        )

    def __hash__(self) -> int:
        return hash((self.name, self.branch))

    def __lt__(self, other: "Var") -> bool:
        return self.key < other.key


def _wadd(a: int, b: int) -> int:
    """Add window bounds; the sentinels +-INF absorb every finite bound."""
    if a >= INF or b >= INF:
        if a <= -INF or b <= -INF:
            raise SeriesError("window bounds INF and -INF do not add")
        return INF
    if a <= -INF or b <= -INF:
        return -INF
    return a + b


def _product_window(la: int, ha: int, lb: int, hb: int) -> tuple[int, int]:
    """``(lo, hi)`` of a product in one variable (rule in the module docstring).

    An exact factor (``hi = INF``) has no unknown coefficient to spread, so
    its term of the hi rule is INF whatever the other factor's support bound.
    """
    return _wadd(la, lb), min(
        INF if ha >= INF else _wadd(ha, lb), INF if hb >= INF else _wadd(hb, la)
    )


class MultiForm:
    """Sparse Laurent form: exponent tuples -> rationals, plus degrees and windows.

    Instances are immutable; arithmetic returns fresh objects.  Variables are
    kept sorted by ``Var.key`` and exponent tuples follow that order, which makes
    iteration (and serialized output) deterministic.
    """

    __slots__ = ("vars", "degs", "lo", "hi", "coeffs")

    def __init__(
        self,
        vars: Iterable[Var],
        degs: Iterable[int],
        coeffs: Mapping[tuple, Rat | int],
        lo: Iterable[int],
        hi: Iterable[int],
    ):
        vs = tuple(vars)
        dg = tuple(degs)
        lo_t = tuple(lo)
        hi_t = tuple(hi)
        if not (len(vs) == len(dg) == len(lo_t) == len(hi_t)):
            raise DegreeError("vars, degs and windows must have equal length")
        names = [v.name for v in vs]
        if len(set(names)) != len(names):
            raise DegreeError(f"duplicate variable names: {names}")
        order = sorted(range(len(vs)), key=lambda i: vs[i].key)
        if order == list(range(len(vs))):  # already sorted: no re-permutation
            order = None
            self.vars, self.degs, self.lo, self.hi = vs, dg, lo_t, hi_t
        else:
            self.vars = tuple(vs[i] for i in order)
            self.degs = tuple(dg[i] for i in order)
            self.lo = tuple(lo_t[i] for i in order)
            self.hi = tuple(hi_t[i] for i in order)
        for d in self.degs:
            if d < -1 or d > 2:
                raise DegreeError(f"form degree {d} outside [-1, 2]")
        clean: dict[tuple, Rat] = {}
        for exps, c in coeffs.items():
            if type(c) is not Fraction:
                c = Rat(c)
            if c == 0:
                continue
            e = tuple(exps) if order is None else tuple(exps[i] for i in order)
            if not (all(map(le, self.lo, e)) and all(map(le, e, self.hi))):
                raise WindowError(f"exponent {e} outside window")
            clean[e] = c
        self.coeffs = clean

    # -- basic queries ----------------------------------------------------

    def index_of(self, v: Var) -> int:
        try:
            return self.vars.index(v)
        except ValueError:
            raise DegreeError(f"{v!r} not a variable of this form") from None

    def lo_of(self, v: Var) -> int:
        """The support bound in ``v``."""
        return self.lo[self.index_of(v)]

    def coefficient(self, exps: tuple) -> Rat:
        """Certified coefficient at an exponent tuple (0 if absent)."""
        if len(exps) != len(self.vars):
            raise DegreeError("exponent tuple has wrong length")
        for x, h in zip(exps, self.hi):
            if x > h:
                raise WindowError(f"coefficient at {exps} not certified")
        return self.coeffs.get(tuple(exps), Rat(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        """Deterministic (exponents, coefficient) iteration."""
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        names = ",".join(f"{v.name}@{v.branch}" for v in self.vars)
        return f"MultiForm({names}; degs={self.degs}; {len(self.coeffs)} terms)"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiForm)
            and self.vars == other.vars
            and self.degs == other.degs
            and self.lo == other.lo
            and self.hi == other.hi
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.vars, self.degs, self.lo, self.hi, tuple(self.items())))

    # -- ring operations --------------------------------------------------

    def __neg__(self) -> "MultiForm":
        return MultiForm(
            self.vars, self.degs, {e: -c for e, c in self.coeffs.items()}, self.lo, self.hi
        )

    def __add__(self, other: "MultiForm") -> "MultiForm":
        if not isinstance(other, MultiForm):
            return NotImplemented
        return sum_forms((self, other))

    def __sub__(self, other: "MultiForm") -> "MultiForm":
        return self + (-other)

    def scale(self, c: Rat | int) -> "MultiForm":
        c = Rat(c)
        return MultiForm(
            self.vars, self.degs, {e: c * v for e, v in self.coeffs.items()}, self.lo, self.hi
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiForm):
            return NotImplemented
        return _mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- form-specific operations ------------------------------------------

    def reflect(self, v: Var) -> "MultiForm":
        """Deck transformation s -> -s of one branch variable.

        Each ``ds`` factor contributes a sign along with the exponent, so a
        coefficient at exponent e flips by (-1)**(e + deg).
        """
        i = self.index_of(v)
        d = self.degs[i]
        out = {}
        for e, c in self.coeffs.items():
            out[e] = -c if (e[i] + d) % 2 else c
        return MultiForm(self.vars, self.degs, out, self.lo, self.hi)

    def check_definite_parity(self, v: Var) -> int | None:
        """The parity of the exponent in ``v`` that every stored term shares.

        Raises MonodromyError unless ``reflect(v)`` is plus or minus ``self``:
        the stored terms must agree in the parity of their exponent in ``v``
        (the degree adds the same sign to every term).  None for no terms.
        """
        i = self.index_of(v)
        first = None
        for e in self.coeffs:
            if first is None:
                first = e
            elif (e[i] - first[i]) % 2:
                raise MonodromyError(
                    f"no definite reflection parity in {v.name}: "
                    f"terms at {first} and {e} differ"
                )
        return None if first is None else first[i] % 2

    def residue_half_loop(self, v: Var) -> "MultiForm":
        """Residue in lambda at the branch point of ``v``.

        One lambda-loop around the branch point lifts to half an s-loop on the
        double cover, hence the factor 1/2 on the s**-1 coefficient.  The
        integrand must carry exactly one ds factor, must be certified at
        exponent -1, and must be invariant under :meth:`reflect` (otherwise it
        is not single valued in lambda and the residue is meaningless).  The
        rules are those of :func:`residue_of_product`, with the constant 1 as
        the second factor.
        """
        return residue_of_product(self, MultiForm((), (), {(): 1}, (), ()), v)

    def cap_hi(self, v: Var, new_hi: int) -> "MultiForm":
        """Shrink the certified window of ``v`` (used after truncating a sum)."""
        i = self.index_of(v)
        if new_hi >= self.hi[i]:
            return self
        hi = list(self.hi)
        hi[i] = new_hi
        out = {e: c for e, c in self.coeffs.items() if e[i] <= new_hi}
        return MultiForm(self.vars, self.degs, out, self.lo, tuple(hi))

    def rename(self, mapping: Mapping[str, Var]) -> "MultiForm":
        """Rename (and possibly re-brand) variables; exponents follow along."""
        new_vars = tuple(mapping.get(v.name, v) for v in self.vars)
        perm = sorted(range(len(new_vars)), key=lambda i: new_vars[i].key)
        return MultiForm(
            tuple(new_vars[i] for i in perm),
            tuple(self.degs[i] for i in perm),
            {tuple(e[i] for i in perm): c for e, c in self.coeffs.items()},
            tuple(self.lo[i] for i in perm),
            tuple(self.hi[i] for i in perm),
        )

    def merge_diagonal(self, v1: Var, v2: Var, target: Var) -> "MultiForm":
        """Evaluate two variables on the diagonal: substitute both by ``target``.

        Exponents and degrees add; the window follows the multiplication rule
        since the merged coefficient is a convolution of the two slots.
        """
        i1, i2 = self.index_of(v1), self.index_of(v2)
        if v1.branch != v2.branch:
            raise DegreeError("diagonal merge requires variables at the same branch")
        keep = [j for j in range(len(self.vars)) if j not in (i1, i2)]
        new_vars = tuple(self.vars[j] for j in keep) + (target,)
        new_degs = tuple(self.degs[j] for j in keep) + (self.degs[i1] + self.degs[i2],)
        lo_m, hi_m = _product_window(self.lo[i1], self.hi[i1], self.lo[i2], self.hi[i2])
        lo = tuple(self.lo[j] for j in keep) + (lo_m,)
        hi = tuple(self.hi[j] for j in keep) + (hi_m,)
        out: dict[tuple, Rat] = {}
        top = hi[-1]
        for e, c in self.coeffs.items():
            m = e[i1] + e[i2]
            if m > top:
                continue
            key = tuple(e[j] for j in keep) + (m,)
            out[key] = out.get(key, Rat(0)) + c
        return MultiForm(new_vars, new_degs, out, lo, hi)


def sum_forms(forms: Iterable[MultiForm]) -> MultiForm:
    """The sum of one or more forms, in a single pass.

    Equal to the left fold of ``+``: ``lo = min`` and ``hi = min`` over all
    summands, and a term counts only where every summand is certified.
    """
    forms = list(forms)
    if not forms:
        raise DegreeError("sum_forms needs at least one form")
    first = forms[0]
    for f in forms[1:]:
        if f.vars != first.vars or f.degs != first.degs:
            raise DegreeError("sum requires identical variables and degrees")
    lo = tuple(map(min, zip(*(f.lo for f in forms))))
    hi = tuple(map(min, zip(*(f.hi for f in forms))))
    den = lcm(*(c.denominator for f in forms for c in f.coeffs.values()))
    out: dict[tuple, int] = {}
    get = out.get
    for f in forms:
        inside = f.hi == hi  # every stored term lies inside the common window
        for e, c in f.coeffs.items():
            if inside or all(map(le, e, hi)):
                out[e] = get(e, 0) + c.numerator * (den // c.denominator)
    coeffs = {e: Fraction(c, den) for e, c in out.items() if c}
    return MultiForm(first.vars, first.degs, coeffs, lo, hi)


def capped_product(a: MultiForm, b: MultiForm, v: Var, top: int) -> MultiForm:
    """``a * b`` built only up to exponent ``top`` in ``v``.

    Each factor is capped first, at ``top`` minus the other factor's support
    bound in ``v``: a product term at ``v <= top`` combines only terms inside
    those caps, so its coefficient is that of the full product.  The window
    in ``v`` is the full product's, capped at ``top``; the other windows are
    unchanged.
    """
    return a.cap_hi(v, top - b.lo_of(v)) * b.cap_hi(v, top - a.lo_of(v))


def common_denominator(values: Mapping) -> tuple[int, dict]:
    """A common denominator of rational ``values`` and the numerators over it."""
    den = lcm(*(c.denominator for c in values.values()))
    return den, {key: c.numerator * (den // c.denominator) for key, c in values.items()}


def _product_frame(a: MultiForm, b: MultiForm):
    """Variables, slot positions, degrees and windows of ``a * b``.

    ``pa[i]`` is the position of the i-th product variable in ``a``, or None:
    then ``a`` is exactly constant in that direction (exponent 0, degree 0,
    window [0, INF]); likewise ``pb``.
    """
    union: dict[str, Var] = {}
    for v in a.vars + b.vars:
        seen = union.get(v.name)
        if seen is not None and seen.branch != v.branch:
            raise DegreeError(f"variable {v.name} used at two branches")
        union[v.name] = v
    vs = tuple(sorted(union.values()))
    pa = [a.vars.index(v) if v in a.vars else None for v in vs]
    pb = [b.vars.index(v) if v in b.vars else None for v in vs]

    def lift(f: MultiForm, pos):
        return (
            [f.degs[p] if p is not None else 0 for p in pos],
            [f.lo[p] if p is not None else 0 for p in pos],
            [f.hi[p] if p is not None else INF for p in pos],
        )

    da, la, ha = lift(a, pa)
    db, lb, hb = lift(b, pb)
    if sum(1 for x, y in zip(ha, hb) if x < INF and y < INF) > 1:
        raise SeriesError(
            "product of two truncated expansions sharing several variables; "
            "window propagation would be unsound"
        )
    degs = tuple(x + y for x, y in zip(da, db))
    for d in degs:
        if d < -1 or d > 2:
            raise DegreeError(f"resulting form degree {d} outside [-1, 2]")
    windows = [_product_window(*w) for w in zip(la, ha, lb, hb)]
    return vs, pa, pb, degs, tuple(w[0] for w in windows), tuple(w[1] for w in windows)


def _lifted_terms(f: MultiForm, pos) -> tuple[int, list[tuple[tuple, int]]]:
    """``f``'s common denominator, and its terms as (exponents at the slots
    ``pos``, integer numerator); a slot of None holds exponent 0."""
    den, numerators = common_denominator(f.coeffs)
    if pos == list(range(len(f.vars))):
        return den, list(numerators.items())
    return den, [
        (tuple(e[p] if p is not None else 0 for p in pos), c)
        for e, c in numerators.items()
    ]


def _mul(a: MultiForm, b: MultiForm) -> MultiForm:
    """Cauchy product with window propagation (rule in the module docstring).

    Numerators are multiplied and summed as integers over the factors'
    common denominators; each output term builds one Fraction.
    """
    vs, pa, pb, degs, lo, hi = _product_frame(a, b)
    da, as_ = _lifted_terms(a, pa)
    db, bs = _lifted_terms(b, pb)
    out: dict[tuple, int] = {}
    get = out.get
    for ea, ca in as_:
        for eb, cb in bs:
            e = tuple(map(add, ea, eb))
            if all(map(le, e, hi)):
                out[e] = get(e, 0) + ca * cb
    den = da * db
    return MultiForm(vs, degs, {e: Fraction(c, den) for e, c in out.items() if c}, lo, hi)


def residue_of_product(a: MultiForm, b: MultiForm, v: Var) -> MultiForm:
    """``(a * b).residue_half_loop(v)``, forming only the product's slice at v^-1.

    The variables, degrees and windows are those of ``a * b`` (the same
    helper), and the residue's degree and window rules are checked on them.
    ``b``'s terms are grouped by their exponent in ``v``, and each term of
    ``a`` meets only the group at ``-1`` minus its own exponent; the products
    are summed as integers over the factors' common denominators.  Single
    valuedness is checked on the factors: each must have a definite
    reflection parity in ``v`` (a factor without ``v`` is even), and the two
    parities must sum to odd.  Then every product term is odd in ``v``, which
    is what :meth:`MultiForm.residue_half_loop` requires of them.
    """
    vs, pa, pb, degs, lo, hi = _product_frame(a, b)
    if v not in vs:
        raise DegreeError(f"{v!r} not a variable of this form")
    i = vs.index(v)
    if degs[i] != 1:
        raise DegreeError(f"residue needs degree 1 in {v.name}, got {degs[i]}")
    if hi[i] < -1:
        raise WindowError(
            f"window of {v.name} tops out at {hi[i]}, cannot certify the pole slice"
        )
    parities = [
        0 if p is None else f.check_definite_parity(v)
        for f, p in ((a, pa[i]), (b, pb[i]))
        if f.coeffs
    ]
    if len(parities) == 2 and sum(parities) % 2 == 0:
        raise MonodromyError(
            f"integrand not reflection invariant in {v.name}: "
            f"both factors have exponents of parity {parities[0]}"
        )
    keep = [j for j in range(len(vs)) if j != i]
    hi_k = tuple(hi[j] for j in keep)
    da, as_ = _lifted_terms(a, [pa[i]] + [pa[j] for j in keep])
    db, bs = _lifted_terms(b, [pb[i]] + [pb[j] for j in keep])
    groups: dict[int, list] = {}
    for e, c in bs:
        groups.setdefault(e[0], []).append((e[1:], c))
    out: dict[tuple, int] = {}
    get = out.get
    for ea, ca in as_:
        rest = ea[1:]
        for eb, cb in groups.get(-1 - ea[0], ()):
            e = tuple(map(add, rest, eb))
            if all(map(le, e, hi_k)):
                out[e] = get(e, 0) + ca * cb
    den = 2 * da * db
    return MultiForm(
        tuple(vs[j] for j in keep),
        tuple(degs[j] for j in keep),
        {e: Fraction(c, den) for e, c in out.items() if c},
        tuple(lo[j] for j in keep),
        hi_k,
    )


# -- constructors ----------------------------------------------------------


def monomial(v: Var, exp: int, coeff: Rat | int = 1, deg: int = 0) -> MultiForm:
    """Exact single-term form ``coeff * v**exp`` with ``deg`` ds factors."""
    return MultiForm((v,), (deg,), {(exp,): Rat(coeff)}, (exp,), (INF,))


def d_unit(v: Var) -> MultiForm:
    """The bare differential factor attached to ``v`` (exponent 0, degree 1)."""
    return MultiForm((v,), (1,), {(0,): Rat(1)}, (0,), (INF,))


def zero_form(vars: Iterable[Var], degs: Iterable[int]) -> MultiForm:
    vs = tuple(vars)
    return MultiForm(vs, tuple(degs), {}, (0,) * len(vs), (INF,) * len(vs))


def laurent(v: Var, terms: Mapping[int, Rat | int], deg: int = 0) -> MultiForm:
    """Exact finite Laurent polynomial in one variable."""
    exps = list(terms) or [0]
    return MultiForm(
        (v,), (deg,), {(e,): Rat(c) for e, c in terms.items()}, (min(exps),), (INF,)
    )


def geometric_expand(m: int, r: Var, s: Var, s_max: int) -> MultiForm:
    """Annulus expansion of 1/(r - s)**m in the region |s| < |r|.

    Sum over k >= 0 of C(m-1+k, m-1) s**k r**(-m-k), truncated at s**s_max.
    The r window reaches down to the deepest materialized pole; above -m the
    true coefficients vanish identically, so the r window is open upward.
    """
    if m < 1:
        raise SeriesError("geometric_expand needs a positive pole order")
    if s_max < 0:
        raise WindowError("empty s window")
    coeffs: dict[tuple, Rat] = {}
    c = Rat(1)
    for k in range(s_max + 1):
        # C(m-1+k, m-1), built incrementally
        if k > 0:
            c = c * (m - 1 + k) / k
        coeffs[(-m - k, k)] = c
    f = MultiForm(
        (r, s), (0, 0), coeffs, (-m - s_max, 0), (INF, s_max)
    )
    return f


def invert(f: MultiForm, v: Var, order: int | None = None) -> MultiForm:
    """Exact reciprocal of a single-variable expansion with invertible lead.

    ``order`` is the number of certified corrections past the leading term; it
    defaults to everything the window of ``f`` supports and is mandatory when
    ``f`` is an exact polynomial (whose reciprocal is an infinite series).
    The result valuation is minus the input valuation, and the input must
    actually have a nonzero coefficient there.
    """
    if f.vars != (v,):
        raise DegreeError("invert expects a form in exactly the given variable")
    if f.is_zero():
        raise SeriesError("cannot invert the zero series")
    val = min(e[0] for e in f.coeffs)
    lead = f.coeffs[(val,)]
    max_order = f.hi[0] - val if f.hi[0] < INF else None
    if order is None:
        if max_order is None:
            raise WindowError("invert of an exact polynomial needs an explicit order")
        order = max_order
    elif max_order is not None and order > max_order:
        raise WindowError(
            f"requested {order} reciprocal terms, window certifies only {max_order}"
        )
    g: dict[int, Rat] = {-val: 1 / lead}
    for t in range(1, order + 1):
        acc = Rat(0)
        for i in range(1, t + 1):
            ci = f.coeffs.get((val + i,))
            if ci:
                gj = g.get(-val + t - i)
                if gj:
                    acc += ci * gj
        if acc:
            g[-val + t] = -acc / lead
    out = {(e,): c for e, c in g.items() if c != 0}
    return MultiForm((v,), (-f.degs[0],), out, (-val,), (-val + order,))


def agreement_mismatch(a: MultiForm, b: MultiForm):
    """First disagreement of two forms on their common certified window.

    Returns None when they agree, else ``(exponents, value_a, value_b)``.
    Variables and degrees must match; windows may differ.
    """
    if a.vars != b.vars or a.degs != b.degs:
        raise DegreeError("cannot compare forms over different variables/degrees")
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    keys = set(a.coeffs) | set(b.coeffs)
    for e in sorted(keys):
        if all(x <= h for x, h in zip(e, hi)):
            va = a.coeffs.get(e, Rat(0))
            vb = b.coeffs.get(e, Rat(0))
            if va != vb:
                return e, va, vb
    return None

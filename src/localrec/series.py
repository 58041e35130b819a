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
INF), and ``INF + -INF`` is refused.  So is a sum of finite bounds that
reaches +-INF, and :meth:`MultiForm.from_numerators` refuses an exponent of
magnitude ``INF`` or more, so no real bound or exponent reads as a sentinel.

Stored representation: a form holds integer numerators ``nums`` (exponent
tuple -> nonzero int) over one denominator ``den > 0``, kept canonical with
``gcd(den, *nums) == 1``, so equal forms have equal ``(den, nums)``; this is
the layout of FLINT's ``fmpq_poly``.  Every operation runs on the integers:
a product multiplies numerators over ``da * db``, a sum scales each
summand's numerators to the lcm of the denominators, and a comparison
checks ``a * db == b * da``.  One builder (:meth:`MultiForm.from_numerators`,
which the public constructor calls too) drops zero terms, checks every term
against the window and divides out the gcd.  Rationals appear only at the
edges: :attr:`MultiForm.coeffs`, :meth:`MultiForm.coefficient` and
:meth:`MultiForm.items` give reduced Fractions, built on each access.

A branch residue reads only the ``v**-1`` slice of an integrand, and only
the terms of its second factor up to some cap in ``v``; a mode sum of
period products is certified up to a cap.  Two functions serve them
without building forms that would be summed and thrown away:

* :func:`capped_sum_of_products` builds a sum of products ``m * f1 * f2``
  and single forms only up to ``v <= top``, in one integer accumulator.
  The caps shrink each factor's window in ``v`` and filter its terms, no
  pair of terms past the cap in ``v`` is formed, and no capped form,
  product or scaled form is built.  With a tied block of variables, each
  piece stands for its orbit over the ways to deal the block to its two
  factors, whose terms are symmetric over their shares:
  only terms non-decreasing on their share are paired (a factor may hold
  every order, as the merged loop piece does), the accumulator
  holds block-sorted exponents only, each pair weighted by the product rule
  of augmented monomial symmetric functions, and each tied slot's window is
  the minimum over the block.  :func:`expand_tied` writes a block-sorted
  form out at every distinct arrangement.  Its products and :func:`_mul`
  share one product loop, :func:`_add_products`, and the plain Cauchy
  product is its empty tie: each factor's terms form one group, and every
  pair meets at its own exponents with no extra weight.
* :func:`residue_slice` gives the v^-1 slice of ``a * b``, halved, without
  forming ``a * b``.  When neither factor holds a slot other than ``v`` (a
  period pairing), the slice is taken before the product's frame, on the
  one window in ``v``: it is one number, the sum of ``a[e] * b[-1 - e]``
  over ``2 * da * db``, after the same refusals in the same order.
  Otherwise it is a grouped contraction that pairs only the terms whose
  ``v`` exponents sum to -1 and tests the window once per pair of groups.
  Single valuedness is checked on the factors.  The slice is a
  :class:`RawForm`, not normalized: :meth:`MultiForm.residue_half_loop`
  normalizes one (of ``self`` and ``times``, or of ``self`` and the
  constant 1), and :func:`sum_raw` sums several under the sum rule, so
  that a sum of residues is normalized once.

Relabelled operands: :func:`_relabelled` names a form's slots anew without
copying a term, keeping the stored slot order, so its variables need not be
sorted.  :func:`_product_frame` and :func:`_lifted_terms`, and through them
:func:`capped_sum_of_products`, :func:`residue_slice` and
:meth:`MultiForm.merge_diagonal`, read slots by position and accept it as
they accept a renamed form; each builds its result through
:meth:`MultiForm.from_numerators`, which sorts the variables, so the result
equals the one for the renamed operand and the exponents are permuted once,
where the result's terms are built.  No other operation may be handed a
relabelled form.  :func:`_cut_terms` gives the same kind of operand holding
only the terms at or below a cap in some slots, with the windows kept: the
results built from it are exact up to the caps.  A loop child built only up
to its caps is such an operand as it stands, with the full entry's windows
(the loop child's cap in ``recursion``).

All values are immutable after construction and all operations are pure, so
forms may be shared freely across threads.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm, prod
from operator import add, itemgetter, le, sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

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


class ConsistencyError(SeriesError):
    """A computed object violates a structural invariant (a math bug)."""


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
    """Add window bounds; the sentinels +-INF absorb every finite bound.

    A sum of finite bounds that reaches a sentinel is refused: it would
    read as "certified at every exponent".
    """
    if a >= INF or b >= INF:
        if a <= -INF or b <= -INF:
            raise SeriesError("window bounds INF and -INF do not add")
        return INF
    if a <= -INF or b <= -INF:
        return -INF
    s = a + b
    if -INF < s < INF:
        return s
    raise SeriesError(f"window bounds {a} and {b} add up to the sentinel INF")


def _product_window(la: int, ha: int, lb: int, hb: int) -> tuple[int, int]:
    """``(lo, hi)`` of a product in one variable (rule in the module docstring).

    An exact factor (``hi = INF``) has no unknown coefficient to spread, so
    its term of the hi rule is INF whatever the other factor's support bound.
    """
    return _wadd(la, lb), min(
        INF if ha >= INF else _wadd(ha, lb), INF if hb >= INF else _wadd(hb, la)
    )


def _inside(e: tuple, lo: tuple, hi: tuple) -> bool:
    return all(map(le, lo, e)) and all(map(le, e, hi))


class MultiForm:
    """Sparse Laurent form: integer numerators over one denominator, plus
    degrees and windows.

    ``nums`` maps exponent tuples to nonzero integers and ``den`` is a
    positive integer with ``gcd(den, *nums.values()) == 1``; the coefficient
    at ``e`` is ``nums[e] / den``.  Equal forms therefore have equal
    ``(den, nums)``, and ``==`` and ``hash`` compare integers.  Instances are
    immutable; arithmetic returns fresh objects.  Variables are kept sorted
    by ``Var.key`` and exponent tuples follow that order, which makes
    iteration (and serialized output) deterministic.
    """

    __slots__ = ("vars", "degs", "lo", "hi", "nums", "den")

    def __init__(
        self,
        vars: Iterable[Var],
        degs: Iterable[int],
        coeffs: Mapping[tuple, Rat | int],
        lo: Iterable[int],
        hi: Iterable[int],
    ):
        rats = {
            tuple(e): c if isinstance(c, (int, Fraction)) else Rat(c)
            for e, c in coeffs.items()
        }
        den, nums = common_denominator(rats)
        self._assign(tuple(vars), tuple(degs), nums, den, tuple(lo), tuple(hi))

    @classmethod
    def from_numerators(
        cls,
        vars: Iterable[Var],
        degs: Iterable[int],
        nums: Mapping[tuple, int],
        den: int,
        lo: Iterable[int],
        hi: Iterable[int],
    ) -> "MultiForm":
        """The form with coefficients ``nums[e] / den``.

        It runs every check of the constructor: the variables are sorted,
        zero numerators dropped, each term checked against the window, and
        the result reduced to the canonical form.
        """
        f = object.__new__(cls)
        f._assign(tuple(vars), tuple(degs), nums, den, tuple(lo), tuple(hi))
        return f

    def _assign(self, vs, dg, nums, den, lo, hi) -> None:
        """The one set of checks behind every form, and its canonical form."""
        if not (len(vs) == len(dg) == len(lo) == len(hi)):
            raise DegreeError("vars, degs and windows must have equal length")
        order = sorted(range(len(vs)), key=lambda i: vs[i].key)
        if order == list(range(len(vs))):  # already sorted: no re-permutation
            order = None
        else:
            vs = tuple(vs[i] for i in order)
            dg = tuple(dg[i] for i in order)
            lo = tuple(lo[i] for i in order)
            hi = tuple(hi[i] for i in order)
        for v, w in zip(vs, vs[1:]):
            if v.name == w.name:
                raise DegreeError(f"duplicate variable names: {[v.name for v in vs]}")
        for d in dg:
            if d < -1 or d > 2:
                raise DegreeError(f"form degree {d} outside [-1, 2]")
        if den <= 0:
            raise SeriesError(f"denominator {den} is not positive")
        if order is None:
            clean = {e: c for e, c in nums.items() if c}
        else:
            permute = itemgetter(*order)
            clean = {permute(e): c for e, c in nums.items() if c}
        # every term inside the window and off the sentinels, checked one
        # variable at a time
        for col, l, h in zip(zip(*clean), lo, hi):
            low, high = min(col), max(col)
            if low <= -INF or high >= INF:
                e = min(e for e in clean if any(abs(x) >= INF for x in e))
                raise SeriesError(f"exponent {e} reaches the window sentinel INF")
            if low < l or high > h:
                e = min(e for e in clean if not _inside(e, lo, hi))
                raise WindowError(f"exponent {e} outside window")
        g = gcd(den, *clean.values())
        if g != 1:
            den //= g
            clean = {e: c // g for e, c in clean.items()}
        self.vars, self.degs, self.lo, self.hi = vs, dg, lo, hi
        self.nums, self.den = clean, den

    def _over(self, nums: Mapping[tuple, int], den: int, hi=None) -> "MultiForm":
        """``nums / den`` over this form's variables, degrees and windows."""
        return MultiForm.from_numerators(
            self.vars, self.degs, nums, den, self.lo, self.hi if hi is None else hi
        )

    # -- basic queries ----------------------------------------------------

    def index_of(self, v: Var) -> int:
        try:
            return self.vars.index(v)
        except ValueError:
            raise DegreeError(f"{v!r} not a variable of this form") from None

    def lo_of(self, v: Var) -> int:
        """The support bound in ``v``."""
        return self.lo[self.index_of(v)]

    @property
    def coeffs(self) -> Mapping[tuple, Rat]:
        """Read-only map of the stored terms to reduced Fractions."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.nums.items()})

    def coefficient(self, exps: tuple) -> Rat:
        """Certified coefficient at an exponent tuple (0 if absent)."""
        if len(exps) != len(self.vars):
            raise DegreeError("exponent tuple has wrong length")
        for x, h in zip(exps, self.hi):
            if x > h:
                raise WindowError(f"coefficient at {exps} not certified")
        return Fraction(self.nums.get(tuple(exps), 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def items(self):
        """Deterministic (exponents, coefficient) iteration."""
        den = self.den
        return [(e, Fraction(c, den)) for e, c in sorted(self.nums.items())]

    def __repr__(self) -> str:
        names = ",".join(f"{v.name}@{v.branch}" for v in self.vars)
        return f"MultiForm({names}; degs={self.degs}; {len(self.nums)} terms)"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiForm)
            and self.vars == other.vars
            and self.degs == other.degs
            and self.lo == other.lo
            and self.hi == other.hi
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        terms = frozenset(self.nums.items())
        return hash((self.vars, self.degs, self.lo, self.hi, self.den, terms))

    # -- ring operations --------------------------------------------------

    def __neg__(self) -> "MultiForm":
        return self._over({e: -c for e, c in self.nums.items()}, self.den)

    def __add__(self, other: "MultiForm") -> "MultiForm":
        if not isinstance(other, MultiForm):
            return NotImplemented
        return sum_forms((self, other))

    def __sub__(self, other: "MultiForm") -> "MultiForm":
        return self + (-other)

    def scale(self, c: Rat | int) -> "MultiForm":
        c = Rat(c)
        p = c.numerator
        nums = {e: p * v for e, v in self.nums.items()}
        return self._over(nums, self.den * c.denominator)

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
        return self._over(
            {e: -c if (e[i] + d) % 2 else c for e, c in self.nums.items()}, self.den
        )

    def check_definite_parity(self, v: Var) -> int | None:
        """The parity of the exponent in ``v`` that every stored term shares.

        Raises MonodromyError unless ``reflect(v)`` is plus or minus ``self``:
        the stored terms must agree in the parity of their exponent in ``v``
        (the degree adds the same sign to every term).  None for no terms.
        """
        i = self.index_of(v)
        first = None
        for e in self.nums:
            if first is None:
                first = e
            elif (e[i] - first[i]) % 2:
                raise MonodromyError(
                    f"no definite reflection parity in {v.name}: "
                    f"terms at {first} and {e} differ"
                )
        return None if first is None else first[i] % 2

    def residue_half_loop(self, v: Var, times: "MultiForm | None" = None) -> "MultiForm":
        """Residue in lambda at the branch point of ``v``.

        One lambda-loop around the branch point lifts to half an s-loop on the
        double cover, hence the factor 1/2 on the s**-1 coefficient.  The
        integrand must carry exactly one ds factor, must be certified at
        exponent -1, and must be invariant under :meth:`reflect` (otherwise it
        is not single valued in lambda and the residue is meaningless).

        With ``times``, the integrand is ``self * times``, and only its v^-1
        slice is formed; the degree and window rules then apply to that
        product, and single valuedness is checked on the two factors.  This
        is :func:`residue_slice` of ``self`` and ``times``, normalized;
        ``times`` is the constant 1 when None.
        """
        raw = residue_slice(self, _ONE if times is None else times, v)
        return MultiForm.from_numerators(*raw)

    def times_dlambda(self, v: Var) -> "MultiForm":
        """``self * monomial(v, 1, 1, deg=1)``: the product with dlambda = v dv.

        Taken as a shift: every exponent in ``v``, the degree in ``v`` and
        both window bounds in ``v`` go up by one, the bounds saturating at
        the sentinels as the product rule's do.  ``v`` must be a variable
        of the form.
        """
        i = self.index_of(v)
        lo, hi = _product_window(self.lo[i], self.hi[i], 1, INF)
        return MultiForm.from_numerators(
            self.vars,
            self.degs[:i] + (self.degs[i] + 1,) + self.degs[i + 1 :],
            {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in self.nums.items()},
            self.den,
            self.lo[:i] + (lo,) + self.lo[i + 1 :],
            self.hi[:i] + (hi,) + self.hi[i + 1 :],
        )

    def cap_hi(self, v: Var, new_hi: int) -> "MultiForm":
        """Shrink the certified window of ``v`` (used after truncating a sum)."""
        i = self.index_of(v)
        if new_hi >= self.hi[i]:
            return self
        hi = list(self.hi)
        hi[i] = new_hi
        nums = {e: c for e, c in self.nums.items() if e[i] <= new_hi}
        return self._over(nums, self.den, hi)

    def rename(self, mapping: Mapping[str, Var]) -> "MultiForm":
        """Rename (and possibly re-brand) variables; exponents follow along.

        A mapping that changes no variable returns the form itself.
        """
        vars = tuple(mapping.get(v.name, v) for v in self.vars)
        if vars == self.vars:
            return self
        return MultiForm.from_numerators(
            vars,
            self.degs,
            self.nums,
            self.den,
            self.lo,
            self.hi,
        )

    def merge_diagonal(self, v1: Var, v2: Var, target: Var, top: int | None = None) -> "MultiForm":
        """Evaluate two variables on the diagonal: substitute both by ``target``.

        Exponents and degrees add; the window follows the multiplication rule
        since the merged coefficient is a convolution of the two slots.  With
        ``top``, the merged window is capped there and no term above it is
        built: the result is ``merge_diagonal(v1, v2, target).cap_hi(target, top)``.
        """
        i1, i2 = self.index_of(v1), self.index_of(v2)
        if v1.branch != v2.branch:
            raise DegreeError("diagonal merge requires variables at the same branch")
        n = len(self.vars)
        lo_m, hi_m = _product_window(self.lo[i1], self.hi[i1], self.lo[i2], self.hi[i2])
        if top is not None:
            hi_m = min(hi_m, top)
        # slot n of a widened tuple (e + (merged exponent,)) is the merged slot
        slots = sorted(
            (j for j in range(n + 1) if j not in (i1, i2)),
            key=lambda j: (target if j == n else self.vars[j]).key,
        )
        vs, dg = self.vars + (target,), self.degs + (self.degs[i1] + self.degs[i2],)
        lo, hi = self.lo + (lo_m,), self.hi + (hi_m,)
        pick = _picker(slots)
        out: dict[tuple, int] = {}
        get = out.get
        for e, c in self.nums.items():
            m = e[i1] + e[i2]
            if m > hi_m:
                continue
            key = pick(e + (m,))
            out[key] = get(key, 0) + c
        return MultiForm.from_numerators(
            pick(vs), pick(dg), out, self.den, pick(lo), pick(hi)
        )


#: The exact constant 1: no variables, one term.
_ONE = MultiForm.from_numerators((), (), {(): 1}, 1, (), ())


class RawForm(NamedTuple):
    """A form's fields before normalization: numerators that may hold zeros
    and share a factor with ``den``, and terms not yet checked against the
    window.  ``MultiForm.from_numerators(*raw)`` is the form."""

    vars: tuple
    degs: tuple
    nums: dict
    den: int
    lo: tuple
    hi: tuple


def _relabelled(f: MultiForm, vars: Iterable[Var]) -> MultiForm:
    """``f`` with its slots named ``vars``, kept in ``f``'s own slot order.

    No term is copied and nothing is checked: the result shares ``f``'s
    numerators, degrees and windows, so its variables need not be sorted.
    It is an operand only, for the functions that read slots by position
    (:func:`_product_frame`, :func:`_lifted_terms`,
    :func:`capped_sum_of_products`, :func:`residue_slice` and
    :meth:`MultiForm.merge_diagonal`); each builds its result through
    :meth:`MultiForm.from_numerators`, which sorts the variables.  It equals
    ``f.rename(...)`` up to that order.
    """
    r = object.__new__(MultiForm)
    r.vars, r.degs, r.lo, r.hi, r.nums, r.den = tuple(vars), f.degs, f.lo, f.hi, f.nums, f.den
    return r


def _cut_terms(f: MultiForm, caps: Mapping[Var, int]) -> MultiForm:
    """``f`` holding only its terms at or below ``caps[v]`` in each of its
    variables v that ``caps`` holds, its windows kept.

    The result is exact up to the caps: a coefficient above a cap that is
    inside the window reads as zero though it is not.  It is an operand
    only, like :func:`_relabelled`, for a caller that reads none of those
    coefficients: a product term at or below a cap in a slot held by one
    factor combines only that factor's terms at or below it, so every
    product, residue and merge of such operands is exact up to the caps,
    with the windows of the uncut one.  A cap at or above the window is no
    cut, and ``f`` itself is returned when every cap is.
    """
    cut = [i for i, v in enumerate(f.vars) if v in caps and caps[v] < f.hi[i]]
    if not cut:
        return f
    at, tops = _picker(cut), tuple(caps[f.vars[i]] for i in cut)
    r = _relabelled(f, f.vars)
    r.nums = {e: c for e, c in f.nums.items() if all(map(le, at(e), tops))}
    return r


def sum_forms(forms: Iterable[MultiForm]) -> MultiForm:
    """The sum of one or more forms, in a single pass.

    Equal to the left fold of ``+``: ``lo = min`` and ``hi = min`` over all
    summands, and a term counts only where every summand is certified.  The
    numerators are summed over the lcm of the summands' denominators.  The
    summands may be :class:`RawForm` s, as in :func:`sum_raw`, which are then
    normalized once, in the sum.
    """
    return MultiForm.from_numerators(*sum_raw(forms))


def sum_raw(forms) -> RawForm:
    """The sum of :func:`sum_forms`, not normalized.

    The summands may be forms or :class:`RawForm` s, which are read as the
    forms they give: a zero numerator adds nothing and the denominators'
    lcm is taken as they stand.
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
    den = lcm(*(f.den for f in forms))
    out: dict[tuple, int] = {}
    get = out.get
    for f in forms:
        m = den // f.den
        inside = f.hi == hi  # every stored term lies inside the common window
        for e, c in f.nums.items():
            if inside or all(map(le, e, hi)):
                out[e] = get(e, 0) + c * m
    return RawForm(first.vars, first.degs, out, den, lo, hi)


def common_denominator(values: Mapping) -> tuple[int, dict]:
    """A common denominator of rational ``values`` and the numerators over it."""
    den = lcm(*(c.denominator for c in values.values()))
    return den, {key: c.numerator * (den // c.denominator) for key, c in values.items()}


def _product_frame(
    a: MultiForm, b: MultiForm, ha: tuple | None = None, hb: tuple | None = None
):
    """Variables, slot positions, degrees and windows of ``a * b``.

    ``pa[i]`` is the position of the i-th product variable in ``a``, or None:
    then ``a`` is exactly constant in that direction (exponent 0, degree 0,
    window [0, INF]); likewise ``pb``.  ``ha`` and ``hb`` stand in for the
    factors' ``hi`` when given (a factor capped without building it).
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

    def lift(f: MultiForm, hi, pos):
        return (
            [f.degs[p] if p is not None else 0 for p in pos],
            [f.lo[p] if p is not None else 0 for p in pos],
            [hi[p] if p is not None else INF for p in pos],
        )

    da, la, ha = lift(a, a.hi if ha is None else ha, pa)
    db, lb, hb = lift(b, b.hi if hb is None else hb, pb)
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


def _picker(pos):
    """``e -> tuple(e[p] for p in pos)``, as an itemgetter wherever it gives
    a tuple (it gives a bare entry for one position, and needs one)."""
    if len(pos) > 1:
        return itemgetter(*pos)
    if pos:
        (p,) = pos
        return lambda e: (e[p],)
    return lambda e: ()


def _lifted_terms(f: MultiForm, pos):
    """``f``'s terms as (exponents at the slots ``pos``, numerator); a slot
    of None holds exponent 0."""
    n = len(f.vars)
    if pos == list(range(n)):
        return f.nums.items()
    lift = _picker([n if p is None else p for p in pos])  # index n: a padded 0
    return [(lift(e + (0,)), c) for e, c in f.nums.items()]


def _add_products(
    out: dict, m: int, a_terms, b_terms, hi: tuple, t0=0, shares=((), ()), k=None
) -> None:
    """Add ``m * ca * cb`` at ``ea + eb`` to ``out`` for every pair of terms
    whose exponents sum to within ``hi``: the one product loop.

    The factors are symmetric over their ``shares`` of the tied block of
    slots from ``t0`` on: only terms non-decreasing on their share meet, and
    a pair adds at its exponents with the block sorted, weighted by the
    number of ways to split that sorted block into the two shares.  With no
    shares the block is empty, every pair meets once at its own exponents
    with weight ``m``, and this is the Cauchy product.

    With ``k``, a slot outside the block (the capped variable of
    :func:`capped_sum_of_products`), each group of b's terms is sorted at
    slot k, and a term of a meets only the ones with ``eb[k] <= hi[k] -
    ea[k]``, found by bisection: the pairs it skips are pairs the window
    drops."""
    t1 = t0 + len(shares[0]) + len(shares[1])
    get = out.get
    b_groups = []
    for mu, tb in _by_share(b_terms, shares[1]).items():
        if k is not None:
            tb.sort(key=lambda t: t[0][k])
        b_groups.append((mu, tb, None if k is None else [eb[k] for eb, _ in tb]))
    for lam, ta in _by_share(a_terms, shares[0]).items():
        for mu, tb, at_k in b_groups:
            nu = tuple(sorted(lam + mu))
            if nu and nu[-1] > hi[t0]:  # one window across the block
                continue
            w = m * prod(comb(nu.count(x), lam.count(x)) for x in set(lam))
            # a group of b's terms shares its block, so a's block moved to nu
            # minus it makes every pair's sum hold the sorted block
            shift = tuple(map(sub, nu, tb[0][0][t0:t1]))
            for ea, ca in ta:
                ea = ea[:t0] + shift + ea[t1:]
                ca *= w
                meets = tb if at_k is None else islice(tb, bisect_right(at_k, hi[k] - ea[k]))
                for eb, cb in meets:
                    e = tuple(map(add, ea, eb))
                    if all(map(le, e, hi)):
                        out[e] = get(e, 0) + ca * cb


def _mul(a: MultiForm, b: MultiForm) -> MultiForm:
    """Cauchy product with window propagation (rule in the module docstring).

    Numerators are multiplied and summed as integers over ``a.den * b.den``.
    """
    vs, pa, pb, degs, lo, hi = _product_frame(a, b)
    out: dict[tuple, int] = {}
    _add_products(out, 1, _lifted_terms(a, pa), _lifted_terms(b, pb), hi)
    return MultiForm.from_numerators(vs, degs, out, a.den * b.den, lo, hi)


def _capped(f: MultiForm, i: int | None, top: int) -> tuple:
    """``f.hi`` capped at ``top`` in slot ``i``; no cap when ``i`` is None."""
    hi = f.hi
    if i is not None and top < hi[i]:
        hi = hi[:i] + (top,) + hi[i + 1 :]
    return hi


def _by_share(terms, share) -> dict:
    """The terms whose exponents are non-decreasing on the slots ``share``,
    grouped by those exponents into lists: every term in one group for no
    share."""
    if not share:  # what the loop below gives, in one copy
        terms = list(terms)
        return {(): terms} if terms else {}
    at = _picker(share)
    groups: dict[tuple, list] = {}
    for e, c in terms:
        s = at(e)
        if all(map(le, s, s[1:])):
            groups.setdefault(s, []).append((e, c))
    return groups


def _tied_block(vs: tuple, tied: tuple) -> tuple[int, int]:
    """The slots ``[t0, t1)`` of ``vs`` that hold the ``tied`` variables, in
    order; ``(0, 0)`` for no tied variable."""
    t0 = vs.index(tied[0]) if tied and tied[0] in vs else 0
    if vs[t0 : t0 + len(tied)] != tied:
        raise DegreeError(f"tied variables {[t.name for t in tied]} are not adjacent slots")
    return t0, t0 + len(tied)


def capped_sum_of_products(pieces, v: Var, top: int, tied=()) -> MultiForm:
    """The sum of ``m * f1 * f2`` over ``pieces``, built only up to ``v <= top``.

    Each piece is ``(m, f1, f2)`` with an integer multiplicity ``m``, or
    ``(m, f, None)`` for the single form ``m * f``.  The result equals
    :func:`sum_forms` of the pieces with every factor capped first:
    ``f1.cap_hi(v, top - f2.lo_of(v))``, ``f2.cap_hi(v, top - f1.lo_of(v))``
    and ``f.cap_hi(v, top)``, where a factor without ``v`` is exactly
    constant in ``v`` (support bound 0, as in :func:`_product_frame`) and
    is never capped; a piece in which no factor holds ``v`` is refused.  A
    product term at ``v <= top`` combines only terms inside those caps, so
    its coefficient is that of the full product.  No capped or partial form
    is built: each product's variables, degrees and windows come from
    :func:`_product_frame` on the capped windows (with its degree check and
    its refusal of several truncated shared variables), the caps filter the
    factors' terms, the window of the sum is ``sum_forms``' (``lo = min``,
    ``hi = min``), and every term is added straight into one dict of integer
    numerators over the lcm of the pieces' ``d1 * d2``, the multiplicity
    scaling the numerators.  A term outside the common ``hi`` is dropped,
    and a pair of terms whose exponents in ``v`` sum past it is never
    formed: the product loop meets each term of f1 only with the terms of
    f2 low enough in ``v``.  A single form is the product with the exact
    constant 1, so every piece runs the one product loop.

    The tied block: ``tied`` names variables, other than ``v``, that are
    adjacent slots of the result.  Each factor holds a share of
    them (a variable in both factors is refused), must be symmetric over its
    share, and must have one window across it (else a
    :class:`ConsistencyError` names the share).  A piece then stands for its
    orbit: the sum over every way to deal the block's variables to the two
    factors in shares of the same sizes.  The result is block-sorted: it
    holds only the terms whose exponents are non-decreasing on the block,
    each with the coefficient that the orbits' sum has at every arrangement
    of those exponents (:func:`expand_tied` writes them all out).  Only the
    factors' terms non-decreasing on their share are paired.  A pair with
    shares λ and μ adds ``m * c1 * c2 * prod_x C(m_ν(x), m_λ(x))`` at the
    sorted union ν, ``m_λ(x)`` being the multiplicity of ``x`` in λ: that
    many ways of dealing the slots of one arrangement of ν give λ to the
    first factor (the product rule of augmented monomial symmetric
    functions).  Each tied slot's window is the minimum over the block,
    which is the minimum over the piece's orbit.  No tied variable is the
    empty block, whose one arrangement makes each piece its plain product.
    """
    tied = tuple(tied)
    frames = []  # (vars, degs, lo, hi) of each piece
    products = []  # (m, d1 * d2, f1's terms, f2's terms, their shares) of each piece
    for m, a, b in pieces:
        b = _ONE if b is None else b
        ia, ib = (f.vars.index(v) if v in f.vars else None for f in (a, b))
        if ia is None and ib is None:
            raise DegreeError(f"{v!r} not a variable of this form")
        ha = _capped(a, ia, top - (0 if ib is None else b.lo[ib]))
        hb = _capped(b, ib, top - (0 if ia is None else a.lo[ia]))
        vs, pa, pb, degs, lo, hi = _product_frame(a, b, ha, hb)
        block = range(*_tied_block(vs, tied))
        shares = [k for k in block if pa[k] is not None], [k for k in block if pb[k] is not None]
        if len(shares[0]) + len(shares[1]) > len(block):  # a slot in both shares
            raise DegreeError("a tied variable in both factors of a piece")
        for f, h, pos, share in ((a, ha, pa, shares[0]), (b, hb, pb, shares[1])):
            if len({(f.lo[pos[k]], h[pos[k]]) for k in share}) > 1:
                raise ConsistencyError(
                    f"windows differ across the tied slots "
                    f"{', '.join(vs[k].name for k in share)} of a factor: "
                    f"lo {tuple(f.lo[pos[k]] for k in share)}, "
                    f"hi {tuple(h[pos[k]] for k in share)}"
                )
        frames.append((vs, degs, lo, hi))
        k = vs.index(v)
        lifted = []
        for f, pos, i, h in ((a, pa, ia, ha), (b, pb, ib, hb)):
            terms = _lifted_terms(f, pos)
            if i is not None and h[i] < f.hi[i]:  # capped: drop the terms above
                terms = [(e, c) for e, c in terms if e[k] <= h[i]]
            lifted.append(terms)
        products.append((m, a.den * b.den, *lifted, shares))
    if not frames:
        raise DegreeError("capped_sum_of_products needs at least one piece")
    if any(f[:2] != frames[0][:2] for f in frames):
        raise DegreeError("sum requires identical variables and degrees")
    vs, degs = frames[0][:2]
    lo = tuple(map(min, zip(*(f[2] for f in frames))))
    hi = tuple(map(min, zip(*(f[3] for f in frames))))
    # each tied slot takes the block minimum: taken once over the pieces'
    # minimum, it is the minimum of every piece's block minimum
    t0, t1 = _tied_block(vs, tied)
    lo = lo[:t0] + (min(lo[t0:t1], default=0),) * (t1 - t0) + lo[t1:]
    hi = hi[:t0] + (min(hi[t0:t1], default=0),) * (t1 - t0) + hi[t1:]
    den = lcm(*(p[1] for p in products))
    out: dict[tuple, int] = {}
    for m, d, a_terms, b_terms, shares in products:
        _add_products(out, m * (den // d), a_terms, b_terms, hi, t0, shares, vs.index(v))
    return MultiForm.from_numerators(vs, degs, out, den, lo, hi)


def _distinct_arrangements(block: tuple, memo: dict) -> list[tuple]:
    """Every distinct arrangement of the sorted tuple ``block``, each once, in
    lexicographic order: each distinct value in turn leads, followed by the
    arrangements of the rest, which ``memo`` keeps for the caller's run."""
    arr = memo.get(block)
    if arr is None:
        if len(block) < 2:
            arr = [block]
        else:
            arr = []
            for i, x in enumerate(block):
                if not i or x != block[i - 1]:
                    rest = _distinct_arrangements(block[:i] + block[i + 1 :], memo)
                    arr += [(x,) + r for r in rest]
        memo[block] = arr
    return arr


def expand_tied(form, tied) -> RawForm:
    """A block-sorted form written out in full (:func:`capped_sum_of_products`).

    ``form`` is a form or :class:`RawForm` whose terms are non-decreasing on
    the adjacent slots of the ``tied`` variables; each term is placed at
    every distinct arrangement of its exponents there, with its numerator.
    The arrangements are generated distinct-only, once per sorted block of
    the call.
    """
    t0, t1 = _tied_block(form.vars, tuple(tied))
    memo: dict[tuple, list] = {}
    out: dict[tuple, int] = {}
    for e, c in form.nums.items():
        if c:
            block = e[t0:t1]
            head, tail = e[:t0], e[t1:]
            for x in memo.get(block) or _distinct_arrangements(block, memo):
                out[head + x + tail] = c
    return RawForm(form.vars, form.degs, out, form.den, form.lo, form.hi)


def residue_slice(a: MultiForm, b: MultiForm, v: Var) -> RawForm:
    """The slice ``(a * b).residue_half_loop(v)``, forming only the product's
    v^-1 terms, not normalized; the numerators are multiplied and summed as
    integers over ``2 * a.den * b.den``.

    When neither factor holds a slot other than ``v`` (a period pairing),
    no frame is built: the product's degree in ``v`` is the factors' sum,
    refused outside [-1, 2] as :func:`_product_frame` refuses it, and its
    window in ``v`` is the one :func:`_product_window` gives, a factor
    without ``v`` being the exact constant (degree 0, window [0, INF]).
    Otherwise the variables, degrees and windows are those of ``a * b``
    from that helper.  Then the residue's rules are checked, in order: the
    degree in ``v`` must be 1 and the window must reach v^-1.  Single
    valuedness is checked on the factors: each must have a definite
    reflection parity in ``v`` (a factor without ``v`` is even), and the two
    parities must sum to odd.  Then every product term is odd in ``v``,
    which is what :meth:`MultiForm.residue_half_loop` requires of them.

    With ``v`` alone the slice is the one number ``sum a[e] * b[-1 - e]``.
    Otherwise it is a grouped contraction: each factor's terms are grouped
    by their exponents at ``v`` and at the slots the two factors share, only
    groups whose ``v`` exponents sum to -1 meet, and the window is tested
    once per pair of groups, on the shared slots alone.  At a slot held by
    one factor the other is exactly constant, so the product's window there
    is that factor's own ``hi``, which each of its stored terms already
    satisfies.  One itemgetter places each key in the product's slot order.
    """
    if a.vars + b.vars in ((v,), (v, v)):  # v alone: one window, no frame
        i, deg = None, sum(a.degs + b.degs)
        if not -1 <= deg <= 2:
            raise DegreeError(f"resulting form degree {deg} outside [-1, 2]")
        top = _product_window(*(a.lo + a.hi or (0, INF)), *(b.lo + b.hi or (0, INF)))[1]
    else:
        vs, pa, pb, degs, lo, hi = _product_frame(a, b)
        if v not in vs:
            raise DegreeError(f"{v!r} not a variable of this form")
        i = vs.index(v)
        deg, top = degs[i], hi[i]
    if deg != 1:
        raise DegreeError(f"residue needs degree 1 in {v.name}, got {deg}")
    if top < -1:
        raise WindowError(f"window of {v.name} tops out at {top}, cannot certify the pole slice")
    parities = [f.check_definite_parity(v) if v in f.vars else 0 for f in (a, b) if f.nums]
    if len(parities) == 2 and sum(parities) % 2 == 0:
        raise MonodromyError(
            f"integrand not reflection invariant in {v.name}: "
            f"both factors have exponents of parity {parities[0]}"
        )
    if i is None:  # an exponent tuple e is (x,) or (), and sum(e) its x or 0
        tb = {sum(e): c for e, c in b.nums.items()}
        total = sum(c * tb.get(-1 - sum(e), 0) for e, c in a.nums.items())
        return RawForm((), (), {(): total}, 2 * a.den * b.den, (), ())
    keep = [j for j in range(len(vs)) if j != i]
    shared = [j for j in keep if pa[j] is not None and pb[j] is not None]
    own_a = [j for j in keep if pb[j] is None]
    own_b = [j for j in keep if pa[j] is None]
    hi_s = _picker(shared)(hi)

    def grouped(f: MultiForm, pos, own):
        # v exponent -> shared exponents -> [(own exponents, numerator)]
        at_v = (lambda e: 0) if pos[i] is None else itemgetter(pos[i])
        at_shared = _picker([pos[j] for j in shared])
        at_own = _picker([pos[j] for j in own])
        groups = {}
        for e, c in f.nums.items():
            by_shared = groups.setdefault(at_v(e), {})
            by_shared.setdefault(at_shared(e), []).append((at_own(e), c))
        return groups

    # a key is (a's own exponents, shared sums, b's own exponents), placed
    order = [(own_a + shared + own_b).index(j) for j in keep]
    place = None if order == sorted(order) else _picker(order)
    b_groups = grouped(b, pb, own_b)
    out: dict[tuple, int] = {}
    get = out.get
    for ex, a_groups in grouped(a, pa, own_a).items():
        b_by_shared = b_groups.get(-1 - ex, {})
        for sa, ta in a_groups.items():
            for sb, tb in b_by_shared.items():
                s = tuple(map(add, sa, sb))
                if not all(map(le, s, hi_s)):
                    continue
                for ea, ca in ta:
                    left = ea + s
                    for eb, cb in tb:
                        key = left + eb if place is None else place(left + eb)
                        out[key] = get(key, 0) + ca * cb
    pick = _picker(keep)
    return RawForm(pick(vs), pick(degs), out, 2 * a.den * b.den, pick(lo), pick(hi))


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
    return MultiForm((r, s), (0, 0), coeffs, (-m - s_max, 0), (INF, s_max))


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
    coeffs = f.coeffs
    val = min(e[0] for e in coeffs)
    lead = coeffs[(val,)]
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
            ci = coeffs.get((val + i,))
            if ci:
                gj = g.get(-val + t - i)
                if gj:
                    acc += ci * gj
        if acc:
            g[-val + t] = -acc / lead
    out = {(e,): c for e, c in g.items()}  # every stored c is nonzero
    return MultiForm((v,), (-f.degs[0],), out, (-val,), (-val + order,))


def agreement_mismatch(a: MultiForm, b: MultiForm):
    """First disagreement of two forms on their common certified window.

    Returns None when they agree, else ``(exponents, value_a, value_b)`` for
    the lexicographically first differing exponent tuple, with both values
    as reduced Fractions.  The numerators are compared crosswise
    (``a * b.den`` against ``b * a.den``).  Variables and degrees must match;
    windows may differ.
    """
    if a.vars != b.vars or a.degs != b.degs:
        raise DegreeError("cannot compare forms over different variables/degrees")
    hi = tuple(map(min, a.hi, b.hi))
    na, nb, da, db = a.nums, b.nums, a.den, b.den
    bad = [
        e
        for e in na.keys() | nb.keys()
        if na.get(e, 0) * db != nb.get(e, 0) * da and all(map(le, e, hi))
    ]
    if not bad:
        return None
    e = min(bad)
    return e, Fraction(na.get(e, 0), da), Fraction(nb.get(e, 0), db)

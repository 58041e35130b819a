"""The residue recursion: assembling the n-point form table.

Entries are memoized under sorted branch tuples (the raw keyspace is
factorially redundant by symmetry) and retrieved through the sorting
permutation.  Each stable entry ``omega_{g,n}`` is produced by summing, over
the branch points, the half-loop residue of the kernel against a bracket made
of one loop term and the splitting products, with the two coinciding-argument
conventions hard-coded: a dropped one-point term and the stored diagonal
propagator for the residue-variable pair.

Children are read in place: :meth:`OmegaTable.omega` renames the stored
entry, but the bracket takes each child entry and each two-point seed as the
stored form under new slot names, kept in the stored slot order
(``series._relabelled``), so no term is copied.  The functions that consume
them read slots by position, and every form they build goes through
``MultiForm.from_numerators``, so a relabelled form never reaches the store
or a caller.

One normalization per entry: each branch point's residue is a raw slice
(``series.residue_slice``: numerators, denominator and window).
``_build`` sums the slices in one integer accumulator under the sum rule
(``series.sum_raw``: ``lo = min``, ``hi = min``, a term outside the common
``hi`` dropped), and ``_finalize`` drops the zero terms, checks the pole bound
and evenness, raises the support bound to the pole bound and normalizes once.

The tie rule: in the residue at branch j, the rest legs at the largest
branch N that carry no cap (the loop child's cap, below) are tied when there
are two or more; the sorted branches end with them.
* *No tied leg reaches a child's slot 0.*  A child's legs are y (or ``ya``
  and ``yb`` for the loop child) followed by rest legs in order, and the
  stored entry sorts them stably, so y, at branch j <= N, sorts before every
  leg at N.  An entry is therefore symmetric over its legs at N other than
  slot 0 by construction: its bracket sums over every splitting of the rest
  legs, and each child is, by induction, symmetric over its share of them.
  So every child, seed and loop piece is symmetric over its share of the
  tied legs, and this does not use the exchange of slot 0 with the other
  slots, which :func:`symmetry_check` certifies.  A cap cuts only the leg
  it is on, and no tied leg carries one, so a factor or loop child cut at
  its caps keeps that symmetry.
* *One piece per orbit.*  The splitting ``(g1, mask, c)`` gives its left
  factor genus g1, the untied legs in ``mask`` and the first c tied legs,
  and stands for the sum over every choice of c tied legs.
  ``series.capped_sum_of_products`` sums that orbit at block-sorted
  exponents: two factor terms whose tied exponents λ and μ are
  non-decreasing add ``m * c1 * c2 * prod_v C(m_ν(v), m_λ(v))`` at the
  sorted union ν, the multiplicity being the number of choices that give
  λ to the left factor at any one arrangement of ν.
* *The tied window is the block minimum.*  Over the orbit, a tied slot
  takes the window of the left factor's share when it is dealt there and
  the right one's otherwise.  Each factor has one window across its share
  (the symmetry above, checked: else a ``ConsistencyError`` names the entry
  and the slots), so the minimum over the orbit is the minimum over the
  piece's block at every tied slot.
* *The expansion.*  The kernel holds no tied leg, so the residue of the
  block-sorted bracket is block-sorted, and :func:`capped_slice` writes
  each of its terms out at every distinct arrangement of its tied
  exponents (``series.expand_tied``) before the branch residues are summed.
  ``_finalize``, the store and every reader see the full entry.

A block of fewer than two legs is the empty tie: ``c = 0`` in every
splitting, and each piece is one plain product.  The constraint checker's
pieces are never tied.

The twin rule: the orbit of the splitting ``(g - g1, ~mask, m - c)``, with m
the number of tied legs, is the orbit of ``(g1, mask, c)`` with the two
factors swapped, so the bracket holds one piece per unordered splitting,
from the twin that sorts lower, with multiplicity 2.  The doubling is exact.
Multiplication is commutative, each factor is capped at ``YCAP`` minus the
*other* factor's support bound, and a piece's bound is ``lo(f1) + lo(f2)``.
So the piece of multiplicity 2 has the window and the coefficients of the
two twins' sum, and the kernel depth and the cap (which depend only on the
pieces' bounds) do not change.  A splitting is its own twin only with no
untied leg, ``2 g1 = g`` and ``2 c = m``; it has multiplicity 1.  The entry
itself is never requested as a factor: it is the right factor of the
splitting ``(0, 0, 0)``, whose left factor is the dropped one-point term,
and that splitting sorts below its twin for every stable entry, so neither
is built.

The cap rule: only the y^-1 slice of ``kernel * bracket`` is read, and every
kernel term sits at or above the kernel's support bound in y, so no bracket
term above minus one minus that bound reaches the slice.  The bound is a
constant of the construction: the kernel is the period numerator, whose zero
piece holds its support bound in y at 0, over the one-point form, which
leads with y^2, so it is -2, and the cap is ``YCAP = 1``.  The constraint
weight is built the same way and has the same bound.  :func:`capped_slice`
checks it on every weight it fetches: another bound is a
``ConsistencyError`` naming the entry.  The bracket is handed to
:func:`capped_slice` as a list of pieces, ``(m, f1, f2)`` for
``m * f1 * f2`` and ``(m, f, None)`` for ``m * f``, and the kernel's pole
depth follows from their support bounds in y.  The cap is a filter:
``series.capped_sum_of_products`` caps f1 at ``YCAP - lo(f2)``, f2 at
``YCAP - lo(f1)`` and a single form at YCAP, by shrinking their windows and
dropping their terms above the caps, and sums the bracket in one
accumulator.  A product term at y <= YCAP only combines leg terms inside
those caps, so every coefficient the residue reads is unchanged.  The loop
piece leads the pieces, ``(1, f, None)``: P_0 in y for the (1, 1) entry,
and otherwise the loop child merged onto y by ``merge_diagonal`` with
``top = YCAP``, which caps the merged window there and skips every term
above it.  The merge keeps its terms in every order on the tied legs: the
product loop pairs only the terms of a factor, the merged piece too, that
are non-decreasing on its share of the tied block.  The merge rule gives the
merged piece the support bound ``lo(ya) + lo(yb)``, so the kernel depth is
that of the unmerged child.  A merged term at y <= YCAP combines only terms
at ``ya <= YCAP - lo(yb)`` and ``yb <= YCAP - lo(ya)``, so the merge to the
cap gives what capping both slots before the merge would.  Capping only
narrows a certified window: the residue still refuses when y^-1 is not
certified, and the windows of the other slots stay those of the full
bracket.  The residue is ``series.residue_slice``, which forms only the
y^-1 slice of ``kernel * bracket`` and checks single valuedness on the two
factors: the kernel and the capped bracket must each have a definite
reflection parity in y, of odd sum, so every bracket term up to the cap is
checked whether the slice reads it or not.  The terms above the cap are
covered by the context memo, which checks every form it stores (the seeds,
the kernel, the weights) for a definite reflection parity on its full
window, and by ``_finalize``, which checks every entry.

The loop child's cap: a loop child that is stored is read in place.  One
that is not, met by a request to a cold table, is built only as far as its
merge reads (``correlators`` and ``check`` fill the table in complexity
order, so there every child is stored before its parent).  Its caps are
known before anything is built: ``_finalize`` raises every slot of a
(g - 1, n + 1) entry to the support bound ``-p``, with
``p = pole_bound(g - 1, n + 1)``, so ``ya <= YCAP - lo(yb)`` and
``yb <= YCAP - lo(ya)`` are both ``YCAP + p``.  They keep every term at
``ya + yb <= YCAP``, so the merged piece and its window,
``min(hi_a + lo_b, hi_b + lo_a, YCAP)``, are unchanged.  The child is built
to its caps and kept as built, apart from the store, under (g, sorted
branches, the cap of each slot) in ``OmegaTable._capped``; then its support
bounds in ya and yb are checked to be -p, and a mismatch is a
``ConsistencyError`` naming the entry.
A capped entry is the full entry restricted to its caps.  A cap on the
pivot filters the kernel's x0 terms; a cap on a rest leg filters the terms
of the one factor that holds the leg (``series._cut_terms``) and passes
down into that entry's own loop child.  A product, residue or merge term at
or below a cap combines only factor terms at or below it, and every operand
keeps its full windows, so the summed residues have the full entry's
windows and are exact up to the caps: ``_finalize`` runs every check of the
full entry on its windows.  The capped entry keeps those windows and is
read as an operand exact up to its caps, like a form cut by
``series._cut_terms``, so every one of its terms must lie within them;
``OmegaTable._child`` checks that once per build, and a term above a cap is
a ``ConsistencyError`` naming the child, the slot and the cap.  No tied leg
carries a cap: a capped leg is a loop leg of the entry or of an ancestor,
and loop legs lead their branch in the stable sort, so the uncapped legs at
N trail the capped ones.

The order rule: ``_finalize`` requires each slot of a (g, n) entry to reach
B - pole_bound(g, n), with B the table's ``budget``.  The windows depend only
on the truncation order L and the assembly pattern, never on the values of
R, so the minimal sufficient L is a function of B and (g, n) alone.  (0, 3)
is the kernel's residue against two two-point seeds: its ``x0`` window tops
out at 2L - 1, and its external slots are capped by the seed, expanded to
pole depth 2 floor(B/2) + 2, at 2L - 2 floor(B/2) - 1; the target B - 2 needs
L >= 2 floor(B/2).  (1, 1) is built from P_0 and the kernel alone, capped at
2L - 3; the target B - 4 needs L >= floor(B/2).  Every other entry contains
(0, 3) among its splittings and is no more demanding; the grid test in
``tests/test_recursion.py`` pins this against dry runs on a zero-dressed R.
A shortfall is refused before the entry is built, so one met in
``_finalize`` is a fault of the program.  Exact R data skip the rule.

The table is a logical map with idempotent insertion.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from itertools import permutations
from math import comb, prod
from operator import or_

from .localforms import (
    FormContext,
    propagator_p0,
    recursion_kernel,
    two_point_form,
)
from .report import Report
from .series import (
    ConsistencyError,
    MultiForm,
    RawForm,
    SeriesError,
    Var,
    _cut_terms,
    _relabelled,
    agreement_mismatch,
    capped_sum_of_products,
    expand_tied,
    residue_slice,
    sum_raw,
)


class TruncationOrderError(SeriesError):
    """The R truncation cannot certify the requested object."""

    def __init__(self, message: str, min_order: int | None = None):
        super().__init__(message)
        self.min_order = min_order


_odd = (2).__rmod__  # x -> x % 2


def pole_bound(g: int, n: int) -> int:
    """Maximal pole order per variable of a stable n-point form."""
    return 2 * (3 * g - 2 + n)


#: The cap of every residue bracket in y: the recursion kernel and the
#: constraint weight have support bound ``-1 - YCAP`` in y (the cap rule in
#: the module docstring).
YCAP = 1


def capped_slice(y: Var, p: int, pieces, weight, tied=()) -> RawForm:
    """``Res_y weight * bracket``, with the bracket built only up to
    ``y <= YCAP``, not normalized.

    The bracket is the sum of the ``pieces``, each ``(m, f1, f2)`` for
    ``m * f1 * f2`` or ``(m, f, None)`` for ``m * f``
    (:func:`series.capped_sum_of_products`).  The kernel depth kmax follows
    from the bracket's support bound in y and the pole bound ``p`` of the
    entry; ``weight(kmax)`` fetches the residue weight, whose support bound
    in y must be ``-1 - YCAP`` (else a ``ConsistencyError``).  Every
    coefficient the residue reads is that of the full bracket (the cap rule
    in the module docstring), and only the y^-1 slice of the product is
    formed.  With ``tied`` (the tie rule in the module docstring), each
    piece stands for its orbit over the tied slots, the bracket and its
    residue are block-sorted, and the residue is written out in full.
    """
    # the kernel depth kmax, from the pieces' support bounds in y and p
    bounds = [f1.lo_of(y) + (0 if f2 is None else f2.lo_of(y)) for _, f1, f2 in pieces]
    w = weight(max(-min(bounds) // 2, (p - 2) // 2, 0))
    if w.lo_of(y) != -1 - YCAP:
        raise ConsistencyError(
            f"residue weight has support bound {w.lo_of(y)} in {y.name}, "
            f"the cap rule needs {-1 - YCAP}"
        )
    raw = residue_slice(w, capped_sum_of_products(pieces, y, YCAP, tied), y)
    return expand_tied(raw, tied) if tied else raw


def stable_entries(bound: int) -> list[tuple[int, int]]:
    """All stable (g, n) with 2g - 2 + n <= bound, ordered by complexity."""
    return [(g, c + 2 - 2 * g) for c in range(1, bound + 1) for g in range((c + 1) // 2 + 1)]


@dataclass
class OmegaTable:
    """Memoized table of n-point forms for one datum and R-matrix."""

    ctx: FormContext
    bound: int = 4
    min_budget: int = 0  # extra window request beyond the pole-bound budget
    _store: dict = field(default_factory=dict, repr=False)
    # (g, sorted branches, cap of each slot) -> the entry built to those caps,
    # as built: loop children built only as far as read
    _capped: dict = field(default_factory=dict, repr=False)
    _verdicts: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # the window budget: the deepest pole bound, or more on request
        deepest = max(pole_bound(g, n) for g, n in stable_entries(self.bound))
        self.budget = max(deepest, self.min_budget)

    def hi_target(self, g: int, n: int) -> int:
        # entries feeding later loop terms need headroom above the pole part
        return self.budget - pole_bound(g, n)

    # -- retrieval ----------------------------------------------------------

    def omega(self, g: int, branches, vars: tuple[Var, ...] | None = None) -> MultiForm:
        """The n-point form for an arbitrary branch tuple.

        ``vars`` names the slots (defaults to x0..x(n-1) at the given
        branches); the stored representative is computed for the sorted
        tuple and renamed through the sorting permutation.
        """
        branches = tuple(branches)
        if vars is None:
            vars = tuple(Var(f"x{i}", b) for i, b in enumerate(branches))
        key, names = self._key(g, branches, vars)
        return self._stored(key).rename({f"x{slot}": v for slot, v in enumerate(names)})

    def _child(self, g: int, branches, vars, caps, loop_cap=None) -> MultiForm:
        """The entry (g, branches) with slots named ``vars``, cut at the
        ``caps`` of its legs.

        A stored entry, or a factor (``loop_cap`` None), stored first when
        it is not, is read in place (``series._relabelled``): no term is
        copied.  A loop child that is not stored, its loop legs ``vars[0]``
        and ``vars[1]``, is built only up to ``loop_cap`` on them and the
        caps of its other legs, once per caps, and kept as built apart from
        the store in ``_capped`` (the loop child's cap in the module
        docstring): the operand is exact up to the caps and has the full
        entry's windows, and a term of the build above a cap is a
        ``ConsistencyError``.
        """
        key, names = self._key(g, tuple(branches), vars)
        if loop_cap is None or key in self._store:
            return _cut_terms(_relabelled(self._stored(key), names), caps)
        leg_caps = {**caps, vars[0]: loop_cap, vars[1]: loop_cap}
        ckey = (*key, tuple(leg_caps.get(v) for v in names))
        if ckey not in self._capped:
            f = self._build(*ckey)
            for i, (col, c) in enumerate(zip(zip(*f.nums), ckey[2])):
                if c is not None and max(col) > c:
                    raise ConsistencyError(
                        f"loop child ({g},{key[1]}) reaches {max(col)} in x{i}, above its cap {c}"
                    )
            self._capped[ckey] = f
        return _relabelled(self._capped[ckey], names)

    def _key(self, g: int, branches: tuple, vars) -> tuple[tuple, tuple]:
        """The store key of the entry for ``branches`` and the name of each
        of its slots: slot ``x{s}`` holds the leg named ``vars[order[s]]``,
        where ``order`` sorts the branches."""
        n = len(branches)
        if 2 * g - 2 + n <= 0:
            raise ConsistencyError(f"({g},{n}) is not a stable entry")
        if 2 * g - 2 + n > self.bound:
            raise ConsistencyError(
                f"complexity {2 * g - 2 + n} beyond the table bound {self.bound}"
            )
        order = sorted(range(n), key=lambda i: branches[i])
        return (g, tuple(branches[i] for i in order)), tuple(vars[i] for i in order)

    def _stored(self, key: tuple) -> MultiForm:
        """The stored entry under ``key`` (:meth:`_key`), computed on a miss."""
        if key not in self._store:
            self._store[key] = self._compute(*key)
        return self._store[key]

    def orbit_symmetric(self, g: int, branches: tuple[int, ...]) -> bool:
        """The orbit verdict of :func:`symmetry_check` on the stored entry at
        the sorted ``branches``, computed once per stored entry: it is kept
        with the entry it was read off, so a replaced entry is judged anew."""
        return self._orbit(g, branches)[0]

    def block_sorted(self, g: int, branches: tuple[int, ...]) -> dict:
        """The stored terms of the entry at the sorted ``branches`` whose
        exponents are non-decreasing on each block of equal branches, kept
        from the pass that gives :meth:`orbit_symmetric`."""
        return self._orbit(g, branches)[1]

    def _orbit(self, g: int, branches: tuple[int, ...]) -> tuple[bool, dict]:
        form = self.omega(g, branches)
        hit = self._verdicts.get((g, branches))
        if hit is None or hit[0] is not form:
            hit = self._verdicts[g, branches] = (form, *_orbit_symmetric(form, branches))
        return hit[1:]

    # -- the recursion ------------------------------------------------------

    def _factor(self, g1: int, positions, branches, xs, j: int, y: Var, caps):
        """One splitting factor with first leg at the residue variable, read
        in place and cut at the ``caps`` of its legs."""
        if g1 == 0 and len(positions) == 1:  # unstable (0, 2): the two-point seed
            (m,) = positions
            i = branches[m]
            seed = self.ctx.memo(two_point_form, i, j, Var("a", i), Var("b", j), self.budget)
            return _cut_terms(_relabelled(seed, (xs[m], y)), caps)  # slots (a, b)
        sub_branches = (j,) + tuple(branches[m] for m in positions)
        sub_vars = (y,) + tuple(xs[m] for m in positions)
        return self._child(g1, sub_branches, sub_vars, caps)

    def _bracket(self, g: int, branches, xs, j: int, y: Var, caps):
        """The pieces of the bracket for :func:`capped_slice` and its tied
        slots, each factor cut at the ``caps`` of its legs.

        In the (1, 1) entry the loop piece P_0 in y leads the pieces; the
        merged loop child of any other entry of genus g >= 1 is the
        caller's (:meth:`_residue_at`).  The tied slots are the trailing
        legs at the largest branch that carry no cap, when there are two or
        more, else none; a capped leg sorts before every uncapped one at its
        branch.
        Then one product piece per unordered splitting ``(g1, mask, c)``,
        each factor with a leg at y: the left factor takes genus g1, the
        untied legs in ``mask`` and the first c tied legs, and the piece
        stands for every choice of c tied legs (the tie rule in the module
        docstring).  The twin that sorts lower stands for both, with
        multiplicity 2 (the twin rule), and a self-paired splitting stands
        for itself.
        """
        n_rest = len(branches)
        pieces = []
        if g == 1 and n_rest == 0:
            pieces.append((1, self.ctx.memo(propagator_p0, j, y), None))
        m = 0
        while m < n_rest and branches[-1 - m] == self.ctx.data.n and xs[-1 - m] not in caps:
            m += 1
        if m < 2:
            m = 0
        u = n_rest - m
        untied, tied = tuple(range(u)), tuple(range(u, n_rest))
        full = (1 << u) - 1
        for g1 in range(0, g + 1):
            for mask in range(1 << u):
                for c in range(m + 1):
                    twin = (g - g1, full ^ mask, m - c)
                    if twin < (g1, mask, c):
                        continue  # the same products, counted by its twin
                    left = tuple(p for p in untied if mask >> p & 1) + tied[:c]
                    right = tuple(p for p in untied if not mask >> p & 1) + tied[c:]
                    if g1 == 0 and not left:
                        continue  # a dropped one-point leg kills the term
                    pieces.append((
                        1 if twin == (g1, mask, c) else 2,
                        self._factor(g1, left, branches, xs, j, y, caps),
                        self._factor(g - g1, right, branches, xs, j, y, caps),
                    ))
        return pieces, tuple(xs[p] for p in tied)

    def _residue_at(self, g, rest, xs, x0, j0, j, caps) -> RawForm:
        """The residue at branch j of the entry ``(g, (j0,) + rest)``, exact up
        to ``caps`` (the cap of each capped slot, by variable).

        The loop child, with p its pole bound, has its legs ya and yb capped
        at ``YCAP + p`` before it is built; its support bounds in them are
        then checked to be -p, and it is merged onto y up to ``YCAP``, the
        first of the pieces (the loop child's cap in the module docstring)."""
        y = Var("y", j)
        pieces, tied = self._bracket(g, rest, xs, j, y, caps)

        def weight(kmax):
            return _cut_terms(self.ctx.memo(recursion_kernel, j0, j, x0, y, kmax), caps)

        child = None
        if g >= 1 and (g, len(rest)) != (1, 0):
            ya, yb = Var("ya", j), Var("yb", j)
            legs = (j, j) + tuple(rest)
            p = pole_bound(g - 1, len(legs))
            child = self._child(g - 1, legs, (ya, yb) + tuple(xs), caps, YCAP + p)
        try:
            if child is not None:
                bounds = (child.lo_of(ya), child.lo_of(yb))
                if bounds != (-p, -p):
                    raise ConsistencyError(
                        f"loop child ({g - 1},{tuple(sorted(legs))}) has support "
                        f"bounds {bounds} in ya, yb, assumed {-p}"
                    )
                pieces.insert(0, (1, child.merge_diagonal(ya, yb, y, YCAP), None))
            return capped_slice(y, pole_bound(g, len(rest) + 1), pieces, weight, tied)
        except ConsistencyError as exc:
            raise ConsistencyError(f"({g},{(j0,) + tuple(rest)}) entry: {exc}") from None

    def _compute(self, g: int, branches: tuple[int, ...]) -> MultiForm:
        """The full entry at the sorted ``branches``."""
        return self._build(g, branches, (None,) * len(branches))

    def _build(self, g: int, branches: tuple[int, ...], caps: tuple) -> MultiForm:
        """The entry at the sorted ``branches``, exact up to ``caps`` (one per
        slot, None for no cap), with the full entry's windows."""
        n = len(branches)
        if not self.ctx.r.exact:
            need = self.required_order(g, n)
            if self.ctx.r.order < need:
                raise TruncationOrderError(
                    f"entry ({g},{branches}) needs truncation order {need}, "
                    f"have {self.ctx.r.order}",
                    min_order=need,
                )
        j0, rest = branches[0], branches[1:]
        x0 = Var("x0", j0)
        xs = tuple(Var(f"x{i + 1}", b) for i, b in enumerate(rest))
        cut = {v: c for v, c in zip((x0,) + xs, caps) if c is not None}
        total = sum_raw(
            self._residue_at(g, rest, xs, x0, j0, j, cut)
            for j in range(1, self.ctx.data.n + 1)
        )
        return self._finalize(g, n, total)

    def _finalize(self, g: int, n: int, raw: RawForm) -> MultiForm:
        """The entry from the summed branch residues, normalized once.

        Zero terms are dropped, the pole bound and evenness are checked on
        the rest, and the support bound is raised to the pole bound."""
        p = pole_bound(g, n)
        deep, odd = _pole_and_parity_faults(raw.nums, p)
        if deep or odd:
            e = min(deep + odd)
            if min(e) < -p:
                raise ConsistencyError(
                    f"pole bound {p} violated at {e} in a ({g},{n}) entry"
                )
            raise ConsistencyError(
                f"odd exponent tuple {e} -> {Fraction(raw.nums[e], raw.den)} "
                f"in a ({g},{n}) entry"
            )
        lo = [max(x, -p) for x in raw.lo]
        form = MultiForm.from_numerators(raw.vars, raw.degs, raw.nums, raw.den, lo, raw.hi)
        hi_need = self.hi_target(g, n)
        for v, h in zip(form.vars, form.hi):
            if h < hi_need:
                raise ConsistencyError(
                    f"({g},{n}) window tops out at {h} in {v.name}, need {hi_need}, "
                    f"at truncation order {self.ctx.r.order}"
                )
        return form

    # -- the order rule -------------------------------------------------------

    def required_order(self, g: int, n: int) -> int:
        """The minimal truncation order that certifies the (g, n) entries
        (the order rule in the module docstring)."""
        half = self.budget // 2
        return half if (g, n) == (1, 1) else 2 * half


def _pole_and_parity_faults(nums, p: int) -> tuple[list, list]:
    """The exponent tuples of the nonzero terms of ``nums`` below the pole
    bound ``p``, and those with an odd exponent, each sorted.

    Each list is collected only after a scan of the columns finds a fault:
    a column whose minimum lies below -p, or whose entries OR to an odd
    number (which some entry is exactly then)."""
    cols = list(zip(*nums))
    deep = odd = []
    if any(min(col) < -p for col in cols):
        deep = sorted(e for e, c in nums.items() if c and min(e) < -p)
    if any(reduce(or_, col) & 1 for col in cols):
        odd = sorted(e for e, c in nums.items() if c and any(map(_odd, e)))
    return deep, odd


def _arrangements(exps, his) -> int:
    """Distinct arrangements of the multiset ``exps`` over slots capped at ``his``.

    The values are placed from the largest down: a value may sit in any slot
    whose cap reaches it and that no larger value took, and those slots also
    admit every smaller value, so each value's choice is a binomial.
    """
    count, placed = 1, 0
    for e, m in sorted(Counter(exps).items(), reverse=True):
        count *= comb(sum(h >= e for h in his) - placed, m)
        placed += m
    return count


def _orbit_symmetric(form: MultiForm, branches: tuple[int, ...]) -> tuple[bool, dict]:
    """The symmetry verdict of :func:`symmetry_check` (the orbit rule in its
    docstring) and the block-sorted stored terms, those equal to their key,
    from one pass over the stored terms of the entry at the sorted
    ``branches``.

    Only blocks of two or more equal branches are counted: a one-slot
    block's one arrangement is the stored term's own, which lies under
    ``hi``.  A tied block's arrangements are counted once per sorted block
    exponents and block ``hi``, not once per group.
    """
    ties = [
        slice(branches.index(b), branches.index(b) + branches.count(b))
        for b in sorted(set(branches))
        if branches.count(b) > 1
    ]
    # a key is the exponents with each tied block sorted
    groups = defaultdict(list)
    kept = {}
    for e, c in form.nums.items():
        key = list(e)
        for s in ties:
            key[s] = sorted(e[s])
        key = tuple(key)
        groups[key].append(c)
        if key == e:
            kept[e] = c
    count, his = cache(_arrangements), [form.hi[s] for s in ties]
    verdict = all(
        len(set(cs)) == 1 and len(cs) == prod(count(key[s], h) for s, h in zip(ties, his))
        for key, cs in groups.items()
    )
    return verdict, kept


def symmetry_check(table: OmegaTable, g: int, branches) -> Report:
    """Permutation symmetry, evenness and the pole bound for one entry.

    Symmetry is compared on the common certified window of the entry and its
    permuted image, under every permutation that fixes the branch tuple:
    slot windows are generally asymmetric (the pivot slot of the computation
    sees further than the external ones), and coefficients beyond a slot
    window are unknown rather than zero.

    The verdict is read off the stabilizer orbits of the stored terms.  The
    common window of the entry and its image is the meet of their ``hi``,
    so two arrangements of one orbit are compared by some stabilizing
    permutation exactly when both lie under ``hi``, and every stored term
    lies under ``hi``.  So the entry is symmetric exactly when each group of
    stored terms with equal exponents up to the order within every block of
    equal branches has one numerator and holds every arrangement of its
    exponents that lies under ``hi``.  Only an asymmetric entry runs the
    permutation loop, which names the first permutation and coefficient
    that differ.  The verdict is cached on the table with the stored entry
    (:meth:`OmegaTable.orbit_symmetric`) and shared with the extraction
    residual, which compares block-sorted exponents only where it holds.
    """
    rep = Report()
    branches = tuple(sorted(branches))
    n = len(branches)
    form = table.omega(g, branches)
    name = f"symmetry-({g},{branches})"
    bad = None
    if not table.orbit_symmetric(g, branches):
        base_vars = tuple(Var(f"x{i}", b) for i, b in enumerate(branches))
        for perm in permutations(range(n)):
            if tuple(branches[p] for p in perm) != branches:
                continue  # only stabilizing permutations map the entry to itself
            permuted = form.rename({f"x{i}": base_vars[perm[i]] for i in range(n)})
            mismatch = agreement_mismatch(form, permuted)
            if mismatch is not None:
                bad = (perm, mismatch)
                break
    rep.add(name, bad is None, "" if bad is None else f"asymmetric at {bad}")

    p = pole_bound(g, n)
    depth_bad, parity_bad = _pole_and_parity_faults(form.nums, p)
    rep.add(
        f"parity-({g},{branches})",
        not parity_bad,
        "" if not parity_bad else f"odd exponents at {parity_bad[0]}",
    )
    rep.add(
        f"pole-bound-({g},{branches})",
        not depth_bad,
        "" if not depth_bad else f"pole beyond {p} at {depth_bad[0]}",
    )
    return rep

"""Ancestor correlators: extraction from the n-point table and the
residue-identity checkers that tie the table to the quadratic constraints.

Extraction inverts the expansion of an n-point form in terms of insertion
weights.  The weight W_j(k, a) of the insertion (psi power k, flat index a)
at branch j is one period series, with leading term -2 (2k+1)!! psi[a][j]
s^(-2k-2); each R-correction climbs by two in the exponent.  The expansion
factors slot by slot,

    omega[jv](e) = sum over (k, a) of corr(k, a) * prod_m W_{jv[m]}(k_m, a_m; e_m),

a slotwise contraction (one linear map per slot, mode products) of the
tensor of correlators, indexed by insertion tuples in every slot order.  So
its inverse is slotwise too.  At the leading exponents e = -2k' - 2 with
0 <= k' <= 3g - 3 + n one slot's map is the matrix
A[(j, k'), (k, a)] = W_j(k, a; -2k' - 2), block upper triangular in k with
the invertible diagonal blocks -2 (2k+1)!! psi[a][j], so it is invertible.
The context keeps its inverse through k' = K once per K, as integers over
one denominator (``_slot_image``), built when the first entry with
3g - 3 + n = K reads it.  The solve contracts the stored coefficients at
the leading exponents against the inverse in every slot: one
``_mode_products`` call on integer numerators, kept at sorted insertion
tuples only.

The tensor of correlators is symmetric, so a contraction of it reads sorted
keys alone, each standing for all its slot orders, and a slot draws each
distinct index of the multiset not yet mapped once (the symmetric-tensor
contraction of Schatz, Low, van de Geijn and Kolda, SIAM J. Sci. Comput. 36,
2014).  The solve's input, the stored coefficients keyed by (branch, k') per
slot, is symmetric too when every slot's window reaches -2, so every read is
certified, and every entry passes the orbit verdict of
``recursion.symmetry_check``: then only the block-sorted exponents of the
sorted branch tuples are read.  They are the terms that the verdict's own
pass over the entry keeps (``OmegaTable.block_sorted``; every term of an
entry without a repeated branch), non-decreasing in the exponents, so
non-increasing in k' on each block; sorted, each key holds the numerator of
the arrangement it was read at, which the passing verdict makes that of
every arrangement.  Otherwise every ordered branch tuple is read once,
through ``OmegaTable.omega``, and keyed in its own slot order.  Only data
that then fail take that path: a table that passes the order rule has
every window at or above its ``hi_target`` >= 0, and its orbit verdicts
hold by the tie rule of ``recursion``.

Keys past the tameness bound (total degree above 3g - 3 + n) must come out
zero.  A nonzero one is named by the first key in the order (total degree
descending, degree vector, flat indices), the key a triangular solve by
decreasing total degree meets first.  When some slot's window ends below
-2, the degree vectors up to that key are read in that order first, so an
uncertified coefficient fails as that solve would fail on it.  The solve is
deliberately overdetermined: afterwards the solved values are contracted
against the full weight series, and the result must reproduce every
certified coefficient of every branch tuple.

The residual is formed at the sorted branch tuples only.  Every ordered
tuple ``jv`` is a slot permutation of its sorted one: ``omega[jv]`` is the
stored entry renamed, the tensor is symmetric, and the weight series and
their windows depend on the slot's branch alone.  So the residual at ``jv``
is the residual at ``sorted(jv)`` with its slots permuted, and the sorted
tuples check every certified coefficient.  The solved values are the
symmetric tensor stored at sorted keys, and they are contracted as they are.

Within a sorted tuple the residual is compared at block-sorted exponents
only.  Slots m and m + 1 are tied when they share a branch and the window
they are compared on, the meet of the entry's ``hi`` and the reassembly's;
slot 0, the pivot of the computation, usually sees further and stays apart.
The reassembly is symmetric under every exchange of tied slots, for the
reason above.  The entry is symmetric under them, wherever both arrangements
are certified, when the orbit verdict of ``recursion.symmetry_check`` passes
on it, and tied slots share their window, so an exponent tuple and its sort
within the tied blocks are compared together.  Under a passing verdict every
certified coefficient is therefore checked by the one at its block-sorted
arrangement, and ``_mode_products`` drops each partial key with
e_m > e_(m+1) at a tied pair as soon as slot m is mapped (the output cut
of the symmetric-tensor contraction above, restricted to blocks).  The
entry's side is cut the same way; when the tied pairs are every adjacent
pair of every block, the cut is the block-sorted terms the verdict's pass
kept.  The verdict is computed once per stored entry and shared with the
solve and ``symmetry_check``; with no tied pair or a failed verdict the full
residual runs.  A failure names the coefficient it named without the cut: under a
passing verdict, sorting the first mismatch of the full residual within the
tied blocks gives a mismatch that is no later in lexicographic order, so
that first mismatch is itself block-sorted.

The quadratic-constraint checker reassembles its residue weight directly from
period pairings (sharing no code with the engine's kernel object) and
compares against the correlator-level left side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import lcm

from .linalg import mat_inv
from .localforms import FormContext, _dual_dlambda, period_pairing, propagator_p0
from .recursion import (
    ConsistencyError,
    OmegaTable,
    TruncationOrderError,
    capped_slice,
    pole_bound,
    stable_entries,
)
from .report import Report
from .series import (
    INF,
    MultiForm,
    Rat,
    Var,
    WindowError,
    agreement_mismatch,
    capped_sum_of_products,
    common_denominator,
    invert,
    sum_forms,
    zero_form,
)

Insertion = tuple[int, int]  # (psi power k, flat index a)


@dataclass(frozen=True)
class CorrelatorKey:
    g: int
    insertions: tuple[Insertion, ...]

    @staticmethod
    def make(g: int, insertions) -> "CorrelatorKey":
        return CorrelatorKey(g, tuple(sorted((int(k), int(a)) for k, a in insertions)))

    @property
    def n(self) -> int:
        return len(self.insertions)

    def psi_degree(self) -> int:
        return sum(k for k, _ in self.insertions)

    def tame(self) -> bool:
        return self.psi_degree() <= 3 * self.g - 3 + self.n


@dataclass(eq=False)
class CorrelatorTable:
    """Exact correlator values keyed by genus and insertion multiset.

    Tables compare and hash by identity, so a context memo can key on one.
    """

    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def put(self, key: CorrelatorKey, value: Rat, source: str) -> None:
        if key in self.values and self.values[key] != value:
            raise ConsistencyError(
                f"conflicting values for {key}: {self.values[key]} vs {value}"
            )
        self.values[key] = value
        self.provenance[key] = source

    def get(self, g: int, insertions) -> Rat:
        key = CorrelatorKey.make(g, insertions)
        if not key.tame():
            return Rat(0)
        if 2 * key.g - 2 + key.n <= 0:
            return Rat(0)
        if key not in self.values:
            raise ConsistencyError(f"correlator {key} has not been extracted")
        return self.values[key]

    def items(self):
        return sorted(
            self.values.items(), key=lambda kv: (kv[0].g, kv[0].n, kv[0].insertions)
        )


def insertion_weight(ctx: FormContext, j: int, k: int, a: int, v: Var) -> MultiForm:
    """Series multiplying <... v_a psi^k ...> in the branch-j expansion:
    (-1)^k (I^(k+1), v^a) dlambda."""
    w = ctx.memo(_dual_dlambda, j, k + 1, a, v)
    return -w if k % 2 else w


def _mode_products(tensor: dict, maps, ties=(), symmetric=False) -> dict:
    """Apply one linear map per slot to a sparse tensor.

    ``tensor`` maps index tuples to values; ``maps[m]`` sends an index of
    slot m to its image, a dict {new index: coefficient}.  The slots are
    mapped one at a time (the mode-m products of Kolda & Bader, SIAM Review
    51, 2009) and after each slot the partial sums that share every index are
    merged, so a slot costs one pass over the merged partial tensor.  Sums
    that cancel are dropped.  The last slot goes first.

    With ``symmetric`` the tensor is keyed by sorted tuples, each standing
    for every order of its indices.  The indices not yet mapped then stay a
    sorted multiset, and mapping slot m draws each distinct one of them once
    into the slot, the rest staying sorted; the result is the one for the
    fully expanded tensor.  An ordered tensor is the case where slot m draws
    from its own index alone.

    For each m in ``ties`` only the images with ``new[m] <= new[m + 1]`` are
    kept, dropped as soon as slot m is mapped: the result is the full one
    restricted to those keys.
    """
    for m in reversed(range(len(maps))):
        image = maps[m]
        tied = m in ties
        first = 0 if symmetric else m  # the slots slot m draws from
        out: dict[tuple, Rat | int] = {}
        for idx, c in tensor.items():
            tail = idx[m + 1 :]
            for i in range(first, m + 1):
                if i < m and idx[i] == idx[i + 1]:
                    continue  # a repeated value is drawn at its last place
                head = idx[:i] + idx[i + 1 : m + 1]
                for new, w in image(idx[i]).items():
                    if tied and new > tail[0]:
                        continue
                    key = head + (new,) + tail
                    out[key] = out.get(key, 0) + c * w
        tensor = {key: c for key, c in out.items() if c}
    return tensor


def _slot_image(ctx: FormContext, kslot: int) -> tuple[int, dict]:
    """The inverse of the slot map through psi power ``kslot``, as integers
    over one denominator: ``(den, {(j, k'): {(k, a): numerator}})``.

    The map's rows are (j, k') at exponent -2k' - 2 and its columns (k, a)."""
    flat = range(1, ctx.data.n + 1)
    cols = list(product(range(kslot + 1), flat))
    rows = list(product(flat, range(kslot + 1)))
    w = {(j, ka): ctx.memo(insertion_weight, j, *ka, Var("w", j)) for j in flat for ka in cols}
    full = mat_inv([[w[j, ka].coefficient((-2 * k - 2,)) for ka in cols] for j, k in rows])
    den = lcm(*(c.denominator for row in full for c in row))
    return den, {
        r: {ka: c.numerator * (den // c.denominator) for ka, c in zip(cols, col) if c}
        for r, col in zip(rows, zip(*full))
    }


def extract_correlators(
    table: OmegaTable, g: int, n: int, into: CorrelatorTable | None = None
) -> CorrelatorTable:
    """Solve the coefficient-matching system for all (g, n) correlators.

    The stored coefficients at the leading exponents are mapped to
    correlators slot by slot by the leading block of the context's slot
    inverse, read as a symmetric tensor where every read is certified and
    every entry symmetric, and at every ordered branch tuple otherwise
    (module docstring).  Keys beyond the tameness bound must come out zero,
    and the fully reassembled expansion must match the computed table entry
    on its certified window; both are hard errors otherwise.
    """
    ctx = table.ctx
    flat = range(1, ctx.data.n + 1)
    out = into if into is not None else CorrelatorTable()
    kslot = 3 * g - 3 + n
    if kslot < 0:
        raise ConsistencyError(f"({g},{n}) is unstable")
    source = f"omega({g},{n})"

    def weight(j: int, ka: Insertion) -> MultiForm:
        return ctx.memo(insertion_weight, j, *ka, Var("w", j))

    iden, image = ctx.memo(_slot_image, kslot)

    forms = {jv: table.omega(g, jv) for jv in combinations_with_replacement(flat, n)}
    # the stored numerators at the leading exponents, keyed by (branch, k')
    # per slot, over one denominator
    depth = {-2 * k - 2: k for k in range(kslot + 1)}
    sden = lcm(*(f.den for f in forms.values()))
    floor = min(min(f.hi) for f in forms.values())  # every slot certified up to here
    # certified reads of entries symmetric over equal-branch slots: the
    # block-sorted terms of the sorted tuples, kept with each verdict, stand
    # for the ordered tensor (module docstring); otherwise, on data that then
    # fail, every ordered branch tuple is read through OmegaTable.omega
    symmetric = floor >= -2 and all(table.orbit_symmetric(g, jv) for jv in forms)
    if symmetric:
        entries = [(jv, table.block_sorted(g, jv), f.den) for jv, f in forms.items()]
    else:
        ordered = {jv: table.omega(g, jv) for jv in product(flat, repeat=n)}
        entries = [(jv, f.nums, f.den) for jv, f in ordered.items()]
    stored = {}
    for jv, terms, den in entries:
        for e, c in terms.items():
            if None not in (ks := tuple(map(depth.get, e))):
                # symmetric: sorted, the key of a block-sorted read holds the
                # numerator of every arrangement under the passing verdict
                key = tuple(zip(jv, ks))
                stored[tuple(sorted(key)) if symmetric else key] = c * (sden // den)
    values = {
        idx: Fraction(c, sden * iden**n)
        for idx, c in _mode_products(
            stored, [image.__getitem__] * n, set(range(n - 1)), symmetric
        ).items()
    }

    def met(idx: tuple[Insertion, ...]):
        """When the triangular solve meets a key: (-total degree, k's, a's)."""
        ks, avec = zip(*idx)
        return -sum(ks), ks, avec

    bad = min((idx for idx in values if -met(idx)[0] > kslot), key=met, default=None)
    if floor < -2:  # a read may be uncertified: read the ordered tuples in the triangular order
        kvecs = combinations_with_replacement(range(kslot + 1), n)
        for kvec in sorted(kvecs, key=lambda kv: (-sum(kv), kv)):
            if bad is not None and (-sum(kvec), kvec) > met(bad)[:2]:
                break
            exps = tuple(-2 * k - 2 for k in kvec)
            if max(exps) > floor:
                try:
                    for f in ordered.values():
                        f.coefficient(exps)
                except WindowError as exc:
                    raise TruncationOrderError(
                        f"extraction at ({g},{n}) psi-degrees {kvec} "
                        f"not certified: {exc}"
                    ) from exc
    if bad is not None:
        raise ConsistencyError(
            f"nonzero correlator {bad} beyond the tameness bound: {values[bad]}"
        )
    # the tame sorted insertion tuples in order: (tuple, degree, last column)
    cols = list(product(range(kslot + 1), flat))
    tame = [((), 0, 0)]
    for _ in range(n):
        tame = [
            (idx + (cols[i],), deg + cols[i][0], i)
            for idx, deg, start in tame
            for i in range(start, len(cols))
            if deg + cols[i][0] <= kslot
        ]
    for idx, _, _ in tame:
        out.put(CorrelatorKey(g, idx), values.get(idx, Rat(0)), source)

    # overdetermined residual: every certified coefficient of every branch
    # tuple must be explained, which the sorted branch tuples already show
    # (see the module docstring).  The window of the reassembly is the usual sum
    # rule over all summands, and the comparison reads only the common window
    # of the reassembly and the entry, so each slot's map is cut there before
    # the contraction: every key it drops lies outside that window.  The
    # contraction runs on integer numerators over common denominators, which
    # are divided out once per coefficient.
    support = {ka for idx in values for ka in idx}
    los = {j: min([0] + [weight(j, ka).lo[0] for ka in support]) for j in flat}
    his = {j: min([INF] + [weight(j, ka).hi[0] for ka in support]) for j in flat}
    den, numerators = common_denominator(values)
    wden = lcm(*(weight(j, ka).den for j in flat for ka in support))
    scale = den * wden**n

    @cache
    def images(j: int, top: int) -> dict[Insertion, dict[int, int]]:
        """The map of a branch-j slot compared up to ``top``: each insertion's
        weight numerators over ``wden``, up to that exponent."""
        out = {}
        for ka in support:
            w = weight(j, ka)
            out[ka] = {e: c * (wden // w.den) for (e,), c in w.nums.items() if e <= top}
        return out

    for jv, form in forms.items():
        tops = [min(h, his[j]) for h, j in zip(form.hi, jv)]
        # tied slots are compared at block-sorted exponents where the entry
        # is symmetric (module docstring)
        ties = {
            m for m in range(n - 1) if jv[m] == jv[m + 1] and tops[m] == tops[m + 1]
        }
        if ties and not table.orbit_symmetric(g, jv):
            ties = set()
        maps = [images(j, top).__getitem__ for j, top in zip(jv, tops)]
        predicted = MultiForm.from_numerators(
            form.vars,
            form.degs,
            _mode_products(numerators, maps, ties, symmetric=True),
            scale,
            [los[j] for j in jv],
            tops,
        )
        computed = form
        if ties:
            if ties == {m for m in range(n - 1) if jv[m] == jv[m + 1]}:  # every block
                nums = table.block_sorted(g, jv)
            else:
                nums = {
                    e: c
                    for e, c in form.nums.items()
                    if all(e[m] <= e[m + 1] for m in ties)
                }
            computed = MultiForm.from_numerators(
                form.vars, form.degs, nums, form.den, form.lo, form.hi
            )
        bad = agreement_mismatch(predicted, computed)
        if bad is not None:
            raise ConsistencyError(
                f"extraction residual at branches {jv} of ({g},{n}): "
                f"coefficient {bad[0]} predicted {bad[1]}, computed {bad[2]}"
            )
    return out


def extract_all(table: OmegaTable, bound: int | None = None) -> CorrelatorTable:
    """Extract every correlator with 2g - 2 + n up to the table bound."""
    out = CorrelatorTable()
    for g, n in stable_entries(bound if bound is not None else table.bound):
        extract_correlators(table, g, n, into=out)
    return out


def insertion_reconstruct_check(ctx: FormContext, k: int, a: int) -> Report:
    """Half-loop residues against the negative-frequency pairing rebuild an
    insertion: the residue sum over branches of the pairing of v_a z^k with
    the descending series, times the full local expansion series, must return
    exactly v_a psi^k.  Exactness is required component by component.  The
    residue sum is the period pairing at (-k-1, a) against (m+1, b), so this
    is ``hrp_check``'s orthogonality, re-indexed."""
    rep = Report()
    name = f"insertion-reconstruction-(k={k},a={a})"
    for m, b in product(range(-2, k + 3), range(1, ctx.data.n + 1)):
        expected = Rat(1) if (m == k and b == a) else Rat(0)
        try:
            total = ctx.memo(period_pairing, -k - 1, a, m + 1, b)
        except WindowError:
            rep.add(name, False, f"window exhausted at psi power {m}")
            return rep
        got = Fraction(-1, 2) * (-1 if m % 2 else 1) * total
        if got != expected:
            rep.add(name, False, f"psi power {m}, component {b}: {got} != {expected}")
            return rep
    rep.add(name, True)
    return rep


def _constraint_weight(
    ctx: FormContext, i_ext: int, j: int, rv: Var, y: Var, kmax: int
) -> MultiForm:
    """Residue weight of the quadratic constraints, rebuilt from periods.

    Quarter of the positive/negative commutator pairing over the normalizing
    one-point pairing, with the global orientation folded in; intentionally
    assembled from scratch rather than through the engine's kernel.  The
    pairing is minus the sum over (k, c) of W_i(k, c) in rv times
    (I^(-k-1), v_c) in y; the zero piece holds its support bound in y at 0.
    """
    pieces = [(1, zero_form((rv, y), (1, 0)), None)] + [
        (-1, ctx.memo(insertion_weight, i_ext, k, c, rv), ctx.period_basis(j, -k - 1, c, y))
        for k, c in product(range(kmax + 1), range(1, ctx.data.n + 1))
    ]
    acc = capped_sum_of_products(pieces, y, 2 * kmax + 2)
    denom = ctx.period_unit(j, -1, y).times_dlambda(y)
    if denom.is_zero() or denom.coefficient((2,)) == 0:
        raise ConsistencyError(f"degenerate normalizing pairing at branch {j}")
    if ctx.r.exact:
        inv_order = 2 * kmax + 2
    else:
        inv_order = min(2 * ctx.r.order + 1, 2 * kmax + 2)
    return (acc * invert(denom, y, order=inv_order)).scale(Fraction(-1, 4))


def _assembled_factor(
    ctx: FormContext,
    corr: CorrelatorTable,
    g1: int,
    sub: tuple[Insertion, ...],
    j: int,
    y: Var,
) -> MultiForm:
    """One splitting factor of the constraint bracket, as a y-series."""
    n1 = len(sub) + 1
    if (g1, n1) == (0, 2):  # unstable: the negative-frequency pairing
        ((k, a),) = sub
        return ctx.period_basis(j, -k, a, y).times_dlambda(y).scale(-1)
    budget = 3 * g1 - 3 + n1 - sum(k for k, _ in sub)
    terms = [zero_form((y,), (1,))]
    for k in range(budget + 1):
        for b in range(1, ctx.data.n + 1):
            val = corr.get(g1, ((k, b),) + sub)
            if val != 0:
                w = ctx.memo(insertion_weight, j, k, b, y)
                terms.append(w.scale(val))
    return sum_forms(terms)


def virasoro_check(
    ctx: FormContext,
    corr: CorrelatorTable,
    g: int,
    insertions,
    i_ext: int = 1,
) -> Report:
    """Exact identity between the assembled constraint sides.

    Left: the branch-i series of (g, n+1)-correlators with the given
    insertions.  Right: branch residues of the period-assembled weight times
    the loop term plus all ordered splittings, with the two unstable
    conventions (negative-frequency pairing and the diagonal propagator).
    Both sides are Laurent series in the external variable; they must agree
    on the certified window, which must reach the full pole depth.

    The ordered enumeration of splittings and loop legs is deliberate
    redundancy.  The table builds one product per unordered splitting (the
    twin rule in ``recursion``); this check builds every order, so it is the
    independent route that would catch a wrong fold.  Each factor is built
    once per context and correlator table, through the context memo, and
    then shared by every order, left side and external branch that uses it.
    """
    rep = Report()
    ins = tuple((int(k), int(a)) for k, a in insertions)
    n = len(ins)
    name = f"constraint-(g={g},ins={ins},branch={i_ext})"
    if 2 * g - 2 + (n + 1) <= 0:
        raise ConsistencyError("constraint check needs a stable left side")
    rv = Var("r", i_ext)

    def factor(g1, sub, j, y):
        return ctx.memo(_assembled_factor, corr, g1, sub, j, y)

    lhs = factor(g, ins, i_ext, rv)

    terms = []
    for j in range(1, ctx.data.n + 1):
        y = Var("y", j)
        # the bracket's pieces: P_0 or the loop legs with their correlator,
        # then the splitting factor pairs
        pieces = []
        if g == 1 and n == 0:
            pieces.append((1, ctx.memo(propagator_p0, j, y), None))
        elif g >= 1:
            # per first leg, its weight times the insertion sum over the
            # second leg; a sum without a nonzero correlator is no piece (a
            # zero weight still carries its window, so test for no terms)
            loop_budget = 3 * (g - 1) - 3 + (n + 2) - sum(k for k, _ in ins)
            for k1 in range(loop_budget + 1):
                for b1 in range(1, ctx.data.n + 1):
                    rest = factor(g - 1, ((k1, b1),) + ins, j, y)
                    if rest != zero_form((y,), (1,)):
                        w1 = ctx.memo(insertion_weight, j, k1, b1, y)
                        pieces.append((1, w1, rest))
        for g1 in range(0, g + 1):
            for mask in range(1 << n):
                left = tuple(ins[m] for m in range(n) if mask >> m & 1)
                right = tuple(ins[m] for m in range(n) if not mask >> m & 1)
                if g1 == 0 and not left:
                    continue
                if g - g1 == 0 and not right:
                    continue
                pieces.append((1, factor(g1, left, j, y), factor(g - g1, right, j, y)))
        terms.append(
            capped_slice(
                y,
                pole_bound(g, n + 1),
                pieces,
                lambda kmax: ctx.memo(_constraint_weight, i_ext, j, rv, y, kmax),
            )
        )
    rhs = sum_forms(terms)  # the raw branch residues, normalized once

    deepest = min((e for (e,) in lhs.nums), default=0)
    hi_common = min(lhs.hi[0], rhs.hi[0])
    if hi_common < -2 or rhs.lo[0] > deepest:
        rep.add(name, False, "window exhausted before the identity is visible")
        return rep
    bad = agreement_mismatch(lhs, rhs)
    rep.add(
        name,
        bad is None,
        "" if bad is None else f"sides differ at {bad[0]}: {bad[1]} vs {bad[2]}",
    )
    return rep

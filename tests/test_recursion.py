"""Recursion engine: frozen one-branch values, symmetry, decoupling, windows."""

import hashlib
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations, product

import pytest

from localrec.cli import RunConfig
from localrec.correlators import _constraint_weight, extract_all, extract_correlators
from localrec.frobenius import (
    CanonicalData,
    RMatrix,
    airy_datum,
    decoupled_datum,
    random_symplectic_r,
)
from localrec.linalg import identity, zeros
from localrec.localforms import FormContext, recursion_kernel
from localrec.serialize import dumps_canonical, form_to_json
from localrec.recursion import (
    YCAP,
    ConsistencyError,
    OmegaTable,
    TruncationOrderError,
    _arrangements,
    _orbit_symmetric,
    pole_bound,
    stable_entries,
    symmetry_check,
)
from localrec.series import (
    INF,
    MultiForm,
    SeriesError,
    Var,
    WindowError,
    agreement_mismatch,
)


Q = Fraction


def airy_table(bound=4, **kw):
    return OmegaTable(FormContext(airy_datum(), RMatrix.identity_r(1)), bound=bound, **kw)


def test_stable_entries_ordering():
    assert stable_entries(2) == [(0, 3), (1, 1), (0, 4), (1, 2)]
    assert (2, 2) in stable_entries(4)


def test_omega03_airy():
    w = airy_table().omega(0, (1, 1, 1))
    assert w.coefficient((-2, -2, -2)) == -8
    assert len(w.coeffs) == 1


def test_omega11_airy():
    w = airy_table().omega(1, (1,))
    assert w.coefficient((-4,)) == Q(-1, 4)
    assert len(w.coeffs) == 1
    assert max(-e for (e,) in w.coeffs) == pole_bound(1, 1)  # bound attained


def test_omega04_airy():
    # expansion weights -2 (2k+1)!! s^(-2k-2) against <tau_1 tau_0^3> = 1
    w = airy_table().omega(0, (1, 1, 1, 1))
    assert w.coefficient((-4, -2, -2, -2)) == 48
    assert w.coefficient((-2, -4, -2, -2)) == 48
    assert w.coefficient((-2, -2, -2, -2)) == 0


def test_omega12_airy():
    # <tau_2 tau_0> = <tau_1 tau_1> = 1/24
    w = airy_table().omega(1, (1, 1))
    assert w.coefficient((-6, -2)) == Q(5, 2)
    assert w.coefficient((-2, -6)) == Q(5, 2)
    assert w.coefficient((-4, -4)) == Q(3, 2)


def test_pole_bound_attained_airy():
    t = airy_table()
    for g, n in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]:
        w = t.omega(g, (1,) * n)
        deepest = max(max(-x for x in e) for e in w.coeffs)
        assert deepest == pole_bound(g, n), (g, n)


def test_symmetry_parity_pole_checks():
    t = airy_table()
    for g, n in stable_entries(4):
        rep = symmetry_check(t, g, (1,) * n)
        assert rep.ok, rep.failures()


def test_decoupled_mixed_branches_vanish():
    ctx = FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2))
    t = OmegaTable(ctx, bound=2)
    assert t.omega(0, (1, 1, 2)).is_zero()
    assert t.omega(0, (1, 2, 2)).is_zero()
    assert t.omega(1, (2,)).coefficient((-4,)) == Q(-1, 4)


def test_decoupled_same_branch_matches_airy():
    ctx = FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2))
    t = OmegaTable(ctx, bound=2)
    a = airy_table(bound=2)
    for g, n in stable_entries(2):
        for j in (1, 2):
            w2 = t.omega(g, (j,) * n)
            w1 = a.omega(g, (1,) * n)
            assert sorted(w2.coeffs.items()) == sorted(w1.coeffs.items()), (g, n, j)


def test_retrieval_permutes_branches():
    ctx = FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2))
    t = OmegaTable(ctx, bound=2)
    w_sorted = t.omega(0, (1, 1, 2))
    w_rotated = t.omega(0, (2, 1, 1))
    assert w_rotated.vars[0].branch == 2
    assert w_sorted.is_zero() and w_rotated.is_zero()


def test_sorted_retrieval_returns_the_stored_entry():
    """Retrieval at the sorted tuple renames through the identity, which
    hands back the stored entry itself; a permuted tuple gets a fresh form."""
    t = OmegaTable(
        FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 6, 5)), bound=2
    )
    for g, branches in [(0, (1, 1, 2)), (1, (1, 2)), (1, (2,))]:
        assert t.omega(g, branches) is t.omega(g, branches)
        assert t.omega(g, branches) is t._store[(g, branches)]
    assert t.omega(1, (2, 1)) is not t.omega(1, (1, 2))


def test_order_independence():
    t1 = airy_table()
    t2 = airy_table()
    first = t1.omega(2, (1,))
    t2.omega(0, (1, 1, 1))
    t2.omega(1, (1, 1))
    second = t2.omega(2, (1,))
    assert first == second


def test_determinism_recomputation():
    a = airy_table().omega(2, (1,))
    b = airy_table().omega(2, (1,))
    assert a == b and sorted(a.coeffs.items()) == sorted(b.coeffs.items())


@pytest.mark.parametrize("seed", [1, 2])
def test_random_r_single_branch_runs(seed):
    ctx = FormContext(airy_datum(), random_symplectic_r(1, 6, seed))
    t = OmegaTable(ctx, bound=1)
    w = t.omega(0, (1, 1, 1))
    assert w.coefficient((-2, -2, -2)) != 0


def test_window_plan_fail_fast():
    ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 1, 5))
    t = OmegaTable(ctx, bound=2)
    need = t.required_order(1, 2)
    assert need > 1
    with pytest.raises(TruncationOrderError) as e:
        t.omega(1, (1, 2))
    assert e.value.min_order == need


PLAN_NEED = 6  # minimal order certifying (1, 2) on decoupled N=2, bound 2


@pytest.mark.parametrize("order", range(PLAN_NEED + 2))
def test_truncated_run_builds_one_context(monkeypatch, order):
    """The order rule builds nothing: a truncated-R ``omega`` constructs the
    table's own context and no other, whether the order suffices or not."""
    built = []
    real = FormContext.__post_init__
    monkeypatch.setattr(
        FormContext, "__post_init__", lambda self: built.append(self.r.order) or real(self)
    )
    t = OmegaTable(
        FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, order, 5)), bound=2
    )
    if order < PLAN_NEED:
        with pytest.raises(TruncationOrderError) as e:
            t.omega(1, (1, 2))
        assert e.value.min_order == PLAN_NEED
    else:
        t.omega(1, (1, 2))
    assert t.required_order(1, 2) == PLAN_NEED
    assert built == [order]


ROTATED_PAIR = CanonicalData.make(
    u=[0, 1], eta=[[1, 0], [0, 1]], psi=[["3/5", "4/5"], ["-4/5", "3/5"]], unit=[1, 2]
)


@pytest.mark.parametrize("datum", [airy_datum(), ROTATED_PAIR], ids=["airy", "rotated-N2"])
def test_order_rule_equals_the_dry_run_minimum(monkeypatch, datum):
    """The order rule against its reference, the dry run: the recursion run
    with the rule switched off on a zero-dressed R of every order L (windows
    depend only on L and the assembly pattern).  Every entry fails below the
    rule's order and is certified at and above it.  A table depends on its
    bound and ``window`` only through the budget, so each budget of the grid
    (bounds 1-3, windows 0 and 5-13) is run once, at the largest bound that
    has it."""
    rule = OmegaTable.required_order
    monkeypatch.setattr(OmegaTable, "required_order", lambda self, g, n: 0)

    def table(order, bound, budget):
        mats = [identity(datum.n)] + [zeros(datum.n)] * order
        return OmegaTable(FormContext(datum, RMatrix.make(mats)), bound, min_budget=budget)

    bounds = {}
    for bound in (1, 2, 3):
        for window in (0, 5, 7, 9, 11, 13):
            bounds[table(0, bound, window).budget] = bound
    for budget, bound in bounds.items():
        needs = {(g, n): rule(table(0, bound, budget), g, n) for g, n in stable_entries(bound)}
        for order in range(max(needs.values()) + 3):
            t = table(order, bound, budget)
            for (g, n), need in needs.items():
                try:
                    t.omega(g, (1,) * n)
                    certified = True
                except ConsistencyError as e:
                    assert "window tops out" in str(e), e
                    certified = False
                except WindowError:
                    certified = False
                assert certified == (order >= need), (budget, order, g, n)


def test_window_plan_sufficient_order_succeeds():
    probe = OmegaTable(
        FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 0, 5)), bound=2
    )
    need = probe.required_order(1, 2)
    ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, need, 5))
    t = OmegaTable(ctx, bound=2)
    w = t.omega(1, (1, 2))
    assert all(h >= t.hi_target(1, 2) for h in w.hi)
    assert all(l <= -pole_bound(1, 2) for l in w.lo)


def test_bound_guard():
    with pytest.raises(Exception):
        airy_table(bound=1).omega(0, (1, 1, 1, 1))


def test_symmetry_check_flags_corrupted_entry():
    from fractions import Fraction as F

    from localrec.series import MultiForm

    t = airy_table(bound=1)
    w = t.omega(0, (1, 1, 1))
    broken = dict(w.coeffs)
    broken[(-2, -2, 0)] = F(7)  # breaks S3 invariance
    t._store[(0, (1, 1, 1))] = MultiForm(w.vars, w.degs, broken, w.lo, w.hi)
    rep = symmetry_check(t, 0, (1, 1, 1))
    bad = [c for c in rep.checks if not c.ok]
    assert [(c.name, c.detail) for c in bad] == [
        (
            "symmetry-(0,(1, 1, 1))",
            "asymmetric at ((0, 2, 1), ((-2, -2, 0), Fraction(7, 1), Fraction(0, 1)))",
        )
    ]


def test_odd_seed_term_above_the_cap_is_caught(monkeypatch):
    """The residue reads only the bracket terms up to the cap, so a seed's
    reflection parity is checked on its full window when it is first fetched."""
    import localrec.recursion as recursion
    from localrec.series import MonodromyError, MultiForm

    real = recursion.two_point_form

    def planted(ctx, i, j, rv, sv, s_hi):
        seed = real(ctx, i, j, rv, sv, s_hi)
        top = seed.hi[seed.index_of(sv)]  # an odd exponent, above the factor's cap
        coeffs = {**seed.coeffs, (0, top): 1}
        return MultiForm(seed.vars, seed.degs, coeffs, seed.lo, seed.hi)

    monkeypatch.setattr(recursion, "two_point_form", planted)
    with pytest.raises(MonodromyError, match="reflection parity in b"):
        airy_table(bound=2).omega(0, (1, 1, 1))


def test_bracket_of_indefinite_parity_is_caught():
    """The residue checks single valuedness on its two factors, so a bracket
    whose y-exponents mix parities is refused, whatever the slice reads."""
    from localrec.series import MonodromyError, MultiForm

    t = airy_table(bound=2)
    w = t.omega(0, (1, 1, 1))
    coeffs = {**w.coeffs, (-1, -2, -2): 1}  # odd in the slot that becomes y
    t._store[(0, (1, 1, 1))] = MultiForm(w.vars, w.degs, coeffs, w.lo, w.hi)
    with pytest.raises(MonodromyError, match="no definite reflection parity in y"):
        t.omega(0, (1, 1, 1, 1))


def _unordered_splittings(g, n, tied):
    """Splittings ``(g1, untied mask, c)`` of a (g, n) bracket up to the swap
    of its two factors, with ``tied`` legs tied (0 for fewer than two) and
    c of them in the left factor."""
    untied = n - 1 - tied
    ordered = (g + 1) * 2**untied * (tied + 1) - 2  # less the two with a dropped one-point leg
    self_paired = 1 if untied == 0 and g % 2 == 0 and tied % 2 == 0 else 0
    return (ordered + self_paired) // 2


@pytest.mark.parametrize(
    "ctx, key, tied",
    [
        (FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2)), (1, (1, 1, 2)), 0),
        (FormContext(airy_datum(), RMatrix.identity_r(1)), (2, (1,)), 0),
        (FormContext(airy_datum(), RMatrix.identity_r(1)), (0, (1,) * 6), 5),
        (FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2)), (1, (1, 1, 2, 2)), 2),
    ],
    ids=["mixed-N2", "self-paired-airy", "tied-airy", "tied-decoupled-N2"],
)
def test_bracket_builds_one_product_per_unordered_splitting(monkeypatch, ctx, key, tied):
    """One product piece per unordered splitting; the legs at the largest
    branch, when two or more, are tied, so a piece stands for every choice
    of its count of them."""
    import localrec.recursion as recursion

    g, branches = key
    t = OmegaTable(ctx, bound=2 * g - 2 + len(branches))
    first = t.omega(*key)
    del t._store[key]  # recompute this entry alone: its factors stay stored
    products = []
    real = recursion.capped_sum_of_products

    def counting(pieces, *args):
        products.extend(p for p in pieces if p[2] is not None)
        return real(pieces, *args)

    monkeypatch.setattr(recursion, "capped_sum_of_products", counting)
    assert t.omega(*key) == first
    # one bracket per residue branch
    assert len(products) == ctx.data.n * _unordered_splittings(g, len(branches), tied)


def _loop_symmetric(form, branches):
    """Symmetry by the stabilizer loop: the entry agrees with every image
    under a branch-fixing permutation on their common window."""
    n = len(branches)
    base = tuple(Var(f"x{i}", b) for i, b in enumerate(branches))
    return all(
        agreement_mismatch(form, form.rename({f"x{i}": base[p[i]] for i in range(n)}))
        is None
        for p in permutations(range(n))
        if tuple(branches[i] for i in p) == branches
    )


def test_orbit_counts_each_block_under_its_own_windows():
    """Two groups share the sorted exponents (1, 5): once on the block of
    branch 1, whose slots have windows 3 and INF, where it has one
    arrangement, and once on the open block of branch 2, where it has two.
    The verdict and the kept terms equal the stabilizer loop's and those of
    the count taken group by group, which a count kept by exponents alone
    would not give."""
    branches = (1, 1, 2, 2)
    vs = tuple(Var(f"x{i}", b) for i, b in enumerate(branches))
    hi = (3, INF, INF, INF)
    symmetric = {(1, 5, 1, 1): 2, (1, 1, 1, 5): 3, (1, 1, 5, 1): 3}
    verdicts = []
    for nums in (
        symmetric,
        {**symmetric, (1, 1, 5, 1): 4},
        {e: c for e, c in symmetric.items() if e != (1, 1, 5, 1)},
    ):
        form = MultiForm.from_numerators(vs, (1,) * 4, nums, 1, (-9,) * 4, hi)
        groups = {}
        for e, c in nums.items():
            groups.setdefault(tuple(sorted(e[:2])) + tuple(sorted(e[2:])), []).append(c)
        counted = all(
            len(set(cs)) == 1
            and len(cs) == _arrangements(key[:2], hi[:2]) * _arrangements(key[2:], hi[2:])
            for key, cs in groups.items()
        )
        verdict, kept = _orbit_symmetric(form, branches)
        assert verdict == counted == _loop_symmetric(form, branches)
        assert kept == {e: c for e, c in nums.items() if e[0] <= e[1] and e[2] <= e[3]}
        verdicts.append(verdict)
    assert verdicts == [True, False, False]


def _entry_perturbations(form):
    """The entry changed four ways, each labelled, as ``(label, nums)``."""
    nums, lo, hi = form.nums, form.lo, form.hi
    out = []
    first, last = min(nums), max(nums)
    out.append(("changed-numerator", {**nums, first: nums[first] + 1}))
    out.append(("deleted-term", {e: c for e, c in nums.items() if e != last}))
    # added terms have odd exponents, so none is stored already; first one
    # with every arrangement inside every slot window
    low, top = max(lo) + 1, min(hi)
    inside = tuple(min(low + 2 * i, top - 1 + top % 2) for i in range(len(lo)))
    out.append(("added-inside", {**nums, inside: 1}))
    # then one whose images moving slot 0 lie above the other slots' windows
    if len(lo) > 1 and max(hi[1:]) < hi[0] < INF:
        above = (hi[0] - 1 + hi[0] % 2,) + (low,) * (len(lo) - 1)
        out.append(("added-above", {**nums, above: 1}))
    return out


def _pair_table(psi, unit):
    cfg = {
        "N": 2,
        "u": ["0/1", "1/1"],
        "eta": [["1/1", "0/1"], ["0/1", "1/1"]],
        "psi": psi,
        "unit": unit,
        "R": "random",
        "L": 6,
        "seed": 5,
        "coeff_bound": 3,
        "g_max_complexity": 2,
    }
    return RunConfig(cfg).table()


@pytest.mark.parametrize(
    "make",
    [
        lambda: airy_table(bound=4),
        lambda: _pair_table([["1/1", "0/1"], ["0/1", "1/1"]], ["1/1", "1/1"]),
        lambda: _pair_table([["3/5", "4/5"], ["-4/5", "3/5"]], ["1/1", "2/1"]),
    ],
    ids=["airy-b4", "decoupled-N2", "rotated-N2"],
)
def test_orbit_verdict_equals_permutation_verdict(monkeypatch, make):
    """The orbit rule of ``symmetry_check`` gives the stabilizer loop's
    verdict on perturbed entries; the loop runs only when the rule fails."""
    import localrec.recursion as recursion

    t = make()
    loops = []
    real = recursion.agreement_mismatch
    monkeypatch.setattr(
        recursion, "agreement_mismatch", lambda a, b: loops.append(1) or real(a, b)
    )
    verdicts = []
    for g, n in stable_entries(t.bound):
        for branches in combinations_with_replacement(range(1, t.ctx.data.n + 1), n):
            key = (g, branches)
            form = t.omega(g, branches)
            for label, nums in _entry_perturbations(form):
                planted = MultiForm.from_numerators(
                    form.vars, form.degs, nums, form.den, form.lo, form.hi
                )
                t._store[key] = planted
                loops.clear()
                ok = symmetry_check(t, g, branches).checks[0].ok
                expected = _loop_symmetric(planted, branches)
                assert (ok, not loops) == (expected, expected), (key, label)
                if label == "added-above":
                    assert ok, key
                verdicts.append(ok)
            t._store[key] = form
    assert True in verdicts and False in verdicts


def _extraction_outcome(table, g, n):
    try:
        extract_correlators(table, g, n)
    except SeriesError as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize(
    "make",
    [
        lambda: airy_table(bound=4),
        lambda: _pair_table([["1/1", "0/1"], ["0/1", "1/1"]], ["1/1", "1/1"]),
        lambda: _pair_table([["3/5", "4/5"], ["-4/5", "3/5"]], ["1/1", "2/1"]),
    ],
    ids=["airy-b4", "decoupled-N2", "rotated-N2"],
)
def test_block_sorted_residual_gives_the_full_verdict(monkeypatch, make):
    """On the entries of the orbit-verdict test, unperturbed and perturbed,
    the extraction with the block-sorted residual ends as the one that runs
    the full residual everywhere, with the same failure text.  The fast
    run's solve reads the symmetric tensor on every unperturbed entry; the
    forced-full run's solve reads the ordered one wherever a branch repeats."""
    import localrec.correlators as correlators

    t = make()
    real = correlators._mode_products
    runs = []

    def spy(tensor, maps, ties=(), symmetric=False):
        runs.append((bool(ties), symmetric))
        return real(tensor, maps, ties, symmetric)

    monkeypatch.setattr(correlators, "_mode_products", spy)
    outcomes = []
    for g, n in stable_entries(t.bound):
        for branches in combinations_with_replacement(range(1, t.ctx.data.n + 1), n):
            key = (g, branches)
            form = t.omega(g, branches)
            for label, nums in [("unperturbed", form.nums)] + _entry_perturbations(form):
                t._store[key] = MultiForm.from_numerators(
                    form.vars, form.degs, nums, form.den, form.lo, form.hi
                )
                runs.clear()
                fast = _extraction_outcome(t, g, n)
                (_, symmetric_solve), *residual = runs  # the first call is the solve
                block_sorted = any(tied for tied, _ in residual)
                runs.clear()
                with monkeypatch.context() as m:
                    m.setattr(OmegaTable, "orbit_symmetric", lambda *args: False)
                    full = _extraction_outcome(t, g, n)
                assert fast == full, (key, label)
                assert n == 1 or not runs[0][1], (key, label)
                outcomes.append((label, fast is None, block_sorted, symmetric_solve))
            t._store[key] = form
    assert ("unperturbed", True, True, True) in outcomes
    assert all(sym for label, _, _, sym in outcomes if label == "unperturbed")
    assert any(not ok for _, ok, _, _ in outcomes)
    # a symmetric term added where only the wide slot 0 sees it: the
    # block-sorted residual finds it and the full one words the failure
    if any(label == "added-above" for label, _, _, _ in outcomes):
        assert ("added-above", False, True, True) in outcomes


def _pinned_table(name):
    if name == "airy-b6":
        return OmegaTable(FormContext(airy_datum(), RMatrix.identity_r(1)), bound=6)
    if name == "decoupled-N2-L10-b3":  # the R of pair-b3-omega's workload seed 1
        ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 10, 106))
        return OmegaTable(ctx, bound=3)
    if name == "rotated-N2-L6-b2":
        return OmegaTable(FormContext(ROTATED_PAIR, random_symplectic_r(2, 6, 11)), bound=2)
    if name == "truncated-airy-L10-b3":  # tied blocks with finite windows
        return OmegaTable(FormContext(airy_datum(), random_symplectic_r(1, 10, 3)), bound=3)
    ctx = FormContext(decoupled_datum([0, 1, 2]), random_symplectic_r(3, 6, 1))
    return OmegaTable(ctx, bound=2)


_STORE_DIGESTS = {
    "airy-b6": "d9bdd27ed6bf7f6dc719a9254dd42171cd192ad38ed49af991c4c1552781d124",
    "decoupled-N2-L10-b3": "3aef235990818d19f5e59a555b007920b4e09b58a64ba79a9a5a2231bd911571",
    "rotated-N2-L6-b2": "cfb5aff875d1d42e608d362c82e9832238711473ce484b35670382fc6f24eca6",
    "decoupled-N3-L6-b2": "7716d3a5163672acbbdc1a16fcd5040762bb0e214dc9c07bc787fb1de60bc198",
    "truncated-airy-L10-b3": "0e172c7b4f5a45ebff5b68d8571735942e5e55444b7363d644650dca0da217e6",
}


def _requests(t):
    """Every stable (g, sorted branches) of the table, in complexity order."""
    return [
        (g, branches)
        for g, n in stable_entries(t.bound)
        for branches in combinations_with_replacement(range(1, t.ctx.data.n + 1), n)
    ]


@cache
def _filled_table(name):
    """The pinned table with every stable entry requested in complexity order."""
    t = _pinned_table(name)
    for g, branches in _requests(t):
        t.omega(g, branches)
    return t


def _store_digest(t):
    """The canonical JSON of the store, sorted by key, hashed."""
    rows = [[g, list(b), form_to_json(f)] for (g, b), f in sorted(t._store.items())]
    return hashlib.sha256(dumps_canonical(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", list(_STORE_DIGESTS))
def test_every_stored_entry_is_pinned(name):
    """Every stored entry of the full table, byte for byte: the canonical
    JSON of the store, sorted by key, hashed."""
    assert _store_digest(_filled_table(name)) == _STORE_DIGESTS[name]


@pytest.mark.parametrize("name", list(_STORE_DIGESTS))
def test_cold_request_equals_the_table_filled_in_order(name):
    """Every stable entry requested from a cold table, which builds each
    unstored loop child only up to the caps its merge reads, is the entry of
    the table filled in complexity order: equal forms, so the same
    ``form_to_json``.  The cold tables share the filled table's context, so
    only the entries are built anew."""
    filled = _filled_table(name)
    capped = 0
    for g, branches in _requests(filled):
        cold = OmegaTable(filled.ctx, bound=filled.bound)
        assert cold.omega(g, branches) == filled.omega(g, branches), (g, branches)
        capped += len(cold._capped)
    assert capped


@pytest.mark.parametrize("name", list(_STORE_DIGESTS))
def test_top_down_fill_keeps_capped_entries_out_of_the_store(name):
    """Filled from the top complexity down, the table builds its loop
    children capped, yet stores what the table filled in order stores, entry
    for entry, so its store has the pinned hash; every capped entry, kept as
    built, has the full entry's windows, and narrowed at its caps it is the
    full entry cut with ``cap_hi`` there."""
    filled = _filled_table(name)
    t = OmegaTable(filled.ctx, bound=filled.bound)
    for g, branches in reversed(_requests(t)):
        t.omega(g, branches)
    assert t._store == filled._store
    assert t._capped
    for (g, branches, caps), form in t._capped.items():
        full = t._store[g, branches]
        for v, c in zip(full.vars, caps):
            if c is not None:
                full = full.cap_hi(v, c)
        narrowed = form._over(form.nums, form.den, full.hi)
        assert narrowed == full and form.hi == t._store[g, branches].hi, (g, branches, caps)


@pytest.mark.parametrize("name", list(_STORE_DIGESTS))
def test_extraction_of_a_passing_table_reads_sorted_branch_tuples(name, monkeypatch):
    """Every window of a table that passes the order rule reaches -2 and
    every orbit verdict holds, so the extraction reads each entry at its
    sorted branch tuple only: the ordered read is never taken."""
    t = _filled_table(name)
    requested = []
    omega = OmegaTable.omega

    def spy(self, g, branches, vars=None):
        requested.append(tuple(branches))
        return omega(self, g, branches, vars)

    monkeypatch.setattr(OmegaTable, "omega", spy)
    extract_all(t)
    assert requested and all(b == tuple(sorted(b)) for b in requested)


def test_loop_children_of_omega_1_3_are_built_capped():
    """``omega(1, ·)`` on pair-b3-omega's datum reads its (0, 4) loop
    children only up to the caps of their merges: no (0, 4) entry is
    stored, and the capped ones hold fewer terms than the five full ones."""
    filled = _filled_table("decoupled-N2-L10-b3")
    t = OmegaTable(filled.ctx, bound=3)
    for branches in combinations_with_replacement((1, 2), 3):
        assert t.omega(1, branches) == filled.omega(1, branches)
    full = sum(len(f.nums) for (g, b), f in filled._store.items() if (g, len(b)) == (0, 4))
    capped = [f for (g, b, _), f in t._capped.items() if (g, len(b)) == (0, 4)]
    assert not any((g, len(b)) == (0, 4) for g, b in t._store)
    assert len(capped) >= 5 and sum(len(f.nums) for f in capped) < full == 16432


@pytest.mark.parametrize("name", list(_STORE_DIGESTS))
def test_residue_weights_have_the_constant_support_bound(name):
    """The cap rule's constant: the recursion kernel and the constraint
    weight are the period numerator, of support bound 0 in y, over the
    one-point form, which leads with y^2, so each has support bound
    ``-1 - YCAP`` in y at every depth and branch pair."""
    ctx = _pinned_table(name).ctx
    for i, j in product(range(1, ctx.data.n + 1), repeat=2):
        x, y = Var("x0", i), Var("y", j)
        for kmax in range(5):
            assert recursion_kernel(ctx, i, j, x, y, kmax).lo_of(y) == -1 - YCAP
            assert _constraint_weight(ctx, i, j, x, y, kmax).lo_of(y) == -1 - YCAP


# sha256 of the sorted reprs of the ``OmegaTable._capped`` keys after a cold
# request, recorded when each loop child's cap was read off the kernel
_CAPPED_KEY_DIGESTS = {
    # pair-b3-omega's datum and R at workload seed 7: omega(1, ·)
    "decoupled-N2-L10-b3-omega13": (
        9, "4dc4f44ef2e2f58bc3b0f52d4ac61848c478ba0614d6fe33677d7286386cec22"
    ),
    # the rotated pair at R seed 11, L=12, bound 4: omega(2, ·)
    "rotated-N2-L12-b4-omega22": (
        21, "c20c8722962d9145b98234536c1d829dc1f23416b843f56210620c471f2b016a"
    ),
}


@pytest.mark.parametrize("name", list(_CAPPED_KEY_DIGESTS))
def test_loop_child_caps_are_the_ones_the_kernel_gave(name):
    """Every loop child a cold request builds capped, with the cap of each
    slot: the closed form ``YCAP + pole_bound(g - 1, n + 1)`` gives the keys
    the kernel's support bound gave."""
    if name.startswith("decoupled"):
        ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 10, 702))
        t, g, n = OmegaTable(ctx, bound=3), 1, 3
    else:
        ctx = FormContext(ROTATED_PAIR, random_symplectic_r(2, 12, 11))
        t, g, n = OmegaTable(ctx, bound=4), 2, 2
    for branches in combinations_with_replacement((1, 2), n):
        t.omega(g, branches)
    keys = "\n".join(sorted(map(repr, t._capped)))
    assert (len(t._capped), hashlib.sha256(keys.encode()).hexdigest()) == (
        _CAPPED_KEY_DIGESTS[name]
    )

"""Recursion engine: frozen one-branch values, symmetry, decoupling, windows."""

from fractions import Fraction

import pytest

from localrec.frobenius import RMatrix, airy_datum, decoupled_datum, random_symplectic_r
from localrec.localforms import FormContext
from localrec.recursion import (
    OmegaTable,
    TruncationOrderError,
    pole_bound,
    stable_entries,
    symmetry_check,
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


def test_window_plan_builds_one_shadow_table_per_order(monkeypatch):
    import localrec.recursion as recursion

    built = []

    class CountingContext(FormContext):
        def __post_init__(self):
            built.append(self.r.order)
            super().__post_init__()

    t = OmegaTable(
        FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 1, 5)), bound=2
    )
    monkeypatch.setattr(recursion, "FormContext", CountingContext)
    needs = {(g, n): t.required_order(g, n) for g, n in stable_entries(2)}
    assert needs == {(0, 3): 6, (1, 1): 3, (0, 4): 6, (1, 2): 6}
    # every (g, n) shares the shadow table of each order it dry-runs
    assert sorted(built) == list(range(max(needs.values()) + 1))


PLAN_NEED = 6  # minimal order certifying (1, 2) on decoupled N=2, bound 2


@pytest.mark.parametrize("order", range(PLAN_NEED + 2))
def test_window_plan_tries_own_order_first(monkeypatch, order):
    import localrec.recursion as recursion

    built = []

    class CountingContext(FormContext):
        def __post_init__(self):
            built.append(self.r.order)
            super().__post_init__()

    t = OmegaTable(
        FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, order, 5)), bound=2
    )
    monkeypatch.setattr(recursion, "FormContext", CountingContext)
    if order < PLAN_NEED:
        with pytest.raises(TruncationOrderError) as e:
            t.omega(1, (1, 2))
        assert e.value.min_order == PLAN_NEED
        return
    t.omega(1, (1, 2))
    assert t.required_order(1, 2) == order
    # a sufficient order is certified by its own shadow table alone
    assert built == [order]


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
    assert bad and "asymmetric at" in bad[0].detail


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


def _unordered_splittings(g, n):
    """Splittings of a (g, n) bracket up to the swap of its two factors."""
    rest = n - 1
    ordered = (g + 1) * 2**rest - 2  # less the two with a dropped one-point leg
    self_paired = 1 if rest == 0 and g % 2 == 0 else 0
    return (ordered + self_paired) // 2


@pytest.mark.parametrize(
    "ctx, key",
    [
        (FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2)), (1, (1, 1, 2))),
        (FormContext(airy_datum(), RMatrix.identity_r(1)), (2, (1,))),
    ],
    ids=["mixed-N2", "self-paired-airy"],
)
def test_bracket_builds_one_product_per_unordered_splitting(monkeypatch, ctx, key):
    import localrec.recursion as recursion

    g, branches = key
    t = OmegaTable(ctx, bound=2 * g - 2 + len(branches))
    first = t.omega(*key)
    del t._store[key]  # recompute this entry alone: its factors stay stored
    calls = []
    real = recursion.capped_product

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(recursion, "capped_product", counting)
    assert t.omega(*key) == first
    # one bracket per residue branch
    assert len(calls) == ctx.data.n * _unordered_splittings(g, len(branches))

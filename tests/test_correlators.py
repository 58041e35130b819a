"""Extraction against the independent oracle, reconstruction, constraints."""

import hashlib
import json
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localrec.correlators as correlators

from localrec.correlators import (
    CorrelatorKey,
    CorrelatorTable,
    extract_all,
    extract_correlators,
    insertion_reconstruct_check,
    insertion_weight,
    virasoro_check,
)
from localrec.dvv import dvv_intersection
from localrec.frobenius import (
    CanonicalData,
    RMatrix,
    airy_datum,
    decoupled_datum,
    random_symplectic_r,
    validate_canonical,
)
from localrec.localforms import FormContext
from localrec.recursion import ConsistencyError, OmegaTable, TruncationOrderError
from localrec.series import MultiForm, Var

Q = Fraction


def airy_table(bound=4):
    return OmegaTable(FormContext(airy_datum(), RMatrix.identity_r(1)), bound=bound)


def test_insertion_weight_leading_term():
    ctx = FormContext(airy_datum(), RMatrix.identity_r(1))
    w = insertion_weight(ctx, 1, 0, 1, Var("s", 1))
    assert w.coefficient((-2,)) == -2
    w1 = insertion_weight(ctx, 1, 1, 1, Var("s", 1))
    assert w1.coefficient((-4,)) == -6


def test_extract_small_airy():
    corr = extract_correlators(airy_table(bound=1), 0, 3)
    assert corr.get(0, [(0, 1), (0, 1), (0, 1)]) == 1
    corr = extract_correlators(airy_table(bound=1), 1, 1)
    assert corr.get(1, [(1, 1)]) == Q(1, 24)


def test_extract_airy_matches_oracle_through_bound4():
    table = airy_table(bound=4)
    corr = extract_all(table)
    checked = 0
    for key, value in corr.items():
        ks = [k for k, _ in key.insertions]
        assert value == dvv_intersection(key.g, ks), key
        if value != 0:
            checked += 1
    assert checked >= 12
    # the headline values, produced independently by the oracle
    assert corr.get(0, [(0, 1)] * 3) == dvv_intersection(0, [0, 0, 0]) == 1
    assert corr.get(1, [(1, 1)]) == dvv_intersection(1, [1]) == Q(1, 24)
    assert corr.get(1, [(0, 1), (2, 1)]) == dvv_intersection(1, [0, 2]) == Q(1, 24)
    assert corr.get(1, [(1, 1), (1, 1)]) == dvv_intersection(1, [1, 1]) == Q(1, 24)
    assert corr.get(2, [(4, 1)]) == dvv_intersection(2, [4]) == Q(1, 1152)


def test_extract_provenance_recorded():
    corr = extract_correlators(airy_table(bound=1), 1, 1)
    key = CorrelatorKey.make(1, [(1, 1)])
    assert corr.provenance[key] == "omega(1,1)"


def test_tameness_never_stored():
    corr = extract_all(airy_table(bound=2))
    for key, _ in corr.items():
        assert key.tame()
    assert corr.get(1, [(3, 1), (3, 1)]) == 0  # beyond the bound: identically zero


def test_extract_decoupled_factorizes():
    ctx = FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2))
    corr = extract_all(OmegaTable(ctx, bound=2))
    # mixed flat indices vanish, single-branch values match the point case
    assert corr.get(0, [(0, 1), (0, 1), (0, 2)]) == 0
    assert corr.get(0, [(0, 2), (0, 2), (0, 2)]) == 1
    assert corr.get(1, [(1, 2)]) == Q(1, 24)
    assert corr.get(1, [(0, 1), (2, 2)]) == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_extract_random_r_single_branch_consistent(seed):
    # extraction is overdetermined; success certifies internal consistency
    ctx = FormContext(airy_datum(), random_symplectic_r(1, 6, seed))
    table = OmegaTable(ctx, bound=2)
    corr = extract_all(table)
    assert corr.get(0, [(0, 1)] * 3) != 0


def test_insertion_reconstruct_airy():
    ctx = FormContext(airy_datum(), RMatrix.identity_r(1))
    for k in (0, 1, 2):
        assert insertion_reconstruct_check(ctx, k, 1).ok


def test_insertion_reconstruct_is_exact_at_negative_psi_powers(monkeypatch):
    # psi power -2 reads the pairing at (-1, 1, -1, 1); a value far below
    # any float must still fail, and the reported value is the exact one
    real = correlators.period_pairing

    def tiny(ctx, *args):
        return Fraction(1, 10**400) if args == (-1, 1, -1, 1) else real(ctx, *args)

    monkeypatch.setattr(correlators, "period_pairing", tiny)
    rep = insertion_reconstruct_check(FormContext(airy_datum(), RMatrix.identity_r(1)), 0, 1)
    assert [c.detail for c in rep.failures()] == [
        f"psi power -2, component 1: {Fraction(-1, 2 * 10**400)} != 0"
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_insertion_reconstruct_random_pair(seed):
    ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 6, seed))
    for k in (0, 1, 2, 3):
        for a in (1, 2):
            rep = insertion_reconstruct_check(ctx, k, a)
            assert rep.ok, rep.failures()


def test_virasoro_airy_genus0():
    table = airy_table(bound=2)
    corr = extract_all(table)
    ctx = table.ctx
    rep = virasoro_check(ctx, corr, 0, [(0, 1), (0, 1)])
    assert rep.ok, rep.failures()


def test_virasoro_airy_genus1():
    table = airy_table(bound=2)
    corr = extract_all(table)
    rep = virasoro_check(table.ctx, corr, 1, [(0, 1)])
    assert rep.ok, rep.failures()
    rep = virasoro_check(table.ctx, corr, 1, [(1, 1)])
    assert rep.ok, rep.failures()


def test_virasoro_airy_bound4_grid():
    table = airy_table(bound=4)
    corr = extract_all(table)
    ctx = table.ctx
    for g, n in [(0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]:
        budget = 3 * g - 3 + (n + 1)
        for ks in _k_multisets(n, budget):
            ins = [(k, 1) for k in ks]
            rep = virasoro_check(ctx, corr, g, ins)
            assert rep.ok, (g, ins, rep.failures())


def _k_multisets(n, budget):
    def rec(start, left, total):
        if left == 0:
            yield ()
            return
        for k in range(start, budget + 1):
            if total + k > budget:
                break
            for tail in rec(k, left - 1, total + k):
                yield (k,) + tail

    return list(rec(0, n, 0))


def test_missing_correlator_raises():
    from localrec.correlators import CorrelatorTable

    empty = CorrelatorTable()
    with pytest.raises(ConsistencyError):
        empty.get(1, [(1, 1)])


def test_virasoro_reports_mismatch_on_corrupted_value():
    table = airy_table(bound=2)
    corr = extract_all(table)
    key = CorrelatorKey.make(1, [(1, 1)])
    corr.values[key] = corr.values[key] + 1  # corrupt <tau_1>
    rep = virasoro_check(table.ctx, corr, 1, [(0, 1)])
    assert not rep.ok
    assert "sides differ at" in rep.failures()[0].detail


@pytest.mark.parametrize("datum", ["airy", "rotated-pair"])
def test_genus1_constraint_without_insertions(datum):
    """The (1, 0) constraint, whose bracket is P_0 alone, holds on every
    external branch, and fails where <tau_1>_1 is off by 1/7."""
    if datum == "airy":
        ctx = FormContext(airy_datum(), RMatrix.identity_r(1))
    else:
        rotated = CanonicalData.make(
            u=[0, 1], eta=[[1, 0], [0, 1]], psi=[["3/5", "4/5"], ["-4/5", "3/5"]], unit=[1, 2]
        )
        ctx = FormContext(rotated, random_symplectic_r(2, 6, 11))
    corr = extract_all(OmegaTable(ctx, bound=2))
    # a fresh table: the context memo keys the assembled factors on the table
    bad = CorrelatorTable(dict(corr.values), dict(corr.provenance))
    bad.values[CorrelatorKey.make(1, [(1, 1)])] += Q(1, 7)
    for ext in range(1, ctx.data.n + 1):
        rep = virasoro_check(ctx, corr, 1, (), i_ext=ext)
        assert rep.ok, (ext, rep.failures())
        rep = virasoro_check(ctx, bad, 1, (), i_ext=ext)
        assert not rep.ok and rep.failures()[0].detail.startswith("sides differ at (-4,)")


@pytest.mark.parametrize("seed", [1, 2])
def test_virasoro_single_branch_random_r(seed):
    ctx = FormContext(airy_datum(), random_symplectic_r(1, 8, seed))
    table = OmegaTable(ctx, bound=2)
    corr = extract_all(table)
    for g, n in [(0, 2), (0, 3), (1, 1)]:
        budget = 3 * g - 3 + n + 1
        for ks in _k_multisets(n, budget):
            rep = virasoro_check(ctx, corr, g, [(k, 1) for k in ks])
            assert rep.ok, (seed, g, ks, rep.failures())


@pytest.mark.parametrize("seed", [5, 6])
def test_three_point_values_unchanged_by_dressing(seed):
    # the symplectic dressing acts trivially on genus-0 three-point values
    ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 6, seed))
    corr = extract_all(OmegaTable(ctx, bound=1), bound=1)
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                expect = 1 if a == b == c else 0
                assert corr.get(0, [(0, a), (0, b), (0, c)]) == expect


def test_three_point_values_dense_psi():
    # a psi with no zero entry: every branch tuple feeds every flat index, so
    # the slotwise psi inverse is exercised in full.  The unit psi (1, 1, 1)
    # pairs to 1 with every branch, so the values are bare sums over branches.
    psi = [
        [Q(1, 3), Q(2, 3), Q(2, 3)],
        [Q(2, 3), Q(1, 3), Q(-2, 3)],
        [Q(2, 3), Q(-2, 3), Q(1, 3)],
    ]
    unit = [sum(row) for row in psi]
    eta = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    datum = CanonicalData.make(u=[0, 1, 3], eta=eta, psi=psi, unit=unit)
    assert validate_canonical(datum).ok
    ctx = FormContext(datum, random_symplectic_r(3, 4, 1))
    corr = extract_all(OmegaTable(ctx, bound=1), bound=1)
    for a, b, c in product(range(3), repeat=3):
        expect = sum(psi[a][j] * psi[b][j] * psi[c][j] for j in range(3))
        assert corr.get(0, [(0, a + 1), (0, b + 1), (0, c + 1)]) == expect, (a, b, c)
    assert corr.get(0, [(0, 1)] * 3) == Q(17, 27)
    assert corr.get(0, [(0, 1), (0, 1), (0, 2)]) == Q(-2, 27)


def test_unstable_pairing_sign_locked():
    # the negative-frequency pairing that stands in for the unstable
    # two-point factor: for the one-point datum and a plain insertion it is
    # exactly -2 ds, the orientation every identity above depends on
    from localrec.correlators import _assembled_factor

    ctx = FormContext(airy_datum(), RMatrix.identity_r(1))
    y = Var("y", 1)
    f = _assembled_factor(ctx, CorrelatorTable(), 0, ((0, 1),), 1, y)
    assert f.degs == (1,)
    assert f.coefficient((0,)) == -2
    f1 = _assembled_factor(ctx, CorrelatorTable(), 0, ((1, 1),), 1, y)
    assert f1.coefficient((2,)) == -2  # -(I^(-1), v_1) dlambda = -2s * s ds


def _perturbed(form, exps, delta=1):
    """``form`` with one certified coefficient moved by ``delta``."""
    assert all(x <= h for x, h in zip(exps, form.hi))
    coeffs = dict(form.coeffs)
    coeffs[exps] = coeffs.get(exps, 0) + delta
    return MultiForm(form.vars, form.degs, coeffs, form.lo, form.hi)


def test_extraction_residual_catches_unread_coefficient():
    # the solve reads only all-pole exponent tuples; a coefficient with an
    # entry >= 0 is seen by the overdetermined residual alone
    ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 6, 11))
    table = OmegaTable(ctx, bound=2)
    key = (0, (1, 1, 2, 2))
    table.omega(*key)
    table._store[key] = _perturbed(table._store[key], (-2, -2, -2, 0))
    with pytest.raises(ConsistencyError, match="extraction residual"):
        extract_correlators(table, 0, 4)


def test_extraction_checks_keys_beyond_tameness():
    # psi degrees (0, 0, 1, 1) exceed the (0,4) budget of 1: the coefficient
    # there must be explained by deeper keys, of which there are none
    table = airy_table(bound=2)
    key = (0, (1, 1, 1, 1))
    table.omega(*key)
    table._store[key] = _perturbed(table._store[key], (-2, -2, -4, -4))
    with pytest.raises(ConsistencyError, match="beyond the tameness bound"):
        extract_correlators(table, 0, 4)


def test_extraction_residual_on_sorted_branch_tuples():
    # (0,3) solves only at (-2,-2,-2), so exponent 0 in the branch-2 slot of
    # the stored (1, 1, 2) entry is read by the residual alone
    ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 6, 11))
    table = OmegaTable(ctx, bound=2)
    key = (0, (1, 1, 2))
    table.omega(*key)
    table._store[key] = _perturbed(table._store[key], (-2, -2, 0))
    with pytest.raises(ConsistencyError, match="extraction residual"):
        extract_correlators(table, 0, 3)


def test_off_sorted_coefficient_is_caught_through_the_orbit_verdict(monkeypatch):
    # slots 1-3 of the rotated (1, 1, 1, 1) entry share a branch and a window,
    # so the residual compares them at block-sorted exponents only; the
    # planted exponent (0, -2, -2) is off-sorted there and read by no solve
    # step, so only the failed orbit verdict, on which the full residual
    # runs, catches it.  The text was recorded with the full residual alone.
    rotated = CanonicalData.make(
        u=[0, 1], eta=[[1, 0], [0, 1]], psi=[["3/5", "4/5"], ["-4/5", "3/5"]], unit=[1, 2]
    )
    table = OmegaTable(FormContext(rotated, random_symplectic_r(2, 6, 11)), bound=2)
    key = (0, (1, 1, 1, 1))
    form = table.omega(*key)
    assert form.hi[1] == form.hi[2] == form.hi[3] != form.hi[0]
    table._store[key] = _perturbed(form, (-2, 0, -2, -2))
    assert not table.orbit_symmetric(*key)
    with pytest.raises(ConsistencyError) as info:
        extract_correlators(table, 0, 4)
    assert str(info.value) == (
        "extraction residual at branches (1, 1, 1, 1) of (0,4): "
        "coefficient (-2, 0, -2, -2) predicted -9/2, computed -7/2"
    )
    monkeypatch.setattr(OmegaTable, "orbit_symmetric", lambda *args: True)
    extract_correlators(table, 0, 4)  # the block-sorted comparison alone passes


def test_off_sorted_defect_reads_every_ordered_branch_tuple(monkeypatch):
    # on the planted defect above the orbit verdict fails, so the solve
    # reads every ordered branch tuple through OmegaTable.omega, each once
    table = OmegaTable(FormContext(ROTATED_PAIR, random_symplectic_r(2, 6, 11)), bound=2)
    key = (0, (1, 1, 1, 1))
    table._store[key] = _perturbed(table.omega(*key), (-2, 0, -2, -2))
    requested = []
    omega = OmegaTable.omega

    def spy(self, g, branches, vars=None):
        requested.append(tuple(branches))
        return omega(self, g, branches, vars)

    monkeypatch.setattr(OmegaTable, "omega", spy)
    with pytest.raises(ConsistencyError, match="extraction residual"):
        extract_correlators(table, 0, 4)
    unsorted = [b for b in requested if b != tuple(sorted(b))]
    assert sorted(unsorted) == [b for b in product((1, 2), repeat=4) if b != tuple(sorted(b))]


@pytest.mark.parametrize(
    "make", [lambda: airy_table(bound=4), lambda: random_pair_table()], ids=["airy-b4", "pair"]
)
def test_ordered_read_gives_the_values_of_the_symmetric_one(monkeypatch, make):
    # with every orbit verdict failed, the solve reads every ordered branch
    # tuple and the residual runs in full: the reference for the
    # block-sorted reads that passing data take
    want = extract_all(make())
    monkeypatch.setattr(OmegaTable, "orbit_symmetric", lambda *args: False)
    got = extract_all(make())
    assert got.items() == want.items() and got.provenance == want.provenance


@st.composite
def symmetric_contractions(draw):
    """A symmetric sparse tensor over a few indices, one map per slot and a
    set of tied slot pairs."""
    n = draw(st.integers(1, 4))
    indices = range(3)
    keys = st.lists(st.sampled_from(indices), min_size=n, max_size=n).map(
        lambda ks: tuple(sorted(ks))
    )
    tensor = draw(st.dictionaries(keys, st.integers(-3, 3), max_size=8))
    entries = st.dictionaries(st.integers(0, 3), st.integers(-2, 2), max_size=3)
    maps = [draw(st.fixed_dictionaries({i: entries for i in indices})) for _ in range(n)]
    ties = draw(st.sets(st.integers(0, n - 2))) if n > 1 else set()
    return tensor, maps, ties


@given(symmetric_contractions())
@settings(max_examples=200, deadline=None)
def test_symmetric_mode_products_are_the_expanded_contraction(case):
    """The symmetric contraction equals the ordered contraction of the tensor
    written out in every slot order, restricted to the tied keys."""
    tensor, maps, ties = case
    expanded = {perm: c for key, c in tensor.items() for perm in permutations(key)}
    getters = [m.__getitem__ for m in maps]
    full = correlators._mode_products(expanded, getters)
    want = {
        key: c for key, c in full.items() if all(key[m] <= key[m + 1] for m in ties)
    }
    assert correlators._mode_products(tensor, getters, ties, symmetric=True) == want


def test_slot_inverse_is_built_once_per_new_largest_psi_power(monkeypatch):
    # exact Airy at bound 6 asks for psi powers 0..8 over 18 entries; the
    # inverse through each is built once, and extract_all meets them in
    # increasing order
    builds = []
    real = correlators.mat_inv

    def spy(matrix):
        builds.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(correlators, "mat_inv", spy)
    extract_all(airy_table(bound=6))
    assert builds == list(range(1, 10))


def random_pair_table(bound=2):
    ctx = FormContext(decoupled_datum([0, 1]), random_symplectic_r(2, 6, 11))
    return OmegaTable(ctx, bound=bound)


# The failure texts and values below were recorded with the triangular solve,
# one step per psi-degree vector by decreasing total degree; the slot inverse
# must leave them byte-identical.


@pytest.mark.parametrize(
    "exps, message",
    [
        (
            (-2, -2, -4, -4),
            "nonzero correlator ((0, 1), (0, 1), (1, 2), (1, 2)) "
            "beyond the tameness bound: 1/144",
        ),
        # read only through the ordered branch tuple (2, 2, 1, 1)
        (
            (-4, -4, -2, -2),
            "nonzero correlator ((0, 2), (0, 2), (1, 1), (1, 1)) "
            "beyond the tameness bound: 1/144",
        ),
    ],
)
def test_beyond_tameness_failure_text(exps, message):
    table = random_pair_table()
    key = (0, (1, 1, 2, 2))
    table.omega(*key)
    table._store[key] = _perturbed(table._store[key], exps, 1)
    with pytest.raises(ConsistencyError) as info:
        extract_correlators(table, 0, 4)
    assert str(info.value) == message


def test_beyond_tameness_names_the_first_degree_vector():
    # two nonzero keys of total degree 3 in (0,5): the one with the lower
    # degree vector is named, though the other has the lower flat indices
    ctx = FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2))
    table = OmegaTable(ctx, bound=3)
    key = (0, (1, 1, 2, 2, 2))
    form = _perturbed(table.omega(*key), (-4, -6, -2, -2, -2), 1)
    table._store[key] = _perturbed(form, (-2, -2, -4, -4, -4), 1)
    with pytest.raises(ConsistencyError) as info:
        extract_correlators(table, 0, 5)
    assert str(info.value) == (
        "nonzero correlator ((0, 2), (0, 2), (0, 2), (1, 1), (2, 1)) "
        "beyond the tameness bound: -1/1440"
    )


@pytest.mark.parametrize(
    "slot, message",
    [
        (
            1,
            "extraction at (0,4) psi-degrees (0, 0, 1, 1) not certified: "
            "coefficient at (-2, -2, -4, -4) not certified",
        ),
        # a branch-2 slot is read at -2 first by an ordered tuple such as
        # (2, 1, 1, 2); the text names that tuple's exponents, not the
        # stored entry's (-4, -4, -2, -4)
        (
            2,
            "extraction at (0,4) psi-degrees (0, 1, 1, 1) not certified: "
            "coefficient at (-2, -4, -4, -4) not certified",
        ),
    ],
)
def test_uncertified_solve_coefficient_failure_text(slot, message):
    table = random_pair_table()
    key = (0, (1, 1, 2, 2))
    table.omega(*key)
    form = table._store[key]
    table._store[key] = form.cap_hi(form.vars[slot], -3)
    with pytest.raises(TruncationOrderError) as info:
        extract_correlators(table, 0, 4)
    assert str(info.value) == message


# a +1 planted at a degree vector past the tameness bound of (0,4), and a
# stored slot capped at -3: the solve names whichever defect the triangular
# solve meets first
TWO_DEFECTS = [
    (
        "airy",
        (-2, -4, -4, -4),
        1,
        "nonzero correlator ((0, 1), (1, 1), (1, 1), (1, 1)) "
        "beyond the tameness bound: 1/432",
    ),
    (
        "airy",
        (-2, -4, -4, -4),
        2,
        "nonzero correlator ((0, 1), (1, 1), (1, 1), (1, 1)) "
        "beyond the tameness bound: 1/432",
    ),
    (
        "airy",
        (-2, -2, -4, -4),
        1,
        "extraction at (0,4) psi-degrees (0, 0, 1, 1) not certified: "
        "coefficient at (-2, -2, -4, -4) not certified",
    ),
    (
        "airy",
        (-2, -2, -4, -4),
        2,
        "nonzero correlator ((0, 1), (0, 1), (1, 1), (1, 1)) "
        "beyond the tameness bound: 1/144",
    ),
    (
        "airy",
        (-4, -4, -4, -4),
        1,
        "nonzero correlator ((1, 1), (1, 1), (1, 1), (1, 1)) "
        "beyond the tameness bound: 1/1296",
    ),
    (
        "airy",
        (-4, -4, -4, -4),
        2,
        "nonzero correlator ((1, 1), (1, 1), (1, 1), (1, 1)) "
        "beyond the tameness bound: 1/1296",
    ),
    (
        "pair",
        (-2, -4, -4, -4),
        1,
        "nonzero correlator ((0, 1), (1, 1), (1, 2), (1, 2)) "
        "beyond the tameness bound: 1/432",
    ),
    (
        "pair",
        (-2, -4, -4, -4),
        2,
        "extraction at (0,4) psi-degrees (0, 1, 1, 1) not certified: "
        "coefficient at (-2, -4, -4, -4) not certified",
    ),
    (
        "pair",
        (-2, -2, -4, -4),
        1,
        "extraction at (0,4) psi-degrees (0, 0, 1, 1) not certified: "
        "coefficient at (-2, -2, -4, -4) not certified",
    ),
    (
        "pair",
        (-2, -2, -4, -4),
        2,
        "extraction at (0,4) psi-degrees (0, 1, 1, 1) not certified: "
        "coefficient at (-2, -4, -4, -4) not certified",
    ),
    (
        "pair",
        (-4, -4, -4, -4),
        1,
        "nonzero correlator ((1, 1), (1, 1), (1, 2), (1, 2)) "
        "beyond the tameness bound: 1/1296",
    ),
    (
        "pair",
        (-4, -4, -4, -4),
        2,
        "nonzero correlator ((1, 1), (1, 1), (1, 2), (1, 2)) "
        "beyond the tameness bound: 1/1296",
    ),
]


@pytest.mark.parametrize("datum, exps, slot, message", TWO_DEFECTS)
def test_two_defects_name_the_first_one_met(datum, exps, slot, message):
    if datum == "airy":
        table, key = airy_table(bound=2), (0, (1, 1, 1, 1))
    else:
        table, key = random_pair_table(), (0, (1, 1, 2, 2))
    form = _perturbed(table.omega(*key), exps, 1)
    table._store[key] = form.cap_hi(form.vars[slot], -3)
    with pytest.raises((ConsistencyError, TruncationOrderError)) as info:
        extract_correlators(table, 0, 4)
    assert str(info.value) == message


def _values_digest(table) -> tuple[int, str]:
    corr = extract_all(table)
    rows = [
        [key.g, [list(p) for p in key.insertions], str(value), corr.provenance[key]]
        for key, value in corr.items()
    ]
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_extract_random_r_pair_values_pinned():
    # R-corrections give every weight several terms, so the slot inverse
    # has entries off its diagonal blocks
    assert _values_digest(random_pair_table()) == (
        35,
        "d4c5bb380691bac160baa30100316f99281deb53754f16a3c43766b3f3d87b83",
    )


ROTATED_PAIR = CanonicalData.make(
    u=[0, 1], eta=[[1, 0], [0, 1]], psi=[["3/5", "4/5"], ["-4/5", "3/5"]], unit=[1, 2]
)
ROTATED_TRIPLE = CanonicalData.make(  # the datum of the three-branch CI check
    u=[0, 1, 3],
    eta=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    psi=[["1/3", "2/3", "2/3"], ["2/3", "1/3", "-2/3"], ["2/3", "-2/3", "1/3"]],
    unit=["5/3", "1/3", "1/3"],
)


@pytest.mark.parametrize(
    "datum, seed, rows, digest",
    [
        (
            ROTATED_PAIR,
            11,
            35,
            "21536b3f4754fb6b2b9756f96ed35dfb9b5c2fcd2b5b7506e996f21c7ffcd4e8",
        ),
        (
            ROTATED_TRIPLE,
            1,
            91,
            "46288c523b8e98ae54ceaf6920e5a70bbe0d8154c525cb3a0c9df245057e8c9d",
        ),
    ],
    ids=["rotated-pair", "rotated-triple"],
)
def test_extract_rotated_random_r_values_pinned(datum, seed, rows, digest):
    # psi is not diagonal, so every diagonal block of the slot inverse mixes
    # the branches
    ctx = FormContext(datum, random_symplectic_r(datum.n, 6, seed))
    assert _values_digest(OmegaTable(ctx, bound=2)) == (rows, digest)


# the one extraction pin whose eta is not the identity
ETA_PAIR = CanonicalData.make(
    u=[0, 1], eta=[[2, 1], [1, 1]], psi=[[0, 1], [1, -1]], unit=[1, 3]
)


def test_extract_non_identity_eta_values_pinned():
    assert validate_canonical(ETA_PAIR).ok
    ctx = FormContext(ETA_PAIR, random_symplectic_r(2, 6, 11))
    assert _values_digest(OmegaTable(ctx, bound=2)) == (
        35,
        "b496c8623ca82ea121062da808f5563577d70fed31eca954ac27525cf6ed3108",
    )


def identity_r_oracle(datum: CanonicalData, g: int, insertions) -> Fraction:
    """<prod_m v_{a_m} psi^{k_m}>_g for R = 1, from the datum and DVV alone:

        sum_j p_j^(-(2g-2+n)) prod_m (eta psi)[a_m][j] <tau_{k_1} ... tau_{k_n}>_g

    with p_j = sum_a (eta psi)[a][j] unit[a].  Each branch is a rescaled copy
    of the Airy model, seen through the frame eta psi.
    """
    n_flat = datum.n
    eta_psi = [
        [sum(datum.eta[a][c] * datum.psi[c][j] for c in range(n_flat)) for j in range(n_flat)]
        for a in range(n_flat)
    ]
    chi = 2 * g - 2 + len(insertions)
    wk = dvv_intersection(g, [k for k, _ in insertions])
    total = Fraction(0)
    for j in range(n_flat):
        p = sum(eta_psi[a][j] * datum.unit[a] for a in range(n_flat))
        term = wk / p**chi
        for _, a in insertions:
            term *= eta_psi[a - 1][j]
        total += term
    return total


@pytest.mark.parametrize(
    "u, eta, psi, unit, bound",
    [
        ([0, 1], [[1, 0], [0, 1]], [[Q(3, 5), Q(4, 5)], [Q(-4, 5), Q(3, 5)]], [1, 2], 3),
        (
            [0, 1],
            [[Q(1, 4), 0], [0, 4]],
            [[Q(6, 5), Q(8, 5)], [Q(-2, 5), Q(3, 10)]],  # not symmetric
            [1, 1],
            3,
        ),
        (
            [0, 1, 3],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[Q(n, 3) for n in row] for row in ([1, 2, 2], [2, 1, -2], [2, -2, 1])],
            [1, 0, 2],
            2,
        ),
    ],
    ids=["rotated-pair", "nonsymmetric-psi", "dense-triple"],
)
def test_identity_r_correlators_match_the_local_oracle(u, eta, psi, unit, bound):
    """With R = 1 every extracted correlator is the oracle's value; the
    non-symmetric psi pins the row/column convention of eta psi."""
    datum = CanonicalData.make(u=u, eta=eta, psi=psi, unit=unit)
    assert validate_canonical(datum).ok
    table = OmegaTable(FormContext(datum, RMatrix.identity_r(datum.n)), bound=bound)
    corr = extract_all(table)
    assert corr.values
    for key, value in corr.items():
        assert value == identity_r_oracle(datum, key.g, key.insertions), key

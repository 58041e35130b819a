"""Local expansions: frozen closed forms at N = 1 and structural properties."""

import hashlib
from fractions import Fraction
from itertools import product

import pytest

from localrec.correlators import _constraint_weight
from localrec.frobenius import (
    CanonicalData,
    RMatrix,
    airy_datum,
    decoupled_datum,
    random_symplectic_r,
)
from localrec.localforms import (
    FormContext,
    _dual_dlambda,
    a1_period,
    diagonal_expansion_weights,
    hrp_check,
    one_point_form,
    ope_normalization_check,
    period_pairing,
    period_vector,
    propagator_p0,
    recursion_kernel,
    two_point_form,
)
from localrec.serialize import dumps_canonical, form_to_json, rat_to_str
from localrec.series import MonodromyError, Var, WindowError, laurent

Q = Fraction
S = Var("s", 1)
R_ = Var("r", 1)


def airy_ctx():
    return FormContext(airy_datum(), RMatrix.identity_r(1))


def random_ctx(n, order, seed):
    return FormContext(decoupled_datum(list(range(n))), random_symplectic_r(n, order, seed))


def test_memo_refuses_a_form_of_indefinite_parity():
    """The memo checks the parity of every form it stores and stores none
    that fails, so a second fetch computes and refuses it again."""
    ctx = airy_ctx()
    calls = []

    def mixed(ctx, v):
        calls.append(v)
        return laurent(v, {-2: 1, 3: 1}, deg=1)

    for _ in range(2):
        with pytest.raises(MonodromyError, match="reflection parity in s"):
            ctx.memo(mixed, S)
    assert calls == [S, S]


def test_a1_period_values():
    assert a1_period(0, S).coefficient((-1,)) == 2
    assert a1_period(1, S).coefficient((-3,)) == -2
    assert a1_period(2, S).coefficient((-5,)) == 6
    assert a1_period(-1, S).coefficient((1,)) == 2
    assert a1_period(-2, S).coefficient((3,)) == Q(2, 3)


def test_a1_period_single_term():
    for k in range(-4, 5):
        f = a1_period(k, S)
        assert len(f.coeffs) == 1


def test_period_vector_airy():
    ctx = airy_ctx()
    (comp,) = period_vector(ctx, 1, 1, S)
    assert comp.coefficient((-3,)) == -2
    (comp,) = period_vector(ctx, 1, -1, S)
    assert comp.coefficient((1,)) == 2


def test_period_vector_identity_r_general_n():
    ctx = random_ctx(3, 0, 1)  # order-0 random R is the identity
    for j in (1, 2, 3):
        vec = period_vector(ctx, j, 0, Var("s", j))
        for a in (1, 2, 3):
            expect = 2 if a == j else 0
            assert vec[a - 1].coefficient((-1,)) == expect


def test_period_window_truncation():
    ctx = random_ctx(2, 3, 5)
    comp = ctx.period_dual(1, 1, 1, S)
    assert comp.hi == (2 * 3 - 2,)
    with pytest.raises(WindowError):
        comp.coefficient((2 * 3 - 1,))


def test_period_parity():
    ctx = random_ctx(2, 4, 7)
    for k in (-2, 0, 3):
        comp = ctx.period_dual(1, k, 2, S)
        for (e,), _ in comp.items():
            assert e % 2 == 1  # periods are odd functions of s


def test_one_point_form_airy():
    f = one_point_form(airy_ctx(), 1, S)
    assert f.degs == (1,)
    assert f.coefficient((2,)) == 8
    assert len(f.coeffs) == 1


def test_one_point_leading_coefficient_general():
    ctx = random_ctx(3, 2, 9)
    for j in (1, 2, 3):
        sv = Var("s", j)
        f = one_point_form(ctx, j, sv)
        assert f.coefficient((2,)) == 8 * ctx.unit_pairing(0, j)


def test_two_point_form_airy_closed_form():
    # 4 (r^2 + s^2) / (r^2 - s^2)^2 expanded in |s| < |r|
    b = two_point_form(airy_ctx(), 1, 1, R_, S, 6)
    assert b.coefficient((-2, 0)) == 4
    assert b.coefficient((-4, 2)) == 12
    assert b.coefficient((-6, 4)) == 20
    assert b.coefficient((-3, 1)) == 0


def test_two_point_cross_branch_identity_r_vanishes():
    ctx = FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2))
    b = two_point_form(ctx, 1, 2, Var("r", 1), Var("s", 2), 6)
    assert b.is_zero()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_point_dual_routes_agree(n, seed):
    # construction raises on any disagreement between the mode sum and the
    # closing-matrix route, so building every branch pair is the assertion
    ctx = random_ctx(n, 4, seed)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            two_point_form(ctx, i, j, Var("r", i), Var("s", j), 6)


def test_two_point_evenness():
    ctx = random_ctx(2, 4, 11)
    b = two_point_form(ctx, 1, 2, Var("r", 1), Var("s", 2), 6)
    for (er, es), _ in b.items():
        assert er % 2 == 0 and es % 2 == 0


def test_propagator_airy():
    p0 = propagator_p0(airy_ctx(), 1, S)
    assert p0.degs == (2,)
    assert p0.coefficient((-2,)) == 1
    assert len(p0.coeffs) == 1


def test_propagator_window_reflects_truncation():
    ctx = random_ctx(1, 0, 1)  # truncated at order 0: only the pole term is known
    p0 = propagator_p0(ctx, 1, S)
    assert p0.coefficient((-2,)) == 1
    with pytest.raises(WindowError):
        p0.coefficient((0,))


def test_kernel_airy_closed_form():
    # -(1/2) dr/(s (r^2 - s^2) ds) expanded in |s| < |r|
    k = recursion_kernel(airy_ctx(), 1, 1, R_, S, 3)
    assert k.degs == (1, -1)
    assert k.coefficient((-2, -1)) == Q(-1, 2)
    assert k.coefficient((-4, 1)) == Q(-1, 2)
    assert k.coefficient((-6, 3)) == Q(-1, 2)
    assert k.coefficient((-3, 0)) == 0


def test_kernel_cross_branch_identity_r_vanishes():
    ctx = FormContext(decoupled_datum([0, 1]), RMatrix.identity_r(2))
    k = recursion_kernel(ctx, 1, 2, Var("r", 1), Var("s", 2), 3)
    assert k.is_zero()


def test_kernel_even_in_s():
    # as a function of s the kernel is even: reflecting flips both the odd
    # exponents and the inverse ds, leaving it unchanged
    ctx = random_ctx(2, 4, 13)
    k = recursion_kernel(ctx, 1, 1, Var("r", 1), Var("s", 1), 3)
    assert k.reflect(Var("s", 1)) == k


def test_ope_normalization_airy():
    assert ope_normalization_check(airy_ctx(), 1).ok


@pytest.mark.parametrize("seed", [4, 5])
def test_ope_normalization_random_pair(seed):
    ctx = random_ctx(2, 4, seed)
    for j in (1, 2):
        assert ope_normalization_check(ctx, j).ok


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hrp_identity_random(n, seed):
    ctx = random_ctx(n, 6, seed)
    rep = hrp_check(ctx, k_bound=3)
    assert rep.ok, rep.failures()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n, skipped", [(1, 10), (2, 40), (3, 90)])
def test_hrp_window_limited_counts_pinned(n, skipped, seed):
    # the pairs whose window cannot reach the pole slice, recorded when each
    # pairing multiplied the two periods before taking the residue; the
    # check's report holds the count, the check command's output only the verdict
    rep = hrp_check(random_ctx(n, 6, seed), k_bound=5)
    assert rep.ok, rep.failures()
    assert rep.checks[0].detail == (
        f"all certified pairs up to |k| <= 5; {skipped} window-limited pairs skipped"
    )


def test_hrp_identity_airy_exact_everything():
    rep = hrp_check(airy_ctx(), k_bound=5)
    assert rep.ok
    assert "0 window-limited" in rep.checks[0].detail


@pytest.mark.parametrize("seed", [3, 4])
def test_two_point_cross_symmetry(seed):
    # B at (i, j) and at (j, i) are expansions of one symmetric object in two
    # regions; their coefficient maps coincide on the strict common box
    # (inside both support boxes), which covers the full polynomial part
    ctx = random_ctx(3, 4, seed)
    for i in range(1, 4):
        for j in range(1, 4):
            b1 = two_point_form(ctx, i, j, Var("r", i), Var("s", j), 2)
            b2 = two_point_form(ctx, j, i, Var("s", j), Var("r", i), 2)
            lo = tuple(max(a, b) for a, b in zip(b1.lo, b2.lo))
            hi = tuple(min(a, b) for a, b in zip(b1.hi, b2.hi))
            assert all(l <= h for l, h in zip(lo, hi))
            keys = set(b1.coeffs) | set(b2.coeffs)
            compared = 0
            for e in keys:
                if all(l <= x <= h for x, l, h in zip(e, lo, hi)):
                    assert b1.coeffs.get(e, 0) == b2.coeffs.get(e, 0), (i, j, e)
                    compared += 1
            if i != j:
                assert compared >= 3  # the polynomial part is visible


def _seed_data(name):
    if name == "airy":
        return airy_datum(), RMatrix.identity_r(1)
    if name == "rotated-pair":
        psi = [["3/5", "4/5"], ["-4/5", "3/5"]]
        rotated = CanonicalData.make(u=[0, 1], eta=[[1, 0], [0, 1]], psi=psi, unit=[1, 2])
        return rotated, random_symplectic_r(2, 6, 11)
    if name == "decoupled-pair":
        return decoupled_datum([0, 1]), random_symplectic_r(2, 10, 1)
    return decoupled_datum([0, 1, 2]), random_symplectic_r(3, 5, 1)


_SEED_DIGESTS = {
    "airy": "c361524bf8be920af5acae87030f7099521ec68f54450166e5ee5bcfcfa8a9ab",
    "rotated-pair": "2acbdb5be3c92ec42a900afbec27cb7f83d2dae43ff3e10792656d703efdb5dc",
    "decoupled-pair": "e39162c1bf2ca7f2f246a3410678d27bdf357b2a7b751059a6601bcc572348ae",
    "decoupled-triple": "e47b8de8f42542206b485bc3ff35e069c9579ffc34a6448e7402cfa7516cd0d6",
}


@pytest.mark.parametrize("name", list(_SEED_DIGESTS))
def test_seed_kernel_and_constraint_weight_bytes_pinned(name):
    """The mode sums, pinned byte for byte over every branch pair: the
    two-point seed, the recursion kernel and the constraint weight, at
    windows below and above the truncation order."""
    ctx = FormContext(*_seed_data(name))
    rows = []
    for i, j in product(range(1, ctx.data.n + 1), repeat=2):
        r, s, y = Var("r", i), Var("s", j), Var("y", j)
        for s_hi in (0, 1, 4, 7, 10, 13):
            rows.append(["two_point_form", i, j, s_hi, two_point_form(ctx, i, j, r, s, s_hi)])
        for kmax in range(8):
            rows.append(["recursion_kernel", i, j, kmax, recursion_kernel(ctx, i, j, r, s, kmax)])
            w = _constraint_weight(ctx, i, j, r, y, kmax)
            rows.append(["constraint_weight", i, j, kmax, w])
    text = dumps_canonical([row[:-1] + [form_to_json(row[-1])] for row in rows])
    assert hashlib.sha256(text.encode()).hexdigest() == _SEED_DIGESTS[name]


_PERIOD_DIGESTS = {
    "airy": "53c98e0ac7fff19d277aa62b0a1bc5b0047e5ac3c6d88a403b14c11aa70348e7",
    "rotated-pair": "77b4eadfbb1b7a7930235d774ab2d4386400fbc909104b2ef90a9ba952686b94",
    "decoupled-pair": "88ee9bb7d9569040e59d9b5b2db00e893255abadb2b0efa72efdebb462c5f3a8",
    "decoupled-triple": "1e319370916cbc64c34199d52be7a2f8a1ea2ff1389162424d977104667c2f29",
}


@pytest.mark.parametrize("name", list(_PERIOD_DIGESTS))
def test_period_layer_bytes_pinned(name):
    """The periods, each dual period times dlambda, and every period pairing,
    pinned byte for byte over every branch and component for |k| <= 5; a
    pairing whose window cannot reach the pole slice is pinned as "window"."""
    ctx = FormContext(*_seed_data(name))
    indices, ks = range(1, ctx.data.n + 1), range(-5, 6)
    rows = []
    for j, k in product(indices, ks):
        s = Var("s", j)
        rows.append(["period_unit", j, k, ctx.period_unit(j, k, s)])
        for a in indices:
            rows.append(["period_basis", j, k, a, ctx.period_basis(j, k, a, s)])
            rows.append(["period_dual", j, k, a, ctx.period_dual(j, k, a, s)])
            rows.append(["dual_dlambda", j, k, a, _dual_dlambda(ctx, j, k, a, s)])
    rows = [row[:-1] + [form_to_json(row[-1])] for row in rows]
    for k1, k2, a, b in product(ks, ks, indices, indices):
        try:
            value = rat_to_str(period_pairing(ctx, k1, a, k2, b))
        except WindowError:
            value = "window"
        rows.append(["period_pairing", k1, a, k2, b, value])
    text = dumps_canonical(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == _PERIOD_DIGESTS[name]


def test_diagonal_weights_are_built_once_and_read_only():
    """The weights depend on the order alone: a second call returns the
    same mapping, which cannot be written."""
    w = diagonal_expansion_weights(2)
    assert diagonal_expansion_weights(2) is w
    assert (w[-2], w[-1]) == (4, 0) and sorted(w) == [-2, -1, 0, 1, 2]
    with pytest.raises(TypeError):
        w[0] = 1
    assert diagonal_expansion_weights(0)[0] == w[0]

"""Datum validation, symplectic checks and the closing matrices."""

from fractions import Fraction

import pytest

from localrec.frobenius import (
    CanonicalData,
    DatumError,
    RMatrix,
    airy_datum,
    check_symplectic,
    compute_vkl,
    decoupled_datum,
    random_symplectic_r,
    validate_canonical,
)
from localrec.linalg import identity, mat_eq, transpose, zeros

Q = Fraction


def graded_pair_datum():
    """N = 2 rational datum whose eta is not the identity."""
    return CanonicalData.make(
        u=[0, 1],
        eta=[[Q(1, 2), 0], [0, Q(1, 2)]],
        psi=[[1, 1], [1, -1]],
        unit=[1, 0],
    )


def test_airy_valid():
    assert validate_canonical(airy_datum()).ok


def test_graded_pair_valid():
    assert validate_canonical(graded_pair_datum()).ok


def test_bad_isometry():
    d = CanonicalData.make(u=[0], eta=[[1]], psi=[[2]], unit=[1])
    rep = validate_canonical(d)
    assert not rep.ok
    assert any(c.name == "psi-isometry" and not c.ok for c in rep.checks)


def test_coincident_critical_values():
    d = decoupled_datum([0, 0])
    rep = validate_canonical(d)
    assert any(c.name == "distinct-critical-values" and not c.ok for c in rep.checks)


def test_identity_r_symplectic():
    assert check_symplectic(RMatrix.identity_r(3)).ok


def test_order1_condition_is_symmetry():
    sym = RMatrix.make([identity(2), [[1, 2], [2, 5]]])
    assert check_symplectic(sym).ok
    anti = RMatrix.make([identity(2), [[0, 1], [-1, 0]]])
    rep = check_symplectic(anti)
    assert not rep.ok
    assert rep.failures()[0].name == "symplectic-order-1"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_r_is_symplectic(n, seed):
    r = random_symplectic_r(n, 6, seed)
    assert r.order == 6
    assert check_symplectic(r).ok


def test_random_r_deterministic():
    a = random_symplectic_r(2, 4, seed=11)
    b = random_symplectic_r(2, 4, seed=11)
    assert a.mats == b.mats
    c = random_symplectic_r(2, 4, seed=12)
    assert a.mats != c.mats


def test_random_r_order_zero():
    r = random_symplectic_r(2, 0, seed=5)
    assert mat_eq(r.mat(0), identity(2))
    assert r.order == 0


def test_vkl_identity_r_vanishes():
    v = compute_vkl(RMatrix.identity_r(2), 3)
    for k in range(4):
        for l in range(4 - k):
            assert mat_eq(v.mat(k, l), zeros(2))


def test_vkl_first_order_by_hand():
    # 1 - R(-w)^T R(-z) = R1 z + R1^T w - R1^T R1 w z for R = 1 + R1 z,
    # so dividing by z + w gives V_00 = R1 (symmetric by the order-1 condition)
    r1 = [[Q(1), Q(2)], [Q(2), Q(-1)]]
    r = RMatrix.make([identity(2), r1])
    v = compute_vkl(r, 0)
    assert mat_eq(v.mat(0, 0), r1)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_vkl_symmetry_random(seed):
    r = random_symplectic_r(3, 5, seed)
    v = compute_vkl(r, 4)
    for k in range(5):
        for l in range(5 - k):
            assert mat_eq(v.mat(k, l), transpose(v.mat(l, k)))


def test_vkl_window_guard():
    r = random_symplectic_r(2, 3, 1)
    with pytest.raises(DatumError):
        compute_vkl(r, 3)


def test_vkl_exact_identity_any_depth():
    v = compute_vkl(RMatrix.identity_r(2), 6)
    assert mat_eq(v.mat(3, 3), zeros(2))


def test_non_symplectic_r_fails_division():
    bad = RMatrix.make([identity(2), [[0, 1], [-1, 0]]])
    with pytest.raises(DatumError):
        compute_vkl(bad, 0)


def test_vkl_refuses_r0_not_identity():
    """``RMatrix.make`` refuses R_0 != 1, but the constructor itself does not,
    so the closing matrices check the constant term of their numerator."""
    r = RMatrix(n=2, mats=(((Q(2), Q(0)), (Q(0), Q(1))),), exact=True)
    with pytest.raises(DatumError, match="constant term; R_0 != 1"):
        compute_vkl(r, 0)

"""Exact Laurent-form algebra: frozen examples and algebraic properties."""

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localrec.series import (
    INF,
    DegreeError,
    MonodromyError,
    MultiForm,
    Var,
    WindowError,
    _cut_terms,
    _relabelled,
    _wadd,
    agreement_mismatch,
    SeriesError,
    capped_sum_of_products,
    ConsistencyError,
    d_unit,
    expand_tied,
    geometric_expand,
    invert,
    laurent,
    sum_forms,
    zero_form,
)

S = Var("s", 1)
R = Var("r", 1)


def F(var, terms, deg=0, lo=None, hi=INF):
    exps = list(terms) or [0]
    return MultiForm(
        (var,),
        (deg,),
        {(e,): Fraction(c) for e, c in terms.items()},
        (min(min(exps), 0) if lo is None else lo,),
        (hi,),
    )


def test_add_cancellation_and_window():
    a = F(S, {-1: 2}, lo=-3, hi=3)
    b = F(S, {-1: -2}, lo=-1, hi=5)
    c = a + b
    assert c.coeffs == {}
    assert c.hi == (3,)
    assert c.lo == (-3,)  # support bound is the union of supports
    # certified zero across the whole region up to hi
    for e in range(-3, 4):
        assert c.coefficient((e,)) == 0


def test_add_identity_intersects_window():
    a = F(S, {2: 4}, hi=7)
    z = zero_form([S], [0]).cap_hi(S, 5)
    c = a + z
    assert c.coefficient((2,)) == 4
    assert c.hi == (5,)


def test_add_coefficientwise():
    a = MultiForm((R, S), (0, 0), {(-2, 0): 4, (-4, 2): 12}, (-4, 0), (INF, 6))
    b = MultiForm((R, S), (0, 0), {(-4, 2): 4}, (-4, 0), (INF, 6))
    c = a + b
    assert c.coefficient((-2, 0)) == 4
    assert c.coefficient((-4, 2)) == 16


def test_add_requires_matching_vars_and_degs():
    a = F(S, {0: 1})
    b = F(R, {0: 1})
    with pytest.raises(DegreeError):
        a + b
    with pytest.raises(DegreeError):
        F(S, {0: 1}, deg=1) + F(S, {0: 1}, deg=0)


def test_mul_simple_poles():
    a = F(S, {-1: 2})
    c = a * a
    assert c.coefficient((-2,)) == 4
    assert c.degs == (0,)


def test_mul_ds_squared():
    a = F(S, {1: 1}, deg=1)
    c = a * a
    assert c.degs == (2,)
    assert c.coefficient((2,)) == 1
    with pytest.raises(DegreeError):
        c * a  # degree would exceed 2


def test_geometric_expand_binomials():
    g2 = geometric_expand(2, R, S, 6)
    # r^-2 + 2 s r^-3 + 3 s^2 r^-4 + ...
    assert g2.coefficient((-2, 0)) == 1
    assert g2.coefficient((-3, 1)) == 2
    assert g2.coefficient((-4, 2)) == 3
    g1 = geometric_expand(1, R, S, 4)
    assert g1.coefficient((-1, 0)) == 1
    assert g1.coefficient((-3, 2)) == 1


def test_geometric_even_part():
    g = geometric_expand(2, R, S, 6)
    sym = g + g.reflect(S)
    # 2 r^-2 + 6 s^2 r^-4 + ... (odd powers cancel)
    assert sym.coefficient((-2, 0)) == 2
    assert sym.coefficient((-3, 1)) == 0
    assert sym.coefficient((-4, 2)) == 6


def test_geometric_times_pole_is_one():
    m = 2
    g = geometric_expand(m, R, S, 8)
    pole = MultiForm(
        (R, S), (0, 0), {(2, 0): 1, (1, 1): -2, (0, 2): 1}, (0, 0), (INF, INF)
    )  # (r - s)^2
    prod = g * pole
    assert prod.coefficient((0, 0)) == 1
    for e, c in prod.items():
        if e != (0, 0):
            assert c == 0


def test_reflect_examples():
    f = F(S, {1: 1}, deg=1)  # s ds
    assert f.reflect(S) == f
    g = F(S, {-1: 4}, deg=1)  # 4 ds / s
    assert g.reflect(S) == g
    h = F(S, {1: 2})  # 2 s, plain function
    assert h.reflect(S).coefficient((1,)) == -2


def test_reflect_involution():
    f = MultiForm((R, S), (1, 0), {(-2, 3): Fraction(5, 7), (0, 1): -2}, (-2, 0), (4, 9))
    assert f.reflect(S).reflect(S) == f
    assert f.reflect(R).reflect(R) == f


def test_residue_half_loop():
    f = F(S, {-1: 4}, deg=1)
    out = f.residue_half_loop(S)
    assert out.vars == ()
    assert out.coefficient(()) == 2


def test_residue_no_pole_is_zero():
    f = F(S, {1: 7}, deg=1)  # invariant, no pole
    assert f.residue_half_loop(S).coefficient(()) == 0


def test_residue_rejects_multivalued():
    f = F(S, {0: 1}, deg=1)  # odd under the deck map
    with pytest.raises(MonodromyError):
        f.residue_half_loop(S)


def test_residue_window_guard():
    f = F(S, {1: 1}, deg=1, lo=1, hi=INF).cap_hi(S, -2)
    with pytest.raises(WindowError):
        f.residue_half_loop(S)


def test_residue_multivariate():
    # (16 / s) ds dr0 dr1 dr2 * r-poles -> half-loop residue keeps the rest
    r0, r1, r2 = Var("r0", 1), Var("r1", 1), Var("r2", 1)
    f = MultiForm(
        (S, r0, r1, r2),
        (1, 1, 1, 1),
        {(-1, -2, -2, -2): 16},
        (-1, -2, -2, -2),
        (INF, INF, INF, INF),
    )
    out = f.residue_half_loop(S)
    assert out.vars == (r0, r1, r2)
    assert out.coefficient((-2, -2, -2)) == 8


def test_invert_series():
    f = F(S, {2: 8, 4: 2}, deg=1, hi=8)
    g = invert(f, S)
    assert g.degs == (-1,)
    prod = f * g
    assert prod.coefficient((0,)) == 1
    for e in range(1, 4):
        assert prod.coefficient((e,)) == 0


def test_invert_needs_order_for_polynomials():
    f = laurent(S, {2: 8})
    with pytest.raises(WindowError):
        invert(f, S)
    g = invert(f, S, order=5)
    assert g.coefficient((-2,)) == Fraction(1, 8)


def test_merge_diagonal():
    f = MultiForm((R, S), (1, 1), {(-2, 0): 3, (0, -2): 5}, (-2, -2), (6, 6))
    t = Var("t", 1)
    g = f.merge_diagonal(R, S, t)
    assert g.degs == (2,)
    assert g.coefficient((-2,)) == 8
    assert g.hi == (4,)  # 6 + (-2)


def test_rename_permutes():
    f = MultiForm((R, S), (1, 0), {(-2, 3): 7}, (-2, 0), (INF, 5))
    x, y = Var("a", 2), Var("z", 1)
    g = f.rename({"r": y, "s": x})
    assert g.vars == (x, y)
    assert g.coefficient((3, -2)) == 7


def test_slot_order_beyond_ten_slots():
    xs = [Var(f"x{i}", 1) for i in range(12)]
    exps = tuple(range(12))
    f = MultiForm(xs[::-1], (0,) * 12, {exps[::-1]: 1}, (0,) * 12, (INF,) * 12)
    assert f.vars == tuple(xs)
    assert f.coefficient(exps) == 1
    g = f.rename({"x3": Var("x12", 1)})
    assert [v.name for v in g.vars] == [f"x{i}" for i in range(13) if i != 3]
    assert g.coefficient(exps[:3] + exps[4:] + (3,)) == 1
    a = MultiForm(xs[6:], (0,) * 6, {exps[6:]: 2}, (0,) * 6, (INF,) * 6)
    b = MultiForm(xs[:6], (0,) * 6, {exps[:6]: 3}, (0,) * 6, (INF,) * 6)
    assert (a * b).vars == tuple(xs)
    assert (a * b).coefficient(exps) == 6


def test_mul_unsound_window_sharing_rejected():
    a = F(S, {0: 1}, hi=4)
    b = F(S, {0: 1}, hi=4)
    ra = MultiForm((R, S), (0, 0), {(0, 0): 1}, (0, 0), (4, 4))
    rb = MultiForm((R, S), (0, 0), {(0, 0): 1}, (0, 0), (4, 4))
    assert (a * b).coefficient((0,)) == 1  # one shared truncated variable: fine
    from localrec.series import SeriesError

    with pytest.raises(SeriesError):
        ra * rb  # two shared truncated variables: unsound


small_rats = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=5)
)


@st.composite
def sparse_forms(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    coeffs = {}
    for _ in range(n_terms):
        e = draw(st.integers(min_value=-6, max_value=6))
        c = draw(small_rats)
        if c:
            coeffs[(e,)] = coeffs.get((e,), Fraction(0)) + c
    hi = draw(st.integers(min_value=6, max_value=12))
    exps = [e for (e,) in coeffs] or [0]
    return MultiForm((S,), (0,), coeffs, (min(min(exps), -6),), (hi,))


@given(sparse_forms(), sparse_forms(), sparse_forms())
@settings(max_examples=60, deadline=None)
def test_ring_axioms_on_windows(a, b, c):
    left = (a + b) + c
    right = a + (b + c)
    assert agreement_mismatch(left, right) is None
    dist_l = a * (b + c)
    dist_r = a * b + a * c
    assert agreement_mismatch(dist_l, dist_r) is None
    comm = agreement_mismatch(a * b, b * a)
    assert comm is None


@given(sparse_forms())
@settings(max_examples=40, deadline=None)
def test_reflect_is_involution(f):
    assert f.reflect(S).reflect(S) == f


def test_determinism_bit_identical():
    def build():
        g = geometric_expand(3, R, S, 12)
        h = g * laurent(S, {0: 1, 2: Fraction(-7, 3)})
        return sorted(h.coeffs.items())

    assert build() == build()


def test_residue_invariant_under_pre_reflect():
    f = MultiForm(
        (R, S), (0, 1), {(-2, -1): Fraction(4), (0, 3): 7}, (-2, -1), (6, 6)
    )
    assert f.reflect(S).residue_half_loop(S) == f.residue_half_loop(S)


def test_geometric_simple_pole_times_difference():
    g = geometric_expand(1, R, S, 8)
    diff = MultiForm((R, S), (0, 0), {(1, 0): 1, (0, 1): -1}, (0, 0), (INF, INF))
    prod = g * diff
    assert prod.coefficient((0, 0)) == 1
    assert all(c == 0 for e, c in prod.items() if e != (0, 0))


@st.composite
def summands(draw):
    """One to five forms in (r, s) with shared degrees, random windows
    (finite or INF) and coefficients that often cancel across summands."""
    degs = (draw(st.integers(-1, 2)), draw(st.integers(-1, 2)))
    forms = []
    for _ in range(draw(st.integers(1, 5))):
        lo = (draw(st.integers(-4, 0)), draw(st.integers(-4, 0)))
        hi = tuple(draw(st.sampled_from([INF, *range(0, 5)])) for _ in range(2))
        coeffs = {}
        for _ in range(draw(st.integers(0, 6))):
            e = tuple(draw(st.integers(lo[i], min(hi[i], 4))) for i in range(2))
            coeffs[e] = draw(st.sampled_from([-2, -1, 1, 2, Fraction(1, 3), -Fraction(1, 3)]))
        forms.append(MultiForm((R, S), degs, coeffs, lo, hi))
    if draw(st.booleans()):
        forms.append(-forms[0])
    return forms


@given(summands())
@settings(max_examples=150, deadline=None)
def test_sum_forms_is_the_left_fold(forms):
    folded = reduce(lambda a, b: a + b, forms)
    summed = sum_forms(forms)
    assert summed == folded  # coefficients, lo and hi
    assert 0 not in summed.coeffs.values()


def test_sum_forms_rejects_mismatched_summands():
    with pytest.raises(DegreeError):
        sum_forms([F(S, {0: 1}), F(R, {0: 1})])
    with pytest.raises(DegreeError):
        sum_forms([F(S, {0: 1}), F(S, {0: 1}, deg=1)])
    with pytest.raises(DegreeError):
        sum_forms([])


@pytest.mark.parametrize("one", [1, Fraction(1)])
def test_init_drops_zeros_and_checks_windows(one):
    f = MultiForm((S,), (0,), {(0,): one, (1,): one - one, (2,): -one}, (0,), (2,))
    assert f.coeffs == {(0,): 1, (2,): -1}
    assert all(type(c) is Fraction for c in f.coeffs.values())
    for e in (-1, 3):
        with pytest.raises(WindowError):
            MultiForm((S,), (0,), {(e,): one}, (0,), (2,))


@given(sparse_forms(), sparse_forms(), st.integers(1, 6), st.integers(-14, 14))
@settings(max_examples=80, deadline=None)
def test_capped_sum_of_products_agrees_below_the_cap(a, b, shift, top):
    b = b * laurent(S, {shift: 1})  # the factors' support bounds differ
    full = a * b
    capped = capped_sum_of_products([(1, a, b)], S, top)
    assert capped.hi == (min(full.hi[0], top),) and capped.lo == full.lo
    assert capped.coeffs == {e: c for e, c in full.coeffs.items() if e[0] <= top}


T = Var("t", 1)


def _capped_fold(pieces, v, top):
    """Reference bracket: every factor that holds v capped, then multiplied,
    scaled and summed.  A factor without v has support bound 0 there; a
    product without v is refused by ``index_of``."""

    def cap(f, other):
        if v not in f.vars:
            return f
        return f.cap_hi(v, top - (other.lo_of(v) if v in other.vars else 0))

    forms = []
    for m, a, b in pieces:
        if b is None:
            forms.append(a.cap_hi(v, top).scale(m))
        else:
            capped = cap(a, b) * cap(b, a)
            capped.index_of(v)
            forms.append(capped.scale(m))
    return sum_forms(forms)


def _orbit_pieces(pieces, block):
    """Reference orbits of tied pieces: every product piece once per way to
    deal the ``block`` to its factors in shares of the same sizes, each
    share renamed in order."""
    out = []
    for m, a, b in pieces:
        if b is None:
            out.append((m, a, b))
            continue
        share_a = [w for w in block if w in a.vars]
        share_b = [w for w in block if w in b.vars]
        for dealt in combinations(block, len(share_a)):
            rest = [w for w in block if w not in dealt]
            out.append((
                m,
                a.rename({w.name: x for w, x in zip(share_a, dealt)}),
                b.rename({w.name: x for w, x in zip(share_b, rest)}),
            ))
    return out


@st.composite
def bracket_pieces(draw, ties=(0,)):
    """One to four pieces over (r, s, t) with shared degrees, capped in s,
    and a tied block of ``k`` variables w1..wk, k drawn from ``ties``.

    A product piece splits the variables between two factors (each of r, s
    and t may sit in one factor or both, in any arrangement) and splits each
    degree between them; a single-form piece holds every variable.  Windows
    are finite or INF on either side (a finite r or t window in both factors
    makes the product refuse), multiplicities are 1 or 2, and sometimes one
    piece is broken: s in no factor, a degree out of range, degrees unlike
    the other pieces', or r at a second branch.  A tied block is dealt to
    the two factors of a product piece in shares of any sizes, with one
    degree for the block and one window (finite or INF) across each share;
    each factor's terms are symmetric over its share.  No piece is broken
    then.  Returns ``(pieces, top, block)``.
    """
    degs = {R: draw(st.integers(-1, 2)), S: draw(st.integers(-1, 1))}
    degs[T] = draw(st.integers(0, 1))
    block = tuple(Var(f"w{i}", 1) for i in range(1, draw(st.sampled_from(ties)) + 1))
    du = draw(st.integers(0, 1))
    degs.update({w: du for w in block})

    def form(vs, dg):
        lo, hi = {}, {}
        share_window = (
            draw(st.sampled_from([-INF, -1, 0])), draw(st.sampled_from([INF, 2, 4]))
        )
        for v in vs:
            if v == S:
                lo[v] = draw(st.integers(-6, -3))
                hi[v] = draw(st.sampled_from([INF, 0, 2, 5]))
            elif v in block:
                lo[v], hi[v] = share_window
            else:
                lo[v] = draw(st.sampled_from([-INF, -1, -1, 0, 0]))
                hi[v] = draw(st.sampled_from([INF, INF, INF, 2, 4]))
        coeffs = {}
        for _ in range(draw(st.integers(1, 6))):
            e = tuple(draw(st.integers(max(lo[v], -6), min(hi[v], 4))) for v in vs)
            coeffs[e] = draw(st.sampled_from([-2, -1, 1, 2, Fraction(1, 3), -Fraction(1, 3)]))
        # symmetric over the share: one coefficient per sorted share
        share = [i for i, v in enumerate(vs) if v in block]
        sorted_share = {}
        for e, c in coeffs.items():
            key = list(e)
            for i, x in zip(share, sorted(e[i] for i in share)):
                key[i] = x
            sorted_share[tuple(key)] = c
        coeffs = {}
        for e, c in sorted_share.items():
            for p in set(permutations([e[i] for i in share])):
                key = list(e)
                for i, x in zip(share, p):
                    key[i] = x
                coeffs[tuple(key)] = c
        return MultiForm(
            vs, [dg[v] for v in vs], coeffs, [lo[v] for v in vs], [hi[v] for v in vs]
        )

    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.sampled_from([1, 2]))
        if draw(st.integers(0, 3)) == 0:
            pieces.append((m, form((R, S, T) + block, degs), None))
            continue
        where = {v: draw(st.sampled_from(["a", "b", "ab"])) for v in (R, S, T)}
        dealt = draw(st.permutations(block))[: draw(st.integers(0, len(block)))]
        where.update({w: "a" if w in dealt else "b" for w in block})
        va = tuple(v for v in (R, S, T) + block if "a" in where[v])
        vb = tuple(v for v in (R, S, T) + block if "b" in where[v])
        da, db = {}, {}
        for v in (R, S, T) + block:
            if v in va and v in vb:
                da[v] = draw(st.integers(max(-1, degs[v] - 2), min(2, degs[v] + 1)))
                db[v] = degs[v] - da[v]
            elif v in va:
                da[v] = degs[v]
            else:
                db[v] = degs[v]
        pieces.append((m, form(va, da), form(vb, db)))
    broken = None
    if not block:
        broken = draw(st.sampled_from([None] * 6 + ["no-s", "degree", "unlike", "branch"]))
    if broken is not None:
        k = draw(st.integers(0, len(pieces) - 1))
        m, a, b = pieces[k]
        if broken == "no-s":
            a, b = laurent(R, {0: 1}), draw(st.sampled_from([laurent(T, {0: 1}), None]))
        elif broken == "degree":
            a, b = MultiForm((R, S), (2, 2), {}, (0, 0), (INF, INF)), d_unit(S)
        elif broken == "unlike":
            unlike = (degs[R], degs[S], 1 - degs[T])
            a, b = MultiForm((R, S, T), unlike, {}, (0, 0, 0), (INF,) * 3), None
        else:
            b = laurent(Var("r", 2), {0: 1}) * laurent(S, {0: 1})
        pieces[k] = (m, a, b)
    return pieces, draw(st.integers(-6, 8)), block


@given(bracket_pieces(ties=(0, 0, 0, 1, 2, 3, 4)))
@settings(max_examples=300, deadline=None)
def test_capped_sum_of_products_is_the_capped_fold(drawn):
    """The accumulator is the fold of capped products.  With a tied block,
    each piece stands for its orbit: the block-sorted result, written out
    by ``expand_tied``, is the fold over every dealing of the block."""
    pieces, top, block = drawn
    try:
        want = _capped_fold(_orbit_pieces(pieces, block), S, top)
    except SeriesError as exc:
        with pytest.raises(type(exc)) as got:
            capped_sum_of_products(pieces, S, top, block)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = capped_sum_of_products(pieces, S, top, block)
    _assert_canonical(got)
    if block:
        at = [got.vars.index(w) for w in block]
        assert all(list(e[i] for i in at) == sorted(e[i] for i in at) for e in got.nums)
        got = MultiForm.from_numerators(*expand_tied(got, block))
    assert got == want  # coefficients, degrees, lo and hi


def test_tied_factor_with_unequal_windows_is_refused():
    """A factor must have one window across its share of the tied block:
    the orbit's window is the block minimum only then."""
    w1, w2 = Var("w1", 1), Var("w2", 1)
    a = MultiForm((S, w1, w2), (1, 0, 0), {(-2, 0, 0): 1}, (-2, 0, 0), (INF, 4, 2))
    with pytest.raises(ConsistencyError) as got:
        capped_sum_of_products([(1, a, None)], S, 0, (w1, w2))
    assert str(got.value) == (
        "windows differ across the tied slots w1, w2 of a factor: lo (0, 0), hi (4, 2)"
    )


def test_tied_variable_in_both_factors_is_refused():
    """A piece deals each tied variable to one factor."""
    w1, w2 = Var("w1", 1), Var("w2", 1)
    a = MultiForm((S, w1), (1, 0), {(-2, 0): 1}, (-2, 0), (INF, INF))
    b = MultiForm((w1, w2), (0, 0), {(0, 0): 1}, (0, 0), (INF, INF))
    with pytest.raises(DegreeError) as got:
        capped_sum_of_products([(1, a, b)], S, 0, (w1, w2))
    assert str(got.value) == "a tied variable in both factors of a piece"


def test_capped_sum_of_products_refuses_no_pieces():
    with pytest.raises(DegreeError):
        capped_sum_of_products([], S, 0)


def test_check_definite_parity():
    odd = MultiForm((R, S), (1, 0), {(0, 1): 2, (2, 3): 1}, (0, 0), (INF, INF))
    odd.check_definite_parity(R)
    odd.check_definite_parity(S)
    zero_form([S], [1]).check_definite_parity(S)
    mixed = F(S, {-1: 1, 2: 3}, deg=1, hi=4)
    with pytest.raises(MonodromyError):
        mixed.check_definite_parity(S)


X0, X1, X2 = Var("x0", 1), Var("x1", 1), Var("x2", 1)


@st.composite
def residue_factors(draw):
    """Two factors whose product has one ds in s and odd exponents in s.

    Besides s, each factor holds up to two of r, x0, x1, x2, so the product
    has one to five slots in any interleaving (``a`` on (s, x0, x2) against
    ``b`` on (s, x1), say), slots other than s may be shared, and the
    residue may have one slot or none.  Each factor's exponents in s share
    one parity, and the two parities sum to odd (a factor without s counts
    as even).  A slot other than s is finitely windowed in ``a`` alone, the
    s window in either, so at most one shared slot is finite in both.  Few
    exponents and coefficients of equal size make cancellations common.
    """
    others = st.lists(st.sampled_from([R, X0, X1, X2]), max_size=2, unique=True)
    va = draw(others) + ([S] if draw(st.booleans()) else [])
    vb = draw(others) + [S]
    if not va:
        va = [S]
    if draw(st.booleans()):
        va, vb = vb, va
    # parity and degree in s: free when both hold s, else the holder's are odd
    if S in va and S in vb:
        pa, da = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    else:
        pa, da = (1, 1) if S in va else (0, 0)
    finite = {v: draw(st.sampled_from([False, False, True])) for v in (R, X0, X1, X2)}

    def factor(vs, s_parity, s_deg, truncated):
        coeffs = {}
        for _ in range(draw(st.integers(1, 6))):
            e = tuple(
                2 * draw(st.integers(-2, 1)) + s_parity if v == S else draw(st.integers(-1, 1))
                for v in vs
            )
            coeffs[e] = draw(st.sampled_from([1, -1, Fraction(1, 3), Fraction(-1, 3)]))
        lo = tuple(-5 if v == S else -2 for v in vs)
        hi = tuple(
            draw(st.sampled_from([INF, 3, 7]))
            if v == S
            else draw(st.sampled_from([2, 0])) if truncated and finite[v] else INF
            for v in vs
        )
        coeffs = {e: c for e, c in coeffs.items() if all(x <= h for x, h in zip(e, hi))}
        degs = tuple(s_deg if v == S else draw(st.integers(0, 1)) for v in vs)
        return MultiForm(vs, degs, coeffs, lo, hi)

    a = factor(va, pa, da, True)
    b = factor(vb, 1 - pa, 1 - da, False)
    return a, b


@given(residue_factors())
@settings(max_examples=400, deadline=None)
def test_residue_of_product_is_the_halved_slice_of_the_product(factors):
    a, b = factors
    full = a * b
    i = full.index_of(S)
    if full.hi[i] < -1:
        with pytest.raises(WindowError):
            a.residue_half_loop(S, times=b)
        return
    got = a.residue_half_loop(S, times=b)
    drop = lambda t: t[:i] + t[i + 1 :]  # noqa: E731
    assert got.vars == drop(full.vars) and got.degs == drop(full.degs)
    assert got.lo == drop(full.lo) and got.hi == drop(full.hi)
    assert got.coeffs == {drop(e): c / 2 for e, c in full.coeffs.items() if e[i] == -1}
    assert got == full.residue_half_loop(S) == b.residue_half_loop(S, times=a)


@pytest.mark.parametrize(
    "a, b, error",
    [
        (laurent(S, {0: 1}), d_unit(S), MonodromyError),  # even integrand
        (laurent(S, {0: 1, 1: 1}), d_unit(S), MonodromyError),  # mixed parities
        (laurent(S, {-1: 1}), laurent(S, {0: 1}), DegreeError),  # no ds
        (laurent(R, {-1: 1}), d_unit(R), DegreeError),  # no s at all
        (laurent(S, {1: 1}).cap_hi(S, 1), F(S, {-2: 1}, deg=1, lo=-4), WindowError),
    ],
)
def test_residue_of_product_refuses_like_the_residue(a, b, error):
    with pytest.raises(error):
        (a * b).residue_half_loop(S)
    with pytest.raises(error):
        a.residue_half_loop(S, times=b)


@st.composite
def one_variable_factors(draw):
    """Two factors that hold no slot but s, or the first and None, the
    constant 1 of ``residue_half_loop`` without ``times``.  A factor in s has
    a degree from -1 to 2, one parity of exponent, a support bound, a window
    top that may be INF, and one to five terms in the window; a factor
    without s is an exact constant, possibly zero.  Mostly the degrees sum
    to 1 and the parities to odd, so that most pairs reach the residue; the
    degrees may also sum to anything from -2 to 4."""
    rats = st.sampled_from([1, -2, Fraction(1, 3), Fraction(-5, 6)])

    def factor(deg, parity):
        if draw(st.sampled_from(range(8))) == 7:  # one in eight: without s, degree 0, even
            return MultiForm((), (), {(): draw(st.sampled_from([0, 1, -2]))}, (), ())
        lo = draw(st.integers(-7, 0))
        hi = draw(st.sampled_from([INF, INF, INF, lo - 1, lo, lo + 3, lo + 6]))
        exps = [e for e in range(lo, min(hi, lo + 10) + 1) if e % 2 == parity]
        chosen = []
        if exps:
            chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=5, unique=True))
        coeffs = {(e,): draw(rats) for e in chosen}
        return MultiForm((S,), (deg,), coeffs, (lo,), (hi,))

    if draw(st.integers(0, 4)) == 0:  # b the constant 1: degree 0, even
        db, pb, b = 0, 0, None
    else:
        db, pb = draw(st.sampled_from([-1, 0, 1, 2])), draw(st.integers(0, 1))
        b = factor(db, pb)
    da = 1 - db if draw(st.integers(0, 4)) else draw(st.sampled_from([-1, 0, 1, 2]))
    pa = 1 - pb if draw(st.integers(0, 2)) else pb
    return factor(da, pa), b


def _slot_s(f):
    """``(degree, support bound, window top, parity)`` of ``f`` in s; a form
    without s is the exact constant there, of parity 0 (None for no terms)."""
    if f is None or not f.vars:
        return 0, 0, INF, 0 if f is None or f.nums else None
    return f.degs[0], f.lo[0], f.hi[0], f.check_definite_parity(S) if f.nums else None


@given(one_variable_factors())
@settings(max_examples=300, deadline=None)
def test_scalar_residue_keeps_the_residue_rules(factors):
    """Two factors holding no slot but s give one number, under the
    residue's rules in their order: s must be a variable of the product, its
    degree must lie in [-1, 2] and be 1, the window must reach s^-1, and
    the factors' parities must sum to odd.  Every refusal is the one, with
    the same text, of the slice taken through a second slot, where ``a`` is
    multiplied by an exact constant in it, and the number is that slice."""
    a, b = factors
    (da, la, ha, pa), (db, lb, hb, pb) = _slot_s(a), _slot_s(b)
    top = min(INF if ha >= INF else ha + lb, INF if hb >= INF else hb + la)
    lifted = a * laurent(Var("t", 1), {0: 3})

    def outcome(f):
        try:
            return f.residue_half_loop(S) if b is None else f.residue_half_loop(S, times=b)
        except SeriesError as exc:
            return type(exc), str(exc)

    error = (
        DegreeError if S not in a.vars + (() if b is None else b.vars) or da + db != 1
        else WindowError if top < -1
        else MonodromyError if None not in (pa, pb) and (pa + pb) % 2 == 0
        else None
    )
    got, through = outcome(a), outcome(lifted)
    if error is not None:
        assert got[0] is error and got == through
        if not -1 <= da + db <= 2:
            assert got[1] == f"resulting form degree {da + db} outside [-1, 2]"
        return
    bc = {(0,): 1} if b is None else {e or (0,): c for e, c in b.coeffs.items()}
    ac = {e or (0,): c for e, c in a.coeffs.items()}
    want = sum((c * bc.get((-1 - e[0],), 0) for e, c in ac.items()), Fraction(0)) / 2
    assert got.vars == () and got.coefficient(()) == want
    assert through.coefficient((0,)) == 3 * want


@pytest.mark.parametrize(
    "f",
    [
        F(S, {-3: 2, 1: Fraction(1, 5)}, lo=-3, hi=4),
        F(S, {0: 1}, deg=-1, lo=-INF, hi=INF),
        MultiForm((R, S), (1, 0), {(-2, 3): Fraction(5, 7), (0, -1): -2}, (-2, -1), (4, 9)),
        MultiForm((S, Var("t", 1)), (0, 1), {(2, 0): 3}, (0, 0), (INF, 6)),
        zero_form((R, S), (0, 1)),
    ],
)
def test_times_dlambda_is_the_product_with_dlambda(f):
    dlam = MultiForm((S,), (1,), {(1,): 1}, (1,), (INF,))
    assert f.times_dlambda(S) == f * dlam


def test_times_dlambda_refuses_like_the_product():
    dlam = MultiForm((S,), (1,), {(1,): 1}, (1,), (INF,))
    for f in (F(S, {0: 1}, deg=2), F(S, {0: 1}).cap_hi(S, INF - 1)):
        for g in (lambda: f * dlam, lambda: f.times_dlambda(S)):
            with pytest.raises(SeriesError):
                g()
    with pytest.raises(DegreeError):
        F(R, {0: 1}).times_dlambda(S)


def _schoolbook_product(a, b):
    """Reference Cauchy product on Fractions, by variable name."""
    names = sorted({v.name for v in a.vars + b.vars})
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            exps = dict.fromkeys(names, 0)
            for vs, e in ((a.vars, ea), (b.vars, eb)):
                for v, x in zip(vs, e):
                    exps[v.name] += x
            key = tuple(exps[n] for n in names)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


wide_rats = st.builds(
    Fraction,
    st.integers(-(10**30), 10**30),
    st.sampled_from([1, 2, 3, 7, 2**61 - 1, 10**18 + 9, 97 * 89, 3**40]),
)


@given(
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), wide_rats, max_size=5),
    st.dictionaries(st.tuples(st.integers(-3, 3)), wide_rats, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_mul_matches_the_schoolbook_product(ca, cb):
    a = MultiForm((R, S), (0, 0), ca, (-3, -3), (INF, INF))
    b = MultiForm((S,), (1,), cb, (-3,), (INF,))
    want = {e: c for e, c in _schoolbook_product(a, b).items() if c}
    assert (a * b).coeffs == want
    assert (b * a).coeffs == want


def test_init_is_independent_of_the_variable_order():
    t = Var("t", 1)
    coeffs = {(-2, 0, 1): Fraction(3, 4), (0, 2, -1): -1, (1, 1, 1): 0}
    ref = MultiForm((R, S, t), (1, 0, -1), coeffs, (-2, 0, -1), (INF, 4, 3))
    for perm in [(1, 0, 2), (2, 1, 0), (2, 0, 1)]:
        vs = tuple((R, S, t)[p] for p in perm)
        form = MultiForm(
            vs,
            tuple((1, 0, -1)[p] for p in perm),
            {tuple(e[p] for p in perm): c for e, c in coeffs.items()},
            tuple((-2, 0, -1)[p] for p in perm),
            tuple((INF, 4, 3)[p] for p in perm),
        )
        assert form == ref and form.vars == (R, S, t)
    assert ref.coeffs == {(-2, 0, 1): Fraction(3, 4), (0, 2, -1): -1}


def test_window_sentinels_saturate_both_ways():
    unbounded = MultiForm((S,), (0,), {(-3,): 1}, (-INF,), (INF,))
    assert (unbounded * laurent(S, {3: 1})).lo == (-INF,)
    assert (unbounded * F(S, {0: 1}, hi=4)).hi == (-INF,)  # certified nowhere
    with pytest.raises(SeriesError):
        MultiForm((S,), (0,), {}, (INF,), (INF,)) * unbounded


def _assert_canonical(f):
    """Integer numerators over one positive denominator, gcd 1, read-only view."""
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c != 0 for c in f.nums.values())
    assert gcd(f.den, *f.nums.values()) == 1
    assert f.coeffs == {e: Fraction(c, f.den) for e, c in f.nums.items()}
    with pytest.raises(TypeError):
        f.coeffs[next(iter(f.nums), (0,) * len(f.vars))] = Fraction(1)


def _assert_eq_and_hash_follow_the_values(f, g):
    frame = (f.vars, f.degs, f.lo, f.hi) == (g.vars, g.degs, g.lo, g.hi)
    same = frame and dict(f.coeffs) == dict(g.coeffs)
    assert (f == g) == same
    if same:
        assert hash(f) == hash(g) and (f.den, f.nums) == (g.den, g.nums)


@given(
    summands(),
    st.sampled_from([0, 1, -1, 2, Fraction(1, 3), Fraction(-7, 6), Fraction(10, 4)]),
)
@settings(max_examples=120, deadline=None)
def test_every_operation_keeps_the_canonical_representation(forms, c):
    a = forms[0]
    t = Var("t", 1)
    results = [
        *forms,
        sum_forms(forms),
        reduce(lambda x, y: x + y, forms),
        a.scale(c),
        a.scale(c).scale(3),
        -a,
        a * laurent(S, {-1: Fraction(1, 6), 1: c}),
        a.reflect(S),
        a.cap_hi(S, 1),
        a.rename({"r": Var("x", 2)}),
        MultiForm(a.vars, a.degs, a.coeffs, a.lo, a.hi),
    ]
    if -1 <= sum(a.degs) <= 2:
        results.append(a.merge_diagonal(R, S, t))
    for f in results:
        _assert_canonical(f)
    for f in results:
        for g in results:
            _assert_eq_and_hash_follow_the_values(f, g)


@given(residue_factors())
@settings(max_examples=100, deadline=None)
def test_residue_of_product_keeps_the_canonical_representation(factors):
    a, b = factors
    try:
        got = a.residue_half_loop(S, times=b)
    except WindowError:
        return
    _assert_canonical(got)
    same = MultiForm(got.vars, got.degs, dict(got.coeffs), got.lo, got.hi)
    _assert_eq_and_hash_follow_the_values(got, same)
    _assert_eq_and_hash_follow_the_values(got, got.scale(2))


def test_init_puts_mixed_input_over_the_least_denominator():
    coeffs = {(0,): Fraction(3, 4), (1,): 2, (2,): Fraction(-5, 6)}
    f = MultiForm((S,), (0,), coeffs, (0,), (4,))
    assert f.den == 12 and f.nums == {(0,): 9, (1,): 24, (2,): -10}
    g = MultiForm.from_numerators((S,), (0,), {(0,): 4, (1,): 0, (2,): -6}, 8, (0,), (4,))
    assert g.den == 4 and g.nums == {(0,): 2, (2,): -3}
    assert g == F(S, {0: Fraction(1, 2), 2: Fraction(-3, 4)}, lo=0, hi=4)
    with pytest.raises(WindowError):
        MultiForm.from_numerators((S,), (0,), {(5,): 1}, 2, (0,), (4,))
    with pytest.raises(SeriesError):
        MultiForm.from_numerators((S,), (0,), {(1,): 1}, 0, (0,), (4,))


def _mismatch_reference(a, b):
    """The first disagreement on the common window, read off Fraction maps."""
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    ca, cb = dict(a.coeffs), dict(b.coeffs)
    for e in sorted(set(ca) | set(cb)):
        if all(x <= h for x, h in zip(e, hi)):
            va, vb = ca.get(e, Fraction(0)), cb.get(e, Fraction(0))
            if va != vb:
                return e, va, vb
    return None


@st.composite
def compared_forms(draw):
    """Two forms in (r, s) with equal degrees, unequal windows and different
    denominators, built from one set of terms so that they agree often."""
    degs = (draw(st.integers(-1, 2)), draw(st.integers(-1, 2)))
    dens = st.sampled_from([1, 2, 3, 4, 6, 9, 35])
    rats = st.builds(Fraction, st.integers(-6, 6), dens)
    exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    base = draw(st.dictionaries(exps, rats, max_size=8))

    def one():
        hi = tuple(draw(st.sampled_from([INF, *range(-3, 4)])) for _ in range(2))
        terms = dict(base)
        for e in draw(st.lists(exps, max_size=4)):
            terms[e] = draw(rats)  # a changed, added or dropped term
        terms = {e: c for e, c in terms.items() if all(x <= h for x, h in zip(e, hi))}
        return MultiForm((R, S), degs, terms, (-3, -3), hi)

    return one(), one()


@given(compared_forms())
@settings(max_examples=300, deadline=None)
def test_agreement_mismatch_is_the_first_fraction_mismatch(pair):
    a, b = pair
    got = agreement_mismatch(a, b)
    assert got == _mismatch_reference(a, b)
    if got is not None:
        assert type(got[1]) is Fraction and type(got[2]) is Fraction
    swapped = agreement_mismatch(b, a)
    assert swapped == (None if got is None else (got[0], got[2], got[1]))


def _both_ways(f, mapping):
    """``f`` renamed through ``mapping`` and ``f`` relabelled in place."""
    return f.rename(mapping), _relabelled(f, (mapping.get(v.name, v) for v in f.vars))


def _same_outcome(run, renamed, relabelled):
    """``run`` on both operands ends alike: one form, or one refusal."""
    try:
        want = run(*renamed)
    except SeriesError as exc:
        with pytest.raises(type(exc)) as got:
            run(*relabelled)
        assert str(got.value) == str(exc)
        return
    got = run(*relabelled)
    assert got == want and got.vars == tuple(sorted(got.vars))
    _assert_canonical(got)


@st.composite
def merge_sources(draw):
    """A form in two to four of r, s, x0, x1 (each at branch 1), two of its
    variables to merge, a target that may sort anywhere among the rest, a
    cap, and a renaming of its variables that reorders its slots."""
    vs = draw(st.lists(st.sampled_from([R, S, X0, X1]), min_size=2, max_size=4, unique=True))
    v1, v2 = draw(st.permutations(vs))[:2]
    rest = [v for v in vs if v not in (v1, v2)]
    target = draw(st.sampled_from([v for v in (Var("a", 1), T, Var("x5", 1)) if v not in rest]))
    d1 = draw(st.integers(-1, 2))
    degs = {v: draw(st.integers(-1, 2)) for v in vs}
    degs[v1], degs[v2] = d1, draw(st.integers(max(-1, -1 - d1), min(2, 2 - d1)))
    lo = {v: draw(st.sampled_from([-INF, -4, -2])) for v in vs}
    hi = {v: draw(st.sampled_from([INF, INF, -1, 2, 5])) for v in vs}
    coeffs = {}
    for _ in range(draw(st.integers(0, 7))):
        e = tuple(draw(st.integers(max(lo[v], -4), min(hi[v], 5))) for v in vs)
        coeffs[e] = draw(st.sampled_from([-2, -1, 1, 2, Fraction(1, 3), -Fraction(1, 3)]))
    f = MultiForm(vs, [degs[v] for v in vs], coeffs, [lo[v] for v in vs], [hi[v] for v in vs])
    names = [v.name for v in f.vars]
    shuffled = draw(st.permutations(names))
    mapping = {a: Var(b, 1) for a, b in zip(names, shuffled)}
    return f, v1, v2, target, draw(st.integers(-9, 9)), mapping


@given(merge_sources())
@settings(max_examples=200, deadline=None)
def test_merge_diagonal_to_a_cap_is_the_capped_merge(drawn):
    f, v1, v2, t, top, mapping = drawn
    capped = f.merge_diagonal(v1, v2, t, top)
    assert capped == f.merge_diagonal(v1, v2, t).cap_hi(t, top)
    _assert_canonical(capped)
    # read in place under new names, the merge is the merge of the renamed form
    w1, w2 = (mapping[v.name] for v in (v1, v2))
    if t.name in {w.name for w in mapping.values()} - {w1.name, w2.name}:
        return  # the target would clash with a renamed variable
    renamed, relabelled = _both_ways(f, mapping)
    _same_outcome(lambda g: g.merge_diagonal(w1, w2, t, top), (renamed,), (relabelled,))


_RENAMINGS = [
    {"r": T, "s": R, "t": S},
    {"r": S, "s": T, "t": R},
    {"r": Var("u", 1), "t": Var("a", 1)},
    {"s": Var("q", 1)},
]


@given(bracket_pieces(), st.sampled_from(_RENAMINGS), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_capped_sum_of_products_reads_relabelled_operands(drawn, mapping, which):
    """Relabelled factors (slots in the stored order, names not sorted) give
    the form that the renamed factors give; ``which`` picks the first, the
    second, both or neither factor of every piece to read in place."""
    pieces, top, _ = drawn
    v = mapping.get(S.name, S)
    renamed, relabelled = [], []
    for m, a, b in pieces:
        ways = [(None, None) if f is None else _both_ways(f, mapping) for f in (a, b)]
        renamed.append((m, ways[0][0], ways[1][0]))
        relabelled.append((
            m,
            ways[0][1] if which & 1 else ways[0][0],
            ways[1][1] if which & 2 and b is not None else ways[1][0],
        ))
    run = lambda *ps: capped_sum_of_products(ps, v, top)  # noqa: E731
    _same_outcome(run, renamed, relabelled)


_RESIDUE_RENAMINGS = [
    {"r": X2, "x2": R},
    {"s": Var("a", 1), "x0": Var("z", 1)},
    {"r": X1, "x0": S, "s": X0, "x1": R},
    {"x0": X2, "x1": X0, "x2": X1},
]


@given(residue_factors(), st.sampled_from(_RESIDUE_RENAMINGS), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_residue_of_product_reads_relabelled_operands(factors, mapping, which):
    a, b = factors
    v = mapping.get(S.name, S)
    (ra, la), (rb, lb) = _both_ways(a, mapping), _both_ways(b, mapping)
    relabelled = (la if which & 1 else ra, lb if which & 2 else rb)
    _same_outcome(lambda f, g: f.residue_half_loop(v, times=g), (ra, rb), relabelled)


def test_relabelled_form_shares_the_terms():
    f = MultiForm((R, S), (1, 0), {(-2, 3): 7}, (-2, 0), (INF, 5))
    g = _relabelled(f, (T, Var("a", 1)))
    assert g.nums is f.nums and g.vars == (T, Var("a", 1)) and g.hi == f.hi


def test_cut_terms_keeps_the_windows_and_the_terms_up_to_the_caps():
    f = MultiForm((R, S), (1, 0), {(-2, 0): 1, (0, 2): 2, (4, 4): 3}, (-2, 0), (INF, 5))
    assert _cut_terms(f, {}) is f
    assert _cut_terms(f, {S: 5, T: 0}) is f  # a cap at the window, and a foreign one
    g = _cut_terms(f, {R: 0})
    assert g.nums == {(-2, 0): 1, (0, 2): 2} and (g.vars, g.lo, g.hi) == (f.vars, f.lo, f.hi)
    assert _cut_terms(f, {R: 3, S: 1}).nums == {(-2, 0): 1}


def test_window_sentinel_collisions_are_refused():
    """A finite bound sum or an exponent that reaches +-INF would read as a
    sentinel; both are refused with one line, and INF still serializes as
    null."""
    from localrec.serialize import form_to_json

    assert _wadd(INF - 2, 1) == INF - 1 and _wadd(2 - INF, -1) == 1 - INF
    for a, b in [(INF - 1, 1), (1 - INF, -1), (INF // 2 + 1, INF // 2)]:
        with pytest.raises(SeriesError) as exc:
            _wadd(a, b)
        assert str(exc.value) == f"window bounds {a} and {b} add up to the sentinel INF"
    with pytest.raises(SeriesError) as exc:
        laurent(S, {4: 1}) * MultiForm((S,), (0,), {(0,): 1}, (0,), (INF - 3,))
    assert str(exc.value) == "window bounds 999999997 and 4 add up to the sentinel INF"
    for e in (INF, -INF, INF + 5):
        with pytest.raises(SeriesError) as exc:
            MultiForm.from_numerators(
                (R, S), (0, 0), {(0, 1): 1, (0, e): 2}, 1, (-INF, -INF), (INF, INF)
            )
        assert str(exc.value) == f"exponent {(0, e)} reaches the window sentinel INF"
    edge = MultiForm((S,), (0,), {(1 - INF,): 1, (INF - 1,): 1}, (-INF,), (INF,))
    assert form_to_json(edge)["window"] == {"lo": [None], "hi": [None]}


@cache
def _rotated_table():
    """Rotated N=2 at L=6, bound 2, built once: its entries mix branch
    orders, so stored and retrieved slot orders differ."""
    from localrec.frobenius import CanonicalData, random_symplectic_r
    from localrec.localforms import FormContext
    from localrec.recursion import OmegaTable

    psi = [["3/5", "4/5"], ["-4/5", "3/5"]]
    datum = CanonicalData.make(u=[0, 1], eta=[[1, 0], [0, 1]], psi=psi, unit=[1, 2])
    return OmegaTable(FormContext(datum, random_symplectic_r(2, 6, 11)), bound=2)


@given(
    st.sampled_from([(0, 3), (1, 1), (0, 4), (1, 2)]).flatmap(
        lambda gn: st.tuples(
            st.just(gn[0]),
            st.lists(st.integers(1, 2), min_size=gn[1], max_size=gn[1]),
            st.lists(
                st.sampled_from(["x0", "x1", "x2", "x10", "a", "y", "ya", "z3"]),
                min_size=gn[1],
                max_size=gn[1],
                unique=True,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_table_entries_keep_their_variables_sorted(drawn):
    """Whatever the branch order and the slot names asked for, ``omega``
    returns a form with its variables sorted by ``Var.key``, equal to the
    stored entry renamed, and every stored entry is sorted too."""
    g, branches, names = drawn
    table = _rotated_table()
    vs = tuple(Var(name, b) for name, b in zip(names, branches))
    got = table.omega(g, branches, vs)
    assert got.vars == tuple(sorted(vs))
    stored = table._store[g, tuple(sorted(branches))]
    order = sorted(range(len(branches)), key=lambda i: branches[i])
    assert got == stored.rename({f"x{s}": vs[i] for s, i in enumerate(order)})
    for form in table._store.values():
        assert form.vars == tuple(sorted(form.vars))

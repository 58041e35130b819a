"""Local expansions at the branch points: periods, one- and two-point forms,
the regularized diagonal propagator, and the recursion kernel.

Everything is expanded in the double-cover coordinate s with
lambda = u_j + s**2 / 2, dlambda = s ds.  That substitution turns every
half-integer power of (lambda - u_j) into an integer power of s with rational
coefficient, so the entire pipeline stays over the rationals.  The fixed
positive-s branch is the reference section; the deck transformation
s -> -s (``MultiForm.reflect``) realizes the local monodromy.

Sign convention.  A single global orientation is free in the residue setup;
it is fixed once by requiring the three-point genus-zero output of the
recursion to give <tau_0^3> = +1, and every other sign (kernel prefactor,
unstable pairing orientation) is locked to that choice by unit tests.

Periods are built on integer numerators: each (weight, branch, component)
memoizes the numerators of (-1)^l w_l over one denominator, and a period is
written straight from them, the one-dimensional constants over (2M+1)!!
(M the deepest positive power).  Multiplying by dlambda = s ds is a shift
(``MultiForm.times_dlambda``).  Periods pair through one memoized primitive,
:func:`period_pairing`, the summed half-loop residue of two period
components; both factors are series in s alone, so each branch's residue is
one scalar, a dot product of their coefficients.  :func:`hrp_check` checks
its orthogonality, and ``correlators.insertion_reconstruct_check`` is the
same orthogonality re-indexed, at (-k-1, a) against (m+1, b); the two checks
share every pairing they both read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import product
from types import MappingProxyType
from typing import Mapping

from .frobenius import CanonicalData, RMatrix, VTable, compute_vkl, double_factorial
from .linalg import mat_vec
from .report import Report
from .series import (
    INF,
    MultiForm,
    Rat,
    SeriesError,
    Var,
    WindowError,
    agreement_mismatch,
    capped_sum_of_products,
    common_denominator,
    d_unit,
    geometric_expand,
    invert,
    monomial,
    sum_forms,
    zero_form,
)


class RouteDisagreement(SeriesError):
    """Two independent constructions of the same object differ."""


class DegenerateDatum(SeriesError):
    """A leading coefficient required to be nonzero vanished."""


def a1_period(k: int, v: Var) -> MultiForm:
    """Local period of the one-dimensional model, pulled back to s.

    For k >= 0 this is 2 (-1)^k (2k-1)!! s^(-2k-1); for k = -(m+1) it is
    2 s^(2m+1) / (2m+1)!!.  Exact monomials, so the window is unbounded.
    """
    den = double_factorial(-2 * k - 1)
    exp, c = _a1_data(k, den)
    return monomial(v, exp, Fraction(c, den))


def _a1_data(k: int, den: int) -> tuple[int, int]:
    """Exponent and numerator over ``den`` of the coefficient of
    :func:`a1_period`; for k = -(m+1), ``den`` is a multiple of (2m+1)!!."""
    if k >= 0:
        return -2 * k - 1, 2 * (-1) ** k * double_factorial(2 * k - 1) * den
    m = -k - 1
    return 2 * m + 1, 2 * den // double_factorial(2 * m + 1)


@dataclass
class FormContext:
    """One datum and R-matrix, with the memo of every local object derived
    from them.

    :meth:`memo` holds each derived object once per context: the columns of
    psi R_l e_j and their pairings, the closing-matrix tables, the period
    expansions, each dual period times dlambda and the residue pairings, the
    one-point forms, the two-point and P_0 seeds and the recursion kernels of
    every table on the context, and the insertion and constraint weights.

    Parity policy: every form the memo stores has a definite reflection
    parity in each of its variables, checked on its full window on the miss
    that computes it.  A branch residue checks single valuedness only on the
    terms it reads, so this is what covers the terms of a seed or weight
    above the residue's cap.  A form that fails raises MonodromyError and is
    not stored.
    """

    data: CanonicalData
    r: RMatrix
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.data.n != self.r.n:
            raise DegenerateDatum("datum and R-matrix have different sizes")

    def memo(self, fn, *args):
        """``fn(self, *args)``, computed once per context.

        The key is the function object itself with the arguments, so two
        functions never share an entry.  Callers pass ``fn`` by its
        module-level name, which is what a profiling hook replaces.  A
        computed form is stored only after the parity policy's check.
        """
        key = (fn, args)
        if key not in self._memo:
            value = fn(self, *args)
            if isinstance(value, MultiForm):
                for v in value.vars:
                    value.check_definite_parity(v)
            self._memo[key] = value
        return self._memo[key]

    # -- pairing ingredients ------------------------------------------------

    def unit_pairing(self, l: int, j: int) -> Rat:
        """(psi R_l e_j, 1) evaluated through eta."""
        ec = self.memo(_eta_column, l, j)
        return sum((x * y for x, y in zip(ec, self.data.unit)), Rat(0))

    def max_vkl_top(self) -> int:
        return 2 * self.r.order - 1 if self.r.exact else self.r.order - 1

    # -- period expansions ----------------------------------------------------

    def period_dual(self, j: int, k: int, a: int, v: Var) -> MultiForm:
        """Flat component a of the period I^(k) at branch j, i.e. (I^(k), v^a)."""
        return self.memo(_period_series, _column, j, k, a, v)

    def period_basis(self, j: int, k: int, a: int, v: Var) -> MultiForm:
        """(I^(k), v_a): the eta-lowered component."""
        return self.memo(_period_series, _eta_column, j, k, a, v)

    def period_unit(self, j: int, k: int, v: Var) -> MultiForm:
        """(I^(k), 1)."""
        return self.memo(_period_series, FormContext.unit_pairing, j, k, None, v)


def _column(ctx: FormContext, l: int, j: int) -> tuple[Rat, ...]:
    """Flat components of psi R_l e_j."""
    rl = ctx.r.mat(l)
    return tuple(mat_vec(ctx.data.psi, [row[j - 1] for row in rl]))


def _eta_column(ctx: FormContext, l: int, j: int) -> tuple[Rat, ...]:
    """The eta-lowered components of psi R_l e_j."""
    return tuple(mat_vec(ctx.data.eta, ctx.memo(_column, l, j)))


def _vtable(ctx: FormContext, top: int) -> VTable:
    """The closing matrices V_(k,l) with k + l <= top."""
    return compute_vkl(ctx.r, top)


def _period_weights(ctx: FormContext, weight, j: int, a: int | None) -> tuple[int, tuple]:
    """The numerators of (-1)^l w_l, l = 0..L, over one denominator.

    w_l is ``weight(ctx, l, j)``, or its component a unless a is None.
    Returns ``(den, numerators)``.
    """
    ws = {}
    for l in range(ctx.r.order + 1):
        w = ctx.memo(weight, l, j)
        ws[l] = (-1) ** l * (w if a is None else w[a - 1])
    den, nums = common_denominator(ws)
    return den, tuple(nums.values())


def _period_series(
    ctx: FormContext, weight, j: int, k: int, a: int | None, v: Var
) -> MultiForm:
    """sum over l of (-1)^l w_l times the one-dimensional period I^(k-l).

    The term of l sits at the exponent -2(k-l)-1, so no two terms meet.  Its
    numerator is that of (-1)^l w_l (:func:`_period_weights`) times the
    constant of I^(k-l) over (2M+1)!!, M = L - k - 1 the deepest positive
    power.
    """
    den, nums = ctx.memo(_period_weights, weight, j, a)
    a1_den = double_factorial(2 * (ctx.r.order - k) - 1)
    coeffs = {}
    for l, n in enumerate(nums):
        if n:
            exp, c = _a1_data(k - l, a1_den)
            coeffs[(exp,)] = n * c
    lo = -2 * k - 1
    hi = INF if ctx.r.exact else 2 * ctx.r.order - 2 * k
    return MultiForm.from_numerators((v,), (0,), coeffs, den * a1_den, (lo,), (hi,))


def period_vector(ctx: FormContext, j: int, k: int, v: Var) -> tuple[MultiForm, ...]:
    """All N flat components of the period I^(k) at branch j."""
    return tuple(
        ctx.period_dual(j, k, a, v) for a in range(1, ctx.data.n + 1)
    )


def one_point_form(ctx: FormContext, j: int, v: Var) -> MultiForm:
    """The one-point form P^j(lambda) dlambda as an s-series with one ds.

    Built by two routes that must agree: 4 (I^(-1), 1) dlambda, and the
    closing Taylor expansion whose half powers of 2 cancel exactly against
    the pullback.
    """
    route1 = ctx.period_unit(j, -1, v).times_dlambda(v).scale(4)

    coeffs: dict[tuple, Rat] = {}
    for k in range(ctx.r.order + 1):
        pair = ctx.unit_pairing(k, j)
        if pair == 0:
            continue
        # 8 (-1)^k 2^(k+1/2) / (2k+1)!! times the pullback of
        # (lambda - u_j)^(k+1/2), which is s^(2k+1) 2^(-k-1/2): the powers of 2 cancel
        c = Rat(8 * (-1) ** k, double_factorial(2 * k + 1)) * pair
        coeffs[(2 * k + 2,)] = c  # the trailing dlambda = s ds adds one power
    hi = INF if ctx.r.exact else 2 * ctx.r.order + 3
    route2 = MultiForm((v,), (1,), coeffs, (2,), (hi,))

    bad = agreement_mismatch(route1, route2)
    if bad is not None:
        raise RouteDisagreement(f"one-point form routes differ at {bad}")
    return route1


def _closing_part(ctx: FormContext, i: int, j: int, rv: Var, sv: Var) -> MultiForm | None:
    """The polynomial part of B(rv, sv) drv dsv carried by the closing matrices.

    4 V_(k,l)[i,j] r^2k s^2l / ((2k-1)!! (2l-1)!!), restricted to a box inside
    the certified triangle k + l <= top; None when no V_(k,l) is certified.
    """
    top = ctx.max_vkl_top()
    if top < 0:
        return None
    vt = ctx.memo(_vtable, top)
    a_cap = top if ctx.r.exact else top // 2
    b_cap = top if ctx.r.exact else top - top // 2
    coeffs: dict[tuple, Rat] = {}
    for kk in range(0, a_cap + 1):
        for ll in range(0, min(b_cap, top - kk) + 1):
            val = vt.mat(kk, ll)[i - 1][j - 1]
            if val:
                coeffs[(2 * kk, 2 * ll)] = Rat(4) * val / (
                    double_factorial(2 * kk - 1) * double_factorial(2 * ll - 1)
                )
    hi_r = INF if ctx.r.exact else 2 * a_cap + 1
    hi_s = INF if ctx.r.exact else 2 * b_cap + 1
    return MultiForm((rv, sv), (1, 1), coeffs, (0, 0), (hi_r, hi_s))


def two_point_form(
    ctx: FormContext, i: int, j: int, rv: Var, sv: Var, s_hi: int
) -> MultiForm:
    """The two-point form B(rv, sv) drv dsv, singular in rv, regular in sv.

    Route A is the mode sum of period pairings; route B is the universal
    double-pole part (for i = j) plus the polynomial part carried by the
    closing matrices.  They are compared coefficient for coefficient on the
    common window and route A (the wider one) is returned.  For i = j the
    expansion is taken in the annulus |sv| < |rv|.
    """
    kmax = max(s_hi // 2, 0)
    pieces = [
        ((-1) ** (k + 1), ctx.memo(_dual_dlambda, i, k + 1, c, rv),
         ctx.period_basis(j, -k, c, sv))
        for k, c in product(range(kmax + 1), range(1, ctx.data.n + 1))
    ]
    # the trailing dsv = sv dsv lifts the sum's cap 2 kmax to 2 kmax + 1
    route_a = capped_sum_of_products(pieces, sv, 2 * kmax).times_dlambda(sv)

    parts = []
    if i == j:
        geo = geometric_expand(2, rv, sv, 2 * kmax + 1)
        sing = (geo + geo.reflect(sv)).scale(2)
        parts.append(sing * d_unit(rv) * d_unit(sv))
    closing = _closing_part(ctx, i, j, rv, sv)
    if closing is not None:
        parts.append(closing)
    route_b = sum_forms(parts) if parts else zero_form((rv, sv), (1, 1))

    bad = agreement_mismatch(route_a, route_b)
    if bad is not None:
        raise RouteDisagreement(
            f"two-point form routes differ for branches ({i},{j}) at {bad}"
        )
    return route_a


def _sqrt_one_plus(v: Var, order: int) -> MultiForm:
    """(1 + x)^(1/2) as an exact truncated series."""
    coeffs: dict[tuple, Rat] = {(0,): Rat(1)}
    c = Rat(1)
    for m in range(1, order + 1):
        c = c * (Fraction(1, 2) - (m - 1)) / m
        coeffs[(m,)] = c
    return MultiForm((v,), (0,), coeffs, (0,), (order,))


@cache
def diagonal_expansion_weights(order: int) -> Mapping[int, Rat]:
    """Coefficients W_m of the universal double-pole part near the diagonal.

    Substituting r = s (1 + x)^(1/2), x = 2 eps / s^2, into the i = j
    singular part gives 2 s^-4 W(x) with
    W = ((sqrt(1+x) - 1)^-2 + (sqrt(1+x) + 1)^-2) / sqrt(1+x); the
    coefficient of eps^m in the diagonal expansion is then
    2 W_m 2^m s^(-4-2m).  W_-2 = 4 and W_-1 = 0 encode the normalized
    second-order pole with no residue, which is asserted by the caller.
    The weights depend on ``order`` alone: each order's are built once and
    returned as one read-only mapping.
    """
    x = Var("_x", 0)
    u = _sqrt_one_plus(x, order + 4)
    one = monomial(x, 0, 1)
    um1 = u - one
    up1 = u + one
    inv_m = invert(um1 * um1, x)
    inv_p = invert(up1 * up1, x)
    w = (inv_m + inv_p) * invert(u, x, order=order + 3)
    out: dict[int, Rat] = {}
    for m in range(-2, order + 1):
        out[m] = w.coefficient((m,))
    return MappingProxyType(out)


def propagator_p0(ctx: FormContext, j: int, v: Var) -> MultiForm:
    """The coinciding-argument two-point value P_0 dlambda.dlambda at branch j.

    The free term of the diagonal expansion has a universal piece from the
    double pole (expanded via :func:`diagonal_expansion_weights`) and an
    analytic piece from the closing matrices evaluated on the diagonal.
    """
    w = diagonal_expansion_weights(0)
    if w[-2] != 4 or w[-1] != 0:
        raise RouteDisagreement(
            f"diagonal normalization broken: eps^-2 weight {w[-2]}, eps^-1 weight {w[-1]}"
        )
    coeffs: dict[tuple, Rat] = {(-4,): 2 * w[0]}

    top = ctx.max_vkl_top()
    if top >= 0:
        vt = ctx.memo(_vtable, top)
        for d in range(0, top + 1):
            c = Rat(0)
            for kk in range(0, d + 1):
                ll = d - kk
                c += Rat(4) * vt.mat(kk, ll)[j - 1][j - 1] / (
                    double_factorial(2 * kk - 1) * double_factorial(2 * ll - 1)
                )
            if c:
                coeffs[(2 * d - 2,)] = coeffs.get((2 * d - 2,), Rat(0)) + c
    hi = INF if ctx.r.exact else 2 * ctx.r.order - 3
    p0 = MultiForm((v,), (0,), coeffs, (-4,), (hi,))
    dlam2 = monomial(v, 2, 1, deg=2)
    return p0 * dlam2


def recursion_kernel(
    ctx: FormContext, i: int, j: int, rv: Var, sv: Var, kmax: int
) -> MultiForm:
    """The residue-recursion weight K(rv, sv), one drv and one inverse dsv.

    Assembled as -(1/2) times the commutator mode sum divided by the
    one-point form; the overall sign is the global orientation choice (see
    the module docstring).  ``kmax`` bounds the pole depth retained in rv,
    which must reach the pole depth of whatever K multiplies.
    """
    # the zero piece holds the support bound in sv at 0: the kernel's window
    # and every residue cap follow from it
    pieces = [(1, zero_form((rv, sv), (1, 0)), None)] + [
        (2 * (-1) ** (k + 1), ctx.memo(_dual_dlambda, i, k + 1, c, rv),
         ctx.period_basis(j, -k - 1, c, sv))
        for k, c in product(range(kmax + 1), range(1, ctx.data.n + 1))
    ]
    num = capped_sum_of_products(pieces, sv, 2 * kmax + 2)

    pj = ctx.memo(one_point_form, j, sv)
    if pj.coefficient((2,)) == 0:
        raise DegenerateDatum(
            f"one-point form at branch {j} has vanishing lead; kernel undefined"
        )
    if ctx.r.exact:
        inv_order = 2 * kmax + 2
    else:
        inv_order = min(2 * ctx.r.order + 1, 2 * kmax + 2)
    inv_pj = invert(pj, sv, order=inv_order)
    return (num * inv_pj).scale(Fraction(-1, 2))


def ope_normalization_check(ctx: FormContext, j: int) -> Report:
    """Resum the diagonal double pole out of the computed two-point form.

    Multiplying the annulus expansion B(r, s) by (r^2 - s^2)^2, i.e. by
    4 (mu - lambda)^2, must telescope every pole away and leave exactly
    4 (r^2 + s^2) plus the polynomial part times (r^2 - s^2)^2; this is
    verified coefficient for coefficient on the certified window.  Together
    with the universal diagonal weights (a second-order pole of strength 2
    and no residue, asserted here from the closed resummation) this pins the
    (mu - lambda)^-2 coefficient of the diagonal expansion to exactly 2.
    """
    rep = Report()
    rv, sv = Var("r", j), Var("s", j)
    s_hi = 8
    if not ctx.r.exact:
        # keep some positive r window: the r window of the mode sum closes as
        # the pole depth grows, and the telescoped polynomial lives at r >= 0
        s_hi = min(s_hi, max(2 * (ctx.r.order - 2), 2))
    b = two_point_form(ctx, j, j, rv, sv, s_hi)
    poly = MultiForm(
        (rv, sv), (0, 0), {(4, 0): 1, (2, 2): -2, (0, 4): 1}, (0, 0), (INF, INF)
    )
    telescoped = b * poly

    expected = MultiForm(
        (rv, sv), (1, 1), {(2, 0): 4, (0, 2): 4}, (0, 0), (INF, INF)
    )
    vpart = _closing_part(ctx, j, j, rv, sv)
    if vpart is not None:
        expected = expected + vpart * poly

    name = f"ope-normalization-branch-{j}"
    hi_common = tuple(min(a, b) for a, b in zip(telescoped.hi, expected.hi))
    if hi_common[telescoped.index_of(sv)] < 2:
        rep.add(name, False, "window too small to certify the diagonal slice")
        return rep
    bad = agreement_mismatch(telescoped, expected)
    if bad is not None:
        rep.add(name, False, f"telescoped expansion differs at {bad}")
        return rep
    w = diagonal_expansion_weights(0)
    # 2 W_m 2^m s^(-4-2m) is the eps^m diagonal coefficient of the universal
    # part; m = -2 must give the bare constant 2 and m = -1 must vanish
    pole_coeff = 2 * w[-2] * Fraction(1, 4)
    ok = pole_coeff == 2 and w[-1] == 0
    rep.add(
        name,
        ok,
        "" if ok else f"diagonal pole coefficient {pole_coeff}, residue weight {w[-1]}",
    )
    return rep


def _dual_dlambda(ctx: FormContext, j: int, k: int, b: int, v: Var) -> MultiForm:
    """(I^(k), v^b) dlambda at branch j, the second factor of a period pairing."""
    return ctx.period_dual(j, k, b, v).times_dlambda(v)


def period_pairing(ctx: FormContext, k1: int, a: int, k2: int, b: int) -> Rat:
    """The residue pairing of two periods: the sum over branches j of the
    half-loop residue of (I^(k1), v_a) (I^(k2), v^b) dlambda at branch j.

    Each branch takes one residue of the first period times the memoized
    second factor; both are series in s alone, so the residue is the scalar
    sum of their coefficients at exponents summing to -1, halved.  Raises
    WindowError when a branch's window cannot reach that coefficient.
    """
    total = Rat(0)
    for j in range(1, ctx.data.n + 1):
        sv = Var("s", j)
        dual = ctx.memo(_dual_dlambda, j, k2, b, sv)
        residue = ctx.period_basis(j, k1, a, sv).residue_half_loop(sv, times=dual)
        total += residue.coefficient(())
    return total


def hrp_check(ctx: FormContext, k_bound: int = 5) -> Report:
    """Residue-pairing orthogonality of the periods.

    For every pair (k1, k2) with |k1|, |k2| <= k_bound and every flat pair
    (a, b), the period pairing must be 2 (-1)^k1 delta_ab delta_{k1+k2,0}.
    Pairs whose certified window cannot reach the pole slice are reported as
    skipped rather than silently passed; they become certifiable once the
    truncation order exceeds k1 + k2.
    """
    rep = Report()
    ks, flat = range(-k_bound, k_bound + 1), range(1, ctx.data.n + 1)
    skipped = 0
    for k1, k2, a, b in product(ks, ks, flat, flat):
        expected = Rat(-2 if k1 % 2 else 2) if a == b and k1 + k2 == 0 else Rat(0)
        try:
            total = ctx.memo(period_pairing, k1, a, k2, b)
        except WindowError:
            skipped += 1
            continue
        if total != expected:
            rep.add(
                "period-residue-orthogonality",
                False,
                f"(k1,k2,a,b)=({k1},{k2},{a},{b}): {total} != {expected}",
            )
            return rep
    rep.add(
        "period-residue-orthogonality",
        True,
        f"all certified pairs up to |k| <= {k_bound}; {skipped} window-limited pairs skipped",
    )
    return rep

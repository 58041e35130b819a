"""Span tracer for the traced benchmark run, installed from outside the library.

Every hook replaces a function or method at the place the library looks it
up: a module-level function is replaced in every ``localrec`` module that
bound it by ``from ... import``, a method on its class.  A span records its
call count, inclusive time and self time (inclusive time minus the time of
the spans it directly encloses), so nested spans are not counted twice.

Recursion entries and ``OmegaTable.omega`` calls made while window planning
runs on a shadow table are folded into the ``recursion.plan`` span; they are
not counted as entries of the real table.
"""

from __future__ import annotations

import time
from collections import defaultdict

SERIES_OPS = ("add", "mul", "init", "rename", "merge_diagonal", "residue_half_loop", "invert")
SEEDS = ("two_point_form", "recursion_kernel", "propagator_p0", "one_point_form")
CHECK_FAMILIES = {
    "validate": ("validate_canonical", "check_symplectic"),
    "hrp": ("hrp_check",),
    "ope": ("ope_normalization_check",),
    "dual_route": ("one_point_form", "two_point_form"),
    "insertion": ("insertion_reconstruct_check",),
    "symmetry": ("symmetry_check",),
    "extract": ("extract_all",),
    "constraint": ("virasoro_check",),
}
#: Span-name prefixes of every hook; the self-test requires each to fire.
HOOKS = (
    [f"series.{op}" for op in SERIES_OPS]
    + [f"localforms.{fn}" for fn in SEEDS]
    + ["frobenius.random_symplectic_r", "frobenius.compute_vkl", "frobenius.validate"]
    + ["recursion.omega", "recursion.entry.", "recursion.plan"]
    + ["correlators.extract.", "correlators.put", "correlators.virasoro_check"]
    + ["correlators.insertion_reconstruct_check"]
    + ["serialize.dumps_canonical", "serialize.form_to_json", "cli.cmd_check"]
    + [f"cli.check.{fam}" for fam in CHECK_FAMILIES]
)
#: Largest table complexity 2g - 2 + n among the benchmark workloads.
MAX_COMPLEXITY = 6


def stable_classes() -> list[tuple[int, int]]:
    """Every stable (g, n) up to MAX_COMPLEXITY."""
    return [
        (g, c + 2 - 2 * g)
        for c in range(1, MAX_COMPLEXITY + 1)
        for g in range(0, c // 2 + 2)
        if c + 2 - 2 * g >= 1
    ]


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for op in SERIES_OPS:
        out += [(f"series.{op}.calls", "count", "lower"), (f"series.{op}.self_s", "s", "lower")]
    out += [
        ("series.add.terms_in", "count", "lower"),
        ("series.mul.pairs", "count", "lower"),
        ("series.mul.terms_out", "count", "lower"),
    ]
    for fn in SEEDS:
        out += [(f"localforms.{fn}.calls", "count", "lower"), (f"localforms.{fn}.incl_s", "s", "lower")]
    out.append(("localforms.recursion_kernel.distinct", "count", "lower"))
    for fn in ("random_symplectic_r", "compute_vkl", "validate"):
        out.append((f"frobenius.{fn}.incl_s", "s", "lower"))
    out += [
        ("recursion.omega.calls", "count", "lower"),
        ("recursion.entries", "count", "lower"),
        ("recursion.omega.hit_ratio", "ratio", "higher"),
    ]
    out += [(f"recursion.entry.g{g}n{n}.self_s", "s", "lower") for g, n in stable_classes()]
    out += [("recursion.plan.calls", "count", "lower"), ("recursion.plan.incl_s", "s", "lower")]
    out += [("correlators.extract.incl_s", "s", "lower"), ("correlators.extract.self_s", "s", "lower")]
    out += [(f"correlators.extract.g{g}n{n}.self_s", "s", "lower") for g, n in stable_classes()]
    out.append(("correlators.keys", "count", "higher"))
    for fn in ("virasoro_check", "insertion_reconstruct_check"):
        out += [(f"correlators.{fn}.calls", "count", "lower"), (f"correlators.{fn}.incl_s", "s", "lower")]
    out += [(f"cli.check.{fam}_s", "s", "lower") for fam in CHECK_FAMILIES]
    out += [
        ("serialize.dumps_canonical.incl_s", "s", "lower"),
        ("serialize.form_to_json.incl_s", "s", "lower"),
        ("serialize.output_bytes", "bytes", "lower"),
        ("dvv.oracle_s", "s", "lower"),
        ("dvv.oracle_keys", "count", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Aggregated spans and counters, kept in memory for one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self._open: list[list] = []  # [span name, time of directly enclosed spans]

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def wrap(self, fn, name, count=None):
        """Wrap ``fn`` in a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one, or None to pass the call through untraced.  ``count``
        is called as ``count(tracer, result, *args)`` after each traced call.
        """
        clock = time.perf_counter
        stack = self._open

        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[span] += 1
                self.incl[span] += dt
                self.self_time[span] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def total(self, table, prefix: str) -> float:
        return sum((v for k, v in table.items() if k.startswith(prefix)), 0.0)


def _replace_everywhere(modules, home, attr: str, make) -> None:
    """Replace ``home.attr`` in every module that bound the same object.

    A name the library no longer has is skipped: its span then never fires,
    which the run reports as a blind layer instead of crashing.
    """
    original = getattr(home, attr, None)
    if original is None:
        return
    wrapped = make(original)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _wrap_method(cls, attr: str, make) -> None:
    """Replace a method on its class; skipped like a missing function."""
    if attr in vars(cls):
        setattr(cls, attr, make(vars(cls)[attr]))


def _count_add(tr, result, a, b, *rest):
    if hasattr(b, "coeffs"):
        tr.counts["series.add.terms_in"] += len(a.coeffs) + len(b.coeffs)


def _count_mul(tr, result, a, b, *rest):
    tr.counts["series.mul.pairs"] += len(a.coeffs) * len(b.coeffs)
    tr.counts["series.mul.terms_out"] += len(result.coeffs)


def _count_kernel(tr, result, ctx, i, j, rv, sv, kmax):
    tr.distinct["localforms.recursion_kernel"].add((ctx.data, ctx.r, i, j, rv, sv, kmax))


def install(tracer: Tracer) -> None:
    """Hook every traced layer of an imported, not yet used ``localrec``."""
    import sys

    from localrec import cli, correlators, frobenius, localforms, recursion, series, serialize

    mods = [m for k, m in sorted(sys.modules.items()) if k == "localrec" or k.startswith("localrec.")]
    wrap = tracer.wrap

    def in_plan() -> bool:
        return tracer.active("recursion.plan")

    mf = series.MultiForm
    _wrap_method(mf, "__add__", lambda f: wrap(f, "series.add", _count_add))
    _wrap_method(mf, "__init__", lambda f: wrap(f, "series.init"))
    for op in ("rename", "merge_diagonal", "residue_half_loop"):
        _wrap_method(mf, op, lambda f, op=op: wrap(f, f"series.{op}"))
    _replace_everywhere(mods, series, "_mul", lambda f: wrap(f, "series.mul", _count_mul))
    _replace_everywhere(mods, series, "invert", lambda f: wrap(f, "series.invert"))

    for fn in SEEDS:
        count = _count_kernel if fn == "recursion_kernel" else None
        _replace_everywhere(mods, localforms, fn, lambda f, fn=fn, c=count: wrap(f, f"localforms.{fn}", c))

    for fn in ("random_symplectic_r", "compute_vkl"):
        _replace_everywhere(mods, frobenius, fn, lambda f, fn=fn: wrap(f, f"frobenius.{fn}"))
    for fn in ("validate_canonical", "check_symplectic"):
        _replace_everywhere(mods, frobenius, fn, lambda f: wrap(f, "frobenius.validate"))

    table = recursion.OmegaTable
    _wrap_method(table, "omega", lambda f: wrap(f, lambda *a, **k: None if in_plan() else "recursion.omega"))
    _wrap_method(
        table,
        "_compute",
        lambda f: wrap(
            f, lambda self, g, branches: None if in_plan() else f"recursion.entry.g{g}n{len(branches)}"
        ),
    )
    _wrap_method(table, "required_order", lambda f: wrap(f, "recursion.plan"))

    _replace_everywhere(
        mods,
        correlators,
        "extract_correlators",
        lambda f: wrap(f, lambda table, g, n, *a, **k: f"correlators.extract.g{g}n{n}"),
    )
    _wrap_method(correlators.CorrelatorTable, "put", lambda f: wrap(f, "correlators.put"))
    for fn in ("virasoro_check", "insertion_reconstruct_check"):
        _replace_everywhere(mods, correlators, fn, lambda f, fn=fn: wrap(f, f"correlators.{fn}"))

    for fn in ("dumps_canonical", "form_to_json"):
        _replace_everywhere(mods, serialize, fn, lambda f, fn=fn: wrap(f, f"serialize.{fn}"))

    # check families: wrapped where cmd_check's battery looks them up, and
    # only timed while cmd_check runs (cmd_correlators shares extract_all)
    _replace_everywhere([cli], cli, "cmd_check", lambda f: wrap(f, "cli.cmd_check"))
    for fam, fns in CHECK_FAMILIES.items():

        def in_check(*a, span=f"cli.check.{fam}", **k):
            return span if tracer.active("cli.cmd_check") else None

        for fn in fns:
            _replace_everywhere([cli], cli, fn, lambda f: wrap(f, in_check))


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans, except those measured outside them."""
    out: dict[str, float] = {}
    for op in SERIES_OPS:
        out[f"series.{op}.calls"] = tr.calls[f"series.{op}"]
        out[f"series.{op}.self_s"] = tr.self_time[f"series.{op}"]
    for key in ("series.add.terms_in", "series.mul.pairs", "series.mul.terms_out"):
        out[key] = tr.counts[key]
    for fn in SEEDS:
        out[f"localforms.{fn}.calls"] = tr.calls[f"localforms.{fn}"]
        out[f"localforms.{fn}.incl_s"] = tr.incl[f"localforms.{fn}"]
    out["localforms.recursion_kernel.distinct"] = len(tr.distinct["localforms.recursion_kernel"])
    for fn in ("random_symplectic_r", "compute_vkl", "validate"):
        out[f"frobenius.{fn}.incl_s"] = tr.incl[f"frobenius.{fn}"]
    calls = tr.calls["recursion.omega"]
    entries = sum(v for k, v in tr.calls.items() if k.startswith("recursion.entry."))
    out["recursion.omega.calls"] = calls
    out["recursion.entries"] = entries
    out["recursion.omega.hit_ratio"] = 1 - entries / calls if calls else 0.0
    for g, n in stable_classes():
        out[f"recursion.entry.g{g}n{n}.self_s"] = tr.self_time[f"recursion.entry.g{g}n{n}"]
        out[f"correlators.extract.g{g}n{n}.self_s"] = tr.self_time[f"correlators.extract.g{g}n{n}"]
    out["recursion.plan.calls"] = tr.calls["recursion.plan"]
    out["recursion.plan.incl_s"] = tr.incl["recursion.plan"]
    out["correlators.extract.incl_s"] = tr.total(tr.incl, "correlators.extract.")
    out["correlators.extract.self_s"] = tr.total(tr.self_time, "correlators.extract.")
    out["correlators.keys"] = tr.calls["correlators.put"]
    for fn in ("virasoro_check", "insertion_reconstruct_check"):
        out[f"correlators.{fn}.calls"] = tr.calls[f"correlators.{fn}"]
        out[f"correlators.{fn}.incl_s"] = tr.incl[f"correlators.{fn}"]
    for fam in CHECK_FAMILIES:
        out[f"cli.check.{fam}_s"] = tr.incl[f"cli.check.{fam}"]
    for fn in ("dumps_canonical", "form_to_json"):
        out[f"serialize.{fn}.incl_s"] = tr.incl[f"serialize.{fn}"]
    return out


def fired(tr: Tracer) -> set[str]:
    """Names of the spans that ran at least once."""
    return {k for k, v in tr.calls.items() if v}

"""Batch front end: datum ingestion, command dispatch, exact serialization.

Exit codes: 0 success, 1 validation failure or an unwritable ``--out``,
2 window exhaustion (message names the minimal sufficient truncation
order), 3 internal consistency failure; a failing run writes one line to
stderr.  ``EXIT_TABLE`` maps every exception class a command can end with to
its exit code and the prefix of that line.  All runs are deterministic given
the config file and seed; output bytes are canonical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

from .correlators import (
    extract_all,
    insertion_reconstruct_check,
    virasoro_check,
)
from .frobenius import (
    DatumError,
    RMatrix,
    check_symplectic,
    random_symplectic_r,
    validate_canonical,
)
from .localforms import (
    DegenerateDatum,
    FormContext,
    RouteDisagreement,
    hrp_check,
    one_point_form,
    ope_normalization_check,
    two_point_form,
)
from .recursion import (
    ConsistencyError,
    OmegaTable,
    TruncationOrderError,
    stable_entries,
    symmetry_check,
)
from .report import Check, Report
from .serialize import (
    datum_from_json,
    dumps_canonical,
    form_to_json,
    matrix_to_json,
    rat_to_str,
    rmatrix_from_json,
)
from .series import DegreeError, MonodromyError, SeriesError, Var, WindowError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_WINDOW = 2
EXIT_INCONSISTENT = 3

# What a command run ends with, per exception class: (exit code, stderr
# prefix).  An exception takes the entry of the first class in its MRO.
EXIT_TABLE = {
    TruncationOrderError: (EXIT_WINDOW, "window exhausted"),
    WindowError: (EXIT_WINDOW, "window exhausted"),
    ConsistencyError: (EXIT_INCONSISTENT, "internal consistency failure"),
    RouteDisagreement: (EXIT_INCONSISTENT, "internal consistency failure"),
    MonodromyError: (EXIT_INCONSISTENT, "internal consistency failure"),
    DegreeError: (EXIT_INCONSISTENT, "series failure"),
    DegenerateDatum: (EXIT_INCONSISTENT, "series failure"),
    SeriesError: (EXIT_INCONSISTENT, "series failure"),
    DatumError: (EXIT_VALIDATION, "invalid datum"),
    OSError: (EXIT_VALIDATION, "output error"),  # from _check_out, or a failed write
}


class RunConfig:
    """Parsed configuration: datum, R source, bounds."""

    def __init__(self, raw: dict, seed_override: int | None = None):
        self.datum = datum_from_json(raw)
        declared = self._int(raw, "N", self.datum.n)
        if declared != self.datum.n:
            raise ValueError(f"declared N={declared} but u has length {self.datum.n}")
        self.bound = self._int(raw, "g_max_complexity", 4, least=1)
        self.window = self._int(raw, "window", 0, least=0)  # extra headroom
        seed = self._int(raw, "seed", 0)
        self.seed = seed_override if seed_override is not None else seed
        self.coeff_bound = self._int(raw, "coeff_bound", 3, least=1)
        self.order = self._int(raw, "L", 0, least=0)
        self.r = self._resolve_r(raw)
        self._ctx: FormContext | None = None
        self._validation: tuple[Report, Report] | None = None

    @staticmethod
    def _int(raw: dict, key: str, default: int, least: int | None = None) -> int:
        """``raw[key]`` as an integer of at least ``least``; missing or null is ``default``."""
        value = raw.get(key)
        if value is None:
            return default
        if type(value) is not int:  # refuses bool, float and str alike
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{key} must be at least {least}, got {value}")
        return value

    def _resolve_r(self, raw) -> RMatrix:
        source = raw.get("R")
        exact = raw.get("R_exact", False)
        if type(exact) is not bool:
            raise ValueError(f"R_exact must be true or false, got {exact!r}")
        if source is None:
            return RMatrix.identity_r(self.datum.n)
        if source == "random":
            return random_symplectic_r(
                self.datum.n, self.order, self.seed, self.coeff_bound
            )
        return rmatrix_from_json(source, exact=exact)

    def context(self) -> FormContext:
        """The one form context of this run, shared by every table and check.

        Raises DatumError when R does not fit the datum or a unit pairing
        (the leading coefficient the recursion kernel divides by) vanishes.
        """
        if self._ctx is None:
            try:
                ctx = FormContext(self.datum, self.r)
            except DegenerateDatum as exc:
                raise DatumError(str(exc)) from None
            for j in range(1, self.datum.n + 1):
                if ctx.unit_pairing(0, j) == 0:
                    raise DatumError(f"unit pairing at branch {j} vanishes")
            self._ctx = ctx
        return self._ctx

    def validation(self) -> tuple[Report, Report]:
        """The reports of ``validate_canonical`` on the datum and of
        ``check_symplectic`` on R, made once per run and shared by every
        command that reads them; callers must not change them."""
        if self._validation is None:
            self._validation = (validate_canonical(self.datum), check_symplectic(self.r))
        return self._validation

    def table(self) -> OmegaTable:
        """The form table of this run; the datum and R must pass validation."""
        for rep in self.validation():
            if not rep.ok:
                bad = rep.failures()[0]
                raise DatumError(f"{bad.name} failed: {bad.detail}")
        return OmegaTable(self.context(), bound=self.bound, min_budget=self.window)


def _load_config(path: str, seed_override=None) -> RunConfig:
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("the config must be a JSON object")
    return RunConfig(raw, seed_override)


def _check_out(out: str | None) -> None:
    """Raise OSError unless ``out`` (if given) names a file that can be written.

    Run before any table is built.
    """
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        raise IsADirectoryError(f"{out} is a directory")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"no directory {path.parent} for {out}")
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise PermissionError(f"{out} is not writable")


def _emit(payload: dict, out: str | None) -> None:
    text = dumps_canonical(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_validate(cfg: RunConfig, out: str | None) -> int:
    rep, srep = cfg.validation()
    if rep.ok:
        cfg.context()  # R fits the datum and no unit pairing vanishes
    payload = {"datum": rep.as_dict(), "symplectic": srep.as_dict()}
    _emit(payload, out)
    bad = rep.failures() + srep.failures()
    if bad:
        _fail("invalid datum", bad[0])
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_omega(cfg: RunConfig, g: int, n: int, out: str | None) -> int:
    if g < 0 or n < 1 or 2 * g - 2 + n <= 0 or 2 * g - 2 + n > cfg.bound:
        sys.stderr.write(
            f"(g,n)=({g},{n}) is outside the stable range or the configured "
            f"complexity bound {cfg.bound}\n"
        )
        return EXIT_VALIDATION
    table = cfg.table()
    entries = []
    for branches in combinations_with_replacement(range(1, cfg.datum.n + 1), n):
        form = table.omega(g, branches)
        entries.append({"branches": list(branches), "form": form_to_json(form)})
    _emit({"g": g, "n": n, "entries": entries}, out)
    return EXIT_OK


def cmd_correlators(cfg: RunConfig, out: str | None) -> int:
    table = cfg.table()
    corr = extract_all(table)
    entries = []
    for key, value in corr.items():
        entries.append(
            {
                "g": key.g,
                "insertions": [list(p) for p in key.insertions],
                "value": rat_to_str(value),
                "provenance": corr.provenance[key],
            }
        )
    _emit({"g_max_complexity": cfg.bound, "entries": entries}, out)
    return EXIT_OK


def _fail(prefix: str, bad: Check) -> None:
    sys.stderr.write(f"{prefix}: {bad.name} failed: {bad.detail}\n")


def _check_battery(cfg: RunConfig) -> Report:
    """Every check after validation; the datum and R must pass validation."""
    n = cfg.datum.n
    rep = Report()
    ctx = cfg.context()

    rep.checks.extend(hrp_check(ctx, k_bound=3).checks)

    for j in range(1, n + 1):
        one_point_form(ctx, j, Var("s", j))  # raises on route disagreement
        rep.checks.extend(ope_normalization_check(ctx, j).checks)
    table = cfg.table()
    # the table's own seeds, which it then reuses, at a window of at least 6
    s_hi = max(6, table.budget)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ctx.memo(two_point_form, i, j, Var("a", i), Var("b", j), s_hi)
    rep.add("dual-route-agreement", True, "one- and two-point constructions")

    for k in range(0, 3):
        for a in range(1, n + 1):
            rep.checks.extend(insertion_reconstruct_check(ctx, k, a).checks)

    sym_bound = min(cfg.bound, 2 if n > 1 or not cfg.r.exact else 4)
    for g, nn in stable_entries(sym_bound):
        for branches in combinations_with_replacement(range(1, n + 1), nn):
            rep.checks.extend(symmetry_check(table, g, branches).checks)

    corr = extract_all(table, bound=sym_bound)
    lhs_pairs = [(0, 2), (1, 1)] if (n > 1 or not cfg.r.exact) else [
        (0, 2),
        (0, 3),
        (1, 1),
        (1, 2),
        (2, 1),
    ]
    for g, nn in lhs_pairs:
        if 2 * g - 2 + (nn + 1) > sym_bound:
            continue
        budget = 3 * g - 3 + (nn + 1)
        for ks in combinations_with_replacement(range(budget + 1), nn):
            if sum(ks) > budget:
                continue
            for avec in product(range(1, n + 1), repeat=nn):
                ins = tuple(zip(ks, avec))
                for ext in range(1, n + 1):
                    rep.checks.extend(
                        virasoro_check(ctx, corr, g, ins, i_ext=ext).checks
                    )
    return rep


def cmd_check(cfg: RunConfig, out: str | None) -> int:
    datum_rep, r_rep = cfg.validation()
    rep = Report(datum_rep.checks + r_rep.checks)
    valid = rep.ok
    if valid:
        rep.checks.extend(_check_battery(cfg).checks)
    _emit(rep.as_dict(), out)
    if rep.ok:
        return EXIT_OK
    if not valid:
        _fail("invalid datum", rep.failures()[0])
        return EXIT_VALIDATION
    _fail("internal consistency failure", rep.failures()[0])
    return EXIT_INCONSISTENT


def cmd_random_r(cfg: RunConfig, out: str | None) -> int:
    rep = validate_canonical(cfg.datum)
    if not rep.ok:
        _fail("invalid datum", rep.failures()[0])
        return EXIT_VALIDATION
    r = random_symplectic_r(cfg.datum.n, cfg.order, cfg.seed, cfg.coeff_bound)
    payload = {
        "N": cfg.datum.n,
        "L": r.order,
        "seed": cfg.seed,
        "coeff_bound": cfg.coeff_bound,
        "R": [matrix_to_json(m) for m in r.mats],
    }
    _emit(payload, out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="localrec",
        description="Exact local topological recursion for semisimple data",
    )
    parser.add_argument("command", choices=["validate", "omega", "correlators", "check", "random-r"])
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--g", type=int, default=None, help="genus (omega)")
    parser.add_argument("--n", type=int, default=None, help="number of points (omega)")
    parser.add_argument("--out", default=None, help="output path (stdout if omitted)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # keep exit code 2 reserved for window exhaustion
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION

    try:
        cfg = _load_config(args.config, args.seed)
    except (
        DatumError, ValueError, TypeError, KeyError, OSError, json.JSONDecodeError
    ) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_VALIDATION

    try:
        _check_out(args.out)
        if args.command == "validate":
            return cmd_validate(cfg, args.out)
        if args.command == "omega":
            if args.g is None or args.n is None:
                sys.stderr.write("omega needs --g and --n\n")
                return EXIT_VALIDATION
            return cmd_omega(cfg, args.g, args.n, args.out)
        if args.command == "correlators":
            return cmd_correlators(cfg, args.out)
        if args.command == "check":
            return cmd_check(cfg, args.out)
        if args.command == "random-r":
            return cmd_random_r(cfg, args.out)
    except tuple(EXIT_TABLE) as exc:
        code, prefix = next(EXIT_TABLE[c] for c in type(exc).__mro__ if c in EXIT_TABLE)
        hint = ""
        if isinstance(exc, TruncationOrderError) and exc.min_order is not None:
            hint = f" (minimal sufficient truncation order: {exc.min_order})"
        sys.stderr.write(f"{prefix}: {exc}{hint}\n")
        return code
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

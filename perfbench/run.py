"""Benchmark of the localrec CLI: time from a datum to a certified result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Each CLI invocation is a fresh,
single-threaded interpreter (``child.py``) importing ``localrec`` from
``src/``; invocations run one at a time.  The workload seed picks the seed of
the random R matrix (``r_seed``); the program receives only the
generated config.

With ``--trace 0`` the run reports the end-to-end metrics: ``run_s`` (command
dispatch to canonical output bytes written), ``setup_s`` (child start to a
parsed ``RunConfig``) and ``peak_rss_mb``, each the median over the run's
samples.  With ``--trace 1`` untraced and traced invocations alternate and the
run reports the per-layer metrics of ``spans.py``.

Every invocation must exit 0, produce the golden sha256 recorded for its
workload and seed (when one is recorded), reproduce the bytes of the run's
first invocation and pass the workload's oracle; each violation counts as a
failed attempt.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
SETUP_EACH = 5  # set-up-only children before each untraced invocation
MIN_INVOCATIONS = 2  # a repeat is needed to check byte-identical output
DEADLINE_S = 165  # start no child that could end after this


def r_seed(wl: dict, seed: int) -> int:
    """The R seed of a workload seed: the first of ``100 * seed + i`` whose
    random R has no zero entry in R_1..R_L and whose entries take between
    ``wl["r_bits"]`` bits in all (numerators plus denominators).

    Both properties set how much work the random-R workloads do: a zero
    entry cuts it by up to 30%, and the entries' size moves it by about as
    much, so unfiltered seeds would make the choice of seed, not the code,
    dominate the run-to-run spread.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from localrec.frobenius import random_symplectic_r

    cfg, (lo, hi) = wl["config"], wl["r_bits"]
    for cand in range(100 * seed, 100 * seed + 100):
        r = random_symplectic_r(cfg["N"], cfg["L"], cand, cfg["coeff_bound"])
        entries = [x for m in r.mats[1:] for row in m for x in row]
        bits = sum(x.numerator.bit_length() + x.denominator.bit_length() for x in entries)
        if all(entries) and lo <= bits <= hi:
            return cand
    raise ValueError(f"no R seed among 100 candidates for seed {seed} fits the workload")


def build_config(wl: dict, seed: int) -> dict:
    cfg = dict(wl["config"])
    if wl["seeded"]:
        cfg["seed"] = r_seed(wl, seed)
    return cfg


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """The children of one benchmark run and the checks on their outputs."""

    def __init__(self, name: str, seed: int, workdir: Path, t_start: float):
        self.name, self.wl, self.seed = name, WORKLOADS[name], seed
        self.t_start = t_start
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps(build_config(self.wl, seed)))
        self.out = workdir / "out.json"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.golden = self.wl["golden"].get(str(seed if self.wl["seeded"] else 0))
        self.first: bytes | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.records: dict[str, list[dict]] = {"setup": [], "run": [], "trace": []}

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"FAIL {self.name} seed {self.seed}: {why}", file=sys.stderr)

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def spawn(self, mode: str) -> None:
        """Run one child to completion and check what it produced."""
        self.attempted += 1
        self.out.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py")]
        t0 = time.monotonic()
        argv += [repr(t0), mode, self.wl["oracle"], str(self.config), str(self.out), *self.wl["command"]]
        try:
            proc = subprocess.run(
                argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(self.time_left(), 1),
            )
        except subprocess.TimeoutExpired:
            self.fail(f"{mode} child timed out")
            return
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.fail(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        rec = json.loads(lines[-1])
        if rec["exit"] != 0:
            self.fail(f"localrec exited {rec['exit']}: {proc.stderr.strip()[-300:]}")
            return
        self.records[mode].append(rec)
        if mode == "setup":
            return
        data = self.out.read_bytes()
        rec["sha256"] = hashlib.sha256(data).hexdigest()
        if self.golden is not None and rec["sha256"] != self.golden:
            self.fail(f"output sha256 {rec['sha256']} differs from the golden {self.golden}")
        elif self.first is not None and data != self.first:
            self.fail("output bytes differ from the first invocation of this run")
        elif rec["oracle_error"]:
            self.fail(f"oracle mismatch: {rec['oracle_error']}")
        if self.first is None:
            self.first = data

    def measure(self, modes: list[str], seconds: float, setup_each: int = 0) -> None:
        """Cycle through ``modes`` until the next cycle would overrun ``seconds``.

        Each cycle starts with ``setup_each`` set-up-only children, so that
        set-up samples are spread over the whole run like the full ones.
        """
        t0 = time.monotonic()
        cycles: dict[str, list[float]] = {m: [] for m in modes}
        done = 0
        while True:
            mode = modes[done % len(modes)]
            typical = median(cycles[mode])
            late = time.monotonic() - t0 + typical > seconds or typical * 1.5 > self.time_left()
            if done >= MIN_INVOCATIONS and late:
                break
            start = time.monotonic()
            for _ in range(setup_each):
                self.spawn("setup")
            self.spawn(mode)
            cycles[mode].append(time.monotonic() - start)
            done += 1
            if self.time_left() <= 0:
                break


def describe(name: str, unit: str, values: list[float]) -> str:
    """A human-readable line: median, sample count and quartiles."""
    line = f"{name} {median(values):.6g} {unit} (median of {len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        line += f", quartiles {q1:.6g}..{q3:.6g}"
    return line + ")"


def end_to_end(run: Run) -> dict:
    runs = run.records["run"]
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in run.records["setup"] + runs],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
    }
    units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for key, values in samples.items():
        print(describe(key, units[key], values))
    return {k: {"value": median(v), "unit": units[k]} for k, v in samples.items()}


def per_layer(run: Run) -> tuple[dict, set[str]]:
    import spans

    traced = run.records["trace"]
    fired = set().union(*(r["fired"] for r in traced)) if traced else set()
    print(describe("traced run_s", "s", [r["run_s"] for r in traced]))
    metrics = {}
    for name, unit, _ in spans.per_layer_names():
        if name == "trace.overhead_s":
            value = median([r["run_s"] for r in traced]) - median([r["run_s"] for r in run.records["run"]])
        else:
            value = median([r["layers"][name] for r in traced])
        print(f"{name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for hook in run.wl["expect"]:
        if not any(f.startswith(hook) for f in fired):
            print(f"blind layer: hook {hook} fired zero times on {run.name}, where calls are expected", file=sys.stderr)
    return metrics, fired


def bench(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Run, set[str]]:
    """One benchmark run; returns the result object, the run and the fired hooks."""
    t_start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = Run(name, seed, Path(tmp), t_start)
        if trace:
            run.measure(["run", "trace"], seconds)
        else:
            run.measure(["run"], seconds, setup_each=SETUP_EACH)
    invocations = run.records["run"] + run.records["trace"]
    print(f"workload {name} seed {seed} trace {int(trace)}: {run.attempted} children, "
          f"{len(run.failures)} failed, fail_rate {len(run.failures) / max(run.attempted, 1):.6g}")
    shas = sorted({r["sha256"] for r in invocations if "sha256" in r})
    print(f"output sha256 {' '.join(shas)} (golden {run.golden or 'not recorded for this seed'})")
    fired: set[str] = set()
    if trace:
        metrics, fired = per_layer(run) if run.records["trace"] and run.records["run"] else ({}, set())
    else:
        metrics = end_to_end(run) if run.records["run"] else {}
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return result, run, fired


def selftest() -> int:
    """Tiny inputs: every hook fires, hashes match, every metric name is emitted."""
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if want[1] != {name for name, _, _ in spans.per_layer_names()}:
        problems.append("BENCHMARK.json per_layer differs from spans.per_layer_names()")
    fired: set[str] = set()
    for name in sorted(n for n in WORKLOADS if n.startswith("selftest-")):
        for trace in (0, 1):
            result, run, got = bench(name, 0, 0, bool(trace))
            fired |= got
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {run.failures or 'no metrics'}")
            if run.golden is None:
                problems.append(f"{name}: no golden hash recorded for seed 0")
            if set(result["metrics"]) != want[trace]:
                problems.append(f"{name} trace {trace}: metric names differ from BENCHMARK.json")
    silent = [h for h in spans.HOOKS if not any(f.startswith(h) for f in fired)]
    if silent:
        problems.append(f"hooks that never fired: {silent}")
    for p in problems:
        print(f"SELFTEST FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    # end like an error on SIGTERM, so that children are killed and awaited
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "localrec" / "cli.py").is_file():
        print(f"no localrec sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    result, _, _ = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

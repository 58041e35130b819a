"""One localrec CLI invocation in a fresh interpreter, timed from outside the library.

    python3 child.py SPAWN_T MODE ORACLE CONFIG OUT COMMAND...

``SPAWN_T`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, the import, the config parse
and the R resolution.  ``MODE`` is ``setup`` (stop once the ``RunConfig`` is
parsed), ``run`` or ``trace`` (run with the span hooks of ``spans.py``).
``ORACLE`` names the check applied to the output after the timed region:
``dvv``, ``verdict`` or ``none``.  Prints one JSON record on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


class SetupDone(Exception):
    """Raised by the timed RunConfig to stop a set-up-only child."""


def dvv_oracle(payload: dict) -> tuple[str, int]:
    """Compare every extracted Airy correlator with the DVV recursion."""
    from localrec.dvv import dvv_intersection

    for entry in payload["entries"]:
        ins = entry["insertions"]
        if any(a != 1 for _, a in ins):
            return f"unexpected flat index in {entry}", 0
        want = dvv_intersection(entry["g"], [k for k, _ in ins])
        if Fraction(entry["value"]) != want:
            return f"g={entry['g']} {ins}: got {entry['value']}, DVV gives {want}", 0
    if not payload["entries"]:
        return "no correlators extracted", 0
    return "", len(payload["entries"])


def verdict_oracle(payload: dict) -> tuple[str, int]:
    """The check report must be non-empty and pass every check."""
    failed = [c["name"] for c in payload["checks"] if not c["ok"]]
    if failed or not payload["ok"] or not payload["checks"]:
        return f"checks failed: {failed[:5]}", 0
    return "", 0


def main() -> int:
    spawn = float(sys.argv[1])
    mode, oracle, config, out = sys.argv[2:6]
    command = sys.argv[6:]
    root = Path(__file__).resolve().parent.parent

    from localrec import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"localrec imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 1
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    marks = {}

    class TimedRunConfig(cli.RunConfig):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            marks["config"] = time.monotonic()
            if mode == "setup":
                raise SetupDone

    cli.RunConfig = TimedRunConfig
    try:
        code = cli.main([*command, "--config", config, "--out", out])
    except SetupDone:
        code = 0
    done = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if "config" not in marks:
        print("the RunConfig hook never fired", file=sys.stderr)
        return 1
    record = {"exit": code, "setup_s": marks["config"] - spawn, "run_s": done - marks["config"], "rss_mb": rss_mb}
    if mode != "setup" and code == 0:
        data = Path(out).read_bytes()
        t0 = time.perf_counter()
        check = {"dvv": dvv_oracle, "verdict": verdict_oracle}.get(oracle)
        record["oracle_error"], keys = check(json.loads(data)) if check else ("", 0)
        oracle_s = time.perf_counter() - t0 if oracle == "dvv" else 0.0
        if tracer is not None:
            record["fired"] = sorted(spans.fired(tracer))
            record["layers"] = spans.layer_metrics(tracer)
            record["layers"].update(
                {"serialize.output_bytes": len(data), "dvv.oracle_s": oracle_s, "dvv.oracle_keys": keys}
            )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

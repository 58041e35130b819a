"""CLI: config ingestion, serialization round trips, determinism, exit codes."""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localrec.cli import main
from localrec.series import INF, MultiForm, Var, monomial, sum_forms
from localrec.serialize import (
    dumps_canonical,
    form_from_json,
    form_to_json,
    rat_from_str,
    rat_to_str,
)


def airy_config():
    return {
        "N": 1,
        "u": ["0/1"],
        "eta": [["1/1"]],
        "psi": [["1/1"]],
        "unit": ["1/1"],
        "R": [[["1/1"]]],
        "R_exact": True,
        "L": 0,
        "g_max_complexity": 3,
    }


def pair_config(seed=1, order=6):
    return {
        "N": 2,
        "u": ["0/1", "1/1"],
        "eta": [["1/1", "0/1"], ["0/1", "1/1"]],
        "psi": [["1/1", "0/1"], ["0/1", "1/1"]],
        "unit": ["1/1", "1/1"],
        "R": "random",
        "L": order,
        "seed": seed,
        "coeff_bound": 3,
        "g_max_complexity": 2,
    }


def array_config():
    """A config whose top level is a JSON array, not an object."""
    return []


def airy_config_without(key):
    """``airy_config`` with ``key`` left out, named for the test ids."""

    def config():
        return {k: v for k, v in airy_config().items() if k != key}

    config.__name__ = f"airy_config_without_{key}"
    return config


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_rat_round_trip():
    for s in ["0/1", "-7/3", "22/7"]:
        assert rat_to_str(rat_from_str(s)) == s
    assert rat_from_str("4/6") == rat_from_str("2/3")


def test_validate_airy(tmp_path, capsys):
    path = write_config(tmp_path, airy_config())
    assert main(["validate", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["datum"]["ok"] and out["symplectic"]["ok"]


def test_validate_coincident_u_fails(tmp_path, capsys):
    cfg = pair_config()
    cfg["u"] = ["0/1", "0/1"]
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid datum: ") and err.count("\n") == 1, err


def test_validate_non_symplectic_r_fails(tmp_path, capsys):
    cfg = pair_config()
    cfg["R"] = [
        [["1/1", "0/1"], ["0/1", "1/1"]],
        [["0/1", "1/1"], ["-1/1", "0/1"]],
    ]
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    failing = [c for c in out["symplectic"]["checks"] if not c["ok"]]
    assert failing and "order-1" in failing[0]["name"]


def test_check_validates_once(tmp_path, monkeypatch, capsys):
    """``check`` makes each validation report once and its table reads
    them; ``omega`` on a non-symplectic R still stops with the validation
    line, after one symplectic check."""
    import localrec.cli as cli

    calls = []
    for name in ("validate_canonical", "check_symplectic"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda x, name=name, real=real: calls.append(name) or real(x))
    path = write_config(tmp_path, pair_config())
    assert main(["check", "--config", path, "--out", str(tmp_path / "check.json")]) == 0
    assert json.loads((tmp_path / "check.json").read_text())["ok"] is True
    assert calls == ["validate_canonical", "check_symplectic"]
    cfg = pair_config()
    cfg["R"] = [[["1/1", "0/1"], ["0/1", "1/1"]], [["0/1", "1/1"], ["-1/1", "0/1"]]]
    calls.clear()
    path = write_config(tmp_path, cfg, "bad.json")
    assert main(["omega", "--config", path, "--g", "0", "--n", "3"]) == 1
    assert capsys.readouterr().err == "invalid datum: symplectic-order-1 failed: defect[1,2] = 2\n"
    assert calls == ["validate_canonical", "check_symplectic"]


def test_omega_airy_03(tmp_path):
    path = write_config(tmp_path, airy_config())
    out = tmp_path / "w.json"
    assert main(["omega", "--config", path, "--g", "0", "--n", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    (entry,) = data["entries"]
    assert entry["branches"] == [1, 1, 1]
    assert entry["form"]["coeffs"] == [[[-2, -2, -2], "-8/1"]]


def test_omega_round_trip_bytes(tmp_path):
    path = write_config(tmp_path, airy_config())
    out = tmp_path / "w.json"
    main(["omega", "--config", path, "--g", "1", "--n", "1", "--out", str(out)])
    raw = out.read_text()
    data = json.loads(raw)
    # parse -> serialize is byte identical
    assert dumps_canonical(data) == raw
    form = form_from_json(data["entries"][0]["form"])
    assert form_to_json(form) == data["entries"][0]["form"]


def test_unbounded_windows_round_trip_through_products_and_sums():
    s, r, t = Var("s", 1), Var("r", 1), Var("t", 1)
    f = form_from_json(
        {
            "vars": [["s", 1]],
            "degs": [0],
            "window": {"lo": [None], "hi": [None]},
            "coeffs": [[[-3], "1/2"], [[2], "-1/1"]],
        }
    )
    two = form_from_json(
        {
            "vars": [["r", 1], ["s", 1]],
            "degs": [1, 0],
            "window": {"lo": [None, 0], "hi": [None, None]},
            "coeffs": [[[-5, 1], "2/3"]],
        }
    )
    truncated = MultiForm((s,), (0,), {(0,): 1}, (0,), (4,))
    forms = [
        f * monomial(s, 3),
        two.merge_diagonal(r, s, t),
        sum_forms([f, f * monomial(s, 2), f * truncated]),
        f * truncated,  # certified nowhere: hi = -INF
    ]
    windows = [
        {"lo": [None], "hi": [None]},
        {"lo": [None], "hi": [None]},
        {"lo": [None], "hi": [-INF]},
        {"lo": [None], "hi": [-INF]},
    ]
    for form, window in zip(forms, windows):
        data = form_to_json(form)
        assert data["window"] == window
        assert form_from_json(json.loads(dumps_canonical(data))) == form


def test_correlators_deterministic_bytes(tmp_path):
    path = write_config(tmp_path, pair_config(seed=9, order=6))
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["correlators", "--config", path, "--out", str(out1)]) == 0
    assert main(["correlators", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_correlators_values(tmp_path):
    path = write_config(tmp_path, airy_config())
    out = tmp_path / "c.json"
    assert main(["correlators", "--config", path, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    by_key = {
        (e["g"], tuple(tuple(p) for p in e["insertions"])): e["value"]
        for e in data["entries"]
    }
    assert by_key[(0, ((0, 1), (0, 1), (0, 1)))] == "1/1"
    assert by_key[(1, ((1, 1),))] == "1/24"
    assert all(e["provenance"].startswith("omega(") for e in data["entries"])


def test_window_exhaustion_exit_code(tmp_path, capsys):
    cfg = pair_config(seed=3, order=1)  # far too shallow for complexity 2
    path = write_config(tmp_path, cfg)
    code = main(["correlators", "--config", path])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        "window exhausted: entry (0,(1, 1, 1)) needs truncation order 6, have 1"
        " (minimal sufficient truncation order: 6)\n"
    )


# the exit code each exception class documents (module docstring of cli:
# 1 validation, 2 window exhaustion, 3 internal failure) and its stderr prefix
DOCUMENTED_EXIT = {
    "DatumError": (1, "invalid datum"),
    "TruncationOrderError": (2, "window exhausted"),
    "WindowError": (2, "window exhausted"),
    "ConsistencyError": (3, "internal consistency failure"),
    "RouteDisagreement": (3, "internal consistency failure"),
    "MonodromyError": (3, "internal consistency failure"),
    "DegreeError": (3, "series failure"),
    "DegenerateDatum": (3, "series failure"),
    "SeriesError": (3, "series failure"),
}


def _localrec_exceptions():
    from localrec.frobenius import DatumError
    from localrec.series import SeriesError

    found, todo = [DatumError], [SeriesError]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("localrec."):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


@pytest.mark.parametrize("cls", _localrec_exceptions(), ids=lambda c: c.__name__)
def test_every_exception_class_has_its_documented_exit(tmp_path, capsys, monkeypatch, cls):
    import localrec.cli as cli

    code, prefix = DOCUMENTED_EXIT[cls.__name__]
    assert cli.EXIT_TABLE[cls] == (code, prefix)

    def fail(cfg, out):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    path = write_config(tmp_path, airy_config())
    assert main(["validate", "--config", path]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_random_r_seed_flag_and_determinism(tmp_path):
    path = write_config(tmp_path, pair_config())
    o1, o2, o3 = (tmp_path / f"r{i}.json" for i in range(3))
    assert main(["random-r", "--config", path, "--seed", "5", "--out", str(o1)]) == 0
    assert main(["random-r", "--config", path, "--seed", "5", "--out", str(o2)]) == 0
    assert main(["random-r", "--config", path, "--seed", "6", "--out", str(o3)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    assert o1.read_bytes() != o3.read_bytes()
    # generated R splices back into a config as an explicit matrix source
    gen = json.loads(o1.read_text())
    cfg = pair_config()
    cfg["R"] = gen["R"]
    path2 = write_config(tmp_path, cfg, "cfg2.json")
    assert main(["validate", "--config", path2]) == 0


def test_check_airy_passes(tmp_path, capsys):
    cfg = airy_config()
    cfg["g_max_complexity"] = 2
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and len(out["checks"]) > 10


def test_check_random_pair_passes(tmp_path, capsys):
    path = write_config(tmp_path, pair_config(seed=2, order=6))
    assert main(["check", "--config", path]) == 0


def test_check_corrupted_datum_fails(tmp_path):
    cfg = airy_config()
    cfg["psi"] = [["2/1"]]
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path]) == 1


def test_check_bad_datum_is_one_line_validation_error(tmp_path, capsys):
    """``check`` reports a bad datum like ``validate``: its report on stdout,
    exit 1 and one ``invalid datum:`` line naming the failed check."""
    cfg = pair_config()
    cfg["u"] = ["0/1", "0/1"]
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert not report["ok"]
    assert err.startswith("invalid datum: distinct-critical-values failed: ")
    assert err.count("\n") == 1, err


def test_check_failure_after_validation_is_one_line(tmp_path, capsys, monkeypatch):
    """A failed check on a valid datum exits 3 with one line naming it."""
    import localrec.cli as cli
    from localrec.report import Report

    def failing_hrp(ctx, k_bound):
        rep = Report()
        rep.add("period-residue-orthogonality", False, "planted")
        return rep

    monkeypatch.setattr(cli, "hrp_check", failing_hrp)
    cfg = airy_config()
    cfg["g_max_complexity"] = 2
    path = write_config(tmp_path, cfg)
    assert main(["check", "--config", path]) == 3
    out, err = capsys.readouterr()
    assert not json.loads(out)["ok"]
    assert err == (
        "internal consistency failure: period-residue-orthogonality failed: planted\n"
    )


def test_missing_config_is_validation_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1


def test_omega_requires_g_n(tmp_path):
    path = write_config(tmp_path, airy_config())
    assert main(["omega", "--config", path]) == 1


def test_omega_mixed_branches_explicit_zero_entries(tmp_path):
    path = write_config(tmp_path, {
        "N": 2,
        "u": ["0/1", "1/1"],
        "eta": [["1/1", "0/1"], ["0/1", "1/1"]],
        "psi": [["1/1", "0/1"], ["0/1", "1/1"]],
        "unit": ["1/1", "1/1"],
        "R": [[["1/1", "0/1"], ["0/1", "1/1"]]],
        "R_exact": True,
        "g_max_complexity": 2,
    })
    out = tmp_path / "w.json"
    assert main(["omega", "--config", path, "--g", "0", "--n", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    by_branches = {tuple(e["branches"]): e["form"] for e in data["entries"]}
    assert set(by_branches) == {(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)}
    assert by_branches[(1, 1, 2)]["coeffs"] == []  # decoupled: explicit zero
    assert by_branches[(1, 1, 1)]["coeffs"] == [[[-2, -2, -2], "-8/1"]]


def test_window_key_requests_extra_headroom(tmp_path):
    cfg = airy_config()
    cfg["window"] = 9
    path = write_config(tmp_path, cfg)
    out = tmp_path / "w.json"
    assert main(["omega", "--config", path, "--g", "0", "--n", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["entries"][0]["form"]["coeffs"] == [[[-2, -2, -2], "-8/1"]]


def test_window_key_applies_to_every_table_command(tmp_path, capsys):
    cfg = pair_config(seed=3, order=4)
    cfg["g_max_complexity"] = 1
    cfg["window"] = 30
    path = write_config(tmp_path, cfg)
    for argv in (["omega", "--g", "0", "--n", "3"], ["correlators"], ["check"]):
        assert main([*argv, "--config", path]) == 2, argv
        assert "needs truncation order 30, have 4" in capsys.readouterr().err


def test_non_integer_window_is_config_error(tmp_path, capsys):
    for window in ("wide", [9]):
        cfg = airy_config()
        cfg["window"] = window
        path = write_config(tmp_path, cfg)
        assert main(["correlators", "--config", path]) == 1, window
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_omega_beyond_bound_is_validation_error(tmp_path):
    path = write_config(tmp_path, airy_config())
    assert main(["omega", "--config", path, "--g", "5", "--n", "1"]) == 1


@pytest.mark.parametrize(
    "base, change, argv, message",
    [
        (airy_config, {"g_max_complexity": 0}, ["correlators"], "config error:"),
        (airy_config, {"g_max_complexity": 0}, ["check"], "config error:"),
        (
            pair_config,
            {"psi": [["1/1", "1/1"], ["1/1", "1/1"]]},  # singular
            ["correlators"],
            "invalid datum: psi-isometry",
        ),
        (
            airy_config,
            {"psi": [["2/1"]]},  # not an isometry
            ["omega", "--g", "0", "--n", "3"],
            "invalid datum: psi-isometry",
        ),
        (airy_config, {"psi": [["2/1"]]}, ["correlators"], "invalid datum: psi-isometry"),
        (airy_config, {"R": {"complete": 3}}, ["correlators"], "config error:"),
        (airy_config, {"unit": ["1/0"]}, ["validate"], "config error:"),
        (airy_config, {"R": {"complete": {}}}, ["correlators"], "config error: R must"),
        (airy_config, {"R_exact": "false"}, ["validate"], "config error: R_exact"),
        (airy_config, {"g_max_complexity": 2.5}, ["correlators"], "config error: g_max"),
        (pair_config, {"L": True}, ["correlators"], "config error: L must"),
        (pair_config, {"coeff_bound": 0}, ["correlators"], "config error: coeff_bound"),
        (airy_config, {"N": True}, ["validate"], "config error: N must"),
        (airy_config, {"N": 1.0}, ["validate"], "config error: N must"),
        (airy_config, {"N": "1"}, ["validate"], "config error: N must"),
        (airy_config, {"N": 2}, ["validate"], "config error: declared N=2"),
        (
            pair_config,
            {"R": [[["1/1", "0/1"], ["0/1", "1/1"]], [["0/1", "1/1"], ["1/1"]]]},  # ragged
            ["validate"],
            "config error: every R_l must be a square matrix of size 2",
        ),
        (
            pair_config,
            {"R": [[["1/1", "0/1"], ["0/1", "1/1"]], [["0/1", "1/1"]]]},  # one row
            ["correlators"],
            "config error: every R_l must be a square matrix of size 2",
        ),
        # the first bad entry, named in full: the only asymmetric entry of eta
        # lies below the diagonal, and psi reports its Gram entry on the
        # diagonal and off it
        (
            pair_config,
            {"eta": [["1/1", "0/1"], ["1/2", "1/1"]]},
            ["validate"],
            "invalid datum: eta-symmetric failed: entry (1, 2)\n",
        ),
        (
            pair_config,
            {"psi": [["2/1", "0/1"], ["0/1", "1/1"]]},
            ["validate"],
            "invalid datum: psi-isometry failed: (psi^T eta psi)[1,1] = 4\n",
        ),
        (
            pair_config,
            {"psi": [["1/1", "1/1"], ["0/1", "1/1"]]},
            ["validate"],
            "invalid datum: psi-isometry failed: (psi^T eta psi)[1,2] = 1\n",
        ),
        (
            pair_config,
            {"R": [[["1/1", "0/1"], ["0/1", "1/1"]], [["0/1", "1/1"], ["-1/1", "0/1"]]]},
            ["validate"],
            "invalid datum: symplectic-order-1 failed: defect[1,2] = 2\n",
        ),
        (  # R_1 symmetric passes order 1; exact, so order 2 sees -R_1 R_1^T
            pair_config,
            {
                "R": [[["1/1", "0/1"], ["0/1", "1/1"]], [["0/1", "1/1"], ["1/1", "0/1"]]],
                "R_exact": True,
            },
            ["validate"],
            "invalid datum: symplectic-order-2 failed: defect[1,1] = -1\n",
        ),
        # a JSON string is never read as a vector or a matrix row
        (pair_config, {"u": "01"}, ["validate"], "config error: u must be a list"),
        (pair_config, {"eta": ["10", "01"]}, ["validate"], "config error: eta must be a list"),
        (airy_config, {"R": ["1"], "R_exact": True}, ["validate"], "config error: R_0 must"),
        (
            pair_config,
            {"N": 0, "u": [], "eta": [], "psi": [], "unit": []},
            ["random-r"],
            "invalid datum: shapes failed: N must be at least 1, got 0\n",
        ),
        # a rational is a "p/q" string, never a JSON boolean or number
        (
            airy_config,
            {"u": [True]},
            ["validate"],
            "config error: rational must be a 'p/q' string, got True\n",
        ),
        (
            pair_config,
            {"eta": [["1/1", 0], ["0/1", "1/1"]]},
            ["validate"],
            "config error: rational must be a 'p/q' string, got 0\n",
        ),
        # a config of the wrong shape is named as such
        (array_config, {}, ["validate"], "config error: the config must be a JSON object\n"),
        *(
            (airy_config_without(key), {}, ["validate"], f"config error: missing key {key}\n")
            for key in ("u", "eta", "psi", "unit")
        ),
    ],
)
def test_bad_input_is_one_line_validation_error(
    tmp_path, capsys, base, change, argv, message
):
    cfg = base()
    path = write_config(tmp_path, {**cfg, **change} if change else cfg)
    assert main([*argv, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"R": [[["1/1"]]], "R_exact": True}, "datum and R-matrix have different sizes"),
        ({"unit": ["1/1", "0/1"]}, "unit pairing at branch 2 vanishes"),
        (
            {"N": 0, "u": [], "eta": [], "psi": [], "unit": []},
            "shapes failed: N must be at least 1, got 0",
        ),
    ],
)
def test_incompatible_datum_is_one_line_error_for_every_command(
    tmp_path, capsys, change, message
):
    path = write_config(tmp_path, {**pair_config(), **change})
    commands = (["validate"], ["omega", "--g", "0", "--n", "3"], ["correlators"], ["check"])
    for argv in commands:
        assert main([*argv, "--config", path]) == 1, argv
        err = capsys.readouterr().err
        assert err == f"invalid datum: {message}\n", err


@pytest.mark.parametrize("base", [airy_config, pair_config])
def test_theta_key_is_ignored(tmp_path, capsys, base):
    outputs = set()
    for i, theta in enumerate(["absent", None, ["0/1"], ["1/2", "1/2", "1/2"]]):
        cfg = {**base(), "g_max_complexity": 2}
        if theta != "absent":
            cfg["theta"] = theta
        path = write_config(tmp_path, cfg, f"theta{i}.json")
        for command in ("validate", "correlators"):
            assert main([command, "--config", path]) == 0, (theta, command)
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = write_config(tmp_path, json.loads(example), "readme.json")
    for command in ("validate", "correlators"):
        assert main([command, "--config", path, "--out", str(tmp_path / "o.json")]) == 0


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.sampled_from(["0/1", "1/1", "-1/2", "1/0", "x", "random"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["complete", "diag_seeds", "u"]), inner, max_size=2),
    max_leaves=6,
)
_config_keys = [*airy_config(), "seed", "coeff_bound", "window"]


@st.composite
def _fuzzed_configs(draw):
    """A small valid config with some keys replaced or dropped, or any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_json_values)
    cfg = draw(st.sampled_from([airy_config, lambda: pair_config(order=2)]))()
    cfg["g_max_complexity"] = 2
    for key in draw(st.lists(st.sampled_from(_config_keys), max_size=3, unique=True)):
        if draw(st.booleans()):
            cfg.pop(key, None)
        else:
            cfg[key] = draw(_json_values)
    return cfg


@given(
    _fuzzed_configs(),
    st.sampled_from(
        [["validate"], ["omega", "--g", "0", "--n", "3"], ["correlators"], ["check"]]
    ),
)
@settings(max_examples=40, deadline=None)
def test_fuzzed_config_exits_with_one_line(cfg, argv):
    """Every config ends in a documented exit code; a failure prints one line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--config", str(path)])
    assert code in (0, 1, 2, 3)
    if code:
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n"), text
        assert "Traceback" not in text


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_one_line_error_before_any_table(
    tmp_path, capsys, monkeypatch, where
):
    from localrec import cli

    def no_table(self):
        raise AssertionError("a table was built before the output path was checked")

    monkeypatch.setattr(cli.RunConfig, "table", no_table)
    path = write_config(tmp_path, airy_config())
    out = tmp_path / "no" / "such" / "x.json" if where == "missing-dir" else tmp_path
    assert main(["correlators", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "no").exists()


def test_internal_failure_while_planning_is_not_window_exhaustion(
    tmp_path, capsys, monkeypatch
):
    """A ConsistencyError met while an entry is built ends the run with
    exit 3; it is never reported as window exhaustion (exit 2)."""
    from localrec.recursion import ConsistencyError, OmegaTable

    finalize = OmegaTable._finalize

    def planted(self, g, n, form):
        if (g, n) == (1, 2):
            raise ConsistencyError("planted")
        return finalize(self, g, n, form)

    monkeypatch.setattr(OmegaTable, "_finalize", planted)
    path = write_config(tmp_path, pair_config(seed=5, order=6))
    assert main(["omega", "--g", "1", "--n", "2", "--config", path]) == 3
    assert capsys.readouterr().err == "internal consistency failure: planted\n"


def test_unequal_windows_across_a_tied_block_are_an_internal_failure(
    tmp_path, capsys, monkeypatch
):
    """The legs at the largest branch are tied in the bracket, which needs
    every factor to have one window across its share of them.  A child
    entry planted with a narrower last slot ends the run with exit 3 and
    one line naming the entry being built and the slots."""
    from localrec.recursion import OmegaTable

    finalize = OmegaTable._finalize

    def planted(self, g, n, raw):
        form = finalize(self, g, n, raw)
        if (g, n) == (0, 4):
            return form.cap_hi(form.vars[-1], form.hi[-1] - 2)
        return form

    monkeypatch.setattr(OmegaTable, "_finalize", planted)
    cfg = {**airy_config(), "R": "random", "L": 10, "seed": 3, "coeff_bound": 3}
    del cfg["R_exact"]
    path = write_config(tmp_path, cfg)
    assert main(["omega", "--g", "0", "--n", "5", "--config", path]) == 3
    assert capsys.readouterr().err == (
        "internal consistency failure: (0,(1, 1, 1, 1, 1)) entry: windows differ "
        "across the tied slots x2, x3, x4 of a factor: lo (-4, -4, -4), hi (9, 9, 7)\n"
    )


def test_loop_child_support_bound_other_than_assumed_is_an_internal_failure(
    tmp_path, capsys, monkeypatch
):
    """The kernel of a residue is fetched before its unstored loop child is
    built, taking each loop leg's support bound to be minus the child's pole
    bound.  A child planted with a deeper support bound ends the run with
    exit 3 and one line naming the entry being built, the child and both
    bounds."""
    from localrec.recursion import OmegaTable
    from localrec.series import MultiForm

    finalize = OmegaTable._finalize

    def planted(self, g, n, raw):
        form = finalize(self, g, n, raw)
        if (g, n) == (0, 3):
            lo = [x - 2 for x in form.lo]
            form = MultiForm.from_numerators(
                form.vars, form.degs, form.nums, form.den, lo, form.hi
            )
        return form

    monkeypatch.setattr(OmegaTable, "_finalize", planted)
    path = write_config(tmp_path, pair_config(seed=5, order=6))
    assert main(["omega", "--g", "1", "--n", "2", "--config", path]) == 3
    assert capsys.readouterr().err == (
        "internal consistency failure: (1,(1, 1)) entry: loop child (0,(1, 1, 1)) "
        "has support bounds (-4, -4) in ya, yb, assumed -2\n"
    )


def test_capped_loop_child_with_a_term_above_its_caps_is_an_internal_failure(
    tmp_path, capsys, monkeypatch
):
    """A loop child that is not stored is built only up to its caps and
    kept as built, so every term of the build must lie within them.  A
    build planted with a term above the cap of its first capped slot ends
    the run with exit 3 and one line naming the child, the slot, its top
    exponent and the cap, never as window exhaustion (exit 2)."""
    from localrec.recursion import OmegaTable
    from localrec.series import MultiForm

    build = OmegaTable._build

    def planted(self, g, branches, caps):
        form = build(self, g, branches, caps)
        capped = [i for i, c in enumerate(caps) if c is not None]
        if capped:
            i = capped[0]
            e = form.lo[:i] + (caps[i] + 1,) + form.lo[i + 1 :]
            nums = {**form.nums, e: 1}
            form = MultiForm.from_numerators(
                form.vars, form.degs, nums, form.den, form.lo, form.hi
            )
        return form

    monkeypatch.setattr(OmegaTable, "_build", planted)
    path = write_config(tmp_path, pair_config(seed=5, order=6))
    assert main(["omega", "--g", "1", "--n", "2", "--config", path]) == 3
    assert capsys.readouterr().err == (
        "internal consistency failure: loop child (0,(1, 1, 1)) reaches 4 in x0, "
        "above its cap 3\n"
    )


def test_residue_weight_of_another_support_bound_is_an_internal_failure(
    tmp_path, capsys, monkeypatch
):
    """Every residue caps its bracket at ``YCAP``, which holds only while the
    kernel has support bound ``-1 - YCAP`` in y.  A kernel planted with a
    deeper one ends the run with exit 3 and one line naming the entry being
    built and both bounds."""
    from localrec import recursion
    from localrec.series import MultiForm

    kernel = recursion.recursion_kernel

    def planted(ctx, i, j, rv, sv, kmax):
        w = kernel(ctx, i, j, rv, sv, kmax)
        lo = [x - 2 if v == sv else x for v, x in zip(w.vars, w.lo)]
        return MultiForm.from_numerators(w.vars, w.degs, w.nums, w.den, lo, w.hi)

    monkeypatch.setattr(recursion, "recursion_kernel", planted)
    path = write_config(tmp_path, pair_config(seed=5, order=6))
    assert main(["omega", "--g", "1", "--n", "2", "--config", path]) == 3
    assert capsys.readouterr().err == (
        "internal consistency failure: (1,(1,)) entry: residue weight has "
        "support bound -4 in y, the cap rule needs -2\n"
    )


def test_order_rule_shortfall_is_an_internal_failure(tmp_path, capsys, monkeypatch):
    """An order rule that admits one order too few leaves an entry's window
    short in ``_finalize``: the rule and the windows disagree, a fault of the
    program, so the run exits 3 with one line naming the entry, the variable
    and both bounds."""
    from localrec.recursion import OmegaTable

    rule = OmegaTable.required_order
    monkeypatch.setattr(
        OmegaTable, "required_order", lambda self, g, n: rule(self, g, n) - 1
    )
    path = write_config(tmp_path, pair_config(seed=5, order=5))
    assert main(["omega", "--g", "1", "--n", "2", "--config", path]) == 3
    assert capsys.readouterr().err == (
        "internal consistency failure: (0,3) window tops out at 3 in x1, need 4, "
        "at truncation order 5\n"
    )


def test_validate_exact_r_padded_with_zeros(tmp_path, capsys):
    """An exact R with a trailing zero matrix is checked through order 2L."""
    zero_padded = [[["1/1", "0/1"], ["0/1", "1/1"]], [["0/1", "0/1"], ["0/1", "0/1"]]]
    path = write_config(tmp_path, {**pair_config(), "R": zero_padded, "R_exact": True})
    assert main(["validate", "--config", path]) == 0

    def passed(*names):
        return {"checks": [{"detail": "", "name": n, "ok": True} for n in names], "ok": True}

    datum = passed(
        "shapes", "distinct-critical-values", "eta-symmetric", "eta-invertible", "psi-isometry"
    )
    symplectic = passed("symplectic-order-1", "symplectic-order-2")
    assert capsys.readouterr().out == dumps_canonical(
        {"datum": datum, "symplectic": symplectic}
    )


def test_check_exact_airy_bound4_bytes(tmp_path):
    """Exact Airy at bound 4 is the small config whose constraint left side
    (2,1) runs the loop legs at genus 2; its report's bytes are pinned."""
    path = write_config(tmp_path, {**airy_config(), "g_max_complexity": 4})
    out = tmp_path / "check.json"
    assert main(["check", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8396a77689498d0cb0ad9e7417e192c45e9f1332ac39ee198f7914c011bc48e0"
    )


def test_check_builds_each_constraint_factor_once(tmp_path, capsys, monkeypatch):
    """Every constraint factor of a check is built once, through the context
    memo, though the ordered splittings and the left sides repeat them; the
    report's bytes are those of the passing check of any seed.  The
    two-point seeds the dual-route family certifies are the table's own:
    four of them, plus the two of the OPE family (ten when the table built
    its own four)."""
    import localrec.cli as cli
    import localrec.correlators as correlators
    import localrec.localforms as localforms
    import localrec.recursion as recursion

    real = correlators._assembled_factor
    built = []

    def counting(ctx, corr, *args):
        built.append(args)
        return real(ctx, corr, *args)

    monkeypatch.setattr(correlators, "_assembled_factor", counting)
    real_seed = localforms.two_point_form
    seeds = []

    def counting_seed(*args):
        seeds.append(args[1:])
        return real_seed(*args)

    for module in (cli, localforms, recursion):
        monkeypatch.setattr(module, "two_point_form", counting_seed)
    rotated = {
        **pair_config(seed=1),
        "psi": [["3/5", "4/5"], ["-4/5", "3/5"]],
        "unit": ["1/1", "2/1"],
    }
    assert main(["check", "--config", write_config(tmp_path, rotated)]) == 0
    out = capsys.readouterr().out
    assert len(built) == len(set(built)) == 42
    assert len(seeds) == 6
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "be0f6ebd75c7d4dc46183825f5e479ce3ca50607bb1dd0782e2deca612e24d92"
    )

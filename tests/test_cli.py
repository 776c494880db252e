"""CLI exit codes and table emission."""

import copy
import functools
import json
import math

import pytest

import golden_rows
from decayinv import cli
from decayinv.cli import build_parser, main
from decayinv.experiments import RUNNERS, ExperimentConfig


def run(args):
    return main([str(a) for a in args])


@pytest.mark.parametrize("argv", [[], ["no-such-experiment"]])
def test_a_missing_or_unknown_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "decayinv: error: " in capsys.readouterr().err


def test_help_lists_every_command_and_option(capsys):
    # the commands share one parser, so a command's --help is the whole help
    with pytest.raises(SystemExit) as exit_:
        main(["dd-sharpness", "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for option in ("--config", "--out", "--format", "--seed", "--window"):
        assert option in out
    # and each command on a line of its own with its one-line help
    listed = {line.split()[0]: line for line in out.splitlines()
              if len(line.split()) > 1}
    for name in RUNNERS:
        assert listed[name].startswith(f"  {name} "), name


def test_quotient_verify_exits_clean(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code = run(["quotient-verify", "--window", 32, "--seed", 5,
                "--out", out])
    assert code == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "max rel err" in text


def test_violation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "quotient-verify", "window_N": 32, "seed": 5,
        "tolerances": {"instances": 2, "kmax": 2, "max_rel_err": 1e-30},
        "output": str(tmp_path / "v.csv"),
    }))
    code = run(["quotient-verify", "--config", cfg])
    assert code == 1
    assert "violation" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "quotient-verify",
                               "window_N": 8}))
    code = run(["quotient-verify", "--config", cfg])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_tolerance_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"experiment": "jaffard-check",
                               "r_list": [2.0],
                               "tolerances": {"instnaces": 1}}))
    code = run(["jaffard-check", "--config", cfg,
                "--out", tmp_path / "j.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "instnaces" in err
    assert not (tmp_path / "j.csv").exists()


@pytest.mark.parametrize("command,tolerances", [
    ("quotient-verify", {"margin": 32}),
    ("quotient-verify", {"margin": -1}),
    ("quotient-verify", {"instances": 0}),
    ("jaffard-check", {"margin": 40}),
    ("jaffard-check", {"margin": -1}),
    ("jaffard-check", {"instances": 0}),
])
def test_bad_margin_or_instances_exit_code(tmp_path, capsys, command,
                                           tolerances):
    # a margin must leave a nonempty inner window of the 64-window, and
    # a run needs an instance; both are config errors, found before any
    # instance is drawn
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": command, "window_N": 64,
                               "r_list": [2.0] if command == "jaffard-check"
                               else [],
                               "tolerances": tolerances}))
    out = tmp_path / "rows.csv"
    code = run([command, "--config", cfg, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert next(iter(tolerances)) in err
    assert not out.exists()


GRID = [0.4, 0.2, 0.1, 0.05]


@pytest.mark.parametrize("command,fields,name", [
    ("toeplitz-sharpness", {"gamma_grid": ["0.4", "0.2", "0.1", "0.05"],
                            "r_list": [1.0]}, "gamma_grid"),
    ("toeplitz-sharpness", {"gamma_grid": GRID, "r_list": ["x"]}, "r_list"),
    ("toeplitz-sharpness", {"gamma_grid": GRID, "r_list": [-1.0]}, "r_list"),
    ("jaffard-check", {"r_list": 2.0}, "r_list"),
    ("jaffard-check", {"r_list": [2.0], "seed": True}, "seed"),
    ("jaffard-check", {"r_list": [2.0], "tolerances": {"epsilon": "abc"}},
     "epsilon"),
    ("jaffard-check", {"r_list": [2.0], "tolerances": {"instances": 1.5}},
     "instances"),
    ("quotient-verify", {"tolerances": {"kmax": True}}, "kmax"),
    ("quotient-verify", {"tolerances": {"t_values": 0.17}}, "t_values"),
    ("dd-sharpness", {"gamma_grid": [0.5], "r_list": [2.0],
                      "tolerances": {"ratio_low": None}}, "ratio_low"),
    ("besov-report", {"gamma_grid": [0.5], "r_list": [0.5],
                      "tolerances": {"shift_offsets": [1.5]}},
     "shift_offsets"),
    ("besov-report", {"gamma_grid": [0.5], "r_list": [0.5],
                      "tolerances": {"t_min": 5.0}}, "t_min"),
    # a ratio band must be a finite interval 0 <= low < high
    *[("dd-sharpness", {"gamma_grid": [0.5], "r_list": [2.0],
                        "tolerances": tol}, name)
      for tol, name in [({"ratio_low": 3.0}, "ratio_low"),
                        ({"ratio_low": 1.0, "ratio_high": 1.0}, "ratio_high"),
                        ({"ratio_low": -0.5}, "ratio_low"),
                        ({"ratio_high": float("nan")}, "ratio_high"),
                        ({"ratio_high": float("inf")}, "ratio_high")]],
    # quotient instances need 0 <= epsilon <= 0.5, as jaffard-check's do,
    # and a finite decay_r >= 0
    *[("quotient-verify", {"tolerances": tol}, name)
      for tol, name in [({"epsilon": 5.0}, "epsilon"),
                        ({"epsilon": -0.1}, "epsilon"),
                        ({"decay_r": -1.0}, "decay_r"),
                        ({"decay_r": float("inf")}, "decay_r"),
                        ({"decay_r": float("nan")}, "decay_r")]],
    # the Besov range must be finite: json reads Infinity and NaN
    *[("besov-report", {"gamma_grid": [0.5], "r_list": [0.5],
                        "tolerances": tol}, name)
      for tol, name in [({"t_max": float("inf")}, "t_max"),
                        ({"t_min": float("nan")}, "t_min")]],
    # so must grid entries and shifts
    ("toeplitz-sharpness", {"gamma_grid": GRID, "r_list": [math.nan]},
     "r_list"),
    ("toeplitz-sharpness", {"gamma_grid": [0.4, 0.2, 0.1, math.nan],
                            "r_list": [1.0]}, "gamma_grid"),
    ("toeplitz-sharpness", {"gamma_grid": [math.inf, 0.4, 0.2, 0.1],
                            "r_list": [1.0]}, "gamma_grid"),
    ("dd-sharpness", {"gamma_grid": [0.5], "r_list": [math.nan]}, "r_list"),
    ("quotient-verify", {"tolerances": {"t_values": [math.nan]}},
     "t_values"),
    ("quotient-verify", {"tolerances": {"t_values": [0.17, -math.inf]}},
     "t_values"),
])
def test_malformed_config_value_exit_code(tmp_path, capsys, command, fields,
                                          name):
    # a value of the wrong type, or out of range, is a config error found
    # before any row is computed: never a crash, and never rounded
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": command, "window_N": 32,
                               **fields}))
    out = tmp_path / "rows.csv"
    code = run([command, "--config", cfg, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert name in err
    assert not out.exists()


@pytest.mark.parametrize("command,fields,error", [
    ("jaffard-check", {"r_list": [1e9]}, "RangeError"),
    ("dd-sharpness", {"gamma_grid": [1e-300], "r_list": [2.0]},
     "ParameterError"),
])
def test_library_error_from_a_config_value_exit_code(tmp_path, capsys,
                                                     command, fields, error):
    # a finite value that the config accepts but a library function does
    # not (gamma_r overflows at r = 1e9; e^-1e-300 rounds to a resolvent
    # ratio of 1) exits 2 with one line, not a traceback and exit 1
    cfg = tmp_path / "range.json"
    cfg.write_text(json.dumps({"experiment": command, **fields}))
    out = tmp_path / "rows.csv"
    code = run([command, "--config", cfg, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert not out.exists()


def test_config_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "mis.json"
    cfg.write_text(json.dumps({"experiment": "dd-sharpness"}))
    code = run(["toeplitz-sharpness", "--config", cfg])
    assert code == 2
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    code = run(["toeplitz-sharpness", "--config", tmp_path / "nope.json"])
    assert code == 2
    capsys.readouterr()


def test_main_parses_with_the_parser_built_at_import(tmp_path, capsys,
                                                    monkeypatch):
    # the one parser is built when the module is imported; main only parses
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    for _ in range(2):
        assert run(["toeplitz-sharpness", "--config",
                    tmp_path / "nope.json"]) == 2
    capsys.readouterr()
    assert built == []


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "u.json"
    cfg.write_text(json.dumps({"experiment": "toeplitz-sharpness",
                               "gama_grid": [0.4]}))
    code = run(["toeplitz-sharpness", "--config", cfg])
    assert code == 2
    capsys.readouterr()


def test_toeplitz_default_grid_passes(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run(["toeplitz-sharpness", "--out", out])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    for col in ("gamma", "r", "norm_A_Cr", "norm_inv_Cr", "delta",
                "bracket_low", "bracket_high", "bracket_ok"):
        assert col in header
    capsys.readouterr()


def test_json_format(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = run(["toeplitz-sharpness", "--out", out, "--format", "json"])
    assert code == 0
    rows = json.loads(out.read_text())
    assert isinstance(rows, list) and rows[0]["r"] == 1.0
    capsys.readouterr()


def test_seed_flag_changes_instances(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    for out, s in ((out1, 1), (out2, 2), (out3, 1)):
        assert run(["jaffard-check", "--window", 32, "--seed", s,
                    "--out", out]) == 0
    capsys.readouterr()
    assert out1.read_text() == out3.read_text()
    assert out1.read_text() != out2.read_text()


def test_dd_sharpness_runs_with_flags(tmp_path, capsys):
    out = tmp_path / "dd.csv"
    code = run(["dd-sharpness", "--out", out, "--window", 48])
    assert code == 0
    assert "fit r=2.0" in capsys.readouterr().out


# configs whose gates fail at the default grids: a zero slope band, a
# ratio band narrower than the measured ratios, and an identity gate below
# roundoff
FORCED = [
    ("toeplitz-sharpness", {"gamma_grid": [0.4, 0.2, 0.1, 0.05, 0.025],
                            "r_list": [1.0, 2.0],
                            "tolerances": {"slope_tol": 0.0}}, 2),
    ("dd-sharpness", {"gamma_grid": [0.5, 0.4, 0.3, 0.2, 0.1],
                      "r_list": [2.0],
                      "tolerances": {"ratio_low": 1.0,
                                     "ratio_high": 1.0001}}, 4),
    ("quotient-verify", {"window_N": 32,
                         "tolerances": {"instances": 2, "kmax": 2,
                                        "max_rel_err": 1e-30}}, 4),
]


@pytest.mark.parametrize("command,fields,count", FORCED)
def test_cli_prints_the_runners_violations(tmp_path, capsys, command, fields,
                                           count):
    # the runner decides the gate; the CLI prints its lines and exits 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": command, **fields}))
    violations = RUNNERS[command](ExperimentConfig.from_json(path))[
        "violations"]
    assert len(violations) == count
    code = run([command, "--config", path, "--out", tmp_path / "rows.csv"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.removeprefix("violation: ") for line in err] == violations
    assert all(line.startswith("violation: ") for line in err)


@functools.cache
def cli_run(*argv):
    """The runner's result for a command line, made once per session."""
    return golden_rows.run(argv)


@pytest.mark.parametrize("command", list(RUNNERS))
def test_default_configs_have_no_violations(command):
    assert cli_run(command)["violations"] == []


@pytest.mark.parametrize("name", list(golden_rows.RUNS))
def test_default_rows_match_their_golden_file(name):
    # strings, integers and booleans exactly, floats within the relative
    # tolerance the file states per column
    golden = golden_rows.load(name)
    assert golden["argv"] == list(golden_rows.RUNS[name])
    got = golden_rows.pinned(cli_run(*golden_rows.RUNS[name]))
    moved = [f"{'/'.join(map(str, path))}: {have!r} != {want!r}"
             for _, path, have, want in golden_rows.differences(got, golden)]
    assert moved == [], f"{len(moved)} values moved: {moved[:5]}"


def test_golden_diff_prints_only_the_moved_columns(monkeypatch, capsys):
    # a fresh run that gives the pinned rows bit for bit prints nothing
    # and reports no move (exit status 0); one value moved by 2^-40,
    # inside its tolerance, prints its column and move and reports it
    # (exit status 1), and no file is rewritten
    names = list(golden_rows.RUNS)
    files = {name: golden_rows.load(name) for name in names}
    texts = {name: (golden_rows.GOLDEN / f"{name}.json").read_text()
             for name in names}
    fresh = copy.deepcopy(files)
    monkeypatch.setattr(golden_rows, "run", lambda argv: fresh[
        next(name for name in names if golden_rows.RUNS[name] == argv)])
    assert golden_rows.diff(names) is False
    assert capsys.readouterr().out == ""
    fresh["dd-sharpness"]["rows"][2]["log_dd"] *= 1.0 + 2.0 ** -40
    assert golden_rows.diff(names) is True
    assert capsys.readouterr().out == "dd-sharpness.json rows.log_dd 9.1e-13\n"
    assert texts == {name: (golden_rows.GOLDEN / f"{name}.json").read_text()
                     for name in names}


def test_a_golden_value_moved_by_1e_10_differs():
    golden = golden_rows.load("dd-sharpness")
    got = golden_rows.pinned(copy.deepcopy(golden))
    assert list(golden_rows.differences(got, golden)) == []
    got["rows"][2]["log_dd"] *= 1.0 + 1e-10
    got["rows"][3]["kmax_used"] = float(got["rows"][3]["kmax_used"])
    assert [(col, path) for col, path, _, _ in golden_rows.differences(
        got, golden)] == [("rows.log_dd", ("rows", 2, "log_dd")),
                          ("rows.kmax_used", ("rows", 3, "kmax_used"))]

"""CLI exit codes and table emission."""

import json

import pytest

from decayinv.cli import main


def run(args):
    return main([str(a) for a in args])


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

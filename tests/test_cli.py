"""Config parsing and the osc command-line interface."""

import csv
import json
import math

import numpy as np
import pytest

from expdamp import Constant, Sine, cli
from expdamp.cli import (
    ConfigError,
    SamplesForcing,
    load_config,
    parse_config,
    serialize_config,
)

REF_DOC = {
    "params": {"m": 1.0, "c": 0.5, "k": 4.0, "mu": 2.0},
    "initial": {"x0": 1.0, "v0": 0.3},
    "history": {"type": "constant", "a": 1.0, "value": 1.0},
    "forcing": {"type": "none"},
    "grid": {"t_end": 5.0, "dt": 1e-3},
}

UNDAMPED_DOC = {
    "params": {"m": 1.0, "c": 0.0, "k": 1.0, "mu": 2.0},
    "initial": {"x0": 1.0, "v0": 0.0},
    "grid": {"t_end": math.pi, "dt": 1e-3},
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


# --------------------------------------------------------------------------
# Config parsing.


def test_round_trip_all_history_shapes():
    histories = [
        {"type": "none"},
        {"type": "constant", "a": 1.0, "value": 2.0},
        {"type": "sine", "a": 2.0, "amplitude": 1.0, "omega": 3.0, "phase": 0.5},
        {"type": "sine", "a": 2.0, "amplitude": 1.0, "omega": 3.0},
        {"type": "polynomial", "a": 1.5, "coeffs": [1.0, -0.5]},
        {"type": "samples", "a": 1.0, "values": [0.0, 1.0, 0.0], "spacing": 0.5},
        {"type": "samples", "a": 1.0, "values": [0.0, 1.0, 0.0]},
    ]
    for hist in histories:
        doc = {**REF_DOC, "history": hist}
        cfg = parse_config(doc)
        assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_all_forcing_kinds():
    forcings = [
        {"type": "none"},
        {"type": "constant", "value": 0.25},
        {"type": "sine", "amplitude": 1.0, "omega": 2.0, "phase": 0.0},
        {"type": "sine", "amplitude": 1.0, "omega": 2.0},
        {"type": "samples", "path": "force.csv"},
    ]
    expected = [
        None,
        Constant(0.25),
        Sine(1.0, 2.0, 0.0),
        Sine(1.0, 2.0),
        SamplesForcing("force.csv"),
    ]
    for fsec, expect in zip(forcings, expected):
        cfg = parse_config({**REF_DOC, "forcing": fsec})
        assert cfg.forcing == expect
        assert parse_config(serialize_config(cfg)) == cfg


def test_missing_field_names_path():
    doc = {**REF_DOC, "params": {"m": 1.0, "c": 0.5, "mu": 2.0}}
    with pytest.raises(ConfigError, match=r"params\.k"):
        parse_config(doc)


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config({**REF_DOC, "params": {**REF_DOC["params"], "zeta": 1.0}})
    with pytest.raises(ConfigError, match="unknown"):
        parse_config({**REF_DOC, "extra": {}})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError, match="params"):
        parse_config({**REF_DOC, "params": {**REF_DOC["params"], "k": -1.0}})
    with pytest.raises(ConfigError, match=r"grid\.dt"):
        parse_config({**REF_DOC, "grid": {"t_end": 5.0, "dt": 0.0}})
    with pytest.raises(ConfigError, match=r"history\.type"):
        parse_config({**REF_DOC, "history": {"type": "ramp", "a": 1.0}})
    with pytest.raises(ConfigError, match="forcing"):
        parse_config({**REF_DOC, "forcing": {"type": "constant", "value": math.inf}})


def test_partial_initial_section_rejected():
    # InitialState defaults both fields, but a given section must set both.
    with pytest.raises(ConfigError, match=r"initial\.v0"):
        parse_config({**REF_DOC, "initial": {"x0": 1.0}})


def test_optional_sections_default():
    cfg = parse_config({"params": REF_DOC["params"]})
    assert cfg.initial.x0 == 0.0 and cfg.initial.v0 == 0.0
    assert cfg.history is None and cfg.forcing is None
    assert cfg.t_end is None and cfg.dt is None


def test_load_config_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"params": {,}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")


# --------------------------------------------------------------------------
# Commands and exit codes.


def test_eigen_json_factored_case(tmp_path, capsys):
    doc = {"params": {"m": 1.0, "c": 0.0, "k": 1.0, "mu": 2.0}}
    code = cli.main(["eigen", "--config", _write_config(tmp_path, doc)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["roots", "residues", "alpha", "beta", "gamma", "oscillatory"]
    assert out["roots"] == [
        {"re": 0.0, "im": 1.0},
        {"re": 0.0, "im": -1.0},
        {"re": -2.0, "im": 0.0},
    ]
    assert out["residues"] == [
        {"re": 0.0, "im": -0.5},
        {"re": 0.0, "im": 0.5},
        {"re": 0.0, "im": 0.0},
    ]
    assert out["alpha"] == 0.0 and out["beta"] == 1.0 and out["gamma"] == 2.0
    assert out["oscillatory"] is True


def test_eigen_roots_satisfy_cubic(tmp_path, capsys):
    code = cli.main(["eigen", "--config", _write_config(tmp_path, REF_DOC)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    m, c, k, mu = 1.0, 0.5, 4.0, 2.0
    for root in out["roots"]:
        s = complex(root["re"], root["im"])
        assert abs(m * s**3 + m * mu * s**2 + (k + c * mu) * s + k * mu) < 1e-10


def test_eigen_non_oscillatory_nulls(tmp_path, capsys):
    doc = {"params": {"m": 1.0, "c": 5.0 / 3.0, "k": 1.0, "mu": 6.0}}
    code = cli.main(["eigen", "--config", _write_config(tmp_path, doc)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] is None and out["beta"] is None
    assert out["oscillatory"] is False
    assert out["gamma"] == pytest.approx(3.0, rel=1e-9)


def test_eigen_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "eig.json"
    code = cli.main(
        ["eigen", "--config", _write_config(tmp_path, REF_DOC), "--out", str(out_path)]
    )
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == capsys.readouterr().out


def test_missing_field_exits_2(tmp_path, capsys):
    doc = {"params": {"m": 1.0, "c": 0.5, "mu": 2.0}}
    code = cli.main(["eigen", "--config", _write_config(tmp_path, doc)])
    assert code == 2
    assert "params.k" in capsys.readouterr().err


def test_degenerate_spectrum_exits_3(tmp_path, capsys):
    # an exact double root, and a near-double root whose residues cancel
    for params in (
        {"m": 1.0, "c": 1.125, "k": 0.5, "mu": 4.0},
        {"m": 4.790023392299111, "c": 2.370884056303661,
         "k": 0.315554155795794, "mu": 7.308450407297674},
    ):
        code = cli.main(["eigen", "--config", _write_config(tmp_path, {"params": params})])
        assert code == 3
        assert "DegenerateSpectrum" in capsys.readouterr().err


def test_unwritable_output_exits_4(tmp_path, capsys):
    cfg = _write_config(tmp_path, REF_DOC)
    code = cli.main(
        ["respond", "--config", cfg, "--out", str(tmp_path / "no/such/dir/out.csv")]
    )
    assert code == 4


def test_oversized_step_exits_5(tmp_path, capsys):
    cfg = _write_config(tmp_path, REF_DOC)
    code = cli.main(
        ["oracle", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--dt", "0.5"]
    )
    assert code == 5
    assert "StepTooLarge" in capsys.readouterr().err


def test_compare_grid_mismatch_exits_6(tmp_path, capsys):
    cfg = _write_config(tmp_path, REF_DOC)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["respond", "--config", cfg, "--out", str(a)]) == 0
    assert (
        cli.main(["respond", "--config", cfg, "--out", str(b), "--t-end", "4.0"]) == 0
    )
    capsys.readouterr()
    assert cli.main(["compare", str(a), str(b)]) == 6


def test_respond_undamped_half_period(tmp_path):
    cfg = _write_config(tmp_path, UNDAMPED_DOC)
    out = tmp_path / "u.csv"
    assert cli.main(["respond", "--config", cfg, "--out", str(out)]) == 0
    header, data = _read_csv(out)
    assert header == ["t", "x", "xdot", "psi"]
    assert data[-1, 0] == pytest.approx(math.pi, abs=1e-12)
    assert data[-1, 1] == pytest.approx(-1.0, abs=1e-9)


def test_respond_quiescent_all_zero(tmp_path):
    doc = {
        "params": REF_DOC["params"],
        "initial": {"x0": 0.0, "v0": 0.0},
        "grid": {"t_end": 1.0, "dt": 0.01},
    }
    out = tmp_path / "z.csv"
    assert cli.main(["respond", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert np.all(data[:, 1:] == 0.0)


def test_respond_matches_oracle_per_cell(tmp_path, capsys):
    cfg = _write_config(tmp_path, REF_DOC)
    ra, rb = tmp_path / "closed.csv", tmp_path / "rk4.csv"
    assert cli.main(["respond", "--config", cfg, "--out", str(ra)]) == 0
    assert cli.main(["oracle", "--config", cfg, "--out", str(rb)]) == 0
    _, a = _read_csv(ra)
    _, b = _read_csv(rb)
    assert a.shape == b.shape
    assert np.max(np.abs(a[:, 1] - b[:, 1])) < 1e-6
    assert np.max(np.abs(a[:, 2] - b[:, 2])) < 1e-6

    capsys.readouterr()
    assert cli.main(["compare", str(ra), str(rb)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rows"] == 5001
    assert rep["max_abs_diff_x"] < 1e-6
    assert rep["max_abs_diff_xdot"] < 1e-6


def test_compare_file_with_itself(tmp_path, capsys):
    cfg = _write_config(tmp_path, REF_DOC)
    path = tmp_path / "self.csv"
    assert cli.main(["respond", "--config", cfg, "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["compare", str(path), str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["max_abs_diff_x"] == 0.0 and rep["max_abs_diff_xdot"] == 0.0


def test_respond_deterministic(tmp_path):
    # the forced convolution runs through BLAS; its output must not vary
    for forcing in ({"type": "none"}, {"type": "sine", "amplitude": 1.0, "omega": 2.0}):
        cfg = _write_config(tmp_path, {**REF_DOC, "forcing": forcing})
        a, b = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli.main(["respond", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["respond", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_grid_overrides_change_row_count(tmp_path):
    cfg = _write_config(tmp_path, REF_DOC)
    out = tmp_path / "o.csv"
    assert (
        cli.main(
            ["respond", "--config", cfg, "--out", str(out), "--t-end", "2.0", "--dt", "0.01"]
        )
        == 0
    )
    _, data = _read_csv(out)
    assert data.shape[0] == 201


@pytest.mark.parametrize("command", ["respond", "oracle", "bounds"])
def test_overflowing_grid_exits_2(tmp_path, capsys, command):
    # t_end / dt overflows to inf; the step count cannot be formed
    cfg = _write_config(tmp_path, REF_DOC)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv + ["--t-end", "1e300", "--dt", "1e-300"]) == 2
    assert "invalid input: t_end / dt is not finite" in capsys.readouterr().err


def test_missing_grid_exits_2(tmp_path, capsys):
    doc = {"params": REF_DOC["params"]}
    code = cli.main(
        ["respond", "--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "grid" in capsys.readouterr().err


def test_bounds_csv_and_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, REF_DOC)
    out = tmp_path / "b.csv"
    assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    header, data = _read_csv(out)
    assert header == ["t", "I1_abs", "B1", "I2_abs", "B2", "ok1", "ok2"]
    assert np.all(data[:, 5] == 1.0) and np.all(data[:, 6] == 1.0)
    assert np.all(data[:, 1] <= data[:, 2] + 1e-10)
    assert np.all(data[:, 3] <= data[:, 4] + 1e-10)
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == data.shape[0]
    assert summary["bounds_ok"] is True
    assert summary["undamped"] is False
    assert summary["envelope_ok"] is True
    assert summary["tail_ok"] is True
    assert summary["tail_x"] < 1e-6


def test_csv_text_pinned(tmp_path):
    # repr floats, flags as 1/0, LF line endings: the bytes other tools read.
    cfg = _write_config(tmp_path, REF_DOC)
    traj, bounds = tmp_path / "r.csv", tmp_path / "b.csv"
    assert cli.main(["respond", "--config", cfg, "--out", str(traj)]) == 0
    assert cli.main(["bounds", "--config", cfg, "--out", str(bounds)]) == 0
    lines = traj.read_bytes().split(b"\n")
    assert lines[:2] == [
        b"t,x,xdot,psi",
        b"0.0,0.9999999999999999,0.3000000000000002,0.8646647167633873",
    ]
    assert lines[-2:] == [
        b"5.0,-0.28162455870953823,1.0076707645965002,3.925571740915665e-05",
        b"",
    ]
    lines = bounds.read_bytes().split(b"\n")
    assert lines[:2] == [b"t,I1_abs,B1,I2_abs,B2,ok1,ok2", b"0.0,0.0,0.0,0.0,0.0,1,1"]
    assert lines[-2:] == [
        b"5.0,0.01286865642324372,0.0615391303975949,"
        b"6.684625389237475e-06,6.684625389237475e-06,1,1",
        b"",
    ]
    flags = cli._csv("t,ok", np.array([0.5, 1e-20]), np.array([True, False]))
    assert flags == "t,ok\n0.5,1\n1e-20,0\n"


def test_bounds_non_oscillatory_exits_3(tmp_path, capsys):
    doc = {
        "params": {"m": 1.0, "c": 5.0 / 3.0, "k": 1.0, "mu": 6.0},
        "grid": {"t_end": 5.0, "dt": 0.01},
    }
    code = cli.main(
        ["bounds", "--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "b.csv")]
    )
    assert code == 3
    assert "NotOscillatory" in capsys.readouterr().err


def test_sampled_forcing_file(tmp_path):
    # file-based forcing reproduces the analytic sine forcing byte for byte
    t = np.arange(501) * 0.01
    force = tmp_path / "force.csv"
    lines = ["t,f"] + [f"{repr(float(ti))},{repr(math.sin(2.0 * ti))}" for ti in t]
    force.write_text("\n".join(lines) + "\n", encoding="utf-8")

    base = {**REF_DOC, "grid": {"t_end": 5.0, "dt": 0.01}}
    doc_file = {**base, "forcing": {"type": "samples", "path": "force.csv"}}
    doc_sine = {**base, "forcing": {"type": "sine", "amplitude": 1.0, "omega": 2.0}}
    out_a, out_b = tmp_path / "fa.csv", tmp_path / "fb.csv"
    assert (
        cli.main(
            ["respond", "--config", _write_config(tmp_path, doc_file, "cfg_a.json"), "--out", str(out_a)]
        )
        == 0
    )
    assert (
        cli.main(
            ["respond", "--config", _write_config(tmp_path, doc_sine, "cfg_b.json"), "--out", str(out_b)]
        )
        == 0
    )
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sampled_forcing_grid_mismatch_exits_2(tmp_path, capsys):
    force = tmp_path / "force.csv"
    force.write_text("t,f\n0.0,0.0\n0.5,1.0\n", encoding="utf-8")
    doc = {**REF_DOC, "forcing": {"type": "samples", "path": "force.csv"}}
    code = cli.main(
        ["respond", "--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "forcing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    ["0.0,0.0\nnan,1.0\n0.02,0.0", "0.0,0.0\n0.01,inf\n0.02,0.0"],
    ids=["nan-time", "inf-value"],
)
def test_sampled_forcing_non_finite_cell_exits_2(tmp_path, capsys, rows):
    # a nan time would slip past the 1e-12 grid check (nan > 1e-12 is false)
    (tmp_path / "force.csv").write_text(f"t,f\n{rows}\n", encoding="utf-8")
    doc = {
        **REF_DOC,
        "forcing": {"type": "samples", "path": "force.csv"},
        "grid": {"t_end": 0.02, "dt": 0.01},
    }
    code = cli.main(
        ["respond", "--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "force.csv line 3" in capsys.readouterr().err


def test_compare_non_finite_cell_exits_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,x,xdot\n0.0,1.0,0.0\n0.1,0.9,-0.1\n", encoding="utf-8")
    b.write_text("t,x,xdot\n0.0,1.0,0.0\n0.1,nan,-0.1\n", encoding="utf-8")
    assert cli.main(["compare", str(a), str(b)]) == 2
    assert "b.csv line 3: 'nan' is not finite" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    assert cli.main(["transmogrify"]) == 2

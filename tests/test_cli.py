"""Config parsing and the osc command-line interface."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from expdamp import (
    Constant,
    HistoryProfile,
    Polynomial,
    Samples,
    Sine,
    cli,
    forced_response,
    integrate,
    verify_decay,
)
from expdamp.cli import ConfigError, SamplesForcing, load_config, parse_config

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
        {"type": "samples", "a": 1.0, "values": [0.0, 1.0, 0.0]},
    ]
    expected = [
        None,
        HistoryProfile(1.0, Constant(2.0)),
        HistoryProfile(2.0, Sine(1.0, 3.0, 0.5)),
        HistoryProfile(2.0, Sine(1.0, 3.0, 0.0)),
        HistoryProfile(1.5, Polynomial((1.0, -0.5))),
        HistoryProfile(1.0, Samples((0.0, 1.0, 0.0))),
    ]
    for hist, expect in zip(histories, expected):
        assert parse_config({**REF_DOC, "history": hist}).history == expect


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


def test_eigen_stdout_pinned(tmp_path, capsys):
    # repr floats of the reference spectrum: every bit of every root and
    # residue, which a faster solve must not move
    assert cli.main(["eigen", "--config", _write_config(tmp_path, REF_DOC)]) == 0
    assert capsys.readouterr().out == EIGEN_REFERENCE_STDOUT


EIGEN_REFERENCE_STDOUT = """\
{
  "roots": [
    {
      "re": -0.12391411055790674,
      "im": 2.133168459863038
    },
    {
      "re": -0.12391411055790674,
      "im": -2.133168459863038
    },
    {
      "re": -1.7521717788841864,
      "im": 0.0
    }
  ],
  "residues": [
    {
      "re": -0.017206396093151572,
      "im": -0.24752683921495594
    },
    {
      "re": -0.017206396093151572,
      "im": 0.24752683921495594
    },
    {
      "re": 0.034412792186303116,
      "im": 0.0
    }
  ],
  "alpha": 0.12391411055790674,
  "beta": 2.133168459863038,
  "gamma": 1.7521717788841864,
  "oscillatory": true
}
"""


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
    # an exact double root, a near-double root whose residues cancel, a
    # near-triple root whose Newton polish leaves the cubic, a pair below
    # float64's resolution at the scale of mu, c = 0 with k*mu overflowing,
    # (the next five) a cubic with a zero or subnormal coefficient, and
    # Newton steps that leave float64's range
    for params in (
        {"m": 1.0, "c": 1.125, "k": 0.5, "mu": 4.0},
        {"m": 1.0, "c": 0.5, "k": 4.0, "mu": 1e158},
        {"m": 1.0, "c": 0.0, "k": 1e200, "mu": 1e200},
        {"m": 4.790023392299111, "c": 2.370884056303661,
         "k": 0.315554155795794, "mu": 7.308450407297674},
        {"m": 0.8241652846999418, "c": 8.84242808307725,
         "k": 40.023267861691956, "mu": 36.210206052601315},
        {"m": 1.0, "c": 1.0, "k": 1e-200, "mu": 1e-200},
        {"m": 1e-200, "c": 1.0, "k": 1.0, "mu": 1e-200},
        {"m": 1e200, "c": 1e-200, "k": 1e-200, "mu": 1e-200},
        {"m": 0.002002681621781289, "c": 6.292939776094619e-269,
         "k": 1.1120165706966207e-212, "mu": 1.2435969177141544e-209},
        {"m": 1.0, "c": 0.5, "k": 1e-160, "mu": 1e-160},
        {"m": 162529070989801.0, "c": 1.846789644058172e-54,
         "k": 67546960.59658796, "mu": 9.67043808467929e194},
    ):
        code = cli.main(["eigen", "--config", _write_config(tmp_path, {"params": params})])
        assert code == 3
        assert "DegenerateSpectrum" in capsys.readouterr().err


def test_overflowing_cubic_exits_3(tmp_path, capsys):
    # k*mu overflows float64: a typed spectrum error, not "invalid input"
    params = {"m": 1.0, "c": 1.0, "k": 1e200, "mu": 1e200}
    code = cli.main(["eigen", "--config", _write_config(tmp_path, {"params": params})])
    assert code == 3
    assert "DegenerateSpectrum" in capsys.readouterr().err


def test_integer_past_float64_range_exits_2(tmp_path, capsys):
    # a 401-digit integer parses as JSON but has no float64 value
    doc = {"params": {"m": 1, "c": 1, "k": 1, "mu": 10**400}}
    assert cli.main(["eigen", "--config", _write_config(tmp_path, doc)]) == 2
    assert "config error: params.mu" in capsys.readouterr().err


def test_sine_history_at_huge_rate_exits_0(tmp_path):
    # mu*mu overflowed in the Sine weight, which gave W = NaN and a scan
    # that raised StepTooLarge; W is sin(phase), psi(0) in the CSV
    doc = {
        "params": {"m": 1.0, "c": 0.5, "k": 1.0, "mu": 1e155},
        "history": {"type": "sine", "a": 1.0, "amplitude": 1.0, "omega": 2.0, "phase": 0.5},
        "forcing": {"type": "constant", "value": 0.0},
        "grid": {"t_end": 1e-150, "dt": 1e-152},
    }
    out = tmp_path / "r.csv"
    assert cli.main(["respond", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert data.shape == (101, 4) and data[0, 3] == pytest.approx(math.sin(0.5), rel=1e-15)


def test_forced_respond_on_double_root_exits_0(tmp_path):
    # forced trajectories need no residues, so the exact double root of
    # (s+1)^2 (s+2) that eigen rejects still gives a trajectory
    doc = {
        **REF_DOC,
        "params": {"m": 1.0, "c": 1.125, "k": 0.5, "mu": 4.0},
        "forcing": {"type": "sine", "amplitude": 1.0, "omega": 2.0},
    }
    out = tmp_path / "r.csv"
    assert cli.main(["respond", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert out.read_bytes().split(b"\n")[1].startswith(b"0.0,1.0,0.3,")


@pytest.mark.parametrize("command", ["respond", "bounds"])
def test_root_near_kernel_rate_exits_0(tmp_path, command):
    # the kernel root sits within about 1e-9 of -mu, where the closed form's
    # quotients R_j/(s_j + mu) = 1/p'(s_j) have no pole
    doc = {**REF_DOC, "params": {"m": 1.0, "c": 1e-9, "k": 1.0, "mu": 3.0}}
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert data.shape[0] == 5001 and np.all(np.isfinite(data))


def test_bounds_kernel_root_rounded_onto_minus_mu(tmp_path, capsys):
    # r3 and s3 + mu are both exactly 0 here: the I2 cells read 0, not nan
    doc = {**REF_DOC, "params": {"m": 1.0, "c": 1e-17, "k": 1.0, "mu": 3.0}}
    out = tmp_path / "b.csv"
    assert cli.main(["bounds", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert np.all(data[:, 3] == 0.0) and np.all(data[:, 6] == 1.0)
    summary = json.loads(capsys.readouterr().out)
    assert summary["tail_i2"] == 0.0 and summary["bounds_ok"] is True


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


def test_unresolvable_forced_step_exits_5(tmp_path, capsys):
    # omega*dt is near 2e20: the forced scan leaves float64's range
    doc = {
        **REF_DOC,
        "params": {
            "m": 1.0752014100853305e-21, "c": 0.08565314066164373,
            "k": 4.818942361012487e23, "mu": 2.3068237641684912e-05,
        },
        "forcing": {"type": "constant", "value": 0.0},
        "grid": {"t_end": 1.0, "dt": 0.01},
    }
    out = tmp_path / "r.csv"
    assert cli.main(["respond", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 5
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
        b"0.0,0.9999999999999999,0.30000000000000004,0.8646647167633873",
    ]
    assert lines[-2:] == [
        b"5.0,-0.28162455870953823,1.0076707645965,3.925571740915665e-05",
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


def test_csv_written_in_slices_matches_one_shot_text(tmp_path, monkeypatch):
    # Slices of 64 rows split the 5001-row files 79 ways, the last slice
    # short; the bytes are those of one _csv call on the whole columns.
    forced = {**REF_DOC, "forcing": {"type": "sine", "amplitude": 1.0, "omega": 2.0}}
    cfg = load_config(_write_config(tmp_path, forced))
    args = (cfg.params, cfg.initial, cfg.history, cfg.forcing, cfg.t_end, cfg.dt)
    report = verify_decay(cfg.params, cfg.initial, cfg.history, cfg.t_end, cfg.dt)
    one_shot = {}
    for command, solve in (("respond", forced_response), ("oracle", integrate)):
        traj = solve(*args)
        one_shot[command] = cli._csv("t,x,xdot,psi", traj.t, traj.x, traj.xdot, traj.psi)
    one_shot["bounds"] = cli._csv(
        "t,I1_abs,B1,I2_abs,B2,ok1,ok2", report.t, report.i1_abs, report.b1,
        report.i2_abs, report.b2, report.ok1, report.ok2,
    )
    monkeypatch.setattr(cli, "_CSV_ROWS", 64)
    for command, text in one_shot.items():
        out = tmp_path / f"{command}.csv"
        argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_bytes() == text.encode("utf-8"), command
    assert "".join(cli._csv_slices("t", np.arange(128.0))) == cli._csv("t", np.arange(128.0))


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


def _picosecond_rows(shift):
    # The 1001-point grid of t_end = 1e-9, dt = 1e-12, moved by shift.
    t = np.arange(1001) * (1e-9 / 1000) + shift
    return "".join(f"{ti!r},{math.sin(1e9 * ti)!r}\n" for ti in t.tolist())


def test_sampled_forcing_half_step_shift_exits_2(tmp_path, capsys):
    # An absolute 1e-12 match accepted this grid shifted by half its step;
    # moved by 1e-24, a few ulps of t_end, the file still matches.
    doc = {
        **REF_DOC,
        "forcing": {"type": "samples", "path": "force.csv"},
        "grid": {"t_end": 1e-9, "dt": 1e-12},
    }
    cfg, out = _write_config(tmp_path, doc), str(tmp_path / "x.csv")
    (tmp_path / "force.csv").write_text("t,f\n" + _picosecond_rows(1e-24), encoding="utf-8")
    assert cli.main(["respond", "--config", cfg, "--out", out]) == 0
    (tmp_path / "force.csv").write_text("t,f\n" + _picosecond_rows(0.5e-12), encoding="utf-8")
    assert cli.main(["respond", "--config", cfg, "--out", out]) == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows",
    ["0.0,0.0\nnan,1.0\n0.02,0.0", "0.0,0.0\n0.01,inf\n0.02,0.0"],
    ids=["nan-time", "inf-value"],
)
def test_sampled_forcing_non_finite_cell_exits_2(tmp_path, capsys, rows):
    # a nan time would slip past the grid check (nan > tolerance is false)
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


_SAMPLED_DOC = {
    **REF_DOC,
    "forcing": {"type": "samples", "path": "force.csv"},
    "grid": {"t_end": 0.02, "dt": 0.01},
}


@pytest.mark.parametrize(
    "doc, force_csv, named",
    [
        ({**REF_DOC, "params": [1]}, None, "params"),
        ({**REF_DOC, "params": {**REF_DOC["params"], "m": True}}, None, "params.m"),
        (
            {**REF_DOC, "history": {"type": "polynomial", "a": 1.0, "coeffs": []}},
            None,
            "history.coeffs",
        ),
        ({**REF_DOC, "forcing": {"type": "samples", "path": ""}}, None, "forcing.path"),
        ([REF_DOC], None, "top-level"),
        (_SAMPLED_DOC, "time,f\n0.0,0.0\n0.01,0.0\n0.02,0.0\n", "header"),
        (_SAMPLED_DOC, "t,f\n0.0\n0.01,0.0\n0.02,0.0\n", "force.csv line 2"),
        (_SAMPLED_DOC, "t,f\n", "force.csv: no data rows"),
        ({}, None, "params: missing required section"),
        (_SAMPLED_DOC, "t,f\n0.0,abc\n0.01,0.0\n0.02,0.0\n", "line 2: 'abc' is not a number"),
        (
            {**REF_DOC, "history": {"type": "samples", "a": 1.0, "values": [0.0, 1.0, 0.0],
                                    "spacing": 0.5}},
            None,
            "history.spacing: unknown field",
        ),
    ],
    ids=[
        "params-list", "bool-number", "empty-coeffs", "empty-path", "top-level-array",
        "csv-header", "csv-short-row", "csv-header-only", "no-params", "csv-not-a-number",
        "samples-spacing",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, doc, force_csv, named):
    if force_csv is not None:
        (tmp_path / "force.csv").write_text(force_csv, encoding="utf-8")
    code = cli.main(
        ["respond", "--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert named in capsys.readouterr().err


def test_csv_blank_rows_skipped(tmp_path):
    path = tmp_path / "force.csv"
    path.write_text("t,f\n0.0,1.0\n\n0.01,2.0\n", encoding="utf-8")
    assert cli._read_csv_columns(path, ("t", "f"))["f"].tolist() == [1.0, 2.0]


def test_csv_columns_read_compactly(tmp_path):
    # 1e5 rows of three columns: the traced peak stays near the 2.4 MB of
    # the arrays returned, where a list of Python floats per column costs
    # about five times that.
    path = tmp_path / "traj.csv"
    rows = 100_000
    t = np.arange(rows) * 1e-3
    path.write_text(cli._csv("t,x,xdot", t, np.sin(t), np.cos(t)), encoding="utf-8")
    tracemalloc.start()
    try:
        cols = cli._read_csv_columns(path, ("t", "x", "xdot"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(cols["xdot"], np.cos(t))
    assert peak <= 1.5 * sum(col.nbytes for col in cols.values())


def test_compare_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_compare_t_columns_differ_exits_6(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,x,xdot\n0.0,1.0,0.0\n0.1,0.9,-0.1\n", encoding="utf-8")
    b.write_text("t,x,xdot\n0.0,1.0,0.0\n0.2,0.9,-0.1\n", encoding="utf-8")
    assert cli.main(["compare", str(a), str(b)]) == 6
    assert "t columns" in capsys.readouterr().err


def test_compare_half_step_shift_exits_6(tmp_path, capsys):
    # An absolute 1e-12 match accepted these grids, half a step apart,
    # and compared their rows as if they sat at the same times.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,x,xdot\n" + _picosecond_rows(0.0).replace("\n", ",0.0\n"), encoding="utf-8")
    b.write_text("t,x,xdot\n" + _picosecond_rows(0.5e-12).replace("\n", ",0.0\n"), encoding="utf-8")
    assert cli.main(["compare", str(a), str(b)]) == 6
    assert "1e-6 of the grid step" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    assert cli.main(["transmogrify"]) == 2

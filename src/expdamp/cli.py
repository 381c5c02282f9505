"""Command-line surface: JSON scenario configs in, CSV/JSON results out.

One canonical config schema (full reference in the README):

    {
      "params":  {"m": 1.0, "c": 0.5, "k": 4.0, "mu": 2.0},
      "initial": {"x0": 1.0, "v0": 0.3},
      "history": {"type": "constant", "a": 1.0, "value": 1.0},
      "forcing": {"type": "none"},
      "grid":    {"t_end": 20.0, "dt": 0.001}
    }

Numbers are written with repr (shortest round-trip), CSV uses `.`
decimals, `,` separators, and LF line endings, so identical configs
produce byte-identical outputs.

Exit codes: 0 success; 2 config or usage error; 3 spectrum error
(degenerate, resonant kernel, or not oscillatory where required);
4 unwritable output; 5 integration step too large; 6 grid mismatch
between compared trajectories.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from array import array
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .bounds import verify_decay
from .eigen import solve_eigen
from .errors import (
    DegenerateSpectrum,
    NotOscillatory,
    ResonantKernel,
    StepTooLarge,
)
from .model import (
    Constant,
    HistoryProfile,
    InitialState,
    OscillatorParams,
    Polynomial,
    Samples,
    Sine,
)
from .oracle import integrate
from .response import forced_response, time_grid

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SamplesForcing",
    "parse_config",
    "load_config",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SPECTRUM = 3
EXIT_WRITE = 4
EXIT_STEP = 5
EXIT_GRID = 6


class ConfigError(ValueError):
    """Malformed or invalid scenario config; message names the field."""


class _WriteError(Exception):
    pass


@dataclass(frozen=True)
class SamplesForcing:
    """Forcing read from a CSV file (`t,f` header, t matching the grid);
    relative paths resolve against the config file's directory."""

    path: str


ForcingSpec = Constant | Sine | SamplesForcing

# The typed config sections: the "type" key picks the dataclass, the
# other keys are its fields. "none" is accepted by both and means absent.
_HISTORY_TYPES = {"constant": Constant, "sine": Sine, "polynomial": Polynomial,
                  "samples": Samples}
_FORCING_TYPES = {"constant": Constant, "sine": Sine, "samples": SamplesForcing}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a command needs: system, state, history, forcing, grid.

    t_end/dt are None when the config has no grid section; commands that
    integrate or sample require them (or the --t-end/--dt overrides).
    """

    params: OscillatorParams
    initial: InitialState
    history: HistoryProfile | None
    forcing: ForcingSpec | None
    t_end: float | None
    dt: float | None


# --------------------------------------------------------------------------
# Config parsing. Every failure names the offending field.


def _section(doc: dict, key: str, required: bool = True) -> dict | None:
    value = doc.get(key)
    if value is None:
        if required:
            raise ConfigError(f"{key}: missing required section")
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a JSON object, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past float64's range
        raise ConfigError(f"{path}: expected a number within float64's range") from None


def _number_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return tuple(_number(item, f"{path}[{i}]") for i, item in enumerate(value))


def _file_path(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty file path")
    return value


# Readers by field annotation (a string: the modules postpone annotations).
_READERS = {"float": _number, "str": _file_path, "tuple[float, ...]": _number_list}


def _field(sec: dict, key: str, path: str, read=_number, default=MISSING):
    # null counts as absent.
    value = sec.get(key)
    if value is None:
        if default is not MISSING:
            return default
        raise ConfigError(f"{path}.{key}: missing required field")
    return read(value, f"{path}.{key}")


def _reject_unknown(sec: dict, allowed: set[str], prefix: str):
    for key in sec:
        if key not in allowed:
            raise ConfigError(
                f"{prefix}{key}: unknown field (allowed: {', '.join(sorted(allowed))})"
            )


def _construct(cls, section: str, /, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _build(cls, sec: dict, path: str, extra=(), use_defaults: bool = True):
    """Dataclass `cls` from the same-named keys of `sec`, validated by `cls`.

    Fields with defaults are optional when `use_defaults`; keys in `extra`
    are allowed here and read by the caller.
    """
    specs = fields(cls)
    _reject_unknown(sec, {*extra, *(f.name for f in specs)}, path + ".")
    values = {
        f.name: _field(
            sec, f.name, path, _READERS[f.type], f.default if use_defaults else MISSING
        )
        for f in specs
    }
    return _construct(cls, path, **values)


def _typed_class(sec: dict, path: str, table: dict):
    """The dataclass named by sec["type"], or None for type "none"."""
    kind = sec.get("type")
    if kind == "none":
        _reject_unknown(sec, {"type"}, path + ".")
        return None
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(
            f"{path}.type: expected one of none, {', '.join(table)}; got {kind!r}"
        )
    return table[kind]


def _positive(value: float, label: str) -> float:
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"{label} must be a positive number, got {value}")
    return value


def parse_config(doc) -> ScenarioConfig:
    """Validate a parsed JSON document into a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be a JSON object")
    _reject_unknown(doc, {"params", "initial", "history", "forcing", "grid"}, "")

    params = _build(OscillatorParams, _section(doc, "params"), "params")

    isec = _section(doc, "initial", required=False)
    initial = InitialState()
    if isec is not None:
        initial = _build(InitialState, isec, "initial", use_defaults=False)

    history = None
    hsec = _section(doc, "history", required=False)
    if hsec is not None and (shape_cls := _typed_class(hsec, "history", _HISTORY_TYPES)):
        a = _field(hsec, "a", "history")
        shape = _build(shape_cls, hsec, "history", extra=("type", "a"))
        history = _construct(HistoryProfile, "history", a, shape)

    forcing = None
    fsec = _section(doc, "forcing", required=False)
    if fsec is not None and (forcing_cls := _typed_class(fsec, "forcing", _FORCING_TYPES)):
        forcing = _build(forcing_cls, fsec, "forcing", extra=("type",))

    gsec = _section(doc, "grid", required=False)
    t_end = dt = None
    if gsec is not None:
        _reject_unknown(gsec, {"t_end", "dt"}, "grid.")
        t_end = _field(gsec, "t_end", "grid")
        dt = _field(gsec, "dt", "grid")
        _positive(t_end, "grid.t_end:")
        _positive(dt, "grid.dt:")

    return ScenarioConfig(params, initial, history, forcing, t_end, dt)


def load_config(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    return parse_config(doc)


# --------------------------------------------------------------------------
# CSV and JSON emission. repr floats round-trip exactly.


def _write_text(path, parts):
    """Write the strings of the iterable parts, in order, as one file.

    The file is truncated before the first part is made, so an error while
    a lazy iterable makes its parts (a MemoryError on a long grid, say)
    leaves a cut-short file, as a failed write does; the error itself
    propagates, since only OSError maps to _WriteError.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from exc


def _csv(header: str | None, *columns: np.ndarray) -> str:
    """One row per index after the header line (none for header=None): flag
    columns as 0/1, numbers with repr.  tolist() converts a whole column to
    Python floats in one call, faster than one float() per element."""
    cells = [
        np.where(col, "1", "0").tolist() if col.dtype == bool else map(repr, col.tolist())
        for col in columns
    ]
    lines = [] if header is None else [header]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


# Rows per slice of _csv_slices.  Each row's cells, line and text are
# Python objects about six times the row's bytes, so a writer that takes
# the slices one by one holds only one slice of them at a time.
_CSV_ROWS = 32_768


def _csv_slices(header: str, *columns: np.ndarray):
    """The text of _csv(header, *columns), _CSV_ROWS rows at a time."""
    for start in range(0, len(columns[0]), _CSV_ROWS):
        rows = (col[start : start + _CSV_ROWS] for col in columns)
        yield _csv(None if start else header, *rows)


def _read_csv_columns(path, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[: len(names)]] != list(names):
            raise ConfigError(f"{path}: expected CSV header starting {','.join(names)}")
        # array("d") keeps 8 bytes a value, where a list of floats takes
        # about 32, and np.frombuffer reads it without a copy.
        cols = [array("d") for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(names):
                raise ConfigError(f"{path} line {lineno}: expected {len(names)} columns")
            for i in range(len(names)):
                try:
                    value = float(row[i])
                except ValueError:
                    raise ConfigError(
                        f"{path} line {lineno}: {row[i]!r} is not a number"
                    ) from None
                if not math.isfinite(value):
                    raise ConfigError(f"{path} line {lineno}: {row[i]!r} is not finite")
                cols[i].append(value)
    if not cols[0]:
        raise ConfigError(f"{path}: no data rows")
    return {name: np.frombuffer(col) for name, col in zip(names, cols)}


def _json_num(value):
    return value if value is not None and math.isfinite(value) else None


def _emit_json(doc: dict, out_path) -> str:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if out_path:
        _write_text(out_path, [text])
    return text


# --------------------------------------------------------------------------
# Commands.


def _load_gridded(args) -> tuple[ScenarioConfig, float, float]:
    """The config with its grid, after the --t-end/--dt overrides."""
    cfg = load_config(args.config)
    t_end = cfg.t_end if args.t_end is None else _positive(args.t_end, "--t-end")
    dt = cfg.dt if args.dt is None else _positive(args.dt, "--dt")
    if t_end is None or dt is None:
        raise ConfigError(
            "grid: missing required section (set grid.t_end and grid.dt, "
            "or pass --t-end and --dt)"
        )
    return cfg, t_end, dt


def _same_grid(t: np.ndarray, grid: np.ndarray) -> bool:
    # A millionth of the step passes rounding up to about 1e9 steps and
    # rejects a grid shifted by a share of a step at any scale.
    step = abs(grid[-1] - grid[0]) / max(1, len(grid) - 1)
    return len(t) == len(grid) and float(np.max(np.abs(t - grid))) <= 1e-6 * step


def _realize_forcing(forcing: ForcingSpec | None, t: np.ndarray, config_dir: Path):
    # None and the Constant/Sine specs go to the solvers as they are.
    if not isinstance(forcing, SamplesForcing):
        return forcing
    path = Path(forcing.path)
    if not path.is_absolute():
        path = config_dir / path
    cols = _read_csv_columns(path, ("t", "f"))
    ft = cols["t"]
    if not _same_grid(ft, t):
        raise ConfigError(
            f"forcing file {path} has {len(ft)} rows and does not match "
            f"the {len(t)}-point scenario grid"
        )
    return cols["f"]


def _cmd_eigen(args) -> int:
    cfg = load_config(args.config)
    eig = solve_eigen(cfg.params)
    doc = {
        "roots": [{"re": s.real, "im": s.imag} for s in eig.roots],
        "residues": [{"re": r.real, "im": r.imag} for r in eig.residues],
        "alpha": eig.alpha if eig.oscillatory else None,
        "beta": eig.beta if eig.oscillatory else None,
        "gamma": eig.gamma,
        "oscillatory": eig.oscillatory,
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_trajectory(args, solve) -> int:
    """respond (solve = forced_response) and oracle (solve = integrate)."""
    cfg, t_end, dt = _load_gridded(args)
    t = time_grid(t_end, dt)
    forcing = _realize_forcing(cfg.forcing, t, Path(args.config).resolve().parent)
    traj = solve(cfg.params, cfg.initial, cfg.history, forcing, t_end, dt)
    _write_text(args.out, _csv_slices("t,x,xdot,psi", traj.t, traj.x, traj.xdot, traj.psi))
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = _read_csv_columns(args.path_a, ("t", "x", "xdot"))
    b = _read_csv_columns(args.path_b, ("t", "x", "xdot"))
    if len(a["t"]) != len(b["t"]):
        print(
            f"grid mismatch: {args.path_a} has {len(a['t'])} rows, "
            f"{args.path_b} has {len(b['t'])}",
            file=sys.stderr,
        )
        return EXIT_GRID
    if not _same_grid(a["t"], b["t"]):
        print(
            f"grid mismatch: t columns of {args.path_a} and {args.path_b} "
            "differ by more than 1e-6 of the grid step",
            file=sys.stderr,
        )
        return EXIT_GRID
    doc = {
        "max_abs_diff_x": float(np.max(np.abs(a["x"] - b["x"]))),
        "max_abs_diff_xdot": float(np.max(np.abs(a["xdot"] - b["xdot"]))),
        "rows": int(len(a["t"])),
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg, t_end, dt = _load_gridded(args)
    report = verify_decay(cfg.params, cfg.initial, cfg.history, t_end, dt)
    columns = (report.i1_abs, report.b1, report.i2_abs, report.b2, report.ok1, report.ok2)
    _write_text(args.out, _csv_slices("t,I1_abs,B1,I2_abs,B2,ok1,ok2", report.t, *columns))
    summary = {
        "rows": int(len(report.t)),
        "bounds_ok": report.bounds_ok,
        "undamped": report.undamped,
        "envelope_ok": report.envelope_ok,
        "tail_time": _json_num(report.tail_time),
        "tail_x": _json_num(report.tail_x),
        "tail_i1": _json_num(report.tail_i1),
        "tail_i2": _json_num(report.tail_i2),
        "tail_ok": report.tail_ok,
    }
    _emit_json(summary, None)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osc",
        description="Oscillators with exponentially fading damping memory: "
        "eigenstructure, responses, decay bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_parser(name, help_text, out_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument(
            "--out",
            required=out_required,
            help="output file path" + ("" if out_required else " (optional)"),
        )
        return p

    scenario_parser("eigen", "roots, residues, and decay rates as JSON", out_required=False)

    for name, help_text in (
        ("respond", "trajectory CSV: closed form, or one state-space scan when forced"),
        ("oracle", "RK4 reference trajectory CSV"),
        ("bounds", "history-term split, decay bounds CSV, and JSON summary"),
    ):
        p = scenario_parser(name, help_text)
        p.add_argument("--dt", type=float, help="override grid.dt")
        p.add_argument("--t-end", type=float, help="override grid.t_end")

    p_cmp = sub.add_parser("compare", help="column-wise max differences of two CSVs")
    p_cmp.add_argument("path_a")
    p_cmp.add_argument("path_b")
    p_cmp.add_argument("--out", help="also write the JSON report here")

    handlers = {
        "eigen": _cmd_eigen,
        "respond": partial(_cmd_trajectory, solve=forced_response),
        "oracle": partial(_cmd_trajectory, solve=integrate),
        "bounds": _cmd_bounds,
        "compare": _cmd_compare,
    }
    parser.set_defaults(handlers=handlers)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateSpectrum, ResonantKernel, NotOscillatory) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SPECTRUM
    except StepTooLarge as exc:
        print(f"StepTooLarge: {exc}", file=sys.stderr)
        return EXIT_STEP
    except _WriteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_WRITE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

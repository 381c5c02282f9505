"""The four workloads: seeded inputs per round, the timed op, and the
correctness gate that sorts every op as ok, rejected or failed.

An op that raises one of the documented typed errors is *rejected* when
the benchmark's own arithmetic agrees that the input deserves it (for
example NotOscillatory for a cubic with a positive discriminant) and
*failed* otherwise.  Any other exception, a bare AssertionError or
ArithmeticError included, and any output that misses its reference
tolerance is *failed*.  A decay report's bounds_ok = False is a verdict,
not an error: the op is ok when the benchmark confirms that the bounds
fail (see bounds_flag_justified) and failed when they hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import expdamp
import expdamp.cli
from expdamp import (
    Constant,
    DegenerateSpectrum,
    HistoryProfile,
    InitialState,
    NotOscillatory,
    OscillatorParams,
    Polynomial,
    ResonantKernel,
    Samples,
    Sine,
    StepTooLarge,
)

import scenarios as sc

TYPED = (DegenerateSpectrum, ResonantKernel, NotOscillatory, StepTooLarge)

# Scaled-error tolerances of the gate.  Free trajectories are judged
# against the exact exp(A t) reference, which the closed form meets to
# ~1e-14.  RK4 at the reference step is good to ~1e-8, so output judged
# against the oracle gets 1e-6; the forced path's trapezoid rule is
# O(dt^2), 1e-7 to 1e-5 at the grids used here.
TOL_EXACT = 1e-10
TOL_FREE = 1e-6
TOL_FORCED = 1e-3
TOL_SPECTRAL = 1e-8

# The acceptance tests draw m, c, k, mu as in scenarios.py; 12.74 % of
# those draws have three real roots (4e6 draws; sc.real3_share measures
# it and the self-test checks the schedules below against it).  Each
# trajectory schedule gives one slot in eight, 12.5 %, to such a draw.
# c = 0 is not in that distribution, so the trajectory workloads leave
# it to spectra-sweep.
TRAJ_CLASSES = ("osc", "osc", "osc", "osc", "osc", "osc", "osc", "real3")


@dataclass
class Op:
    """One op's input: package-typed arguments plus the plain numbers
    (``p``) the reference arithmetic works from."""

    p: sc.Params
    args: dict
    tags: dict
    points: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str  # "ok", "rejected" or "failed"
    error: float | None = None  # scaled error against the reference
    detail: str = ""
    # An ok op whose output is a justified negative verdict, such as
    # bounds_ok = False where the benchmark confirms the bound fails.
    flag: str | None = None


def package_params(p: sc.Params) -> OscillatorParams:
    return OscillatorParams(m=p.m, c=p.c, k=p.k, mu=p.mu)


def package_history(h: sc.History) -> HistoryProfile:
    if h.kind == "constant":
        shape = Constant(h.values[0])
    elif h.kind == "sine":
        shape = Sine(*h.values)
    elif h.kind == "polynomial":
        shape = Polynomial(h.values)
    else:
        shape = Samples(h.values)
    return HistoryProfile(h.a, shape)


def history_kind(i: int, period: int) -> str:
    """History shape of slot i in a schedule that repeats every `period`
    slots.  The shape shifts by one each period, so every slot meets every
    shape and no shape travels with one spectrum class or forcing kind."""
    return sc.HISTORY_KINDS[(i % period + i // period) % 4]


def rejection_justified(exc, p: sc.Params) -> bool:
    if isinstance(exc, DegenerateSpectrum):
        return sc.root_separation(p) < 1e-3
    if isinstance(exc, NotOscillatory):
        return sc.discriminant(p) >= 0
    if isinstance(exc, ResonantKernel):
        return float(np.min(np.abs(sc.roots(p) + p.mu))) < 1e-6 * p.mu
    return False


def bounds_flag_justified(p: sc.Params, hist: sc.History | None, b_sum, x_hist) -> bool:
    """Whether bounds_ok = False is a true answer.

    It is when the envelope's premise |W| <= M (1 - e^{-mu a}) fails,
    which only the trapezoid W of a sampled history can do, or when the
    exact history term x_hist exceeds B1 + B2 on the grid (b_sum, sampled
    at the same times).
    """
    if hist is None:
        return False
    w, _ = sc.history_weight_reference(p.mu, hist)
    premise = max(abs(v) for v in hist.values) * -np.expm1(-p.mu * hist.a)
    if hist.kind == "samples" and abs(w) > premise * (1.0 + 1e-12):
        return True
    return bool(np.any(np.abs(x_hist) > b_sum * (1.0 + 1e-9) + 1e-12))


def _classify_exception(exc, p) -> Outcome:
    if isinstance(exc, TYPED) and rejection_justified(exc, p):
        return Outcome("rejected", detail=type(exc).__name__)
    return Outcome("failed", detail=f"{type(exc).__name__}: {exc}")


def _scaled(a, b) -> float:
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


def _trajectory_error(traj, ref, stride: int) -> float:
    return max(_scaled(traj.x[::stride], ref.x), _scaled(traj.xdot[::stride], ref.xdot))


class Workload:
    name = ""
    round_size = 1
    min_rounds = 2
    cycle_rounds = 1  # runs end on a whole number of cycles, which fixes the input mix
    subprocess = False
    # Checked right after each op unless an op's output needs later ops'.
    check_after_round = False

    def make_round(self, rng, start: int) -> list[Op]:
        raise NotImplementedError

    def call(self, op: Op, out: dict):
        """The timed op; results go into ``out`` so partial output survives an exception."""
        raise NotImplementedError

    def call_in_process(self, op: Op, out: dict):
        self.call(op, out)

    def check(self, op: Op, out: dict, exc) -> Outcome:
        raise NotImplementedError

    def close(self):
        pass


# --------------------------------------------------------------------------
# traj-free


class TrajFree(Workload):
    """README flow: forced_response(forcing=None) then verify_decay on 1e5 points."""

    name = "traj-free"
    classes = TRAJ_CLASSES
    round_size = len(classes)
    cycle_rounds = 4  # every class meets every history shape
    n_ref = 10_000
    stride = 10

    def make_round(self, rng, start):
        ops = []
        for i in range(start, start + self.round_size):
            kind = self.classes[i % len(self.classes)]
            p = sc.draw_params(rng, kind)
            hist = sc.draw_history(rng, history_kind(i, len(self.classes)))
            x0, v0 = sc.draw_state(rng)
            t_end = self.n_ref * sc.reference_step(p)
            n = self.n_ref * self.stride
            ops.append(Op(
                p,
                dict(params=package_params(p), state=InitialState(x0, v0),
                     history=package_history(hist), t_end=t_end, dt=t_end / n),
                dict(spectrum=kind, history=hist.kind, forcing="none"),
                points=n + 1,
                extra=dict(hist=hist),
            ))
        return ops

    def call(self, op, out):
        a = op.args
        out["traj"] = expdamp.forced_response(
            a["params"], a["state"], a["history"], None, a["t_end"], a["dt"]
        )
        out["report"] = expdamp.verify_decay(
            a["params"], a["state"], a["history"], a["t_end"], a["dt"]
        )

    def check(self, op, out, exc):
        a = op.args
        traj = out.get("traj")
        if traj is None:
            return _classify_exception(exc, op.p)
        if len(traj) != op.points:
            return Outcome("failed", detail=f"{len(traj)} samples, expected {op.points}")
        # Columns: the whole free response, then the history term alone.
        hist = op.extra.get("hist")
        w = 0.0 if hist is None else sc.history_weight_reference(op.p.mu, hist)[0]
        x0, v0 = a["state"].x0, a["state"].v0
        ref = sc.free_reference(op.p, [[x0, 0.0], [v0, 0.0], [w, w]],
                                a["t_end"] / self.n_ref, self.n_ref)
        s = self.stride
        err = max(_scaled(traj.x[::s], ref[:, 0, 0]), _scaled(traj.xdot[::s], ref[:, 1, 0]))
        if not err <= TOL_EXACT:
            return Outcome("failed", err, f"trajectory off exp(A t) by {err:.2e}")
        if exc is not None:
            outcome = _classify_exception(exc, op.p)
            outcome.error = err
            return outcome
        report = out["report"]
        if len(report.t) != op.points:
            return Outcome("failed", err, "bound report has the wrong grid")
        if report.envelope_ok is False or report.tail_ok is False:
            return Outcome("failed", err, f"decay flags envelope {report.envelope_ok}, "
                           f"tail {report.tail_ok}")
        # The history term I1 + I2 is the response to (0, 0, W), so
        # |I1| + |I2| must dominate it; B1 + B2 must too, unless the
        # report says the bounds fail.
        x_hist = ref[:, 0, 1]
        tol = TOL_EXACT * max(float(np.max(np.abs(ref[:, 0, 0]))), float(np.max(np.abs(x_hist))))
        parts = report.i1_abs[::s] + report.i2_abs[::s]
        b_sum = report.b1[::s] + report.b2[::s]
        if np.any(np.abs(x_hist) > parts + tol):
            return Outcome("failed", err, "|I1| + |I2| does not dominate the history term")
        if not report.bounds_ok:
            if bounds_flag_justified(op.p, hist, b_sum, x_hist):
                return Outcome("ok", err, flag="bounds_not_ok")
            return Outcome("failed", err, "bounds_ok is false, yet the bounds hold")
        if np.any(np.abs(x_hist) > b_sum + tol):
            return Outcome("failed", err, "B1 + B2 does not dominate the history term")
        return Outcome("ok", err)


# --------------------------------------------------------------------------
# traj-forced


class TrajForced(Workload):
    """Forced trajectories: callables (constant, sine) and sampled arrays."""

    name = "traj-forced"
    classes = TRAJ_CLASSES
    forcings = ("constant", "sine", "samples")
    round_size = len(forcings) * len(classes)  # every class slot meets every forcing
    n_ref = 10_000
    # One grid size (5e4 points) for every op: with mixed sizes the median
    # and tail would sit on the boundary between size groups.
    stride = 5

    def make_round(self, rng, start):
        ops = []
        for i in range(start, start + self.round_size):
            kind = self.classes[i % len(self.classes)]
            forcing_kind = self.forcings[i % 3]
            p = sc.draw_params(rng, kind)
            hist = sc.draw_history(rng, history_kind(i, self.round_size))
            x0, v0 = sc.draw_state(rng)
            forcing = sc.draw_forcing(rng, forcing_kind, p)
            t_end = self.n_ref * sc.reference_step(p)
            n = self.n_ref * self.stride
            if forcing_kind == "samples":
                arg = forcing.value(np.arange(n + 1) * (t_end / n))
            else:
                arg = forcing.callable()
            ops.append(Op(
                p,
                dict(params=package_params(p), state=InitialState(x0, v0),
                     history=package_history(hist), forcing=arg, t_end=t_end, dt=t_end / n),
                dict(spectrum=kind, history=hist.kind, forcing=forcing_kind),
                points=n + 1,
                extra=dict(forcing=forcing),
            ))
        return ops

    def call(self, op, out):
        a = op.args
        out["traj"] = expdamp.forced_response(
            a["params"], a["state"], a["history"], a["forcing"], a["t_end"], a["dt"]
        )

    def check(self, op, out, exc):
        if exc is not None:
            return _classify_exception(exc, op.p)
        a, traj = op.args, out["traj"]
        if len(traj) != op.points:
            return Outcome("failed", detail=f"{len(traj)} samples, expected {op.points}")
        ref = expdamp.integrate(
            a["params"], a["state"], a["history"], op.extra["forcing"].callable(),
            a["t_end"], a["t_end"] / self.n_ref,
        )
        err = _trajectory_error(traj, ref, self.stride)
        if not err <= TOL_FORCED:
            return Outcome("failed", err, f"trajectory off the RK4 oracle by {err:.2e}")
        return Outcome("ok", err)


# --------------------------------------------------------------------------
# spectra-sweep


class SpectraSweep(Workload):
    """One `osc sweep` row per op: roots, W and h(t) on a short fixed grid.

    Near-double roots (``dbl``) are not in the timed schedule: about one
    such row in nine fails the gate at this commit (see bench/README.md),
    and a timed workload must be one whose ops can all pass.  They run
    instead in `defect_probe`, untimed, on every untraced run.
    """

    name = "spectra-sweep"
    classes = ("osc", "osc", "real3c", "osc", "c0", "osc", "osc", "real3c", "osc", "res")
    round_size = 20 * len(classes)
    grid = np.linspace(0.0, 4.0, 32)
    probe_rows = 400

    def make_round(self, rng, start, classes=None):
        classes = classes or self.classes
        ops = []
        for i in range(start, start + self.round_size):
            kind = classes[i % len(classes)]
            p = sc.draw_params(rng, kind)
            hist = sc.draw_history(rng, history_kind(i, len(self.classes)))
            ops.append(Op(
                p,
                dict(params=package_params(p), history=package_history(hist)),
                dict(spectrum=kind, history=hist.kind, forcing="none",
                     oscillatory=bool(sc.discriminant(p) < 0)),
                points=len(self.grid),
                extra=dict(hist=hist),
            ))
        # References depend only on the inputs: computed in one batch here,
        # so each op is checked right after it runs and its output dropped.
        params = [op.p for op in ops]
        h_ref = sc.impulse_reference(params, self.grid)
        roots = np.linalg.eigvals(np.stack([sc.state_matrix(p) for p in params]))
        for op, row, r in zip(ops, h_ref, roots):
            op.extra.update(h_ref=row, roots=r)
        return ops

    def call(self, op, out):
        a = op.args
        eig = out["eig"] = expdamp.solve_eigen(a["params"])
        out["w"] = expdamp.history_weight(a["params"].kernel, a["history"])
        out["h"] = expdamp.impulse_response(eig, self.grid)

    def check(self, op, out, exc):
        if exc is not None:
            return _classify_exception(exc, op.p)
        p, eig = op.p, out["eig"]
        spectral = sc.spectral_residuals(p, eig.roots, eig.residues)
        ref_roots = op.extra["roots"]
        scale = float(np.max(np.abs(ref_roots)))
        root_gap = max(float(np.min(np.abs(ref_roots - s))) for s in eig.roots) / scale
        w_ref, w_scale = sc.history_weight_reference(p.mu, op.extra["hist"])
        w_err = abs(out["w"].value - w_ref) / max(w_scale, 1e-300)
        h_err = _scaled(np.asarray(out["h"]), op.extra["h_ref"])
        err = max(spectral, w_err, h_err)
        if not (spectral <= TOL_SPECTRAL and root_gap <= 1e-6 and w_err <= 1e-9
                and h_err <= TOL_FREE):
            return Outcome("failed", err, f"identities {spectral:.1e}, roots {root_gap:.1e}, "
                           f"W {w_err:.1e}, h {h_err:.1e}")
        return Outcome("ok", err)

    def defect_probe(self, rng) -> dict:
        """`probe_rows` near-double-root rows through the same call and gate,
        untimed: the outcome counts and the first failures."""
        counts, failures = {"ok": 0, "rejected": 0, "failed": 0}, []
        for start in range(0, self.probe_rows, self.round_size):
            for op in self.make_round(rng, start, ("dbl",))[:self.probe_rows - start]:
                out, exc = {}, None
                try:
                    self.call(op, out)
                except Exception as err:  # the gate sorts it
                    exc = err
                outcome = self.check(op, out, exc)
                counts[outcome.status] += 1
                if outcome.status == "failed" and len(failures) < 5:
                    failures.append(f"separation {sc.root_separation(op.p):.1e}: "
                                    f"{outcome.detail}")
        return {"rows": self.probe_rows, **counts, "first_failures": failures}


# --------------------------------------------------------------------------
# cli-pipeline


class CliPipeline(Workload):
    """`osc eigen|respond|oracle|compare|bounds` as subprocesses, one at a time."""

    name = "cli-pipeline"
    commands = ("eigen", "respond", "oracle", "compare", "bounds")
    forcings = ("none", "constant", "sine", "samples")
    round_size = len(commands)
    cycle_rounds = min_rounds = len(forcings)
    subprocess = True
    check_after_round = True
    n = 20_000

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env

    def make_round(self, rng, start):
        index = start // self.round_size
        forcing_kind = self.forcings[index % len(self.forcings)]
        p = sc.draw_params(rng, "osc")
        hist = sc.draw_history(rng, history_kind(index, len(self.forcings)))
        x0, v0 = sc.draw_state(rng)
        dt = sc.reference_step(p)
        t_end = self.n * dt
        d = self.workdir
        doc = {
            "params": {"m": p.m, "c": p.c, "k": p.k, "mu": p.mu},
            "initial": {"x0": x0, "v0": v0},
            "history": _history_doc(hist),
            "grid": {"t_end": t_end, "dt": dt},
        }
        if forcing_kind == "samples":
            forcing = sc.draw_forcing(rng, "samples", p)
            t = np.arange(self.n + 1) * (t_end / self.n)
            f = forcing.value(t)
            (d / "forcing.csv").write_text(
                "t,f\n" + "".join(f"{ti!r},{fi!r}\n" for ti, fi in zip(t.tolist(), f.tolist())),
                encoding="utf-8",
            )
            doc["forcing"] = {"type": "samples", "path": "forcing.csv"}
        elif forcing_kind == "none":
            doc["forcing"] = {"type": "none"}
        else:
            forcing = sc.draw_forcing(rng, forcing_kind, p)
            doc["forcing"] = (
                {"type": "constant", "value": forcing.offset} if forcing_kind == "constant"
                else {"type": "sine", "amplitude": forcing.amp, "omega": forcing.omega,
                      "phase": forcing.phase}
            )
        cfg = d / "scenario.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        closed, rk4, bounds = d / "closed.csv", d / "rk4.csv", d / "bounds.csv"
        argv = {
            "eigen": (["eigen", "--config", str(cfg)], []),
            "respond": (["respond", "--config", str(cfg), "--out", str(closed)], [closed]),
            "oracle": (["oracle", "--config", str(cfg), "--out", str(rk4)], [rk4]),
            "compare": (["compare", str(closed), str(rk4)], []),
            "bounds": (["bounds", "--config", str(cfg), "--out", str(bounds)], [bounds]),
        }
        tags = dict(spectrum="osc", history=hist.kind, forcing=forcing_kind)
        ops = []
        for cmd in self.commands:
            args, files = argv[cmd]
            ops.append(Op(
                p, dict(argv=args), dict(tags, command=cmd),
                points=self.n + 1 if cmd in ("respond", "oracle") else 0,
                extra=dict(files=files, command=cmd, dt=dt, forced=forcing_kind != "none",
                           closed=closed, rk4=rk4, bounds=bounds, hist=hist),
            ))
        return ops

    def call(self, op, out):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "expdamp.cli", *op.args["argv"]],
                capture_output=True, env=self.env, cwd=self.workdir, timeout=120,
            )
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError(f"osc {op.extra['command']} timed out") from exc
        out["rc"] = proc.returncode
        out["stdout"] = proc.stdout.decode("utf-8", "replace")
        out["stderr"] = proc.stderr.decode("utf-8", "replace")

    def call_in_process(self, op, out):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            out["rc"] = expdamp.cli.main(list(op.args["argv"]))
        out["stdout"] = stdout.getvalue()
        out["stderr"] = stderr.getvalue()

    def bytes_written(self, op, out) -> int:
        """Bytes the command wrote: its output files plus stdout."""
        return sum(f.stat().st_size for f in op.extra["files"]) + len(out["stdout"].encode())

    def check(self, op, out, exc):
        if exc is not None:
            return Outcome("failed", detail=f"{type(exc).__name__}: {exc}")
        rc, p, extra = out["rc"], op.p, op.extra
        if rc != 0:
            justified = (
                (rc == 3 and (sc.root_separation(p) < 1e-3 or sc.discriminant(p) >= 0))
                or (rc == 5 and extra["dt"] > sc.step_guard(p))
            )
            return Outcome("rejected" if justified else "failed",
                           detail=f"exit {rc}: {out['stderr'].strip()[:200]}")
        try:
            return getattr(self, "_check_" + extra["command"])(op, out)
        except (ValueError, KeyError, TypeError, OSError) as err:
            return Outcome("failed", detail=f"unreadable output: {err}")

    def _check_eigen(self, op, out):
        doc = json.loads(out["stdout"])
        s = [complex(r["re"], r["im"]) for r in doc["roots"]]
        r = [complex(v["re"], v["im"]) for v in doc["residues"]]
        err = sc.spectral_residuals(op.p, s, r)
        ref = sc.roots(op.p)
        gap = max(float(np.min(np.abs(ref - si))) for si in s) / float(np.max(np.abs(ref)))
        if err <= TOL_SPECTRAL and gap <= 1e-6 and doc["oscillatory"] is True:
            return Outcome("ok", err)
        return Outcome("failed", err, f"eigen identities {err:.1e}, roots {gap:.1e}")

    def _read(self, path):
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def _check_respond(self, op, out):
        rows = len(self._read(op.extra["closed"]))
        return Outcome("ok" if rows == self.n + 1 else "failed", detail=f"{rows} rows")

    def _check_oracle(self, op, out):
        rows = len(self._read(op.extra["rk4"]))
        return Outcome("ok" if rows == self.n + 1 else "failed", detail=f"{rows} rows")

    def _check_compare(self, op, out):
        doc = json.loads(out["stdout"])
        a, b = self._read(op.extra["closed"]), self._read(op.extra["rk4"])
        dx = float(np.max(np.abs(a[:, 1] - b[:, 1])))
        dv = float(np.max(np.abs(a[:, 2] - b[:, 2])))
        if doc["rows"] != len(a) or doc["max_abs_diff_x"] != dx or doc["max_abs_diff_xdot"] != dv:
            return Outcome("failed", detail=f"compare report {doc} disagrees with the CSVs")
        err = max(dx / float(np.max(np.abs(b[:, 1]))), dv / float(np.max(np.abs(b[:, 2]))))
        tol = TOL_FORCED if op.extra["forced"] else TOL_FREE
        if not err <= tol:
            return Outcome("failed", err, f"closed form off the oracle by {err:.2e}")
        return Outcome("ok", err)

    def _check_bounds(self, op, out):
        doc = json.loads(out["stdout"])
        table = self._read(op.extra["bounds"])  # t, I1_abs, B1, I2_abs, B2, ok1, ok2
        ok = (doc["envelope_ok"] is not False and doc["tail_ok"] is not False
              and doc["rows"] == len(table) == self.n + 1)
        if not ok or doc["bounds_ok"] is True:
            return Outcome("ok" if ok else "failed", detail=json.dumps(doc))
        hist = op.extra["hist"]
        w, _ = sc.history_weight_reference(op.p.mu, hist)
        x_hist = sc.free_reference(op.p, [0.0, 0.0, w], op.extra["dt"], self.n)[:, 0, 0]
        if bounds_flag_justified(op.p, hist, table[:, 2] + table[:, 4], x_hist):
            return Outcome("ok", flag="bounds_not_ok", detail=json.dumps(doc))
        return Outcome("failed", detail="bounds_ok is false, yet the bounds hold: "
                       + json.dumps(doc))

    def close(self):
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


def _history_doc(h: sc.History) -> dict:
    # Written here rather than with cli.serialize_config, so that the
    # generated configs do not depend on the code under test.
    if h.kind == "constant":
        return {"type": "constant", "a": h.a, "value": h.values[0]}
    if h.kind == "sine":
        amp, omega, phase = h.values
        return {"type": "sine", "a": h.a, "amplitude": amp, "omega": omega, "phase": phase}
    if h.kind == "polynomial":
        return {"type": "polynomial", "a": h.a, "coeffs": list(h.values)}
    return {"type": "samples", "a": h.a, "values": list(h.values)}


NAMES = ("traj-free", "traj-forced", "spectra-sweep", "cli-pipeline")


def make(name: str, workdir: Path, env: dict) -> Workload:
    if name == "cli-pipeline":
        workdir.mkdir(parents=True, exist_ok=True)
        return CliPipeline(workdir, env)
    return {"traj-free": TrajFree, "traj-forced": TrajForced,
            "spectra-sweep": SpectraSweep}[name]()

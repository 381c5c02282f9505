"""Self-test of the benchmark: a tiny run of every workload, untraced and
traced, plus deliberately corrupted outputs that the gate must flag.

    python3 bench/run.py --self-test

Exits 0 when every check passes.  The tiny runs report how many ops the
gate failed but do not require zero: the package has known defects that
some inputs reach (see bench/README.md).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import expdamp
import run
import scenarios as sc
import workloads
from tracer import ROOT_NAME, Tracer, self_times

CHECKS: list[tuple[bool, str]] = []


def _expect(ok: bool, what: str):
    CHECKS.append((bool(ok), what))
    print(f"{'PASS' if ok else 'FAIL'} {what}")


def _tiny(name: str, traced: bool):
    wl = workloads.make(name, run.OUT / f"selftest-{name}-{int(traced)}-{os.getpid()}", run.child_env())
    wl.min_rounds = wl.cycle_rounds = 1
    rng = np.random.default_rng([0, workloads.NAMES.index(name)])
    tracer = Tracer() if traced else None
    tally = run.run(wl, rng, 0.0, tracer, 0 if traced else 1)
    if traced:
        metrics, extra = run.per_layer(tally, tracer)
        _expect(extra["nesting_violation_ns"] == 0, f"{name}: traced spans nest properly")
    else:
        metrics, _ = run.end_to_end(tally, wl.subprocess)
    finite = all(math.isfinite(v) for v in metrics.values())
    ok, rejected, failed = run.outcome_counts(tally)
    _expect(finite and ok + rejected + failed == tally.ops > 0,
            f"{name} ({'traced' if traced else 'untraced'}): {tally.ops} ops, "
            f"{ok} ok, {rejected} rejected, {failed} failed, metrics finite")
    return wl, tally


def _malformed_spans():
    # (name, start, end, parent, op, points, error); op 0 is well formed.
    good = [(ROOT_NAME, 0, 100, -1, 0, 0, None), ("eigen.solve_eigen", 10, 40, 0, 0, 0, None),
            ("history.history_weight", 50, 90, 0, 0, 0, None)]
    own, worst = self_times(good)
    _expect(worst == 0 and own == [30, 30, 40], "tracer: a well-formed op has no violation")
    overlap = good[:2] + [("history.history_weight", 30, 90, 0, 0, 0, None)]
    outside = good[:2] + [("history.history_weight", 50, 120, 0, 0, 0, None)]
    _expect(self_times(overlap)[1] > 0, "tracer: overlapping sibling spans are flagged")
    _expect(self_times(outside)[1] > 0, "tracer: a child span outside its parent is flagged")


def _schedule_share():
    measured = sc.real3_share(np.random.default_rng(0), 1_000_000)
    for wl in (workloads.TrajFree, workloads.TrajForced):
        share = wl.classes.count("real3") / len(wl.classes)
        _expect(abs(share - measured) < 0.01 and "c0" not in wl.classes,
                f"{wl.name}: three-real share {share:.4f} is the acceptance "
                f"distribution's {measured:.4f} to within 0.01, and c = 0 is absent")


def _bounds_verdicts(free, op, out):
    report = out["report"]
    flipped = dict(out, report=dataclasses.replace(report, ok1=np.zeros_like(report.ok1)))
    _expect(free.check(op, flipped, None).status == "failed",
            "traj-free: bounds_ok = False where the bounds hold is flagged")
    # Constant samples with mu * spacing > 1: the trapezoid W exceeds the
    # envelope's M (1 - e^{-mu a}), so bounds_ok = False is a true answer.
    p = sc.Params(m=1.0, c=1.0, k=1.0, mu=50.0)
    hist = sc.History("samples", 3.0, (1.0,) * 33)
    t_end = free.n_ref * sc.reference_step(p)
    op = workloads.Op(p, dict(params=workloads.package_params(p),
                              state=expdamp.InitialState(1.0, 0.0),
                              history=workloads.package_history(hist), t_end=t_end,
                              dt=t_end / (free.n_ref * free.stride)),
                      {}, points=free.n_ref * free.stride + 1, extra=dict(hist=hist))
    out = {}
    free.call(op, out)
    outcome = free.check(op, out, None)
    _expect(not out["report"].bounds_ok and outcome.status == "ok"
            and outcome.flag == "bounds_not_ok",
            "traj-free: bounds_ok = False with the envelope's premise broken is a true answer")


def _corrupt_in_process():
    rng = np.random.default_rng(7)
    free = workloads.TrajFree()
    op = free.make_round(rng, 0)[0]
    out = {}
    free.call(op, out)
    _expect(free.check(op, out, None).status == "ok", "traj-free: clean output passes")
    traj = out["traj"]
    x = np.array(traj.x)
    x[len(x) // 2] += 1e-9 * float(np.max(np.abs(x)))
    bad = dict(out, traj=dataclasses.replace(traj, x=x))
    _expect(free.check(op, bad, None).status == "failed",
            "traj-free: a sample off by 1e-9 of the peak is flagged")
    _bounds_verdicts(free, op, out)
    _expect(free.check(op, {}, AssertionError("boom")).status == "failed",
            "traj-free: a bare AssertionError counts as failed")
    _expect(free.check(op, {}, expdamp.NotOscillatory("x")).status == "failed",
            "traj-free: NotOscillatory on an oscillatory input counts as failed")

    sweep = workloads.SpectraSweep()
    ops = sweep.make_round(rng, 0)[:10]
    outs = []
    for op in ops:
        out = {}
        sweep.call(op, out)
        outs.append(out)
    eig = outs[0]["eig"]
    bad = dict(outs[0], eig=dataclasses.replace(eig, r1=eig.r1 * (1 + 1e-6),
                                               r2=eig.r2 * (1 + 1e-6)))
    _expect(sweep.check(ops[0], outs[0], None).status == "ok" and
            sweep.check(ops[0], bad, None).status == "failed",
            "spectra-sweep: a residue off by 1e-6 is flagged")
    sweep.probe_rows = 20
    probe = sweep.defect_probe(np.random.default_rng(3))
    _expect(probe["ok"] + probe["rejected"] + probe["failed"] == 20 and "dbl" not in sweep.classes,
            f"spectra-sweep: the untimed defect probe gated 20 near-double-root rows "
            f"({probe['failed']} failed)")


def _corrupt_cli(wl):
    ops = wl.make_round(np.random.default_rng(7), 0)
    outs = []
    for op in ops:
        outs.append({})
        wl.call(op, outs[-1])
    compare, out = next((op, o) for op, o in zip(ops, outs) if op.extra["command"] == "compare")
    _expect(wl.check(compare, out, None).status == "ok", "cli-pipeline: clean compare passes")
    doc = json.loads(out["stdout"])
    doc["max_abs_diff_x"] *= 0.5
    bad = dict(out, stdout=json.dumps(doc))
    _expect(wl.check(compare, bad, None).status == "failed",
            "cli-pipeline: a compare report that disagrees with the CSVs is flagged")
    _expect(wl.check(compare, dict(out, rc=1), None).status == "failed",
            "cli-pipeline: a crash exit code counts as failed")
    bounds, out = next((op, o) for op, o in zip(ops, outs) if op.extra["command"] == "bounds")
    doc = json.loads(out["stdout"])
    _expect(doc["bounds_ok"] and wl.check(bounds, out, None).status == "ok",
            "cli-pipeline: clean bounds passes")
    bad = dict(out, stdout=json.dumps(dict(doc, bounds_ok=False)))
    _expect(wl.check(bounds, bad, None).status == "failed",
            "cli-pipeline: bounds_ok = False where the bounds hold is flagged")


def _double_root_report():
    # The near-double root (s+1)^2 (s+3) with c scaled by 1 + 1e-8.
    p = sc.Params(m=1.0, c=1.28 * (1.0 + 1e-8), k=0.6, mu=5.0)
    free = workloads.TrajFree()
    t_end = free.n_ref * sc.reference_step(p)
    op = workloads.Op(p, dict(params=workloads.package_params(p),
                              state=expdamp.InitialState(1.0, 0.0), history=None,
                              t_end=t_end, dt=t_end / (free.n_ref * free.stride)),
                      {}, points=free.n_ref * free.stride + 1)
    out, exc, _ = run.timed(free.call, op)
    outcome = free.check(op, out, exc)
    print(f"note: forced_response near the double root (s+1)^2(s+3): {outcome.status} "
          f"({outcome.detail or 'within tolerance'})")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    runs = {(name, traced): _tiny(name, traced)
            for name in workloads.NAMES for traced in (False, True)}
    try:
        _malformed_spans()
        _schedule_share()
        _corrupt_in_process()
        _corrupt_cli(runs["cli-pipeline", False][0])
        _double_root_report()
    finally:
        for wl, _ in runs.values():
            wl.close()
    failed = [what for ok, what in CHECKS if not ok]
    print(f"self-test: {len(CHECKS) - len(failed)} of {len(CHECKS)} checks passed")
    return 1 if failed else 0

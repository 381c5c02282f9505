"""expdamp benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``.  One client in this process runs each op only after the
previous one has finished (closed loop); ``cli-pipeline`` starts one
``osc`` child process at a time.  Ops run in rounds that fix the input
mix; rounds repeat until the timed ops have taken ``--seconds``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` makes a
traced run and prints the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance and the measured input mix, is written to
``.bench_out/<workload>-seed<N>-trace<T>.json``, and a traced run's
spans to the matching ``-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import array
import collections
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Stop starting rounds after this much wall time, checks included, so a
# run ends well within three minutes even on a slow machine.
WALL_LIMIT_S = 150.0
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "points_per_s": "1/s",
    "latency_tail_s": "s", "accuracy_digits": "digits", "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics and saved, but not in the result
# line: the shares can be 0, the median latency jumps between the host's
# two speeds and the run's worst error is set by a single draw (see
# bench/README.md), so no bound holds for them.
REPORTED_UNITS = {"latency_p50_s": "s", "worst_error_digits": "digits", "failed_frac": "frac",
                  "rejected_frac": "frac", "bounds_flagged_frac": "frac"}
PER_LAYER_UNITS = {
    "eigen.solve_calls_per_op": "calls/op", "eigen.solve_us_per_call": "us",
    "eigen.self_frac": "frac", "eigen.rejected": "frac",
    "history.weight_calls_per_op": "calls/op", "history.weight_us_per_call": "us",
    "history.self_frac": "frac", "model.self_frac": "frac",
    "response.ns_per_point": "ns/point", "response.self_frac": "frac",
    "response.exp_conv_calls_per_op": "calls/op", "response.init_calls_per_op": "calls/op",
    "response.points": "points/op",
    "bounds.ns_per_point": "ns/point", "bounds.self_frac": "frac",
    "oracle.ns_per_step": "ns/step", "oracle.steps": "steps/op", "oracle.self_frac": "frac",
    "cli.self_frac": "frac", "cli.parse_us": "us", "cli.bytes_written_per_op": "B/op",
    "cli.ns_per_byte": "ns/B", "cli.process_overhead_frac": "frac",
    "bench.self_frac": "frac", "trace.overhead_frac": "frac", "trace.spans_per_op": "spans/op",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def interpreter_start() -> float:
    """Seconds from spawning an interpreter until `import expdamp` returns."""
    code = "import expdamp, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import expdamp")
    return elapsed


def provenance(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "expdamp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def tail(latencies):
    """(value, percentile, n): the highest percentile with >= 10 samples
    beyond it, capped at p99.

    The cap only binds above 1,100 ops (spectra-sweep).  There p99.99
    would be set by the host's scheduling stalls of a millisecond or
    more, which hit ops at random and vary several-fold from run to run.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, min(n - 11, math.ceil(0.99 * n) - 1))
    return ordered[index], 100.0 * (index + 1) / n, n


def command_tails(by_command) -> dict:
    """cli-pipeline's tail, per command: the p75 (nearest rank) of each
    command's latencies, with its sample count.

    A run makes only eight of each command, too few for ten samples
    beyond any percentile.  Pooled, the five commands' very different
    costs would put the pooled tail on the boundary between two command
    groups, where a change that speeds up one command moves it in jumps.
    Their sum, the tail time of one pass through the pipeline, moves in
    proportion instead.
    """
    out = {}
    for command, values in by_command.items():
        ordered = sorted(values)
        out[command] = (ordered[math.ceil(0.75 * len(ordered)) - 1], len(ordered))
    return out


# --------------------------------------------------------------------------
# The loop.


class Tally:
    """Running totals of a run's ops.  Per-op data is kept only as an
    array of latencies, so the benchmark's own memory stays small and
    flat however many ops a run makes."""

    def __init__(self):
        self.ops = 0
        self.latency = array.array("d")
        self.latency_by_command = collections.defaultdict(lambda: array.array("d"))
        self.status = collections.Counter()
        self.flags = collections.Counter()  # justified negative verdicts of ok ops
        self.worst_error = None  # largest scaled error against the reference
        self.cycle_worst = []  # largest scaled error of each cycle of the schedule
        self._cycle_error = None
        self.points = 0
        self.mix = collections.defaultdict(collections.Counter)
        self.failures = []  # (tags, detail) of the first few failed ops
        self.untraced = self.traced = self.process = 0.0
        self.bytes = 0
        self.setup = []  # interpreter start times, spread over the run

    def add(self, op, outcome, t: dict):
        self.ops += 1
        self.status[outcome.status] += 1
        if outcome.flag:
            self.flags[outcome.flag] += 1
        if outcome.error is not None:
            self.worst_error = max(outcome.error, self.worst_error or 0.0)
            self._cycle_error = max(outcome.error, self._cycle_error or 0.0)
        self.points += op.points
        for key, value in op.tags.items():
            self.mix[key][value] += 1
        if outcome.status == "failed" and len(self.failures) < 5:
            self.failures.append((op.tags, outcome.detail))
        if "latency" in t:
            self.latency.append(t["latency"])
            if "command" in op.tags:
                self.latency_by_command[op.tags["command"]].append(t["latency"])
        self.untraced += t.get("untraced", 0.0)
        self.traced += t.get("traced", 0.0)
        self.process += t.get("process", 0.0)
        self.bytes += t.get("bytes", 0)

    def end_cycle(self):
        if self._cycle_error is not None:
            self.cycle_worst.append(self._cycle_error)
        self._cycle_error = None


def timed(fn, op):
    out, exc = {}, None
    start = time.perf_counter()
    try:
        fn(op, out)
    except Exception as err:  # the gate sorts it as rejected or failed
        exc = err
    return out, exc, time.perf_counter() - start


def run(wl, rng, seconds: float, tracer=None, setup_samples: int = 0) -> Tally:
    """Run whole rounds until the timed ops have taken `seconds`.

    Traced, each op runs untraced and traced in alternating order (and,
    for a subprocess workload, once more as a child process first).
    `setup_samples` interpreter starts are timed between rounds, spread
    evenly over the run, so that their median sees the same machine as
    the ops do.
    """
    tally = Tally()
    if setup_samples:
        interpreter_start()  # warms the bytecode cache
    measured = 0.0
    rounds = 0
    wall_start = time.perf_counter()
    while True:
        ops = wl.make_round(rng, tally.ops)
        pending = []
        for op in ops:
            op_id = tally.ops + len(pending)
            if tracer is None:
                out, exc, elapsed = timed(wl.call, op)
                t = {"latency": elapsed}
            else:
                t = {}
                if wl.subprocess:
                    _, _, t["process"] = timed(wl.call, op)
                for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
                    if not traced:
                        _, _, t["untraced"] = timed(wl.call_in_process, op)
                        continue
                    out, exc = {}, None
                    first = len(tracer.spans)
                    with tracer.op(op_id):
                        try:
                            wl.call_in_process(op, out)
                        except Exception as err:
                            exc = err
                    _, start, end, *_ = tracer.spans[first]
                    t["traced"] = (end - start) * 1e-9
                if wl.subprocess:
                    t["bytes"] = wl.bytes_written(op, out)
            measured += sum(v for k, v in t.items() if k != "bytes")
            if wl.check_after_round:
                pending.append((op, out, exc, t))
            else:
                tally.add(op, wl.check(op, out, exc), t)
            del out, exc
        for op, out, exc, t in pending:
            tally.add(op, wl.check(op, out, exc), t)
        while len(tally.setup) < setup_samples * min(1.0, measured / max(seconds, 1e-9)):
            tally.setup.append(interpreter_start())
        rounds += 1
        if rounds % wl.cycle_rounds == 0:
            tally.end_cycle()
        if rounds >= wl.min_rounds and rounds % wl.cycle_rounds == 0 and measured >= seconds:
            break
        if time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
    while len(tally.setup) < setup_samples:
        tally.setup.append(interpreter_start())
    tally.end_cycle()  # a cycle the wall limit cut short
    return tally


# --------------------------------------------------------------------------
# Metrics.


def outcome_counts(tally):
    return tally.status["ok"], tally.status["rejected"], tally.status["failed"]


def input_mix(tally) -> dict:
    mix = {key: {value: round(n / tally.ops, 4) for value, n in sorted(counts.items())}
           for key, counts in tally.mix.items()}
    mix["points_per_op"] = tally.points / tally.ops
    return mix


def digits(error) -> float:
    return -math.log10(max(error or 0.0, 1e-17))


def end_to_end(tally, subprocess_workload) -> tuple[dict, dict]:
    who = resource.RUSAGE_CHILDREN if subprocess_workload else resource.RUSAGE_SELF
    busy = sum(tally.latency)
    ok, rejected, failed = outcome_counts(tally)
    extra = {}
    if tally.latency_by_command:
        tails = command_tails(tally.latency_by_command)
        value = sum(v for v, _ in tails.values())
        extra["latency_tail_by_command"] = {
            command: {"p75_s": v, "samples": n} for command, (v, n) in tails.items()
        }
    else:
        value, percentile, n = tail(tally.latency)
        extra.update(latency_tail_percentile=percentile, latency_samples=n)
    metrics = {
        "setup_s": statistics.median(tally.setup),
        "ops_per_s": tally.ops / busy,
        "points_per_s": tally.points / busy,
        "latency_tail_s": value,
        # The median over the schedule's cycles, which share one input mix,
        # of each cycle's worst error.  The run's worst alone is set by the
        # one draw that comes nearest a double root, and swung from 10.4 to
        # 12.8 digits over ten traj-free seeds.
        "accuracy_digits": digits(statistics.median(tally.cycle_worst or [0.0])),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra.update({
        "latency_p50_s": statistics.median(tally.latency),
        "worst_error_digits": digits(tally.worst_error),
        "setup_samples": len(tally.setup),
        "failed_frac": failed / tally.ops, "rejected_frac": rejected / tally.ops,
        "bounds_flagged_frac": tally.flags["bounds_not_ok"] / tally.ops,
    })
    return metrics, extra


def per_layer(tally, tracer) -> tuple[dict, dict]:
    from tracer import ROOT_NAME, layer_of, self_times
    from workloads import TYPED

    typed = {cls.__name__ for cls in TYPED}
    spans = tracer.spans
    own, worst_nesting = self_times(spans)
    count = collections.Counter()
    duration = collections.Counter()
    points = collections.Counter()
    self_by_name = collections.Counter()
    self_by_layer = collections.Counter()
    typed_errors = collections.Counter()
    op_wall = collections.Counter()
    for (name, start, end, parent, op, n, error), mine in zip(spans, own):
        layer = "bench" if name == ROOT_NAME else layer_of(name)
        count[name] += 1
        duration[name] += end - start
        points[name] += n
        self_by_name[name] += mine
        self_by_layer[layer] += mine
        if parent < 0:
            op_wall[op] = end - start
        if error in typed:
            typed_errors[name] += 1
    ops = len(op_wall)
    total = sum(op_wall.values())

    def per_call(name, scale):
        return duration[name] / count[name] / scale if count[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = points["oracle.integrate"] - count["oracle.integrate"]
    written, untraced, traced, process = tally.bytes, tally.untraced, tally.traced, tally.process
    metrics = {
        "eigen.solve_calls_per_op": count["eigen.solve_eigen"] / ops,
        "eigen.solve_us_per_call": per_call("eigen.solve_eigen", 1e3),
        "eigen.self_frac": self_by_layer["eigen"] / total,
        "eigen.rejected": ratio(typed_errors["eigen.solve_eigen"], count["eigen.solve_eigen"]),
        "history.weight_calls_per_op": count["history.history_weight"] / ops,
        "history.weight_us_per_call": per_call("history.history_weight", 1e3),
        "history.self_frac": self_by_layer["history"] / total,
        "model.self_frac": self_by_layer["model"] / total,
        "response.ns_per_point": ratio(self_by_name["response.forced_response"],
                                       points["response.forced_response"]),
        "response.self_frac": self_by_layer["response"] / total,
        "response.exp_conv_calls_per_op": count["response.exp_convolution"] / ops,
        "response.init_calls_per_op": count["response.initialization_response"] / ops,
        "response.points": points["response.forced_response"] / ops,
        "bounds.ns_per_point": ratio(self_by_layer["bounds"], points["bounds.verify_decay"]),
        "bounds.self_frac": self_by_layer["bounds"] / total,
        "oracle.ns_per_step": ratio(self_by_layer["oracle"], steps),
        "oracle.steps": steps / ops,
        "oracle.self_frac": self_by_layer["oracle"] / total,
        "cli.self_frac": self_by_layer["cli"] / total,
        "cli.parse_us": per_call("cli.load_config", 1e3),
        "cli.bytes_written_per_op": written / ops,
        "cli.ns_per_byte": ratio(self_by_layer["cli"], written),
        "cli.process_overhead_frac": ratio(process - untraced, process),
        "bench.self_frac": self_by_layer["bench"] / total,
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.spans_per_op": len(spans) / ops,
    }
    extra = {
        "traced_ops": ops, "bindings_wrapped": tracer.bindings,
        "nesting_violation_ns": worst_nesting,
        "self_ns_by_layer": dict(self_by_layer),
        "calls_by_name": dict(count),
    }
    return metrics, extra


# --------------------------------------------------------------------------
# Entry points.


def _require_source():
    if not (SRC / "expdamp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'expdamp'}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import expdamp

    if Path(expdamp.__file__).resolve().parent != (SRC / "expdamp").resolve():
        print(f"error: imported expdamp from {expdamp.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def run_all(names, args) -> int:
    """Every workload in turn, each in a child process of its own so that
    no workload's memory or warm caches carry into the next.  The last
    line merges their result lines, with metrics named workload/metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0


def _print_table(title, metrics, units, notes):
    print(title)
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:30s} {value:14.6g} {units[name]:9s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload's name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny run of every workload plus a corrupted-output check")
    args = parser.parse_args(argv)
    _require_source()
    import numpy as np
    import workloads

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in (*workloads.NAMES, "all"):
        parser.error(f"--workload must be all or one of {', '.join(workloads.NAMES)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(workloads.NAMES, args)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.make(args.workload, OUT / f"{stem}-work-{os.getpid()}", child_env())
    rng = np.random.default_rng([args.seed, workloads.NAMES.index(args.workload)])
    wall_start = time.perf_counter()
    try:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        gc.collect()
        tally = run(wl, rng, args.seconds, tracer, 0 if args.trace else SETUP_REPEATS)
        probe = None
        if args.trace == 0 and hasattr(wl, "defect_probe"):
            probe = wl.defect_probe(np.random.default_rng(
                [args.seed, workloads.NAMES.index(args.workload), 1]))
    finally:
        wl.close()

    wall_s = time.perf_counter() - wall_start
    ok, rejected, failed = outcome_counts(tally)
    result = {"provenance": provenance(args), "wall_s": wall_s, "ops": tally.ops, "ok": ok,
              "rejected": rejected, "failed": failed, "flags": dict(tally.flags),
              "input_mix": input_mix(tally),
              "first_failures": [{"input": tags, "detail": detail}
                                 for tags, detail in tally.failures]}
    print(f"expdamp bench: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"{tally.ops} ops: {ok} ok ({sum(tally.flags.values())} with a confirmed "
          f"bounds_ok = False), {rejected} rejected, {failed} failed; "
          f"{wall_s:.1f} s wall")
    print(f"input mix: {json.dumps(result['input_mix'])}")
    for tags, detail in tally.failures:
        print(f"FAILED {tags}: {detail}")
    if probe is not None:
        # A known package defect, kept out of the timed ops and the result
        # line but run and reported on every untraced run.
        result["defect_probe"] = probe
        print(f"defect probe (untimed, not in the result line): {probe['rows']} "
              f"near-double-root rows: {probe['ok']} ok, {probe['rejected']} rejected, "
              f"{probe['failed']} failed")
        for detail in probe["first_failures"]:
            print(f"PROBE FAILED {detail}")
    correct = failed == 0
    if args.trace == 0:
        metrics, extra = end_to_end(tally, wl.subprocess)
        units = END_TO_END_UNITS
        _print_table("end-to-end metrics", metrics | {
            name: extra[name] for name in REPORTED_UNITS
        }, units | REPORTED_UNITS, {
            "setup_s": f"median of {SETUP_REPEATS} interpreter starts",
            "accuracy_digits": f"median over {len(tally.cycle_worst)} cycles of each "
                               "cycle's worst error",
            "worst_error_digits": "the run's worst error",
            "latency_tail_s": (
                "sum of each command's p75" if "latency_tail_by_command" in extra
                else f"p{extra['latency_tail_percentile']:.2f} of "
                     f"{extra['latency_samples']} ops"),
            "failed_frac": f"{failed} of {tally.ops}",
            "rejected_frac": f"{rejected} of {tally.ops}",
            "bounds_flagged_frac": "ok ops whose bounds_ok = False the benchmark confirms",
        })
    else:
        metrics, extra = per_layer(tally, tracer)
        units = PER_LAYER_UNITS
        _print_table("per-layer metrics (traced run)", metrics, units, {
            "cli.bytes_written_per_op": "from output file sizes and stdout",
        })
        # Self times sum to each op's wall time by construction (every
        # child's duration leaves its parent once); that the sum means
        # anything rests on the spans nesting properly, checked here.
        print(f"span nesting violations: {extra['nesting_violation_ns']} ns")
        correct = correct and extra["nesting_violation_ns"] == 0
        tracer.dump(OUT / f"{stem}-spans.jsonl")
    result.update(metrics=metrics, extra=extra, correct=correct)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": tally.ops, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

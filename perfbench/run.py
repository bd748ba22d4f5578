"""Run one workload of the conetheta benchmark and print its metrics.

    python3 perfbench/run.py --workload cone-eval --seed 1 --seconds 42 --trace 0

One process, one caller thread, BLAS capped at one thread.  The seed draws
a fixed op list of the workload's passes, so every commit times the same
ops and the tail percentile always covers the same number of samples.  The
list runs in rounds, each in a seed-drawn order, until ``--seconds`` are
up, and an op's latency is the 90th percentile of its rounds.  With
``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` an untraced
and a traced round run over the same ops, and the line holds the per-layer
metrics.  Details, the environment and (traced) the spans go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# numpy, and so perfbench.workloads, is imported only inside functions, after
# main() has capped the BLAS threads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

#: set-ups per run, spread over the run
SETUP_REPS = 15
#: rounds at least, however short the run
MIN_ROUNDS = 2
#: an op's latency, and setup_s, is this percentile of its repeats.  The
#: host's slow speed is steady and nearly every run spends some of its time
#: there, while its fast speed varies with the load of its other tenants;
#: a high percentile measures at the steady speed
LATENCY_PERCENTILE = 90
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KERNEL_MODULES = ("errors", "serialize", "lattice", "theta", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_kernel(fresh: bool) -> SimpleNamespace:
    """Import the conetheta modules the workloads call, from this checkout's
    ``src`` only; ``fresh`` drops any loaded copy first so that the import
    itself is part of the set-up time."""
    if fresh:
        for key in [k for k in sys.modules if k == "conetheta" or k.startswith("conetheta.")]:
            del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module("conetheta." + name) for name in KERNEL_MODULES}
    origin = Path(sys.modules["conetheta"].__file__).resolve().parent
    if origin != SRC / "conetheta":
        raise ImportError("conetheta was imported from %s, not from %s" % (origin, SRC))
    return SimpleNamespace(**mods)


def set_up(workload, seed: int):
    """Import afresh, generate the op list, parse it and run one warm-up op.
    Returns (seconds, kernel, ops, prepared ops)."""
    t0 = time.perf_counter()
    kernel = import_kernel(fresh=True)
    plan = workload.generate(seed, workload.passes, kernel)
    ops = [op for pass_ops in plan for op in pass_ops]
    prepared = [workload.prepare(kernel, op) for op in ops]
    warm = workload.warmup(plan[0])
    workload.execute(kernel, workload.prepare(kernel, warm))
    return time.perf_counter() - t0, kernel, ops, prepared


def run_pass(workload, kernel, ops, prepared, tracer=None):
    """Run one pass in a closed loop; returns (wall seconds, [(output,
    latency)]).  An op that raises yields its exception as output."""
    outs = []
    start = time.perf_counter()
    for op, prep in zip(ops, prepared):
        t0 = time.perf_counter()
        try:
            if tracer is not None and "suite" in op:
                with tracer.span("cli.suite." + op["suite"]):
                    out = workload.execute(kernel, prep)
            else:
                out = workload.execute(kernel, prep)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        outs.append((out, time.perf_counter() - t0))
    return time.perf_counter() - start, outs


def judge(workload, ops, outs, refs) -> list:
    """Check every output: None for a skipped suite, "" for a correct output,
    otherwise the reason the op failed."""
    reasons = []
    for op, (out, _), ref in zip(ops, outs, refs):
        if isinstance(out, Exception):
            reasons.append("raised %s: %s" % (type(out).__name__, out))
        else:
            try:
                reasons.append(workload.check(op, out, ref))
            except Exception as exc:  # a malformed output fails its op
                reasons.append("check raised %s: %s" % (type(exc).__name__, exc))
    return reasons


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least 10
    samples beyond it (the maximum when there are 10 or fewer samples)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def percentile(values: list[float]) -> float:
    """LATENCY_PERCENTILE of at least two values, linearly interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[LATENCY_PERCENTILE - 1]


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop; recorded to spot host slowdowns,
    never used to scale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_cap": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; returns the full result record."""
    from perfbench import tracing

    calib_start = calibrate()
    dt, kernel, ops, prepared = set_up(workload, seed)
    setups = [dt]
    refs = [workload.reference(op) for op in ops]
    order_rng = random.Random(seed)
    tracer = tracing.Tracer() if trace else None
    lats = [[] for _ in ops]
    walls = []
    failures, attempted, skipped = [], 0, 0

    def run_round(traced: bool) -> None:
        nonlocal attempted, skipped
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        round_ops = [ops[i] for i in order]
        if traced:
            tracer.install()
            try:
                prep = [workload.prepare(kernel, op) for op in round_ops]
                wall, outs = run_pass(workload, kernel, round_ops, prep, tracer)
            finally:
                tracer.uninstall()
        else:
            wall, outs = run_pass(workload, kernel, round_ops, [prepared[i] for i in order])
        walls.append(wall)
        reasons = judge(workload, round_ops, outs, [refs[i] for i in order])
        for i, (_, latency), reason in zip(order, outs, reasons):
            if reason is None:
                skipped += 1
                continue
            attempted += 1
            if not traced:
                lats[i].append(latency)
            if reason:
                failures.append(
                    {"id": ops[i]["id"], "cls": ops[i]["cls"], "round": len(walls) - 1, "reason": reason,
                     "known": workload.known_failure(ops[i], reason)}
                )

    if trace:
        # an untraced and a traced round over the same ops give the tracing
        # overhead
        run_round(False)
        run_round(True)
    else:
        # rounds in a fresh order each until the time is up: the host's
        # speed changes every few seconds, and many rounds spread over the
        # run sample each op at each speed.  The other set-ups are spread
        # over the run too, for the same reason.
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_ROUNDS and elapsed + walls[-1] > seconds:
                break
            while len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
                # a fresh import and parse; later rounds run on the new copy
                dt, kernel, _, prepared = set_up(workload, seed)
                setups.append(dt)
                elapsed = time.perf_counter() - start
            run_round(False)
        while len(setups) < SETUP_REPS:
            dt, kernel, _, prepared = set_up(workload, seed)
            setups.append(dt)

    record = {
        "workload": workload.name,
        "trace": int(trace),
        "environment": environment(seed),
        "calibration_s": {"start": calib_start},
        "passes": workload.passes,
        "ops": len(ops),
        "rounds": len(walls),
        "round_walls_s": walls,
        "ops_attempted": attempted,
        "ops_skipped": skipped,
        "ops_failed": len(failures),
        "failures": failures,
        "setup_s_all": setups,
        "correct": all(f["known"] for f in failures),
    }
    failed_frac = len(failures) / attempted if attempted else 1.0
    if trace:
        layer = tracer.metrics()
        layer["trace.overhead_frac"] = walls[1] / walls[0] - 1.0
        layer["failed_frac"] = failed_frac
        record["metrics"] = {n: {"value": layer[n], "unit": u} for n, u in tracing.per_layer_specs()}
        record["spans"] = tracer.spans_json()
    else:
        per_op = [percentile(ls) for ls in lats if ls]
        tail, pct = tail_latency(per_op)
        values = {
            "setup_s": percentile(setups),
            "ops_per_s": len(per_op) / sum(per_op),
            "op_p50_ms": 1000.0 * statistics.median(per_op),
            "op_tail_ms": 1000.0 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        record["op_samples"] = len(per_op)
        record["tail_percentile"] = pct
        record["failed_frac"] = failed_frac
        by_cls: dict[str, list] = {}
        for op, ls in zip(ops, lats):
            if ls:
                by_cls.setdefault(op["cls"], []).append(percentile(ls))
        record["class_p50_ms"] = {c: 1000.0 * statistics.median(v) for c, v in sorted(by_cls.items())}
        record["op_latencies_s"] = {op["id"]: ls for op, ls in zip(ops, lats) if ls}
    record["calibration_s"]["end"] = calibrate()
    return record


def report_lines(rec: dict) -> list[str]:
    n = rec.get("op_samples", rec["ops_attempted"])
    lines = [
        "workload %s seed %d trace %d: %d ops x %d rounds, %d attempted, %d skipped, %d failed"
        % (rec["workload"], rec["environment"]["seed"], rec["trace"], rec["ops"], rec["rounds"],
           rec["ops_attempted"], rec["ops_skipped"], rec["ops_failed"])
    ]
    for name, m in rec["metrics"].items():
        note = ""
        if name == "setup_s" and "setup_s_all" in rec:
            note = "  (p%d of %d set-ups)" % (LATENCY_PERCENTILE, len(rec["setup_s_all"]))
        elif name in ("op_p50_ms", "ops_per_s"):
            note = "  (%d ops, p%d of %d rounds each)" % (n, LATENCY_PERCENTILE, rec["rounds"])
        elif name == "op_tail_ms":
            note = "  (p%.2f of %d ops, %d beyond it)" % (rec["tail_percentile"], n, min(10, n))
        lines.append("%s %.6g %s%s" % (name, m["value"], m["unit"], note))
    if "failed_frac" in rec:
        lines.append(
            "failed_frac %.6g ratio  (%d failed of %d attempted)"
            % (rec["failed_frac"], rec["ops_failed"], rec["ops_attempted"])
        )
    groups = Counter((f["cls"], f["known"], f["reason"]) for f in rec["failures"])
    for (cls, known, reason), count in sorted(groups.items()):
        lines.append("failed %d x %s%s: %s" % (count, cls, " (known)" if known else "", reason))
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cone-eval", "verify-all", "split-basis"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    if not (SRC / "conetheta" / "__init__.py").is_file():
        print("error: no conetheta package under %s" % SRC, file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    try:
        rec = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = rec.pop("spans", None)
    (RESULTS / (stem + ".json")).write_text(json.dumps(rec, indent=1) + "\n")
    if spans is not None:
        (RESULTS / (stem + "-spans.json")).write_text(json.dumps(spans) + "\n")
    for line in report_lines(rec):
        print(line)
    print(
        json.dumps(
            {
                "correct": rec["correct"],
                "attempted": rec["ops_attempted"],
                "failed": rec["ops_failed"],
                "metrics": rec["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

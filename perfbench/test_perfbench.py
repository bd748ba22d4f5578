"""Tests of the benchmark itself: seeded op lists, emitted metric names,
output checks and the untraced path.  Run with
``python -m pytest -q perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, tracing
from perfbench.workloads import KNOWN_SKIPS, LEFT_OUT, NOT_FOUND, WORKLOADS, split_check

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def kernel():
    # never fresh here: dropping loaded conetheta modules would split the
    # test session between two copies of the package
    return run.import_kernel(fresh=False)


def _first(ops, cls):
    return next(op for op in ops if op["cls"] == cls)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_lists_follow_the_seed(kernel, name):
    w = WORKLOADS[name]
    a = json.dumps(w.generate(5, 2, kernel))
    assert a == json.dumps(w.generate(5, 2, kernel))
    assert a != json.dumps(w.generate(6, 2, kernel))


def test_tail_leaves_ten_samples_beyond_it():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail_latency(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == 90.0
    assert run.tail_latency([3.0, 1.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cone-eval", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace:
        assert result["metrics"]["theta.ConeSum.evaluate.calls"]["value"] > 0
    else:
        printed = {line.split()[0] for line in lines[:-1]}
        assert {m["name"] for m in wanted} | {"failed_frac"} <= printed


def test_per_layer_list_matches_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_specs()


def test_perturbed_cone_value_is_a_failed_op(kernel):
    w = WORKLOADS["cone-eval"]
    ops = w.generate(7, 1, kernel)[0]
    for cls in ("n2k1", "n3k0", "n2k1char"):
        op = _first(ops, cls)
        value, tail = w.execute(kernel, w.prepare(kernel, op))
        ref = w.reference(op)
        assert w.check(op, (value, tail), ref) == ""
        assert w.check(op, (value + 1e-6, tail), ref) != ""
        assert w.check(op, (value, 1e-9), ref) != ""


def test_invalid_split_basis_is_a_failed_op(kernel):
    w = WORKLOADS["split-basis"]
    ops = w.generate(7, 1, kernel)[0]
    op = _first(ops, "n3k1")
    basis = w.execute(kernel, w.prepare(kernel, op))
    assert w.check(op, basis, None) == ""
    Q = np.array([[z["im"] for z in row] for row in op["payload"]["omega"]])
    eye = np.eye(3, dtype=np.int64)
    # the generator drops forms that the reference basis splits
    assert split_check(eye, eye, Q, 1, 3) != ""
    assert split_check(basis.N, 2 * basis.M, Q, 1, 3) == "tN @ M != I"
    assert split_check(4 * basis.N, basis.M, Q, 1, 3) != ""
    assert w.check(op, NOT_FOUND, None) != ""
    assert w.check(_first(ops, "hyperbolic"), NOT_FOUND, None) == ""


def _bindings():
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "conetheta" or key.startswith("conetheta."):
            for attr, value in vars(mod).items():
                out[(key, attr)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for cattr, cvalue in vars(value).items():
                        out[(key, attr, cattr)] = cvalue
    return out


def test_untraced_path_leaves_conetheta_unpatched(kernel):
    w = WORKLOADS["cone-eval"]
    ops = [op for op in w.generate(8, 1, kernel)[0] if op["payload"]["n"] <= 3]
    before = _bindings()
    prepared = [w.prepare(kernel, op) for op in ops]
    run.run_pass(w, kernel, ops, prepared)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__perfbench_original__") for v in after.values())

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(kernel.theta.ConeSum.evaluate, "__perfbench_original__")
        assert hasattr(kernel.theta.enumerate_cone, "__perfbench_original__")
        run.run_pass(w, kernel, ops, prepared)
    finally:
        tracer.uninstall()
    assert all(_bindings()[k] is before[k] for k in before)
    assert tracer.calls["theta.ConeSum.evaluate"] == len(ops)
    assert tracer.metrics()["theta.ConeSum.evaluate.self_s"] > 0


def test_verify_errors_outside_the_skip_set_are_failed_ops(kernel):
    w = WORKLOADS["verify-all"]
    ops = w.generate(9, 1, kernel)[0]
    skip_op = _first(ops, "n2/modular-case3-1d")
    assert not any(op["cls"] in LEFT_OUT for op in ops)
    wedge_op = _first(ops, "n2/wedge")
    inst = kernel.serialize.parse_instance(wedge_op["payload"])
    report = kernel.cli.VerificationReport("wedge")
    report.add("ok", 0.0, 1.0)

    def raises(exc):
        def suite(_inst):
            raise exc

        return suite

    cases = [
        (wedge_op, raises(kernel.errors.RadiusOverflow("wedge cutoff 96 exceeded")), "raised RadiusOverflow"),
        (wedge_op, raises(kernel.errors.ValidationError("precondition")), "outside the seed's skip set"),
        (skip_op, raises(kernel.errors.NonconvergentContour("contour")), "raised NonconvergentContour"),
        (skip_op, lambda _inst: report, "seed skips this suite"),
    ]
    ops_, prepared = [c[0] for c in cases], [(inst, c[1]) for c in cases]
    _, outs = run.run_pass(w, kernel, ops_, prepared)
    reasons = run.judge(w, ops_, outs, [None] * len(cases))
    for (op, _, expected), reason in zip(cases, reasons):
        assert expected in reason
        assert not w.known_failure(op, reason)

    # the seed's own precondition failure is a skip, neither timed nor failed
    _, outs = run.run_pass(w, kernel, [skip_op], [(inst, raises(kernel.errors.ValidationError("n = 1")))])
    assert run.judge(w, [skip_op], outs, [None]) == [None]
    # and every op of the skip set is skipped by the real suites
    skipped = [op for op in ops if op["cls"] in KNOWN_SKIPS]
    _, outs = run.run_pass(w, kernel, skipped, [w.prepare(kernel, op) for op in skipped])
    assert run.judge(w, skipped, outs, [None] * len(skipped)) == [None] * len(KNOWN_SKIPS)

"""Smoke test for the benchmark itself.

    python3 -m pytest perfbench

Runs every workload once on its smallest inputs, untraced and traced,
and checks that every metric BENCHMARK.json names is reported with its
unit and that no operation failed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, *extra):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_and_no_failures(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_samples_beyond():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from run import tail

    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    # Too few samples for ten beyond above the median: the largest one.
    assert tail([float(i) for i in range(15)]) == (14.0, 100.0)


def test_tracer_counts_spans_and_restores_bindings():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    import bmt.construct
    import bmt.decompose
    import bmt.detect
    from tracer import Tracer

    xor_translate = bmt.detect.xor_translate
    double = bmt.construct.double
    with Tracer() as tracer:
        assert bmt.detect.xor_translate is not xor_translate
        bmt.decompose.decompose_i4tf(double(bmt.construct.sag(3)))
    assert bmt.detect.xor_translate is xor_translate
    assert bmt.construct.STEP_OPS["double"] is double
    assert tracer.stats["decompose.decompose_i4tf"][0] == 1
    assert tracer.stats["construct.replay"][0] >= 1
    assert tracer.stats["construct.step"][0] >= 1
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["decompose.decompose_i4tf"]
    assert all(s is not None for s in tracer.spans)


def test_canon_check_ties_output_to_the_input_class():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    from bmt.matroid import Matroid, canonical_form, serialize_bmat
    from evidence import check_canon
    from workloads import _build

    _, ops = _build("canon-large", 1)
    op = ops[0]
    canon = canonical_form(op.input.matroid)[0]
    good = serialize_bmat(canon)
    assert check_canon(op, 0, good, {good}, {}) is None
    # Same-shaped wrong forms, printed alike for both copies: the
    # construction itself, and the canonical form with one point moved.
    low = canon.bits & -canon.bits
    free = next(1 << p for p in range(1, 1 << canon.n) if not canon.bits >> p & 1)
    for wrong in (op.input.reference, Matroid(canon.n, canon.bits - low + free)):
        assert wrong.size == canon.size and wrong != canon
        text = serialize_bmat(wrong)
        assert check_canon(op, 0, text, {text}, {}) is not None

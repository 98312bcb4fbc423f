"""Benchmark for bmt: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide-large --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports bmt from src/.  It drives
bmt.cli.main in-process, one verb call per operation, as a closed loop
with one client, over the seeded op list of workloads.py.  It runs whole
passes of the list until --seconds have gone by, so every run measures
each input equally often, then checks the evidence every call printed.
Every time it reports is scaled to a reference speed of the host, by the
runs of reference.py's computation made around it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones, from a run that spends half its time untraced and half traced.
Inputs, their constructions and the trace's spans are left under
.perfbench/<workload>-s<seed>/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from reference import REFERENCE_S, reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
# The reference computation runs between operations for this share of
# the operations' time; see reference.py.
REFERENCE_SHARE = 0.05
REFERENCE_WINDOW = 5


def _import_bmt():
    if not os.path.isfile(os.path.join(SRC, "bmt", "__init__.py")):
        raise SystemExit("error: src/bmt not found; run from the repository root")
    sys.path[:0] = [SRC, HERE]
    import bmt

    if os.path.dirname(os.path.dirname(os.path.abspath(bmt.__file__))) != SRC:
        raise SystemExit(f"error: imported bmt from {bmt.__file__}, not {SRC}")


@dataclass
class Phase:
    # Per op index, the wall time of each of its calls, one per pass.
    latencies: list[list[float]]
    # Per op index and pass, the factor that turns that call's time into
    # reference-speed time: REFERENCE_S over the median of the reference
    # runs around the call, REFERENCE_WINDOW on each side.
    scales: list[list[float]]
    # Per op index: (exit code, stdout) -> number of calls that gave it.
    outputs: list[dict]

    @property
    def calls(self) -> int:
        return sum(len(lat) for lat in self.latencies)

    @property
    def scale(self) -> float:
        """The phase's median scale, for times summed over the phase."""
        return statistics.median(s for sc in self.scales for s in sc)

    def times(self, scaled: bool) -> list[list[float]]:
        if not scaled:
            return self.latencies
        return [[t * f for t, f in zip(*pair)] for pair in zip(self.latencies, self.scales)]

    def op_medians(self, scaled: bool = True) -> list[float]:
        """Each op's median latency over the run's passes.  The latency
        quantiles are taken over these, so a burst of host noise cannot
        reorder the ops, and the quantile's rank does not move with the
        number of passes a run happened to fit."""
        return [statistics.median(t) for t in self.times(scaled)]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Median over passes of ops completed per second spent in them;
        the median keeps a few seconds of a busier or idler host from
        setting the figure."""
        return statistics.median(len(p) / sum(p) for p in zip(*self.times(scaled)))


def run_passes(ops, seconds: float, tracer=None) -> Phase:
    """Whole passes over ops until seconds have elapsed, at least one.
    After each call the reference computation runs as often as needed to
    keep its share of the time at REFERENCE_SHARE."""
    from bmt.cli import main

    outputs: list[dict] = [{} for _ in ops]
    latencies: list[list[float]] = [[] for _ in ops]
    # Per call, the index of the first reference run made after it.
    following: list[list[int]] = [[] for _ in ops]
    references: list[float] = []
    calls = 0
    op_time = reference_time = 0.0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            argv = op.argv
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op_id = calls
            calls += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                key = (code, out.getvalue())
            except (Exception, SystemExit) as exc:
                # A raising call is a failed operation, not a benchmark crash.
                key = (None, repr(exc))
            latencies[i].append(time.perf_counter() - t0)
            outputs[i][key] = outputs[i].get(key, 0) + 1
            following[i].append(len(references))
            op_time += latencies[i][-1]
            while reference_time < REFERENCE_SHARE * op_time:
                references.append(reference())
                reference_time += references[-1]
        if time.perf_counter() - start >= seconds:
            break
    references += [reference() for _ in range(REFERENCE_WINDOW)]
    scales = [
        [
            REFERENCE_S
            / statistics.median(references[max(0, j - REFERENCE_WINDOW) : j + REFERENCE_WINDOW])
            for j in idx
        ]
        for idx in following
    ]
    return Phase(latencies, scales, outputs)


def smallest_per_verb(ops) -> list:
    best: dict = {}
    for op in ops:
        if op.verb not in best or op.size < best[op.verb].size:
            best[op.verb] = op
    return list(best.values())


def smoke_ops(ops) -> list:
    """The smallest input of each verb, with its canon partner."""
    keep = {id(op) for op in smallest_per_verb(ops)}
    groups = {op.group for op in ops if id(op) in keep and op.group}
    return [op for op in ops if id(op) in keep or (op.group and op.group in groups)]


def measure_setup(warm_ops, repeats: int) -> tuple[float, float]:
    """Median time, over repeats, of a fresh interpreter importing bmt and
    making one call of each verb on the workload's smallest input.  Each
    try is scaled by the reference runs the probe makes around its work,
    whose time it leaves out.  Returns (scaled, wall) seconds."""
    argvs = json.dumps([op.argv for op in warm_ops])
    times, scaled = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), argvs],
            cwd=ROOT,
            capture_output=True,
            timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
        ref, ref_total = json.loads(proc.stdout)
        times.append(wall - ref_total)
        scaled.append(times[-1] * REFERENCE_S / ref)
    return statistics.median(scaled), statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it; returns (value, percentile).  A list too short for that rank to
    lie above the median gives its largest sample instead."""
    s = sorted(latencies)
    k = len(s) - 11
    if k < len(s) // 2:
        k = len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def merge(phases: list[Phase]) -> list[dict]:
    merged: list[dict] = [{} for _ in phases[0].outputs]
    for ph in phases:
        for i, outs in enumerate(ph.outputs):
            for key, n in outs.items():
                merged[i][key] = merged[i].get(key, 0) + n
    return merged


def end_to_end(phase: Phase, setup_s: float, rss_mb: float, scaled: bool) -> dict:
    medians = phase.op_medians(scaled)
    return {
        "ops_per_s": (phase.ops_per_s(scaled), "1/s"),
        "op_p50_ms": (statistics.median(medians) * 1e3, "ms"),
        "op_tail_ms": (tail(medians)[0] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, untraced: Phase, traced: Phase, ops) -> dict:
    from tracer import LAYERS

    n = traced.calls
    metrics = {}
    for name in LAYERS:
        calls, self_s, _ = tracer.stats[name]
        metrics[f"{name}.calls"] = (calls / n, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / n * traced.scale, "s/op")
    calls, _, hits = tracer.stats["detect.find_induced_is"]
    metrics["detect.find_induced_is.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    classes = labeled = 0
    for op, outs in zip(ops, traced.outputs):
        if op.census is None:
            continue
        for (code, text), count in outs.items():
            if code == 0:
                rep = json.loads(text)
                classes += count * rep["iso_classes"]
                labeled += count * rep["total_labeled"]
    canon_calls = tracer.stats["matroid.canonical_form"][0]
    metrics["census.canon_per_class"] = (canon_calls / classes if classes else 0.0, "ratio")
    metrics["census.dedup_ratio"] = (classes / labeled if labeled else 0.0, "ratio")
    metrics["trace.ops_per_s"] = (traced.ops_per_s(), "1/s")
    metrics["trace.overhead_ratio"] = (untraced.ops_per_s() / traced.ops_per_s(), "ratio")
    return metrics


def write_manifest(path: str, inputs) -> None:
    with open(path, "w") as fh:
        json.dump(
            [{"file": os.path.basename(i.path), **i.construction} for i in inputs],
            fh,
            indent=1,
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="one pass over the smallest input of each verb, one set-up",
    )
    args = ap.parse_args()
    _import_bmt()
    from evidence import verify
    from tracer import Tracer
    from workloads import WORKLOADS, build_workload

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-s{args.seed}")
    inputs, ops = build_workload(args.workload, args.seed, workdir)
    write_manifest(os.path.join(workdir, "inputs.json"), inputs)
    warm = smallest_per_verb(ops)
    if args.smoke:
        ops = smoke_ops(ops)
    seconds = 0.0 if args.smoke else args.seconds

    if args.trace == 0:
        setup_s, setup_wall = measure_setup(warm, 1 if args.smoke else SETUP_REPEATS)
        run_passes(warm, 0.0)
        phase = run_passes(ops, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [phase]
        metrics = end_to_end(phase, setup_s, rss_mb, True)
        wall = end_to_end(phase, setup_wall, rss_mb, False)
    else:
        run_passes(warm, 0.0)
        untraced = run_passes(ops, seconds / 2)
        with Tracer() as tracer:
            traced = run_passes(ops, seconds / 2, tracer)
        tracer.write_spans(os.path.join(workdir, "spans.jsonl"))
        phases = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced, ops)

    outputs = merge(phases)
    verdicts = verify(ops, outputs)
    attempted = sum(ph.calls for ph in phases)
    failed = 0
    for op, outs, verdict in zip(ops, outputs, verdicts):
        for key, count in outs.items():
            if verdict[key] is not None:
                failed += count
                print(f"FAIL {' '.join(op.argv)}: {verdict[key]}")

    dims = sorted({op.size[0] for op in ops})
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(ops)} ops per pass, dims {dims[0]}-{dims[-1]}, "
        f"{attempted} calls, failed_frac {failed / attempted:.6g} ({failed} of {attempted})"
    )
    if args.trace == 0:
        _, pct = tail(phase.op_medians())
        passes = len(phase.latencies[0])
        print(f"  op_tail_ms is p{pct:.1f} of {len(ops)} op medians, each over {passes} passes")
        print(
            f"  the reference took {REFERENCE_S / phase.scale * 1e3:.3f} ms (median); "
            f"times are scaled by {phase.scale:.4f} (median)"
        )
        print(f"  {'metric':30s} {'reported':>14s} {'wall clock':>14s}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:30s} {value:14.6g} {wall[name][0]:14.6g} {unit}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:44s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into bmt's public functions, recorded from outside
the package.

Entering a Tracer rebinds every reference to a traced function: the
globals of each loaded bmt.* module, the values of construct.STEP_OPS,
and Certificate.replay.  Leaving it puts the originals back, so a traced
and an untraced phase run the same code.  A layer's self time is its
call's duration minus the time spent in traced calls it made.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# One span per call: name, start, end, parent span, operation id.
SPANNED = (
    "cli.main",
    "matroid.parse_bmat",
    "matroid.serialize_bmat",
    "matroid.restrict_to_closure",
    "matroid.induced_restriction",
    "matroid.canonical_form",
    "matroid.affine_witness",
    "gf2.canonical_form_bits",
    "gf2.linear_system_solve",
    "gf2.invert",
    "gf2.functional_kernel",
    "gf2.closure",
    "detect.find_triangle",
    "detect.find_induced_is",
    "detect.find_ai4_violation",
    "detect.find_induced_odd_circuit",
    "detect.critical_number",
    "detect.find_doubling_element",
    "detect.recognize_sag",
    "decompose.decompose_i4tf",
    "decompose.decompose_affine_step",
    "decompose.find_special_hyperplane",
    "decompose.strip_doublings",
    "census.enumerate_generated",
)
# Hot kernels called up to millions of times per operation: a count and
# a self time only, no span per call.
AGGREGATED = ("matroid.xor_translate", "gf2.rref")
REPLAY = "construct.replay"
STEP = "construct.step"
LAYERS = SPANNED + (REPLAY,) + AGGREGATED + (STEP,)


class Tracer:
    """Context manager that wraps the traced functions while active."""

    def __init__(self) -> None:
        self.op_id = -1
        # name -> [calls, self seconds, calls returning something not None]
        self.stats = {name: [0, 0.0, 0] for name in LAYERS}
        self.spans: list[tuple] = []
        self._stack: list[list] = [[-1, 0.0]]
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, spanned: bool):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            # Children of an aggregated call hang off the nearest span.
            sid = parent[0]
            if spanned:
                sid = len(spans)
                spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
                if spanned:
                    spans[sid] = (name, start, end, parent[0], self.op_id)
            if result is not None:
                stats[2] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        construct = importlib.import_module("bmt.construct")
        wrappers: dict[int, object] = {}
        for name in SPANNED + AGGREGATED:
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module(f"bmt.{mod}"), attr)
            wrappers[id(fn)] = self._wrap(name, fn, name in SPANNED)
        for fn in construct.STEP_OPS.values():
            wrappers[id(fn)] = self._wrap(STEP, fn, False)
        for key, fn in construct.STEP_OPS.items():
            self._rebind(construct.STEP_OPS, key, wrappers[id(fn)])
        modules = [m for k, m in sys.modules.items() if k == "bmt" or k.startswith("bmt.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._rebind(vars(mod), attr, w)
        replay = construct.Certificate.replay
        self._undo.append((construct.Certificate, "replay", replay))
        construct.Certificate.replay = self._wrap(REPLAY, replay, True)
        return self

    def _rebind(self, namespace: dict, key: str, value) -> None:
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = value

    def __exit__(self, *exc) -> None:
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, op = span
                    fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")

"""Checks on the evidence each operation printed, run outside timing.

Each check returns None when the output is right and a one-line reason
when it is not.  The checks use only the library's public replay,
restriction, witness and canonical-form functions.
"""

from __future__ import annotations

import json

from bmt.construct import certificate_from_json
from bmt.detect import Witness
from bmt.gf2 import parity
from bmt.matroid import (
    Matroid,
    canonical_form,
    from_points,
    parse_bmat,
    restrict_to_closure,
)

from workloads import CENSUS_OPS, Op

# Witness kind and parameter each failing check property must carry.
PROP_WITNESS = {
    "triangle": ("triangle", None),
    "i4": ("induced_is", 4),
    "i3": ("induced_is", 3),
    "ai4": ("ai4_violation", None),
    "oddcircuit": ("odd_circuit", None),
    "affine": ("odd_circuit", None),
}


def _witness(d: dict) -> Witness:
    return Witness(d["kind"], tuple(d["points"]), d.get("param"))


def check_decompose(op: Op, code: int, out: str) -> str | None:
    m = op.input.matroid
    obj = json.loads(out)
    if obj["outcome"] == "not_member":
        if op.input.member:
            return "member reported as non-member"
        w = _witness(obj["witness"])
        if code != 1 or w.kind not in ("triangle", "induced_is"):
            return f"non-member with exit {code} and witness {w.kind}"
        return None if w.verify(m) else "witness fails to verify"
    if code != 0:
        return f"member with exit {code}"
    rep = certificate_from_json(json.dumps(obj["certificate"])).replay()
    if obj["outcome"] == "affine_chain":
        target = m
    elif obj["outcome"] == "doubled_sag":
        target = restrict_to_closure(m).matroid
    else:
        return f"unknown outcome {obj['outcome']!r}"
    return None if rep == target else "certificate does not replay to the input"


def check_check(op: Op, code: int, out: str) -> str | None:
    m = op.input.matroid
    props = json.loads(out)["props"]
    wanted = op.tail[op.tail.index("--props") + 1].split(",")
    if sorted(props) != sorted(wanted):
        return "reported properties differ from the requested ones"
    failed = False
    for name, frag in props.items():
        if name == "chi":
            if not isinstance(frag["value"], int) or frag["value"] < 0:
                return "bad critical number"
            continue
        if op.input.member and name in ("triangle", "i4") and not frag["pass"]:
            return f"member fails {name}"
        if name == "affine" and frag["pass"]:
            w = frag["functional"]
            if not all(parity(w & e) for e in m.points):
                return "affine functional misses an element"
            continue
        if frag["pass"]:
            continue
        failed = True
        if frag["witness"] is None:
            return f"{name} fails without a witness"
        w = _witness(frag["witness"])
        kind, param = PROP_WITNESS[name]
        if w.kind != kind or (param is not None and w.param != param):
            return f"{name} witness has kind {w.kind}"
        if not w.verify(m):
            return f"{name} witness fails to verify"
    return None if code == (1 if failed else 0) else f"exit {code} disagrees with the properties"


def check_enumerate(op: Op, code: int, out: str) -> str | None:
    obj = json.loads(out)
    want = CENSUS_OPS[op.census]
    if code != 0 or obj["iso_classes"] != want or len(obj["representatives"]) != want:
        return f"census {op.census} gave {obj['iso_classes']} classes, want {want}"
    for pts in obj["representatives"]:
        m = from_points(obj["dim"], pts)
        if canonical_form(m)[0] != m:
            return "representative is not canonical"
    return None


def check_canon(
    op: Op, code: int, out: str, partner_outs: set[str], forms: dict[Matroid, Matroid]
) -> str | None:
    """forms caches the canonical form of each construction before
    relabeling, so each class is computed once a run."""
    ref = op.input.reference
    if ref not in forms:
        forms[ref] = canonical_form(ref)[0]
    if code != 0 or parse_bmat(out) != forms[ref]:
        return "canonical form differs from that of the input's construction"
    if partner_outs != {out}:
        return "relabeled copies have different canonical forms"
    return None


CHECKS = {"decompose": check_decompose, "check": check_check, "enumerate": check_enumerate}


def verify(ops: list[Op], outputs: list[dict]) -> list[dict]:
    """Failure reason, or None, for every distinct output of every op.

    outputs[i] maps (exit code, stdout) to how often op i produced it; a
    call that raised is recorded with exit code None.  The result maps
    the same keys to verdicts.
    """
    partners: dict[str, list[int]] = {}
    forms: dict[Matroid, Matroid] = {}
    for i, op in enumerate(ops):
        if op.group:
            partners.setdefault(op.group, []).append(i)
    verdicts = []
    for i, op in enumerate(ops):
        seen = {}
        for code, out in outputs[i]:
            if code is None:
                seen[(code, out)] = f"raised {out}"
                continue
            try:
                if op.verb == "canon":
                    others = set()
                    for j in partners[op.group]:
                        others |= {o for _, o in outputs[j]}
                    seen[(code, out)] = check_canon(op, code, out, others, forms)
                else:
                    seen[(code, out)] = CHECKS[op.verb](op, code, out)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                seen[(code, out)] = f"unreadable output: {exc!r}"
        verdicts.append(seen)
    return verdicts


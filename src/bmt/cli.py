"""Command line front end.

Exit codes: 0 success or member, 1 non-member or failed property, 2 usage
or format error, 3 internal falsification signal (a theorem violation or a
witness that fails to verify), 4 internal error (any other exception, with
its type and message on stderr).  Machine-readable output goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from types import ModuleType
from typing import TYPE_CHECKING, Callable

from .errors import FormatError, TheoremViolation
from .matroid import CLASS_TAGS, MAX_DIM, Matroid, canonical_form, parse_bmat, serialize_bmat

if TYPE_CHECKING:
    from .detect import Witness

PROP_NAMES = ("triangle", "i4", "i3", "ai4", "affine", "oddcircuit", "chi")
DEFAULT_PROPS = "triangle,i4"
# Most files one `random` call may write.
MAX_COUNT = 10_000


def _read_matroid(path: str) -> Matroid:
    with open(path) as fh:
        return parse_bmat(fh.read())


def _witness_dict(w: Witness) -> dict:
    d = {"kind": w.kind, "points": list(w.points)}
    if w.param is not None:
        d["param"] = w.param
    return d


def _check_prop(
    m: Matroid, name: str, odd_circuit: Callable[[], Witness | None], detect: ModuleType
) -> tuple[bool, str, dict]:
    """Returns (passed, text line, json fragment) for one property, one
    of PROP_NAMES, from the searches of the `detect` module.

    odd_circuit() gives find_induced_odd_circuit(m), already verified;
    `affine` and `oddcircuit` share it.
    """
    if name == "triangle":
        w = detect.find_triangle(m)
    elif name == "i4":
        w = detect.find_induced_is(m, 4)
    elif name == "i3":
        w = detect.find_induced_is(m, 3)
    elif name == "ai4":
        w = detect.find_ai4_violation(m)
    elif name == "oddcircuit":
        w = odd_circuit()
    elif name == "affine":
        aw = detect.affine_witness(m)
        if aw is not None:
            return True, f"affine: yes (functional {aw})", {"pass": True, "functional": aw}
        w = odd_circuit()
        if w is None:
            raise TheoremViolation("non-affine set without an induced odd circuit")
        pts = " ".join(str(p) for p in w.points)
        return False, f"affine: no (odd circuit {pts})", {
            "pass": False,
            "witness": _witness_dict(w),
        }
    elif name == "chi":
        value = detect.critical_number(m)
        return True, f"chi: {value}", {"pass": True, "value": value}
    if w is None:
        return True, f"{name}: none", {"pass": True, "witness": None}
    if name != "oddcircuit":
        w = w.checked(m)
    pts = " ".join(str(p) for p in w.points)
    return False, f"{name}: {pts}", {"pass": False, "witness": _witness_dict(w)}


def _cmd_check(args) -> int:
    from . import detect

    m = _read_matroid(args.file)
    names = list(dict.fromkeys(s.strip() for s in args.props.split(",") if s.strip()))
    if not names:
        raise FormatError("no property to check")
    for name in names:
        if name not in PROP_NAMES:
            raise FormatError(f"unknown property {name!r}")

    @functools.cache
    def odd_circuit() -> Witness | None:
        # Searched and verified once, by whichever property asks first.
        w = detect.find_induced_odd_circuit(m)
        return w and w.checked(m)

    results = {}
    lines = []
    failed = False
    for name in names:
        ok, line, frag = _check_prop(m, name, odd_circuit, detect)
        results[name] = frag
        lines.append(line)
        if not ok:
            failed = True
    if args.json:
        print(json.dumps({"file": args.file, "dim": m.n, "props": results}))
    else:
        for line in lines:
            print(line)
    return 1 if failed else 0


def _cmd_decompose(args) -> int:
    from .decompose import DoubledSag, NotMember, decompose_i4tf

    m = _read_matroid(args.file)
    res = decompose_i4tf(m)
    oc = res.outcome
    if isinstance(oc, NotMember):
        payload = json.dumps({"outcome": "not_member", "witness": _witness_dict(oc.witness)})
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        if args.json:
            print(payload)
        else:
            pts = " ".join(str(p) for p in oc.witness.points)
            print(f"NotMember {oc.witness.kind}: {pts}")
        return 1
    cert_json = oc.certificate.to_json()
    if isinstance(oc, DoubledSag):
        head = f"DoubledSag k={oc.doublings} n={oc.sag_param}"
        meta = {"outcome": "doubled_sag", "doublings": oc.doublings, "sag": oc.sag_param}
    else:
        head = f"AffineChain steps={len(oc.certificate.steps)}"
        meta = {"outcome": "affine_chain", "steps": len(oc.certificate.steps)}
    if res.restriction.rank_deficient:
        meta["rank_deficient"] = True
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(cert_json + "\n")
    if args.json:
        meta["certificate"] = json.loads(cert_json)
        print(json.dumps(meta))
    else:
        print(head)
        if not args.out:
            print(cert_json)
    return 0


def _cmd_build(args) -> int:
    from .construct import certificate_from_json

    with open(args.cert) as fh:
        cert = certificate_from_json(fh.read())
    m = cert.replay()
    text = serialize_bmat(m)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_canon(args) -> int:
    m = _read_matroid(args.file)
    cm, _ = canonical_form(m)
    sys.stdout.write(serialize_bmat(cm))
    return 0


def _cmd_enumerate(args) -> int:
    from .census import enumerate_generated

    rep = enumerate_generated(args.dim, getattr(args, "class"), threads=args.threads)
    if args.out:
        rep.write_representatives(args.out)
        path = os.path.join(args.out, f"{rep.tag}-d{rep.dim}-report.json")
        with open(path, "w") as fh:
            fh.write(rep.to_json() + "\n")
    if args.json:
        print(rep.to_json())
    else:
        print(rep.table())
    return 0


def _cmd_random(args) -> int:
    from .census import random_members

    if not 1 <= args.dim <= MAX_DIM:
        raise FormatError(f"dimension must be between 1 and {MAX_DIM}")
    if not 1 <= args.count <= MAX_COUNT:
        raise FormatError(f"count must be between 1 and {MAX_COUNT}")
    members = random_members(args.dim, args.count, args.seed, getattr(args, "class"))
    os.makedirs(args.out, exist_ok=True)
    tag = getattr(args, "class")
    paths = []
    for i, m in enumerate(members):
        path = os.path.join(
            args.out, f"random-{tag}-d{args.dim}-s{args.seed}-{i:04d}.bmat"
        )
        with open(path, "w") as fh:
            fh.write(serialize_bmat(m))
        paths.append(path)
    if args.json:
        print(json.dumps({"files": paths}))
    else:
        for p in paths:
            print(p)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    rep = run_selftest(args.level)
    if args.json:
        print(rep.to_json())
    else:
        print(rep.table())
    return 0 if rep.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bmt", description="binary matroid structure toolkit"
    )
    top.add_argument("--json", action="store_true", help="JSON output on stdout")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="test properties of a point set")
    p.add_argument("file")
    p.add_argument("--props", default=DEFAULT_PROPS, help=",".join(PROP_NAMES))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="membership with certificate or witness")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="write certificate or witness JSON here")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("build", help="replay a certificate to a BMAT file")
    p.add_argument("cert")
    p.add_argument("-o", "--out", help="write the BMAT text here")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("canon", help="print the canonical form")
    p.add_argument("file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("enumerate", help="iso-class census of a generated class")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--class", choices=CLASS_TAGS, required=True)
    p.add_argument("--out", help="directory for representatives and report")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("random", help="sample class members to BMAT files")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--class", choices=CLASS_TAGS, required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("selftest", help="run the verification suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_selftest)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Exit codes: 0 success or member, 1 non-member or failed property, 2 usage
or format error, 3 internal falsification signal (a theorem violation or a
witness that fails to verify), 4 internal error (any other exception, with
its type and message on stderr).  Machine-readable output goes to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

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


def _cmd_check(args) -> int:
    from . import detect

    m = _read_matroid(args.file)
    names = list(dict.fromkeys(s.strip() for s in args.props.split(",") if s.strip()))
    if not names:
        raise FormatError("no property to check")
    for name in names:
        if name not in PROP_NAMES:
            raise FormatError(f"unknown property {name!r}")
    # The search behind each property but two: affine reads oddcircuit's
    # when E has no affine functional, and chi reads critical_number.
    searches = {
        "triangle": lambda: detect.find_triangle(m),
        "i4": lambda: detect.find_induced_is(m, 4),
        "i3": lambda: detect.find_induced_is(m, 3),
        "ai4": lambda: detect.find_ai4_violation(m),
        "oddcircuit": lambda: detect.find_induced_odd_circuit(m),
    }
    found = {}  # search name -> its witness, verified, or None
    results = {}
    lines = []
    for name in names:
        if name == "chi":
            value = detect.critical_number(m)
            frag, line = {"pass": True, "value": value}, f"chi: {value}"
        elif name == "affine" and (aw := detect.affine_witness(m)) is not None:
            frag, line = {"pass": True, "functional": aw}, f"affine: yes (functional {aw})"
        else:
            search = "oddcircuit" if name == "affine" else name
            if search not in found:
                w = searches[search]()
                found[search] = w and w.checked(m)
            w = found[search]
            if w is None and search == "oddcircuit" and detect.affine_witness(m) is None:
                raise TheoremViolation("non-affine set without an induced odd circuit")
            if w is None:
                frag, line = {"pass": True, "witness": None}, f"{name}: none"
            else:
                pts = " ".join(str(p) for p in w.points)
                frag = {"pass": False, "witness": _witness_dict(w)}
                line = f"affine: no (odd circuit {pts})" if name == "affine" else f"{name}: {pts}"
        results[name] = frag
        lines.append(line)
    if args.json:
        print(json.dumps({"file": args.file, "dim": m.n, "props": results}))
    else:
        print("\n".join(lines))
    return 0 if all(r["pass"] for r in results.values()) else 1


def _cmd_decompose(args) -> int:
    from .decompose import DoubledSag, NotMember, decompose_i4tf

    m = _read_matroid(args.file)
    res = decompose_i4tf(m)
    oc = res.outcome
    # doc is the --json document, saved what --out gets, text the plain lines.
    if isinstance(oc, NotMember):
        doc = {"outcome": "not_member", "witness": _witness_dict(oc.witness)}
        saved = json.dumps(doc)
        pts = " ".join(str(p) for p in oc.witness.points)
        text = f"NotMember {oc.witness.kind}: {pts}"
    else:
        saved = oc.certificate.to_json()
        if isinstance(oc, DoubledSag):
            text = f"DoubledSag k={oc.doublings} n={oc.sag_param}"
            doc = {"outcome": "doubled_sag", "doublings": oc.doublings, "sag": oc.sag_param}
        else:
            text = f"AffineChain steps={len(oc.certificate.steps)}"
            doc = {"outcome": "affine_chain", "steps": len(oc.certificate.steps)}
        if res.restriction.rank_deficient:
            doc["rank_deficient"] = True
        doc["certificate"] = json.loads(saved)
        if not args.out:
            text += "\n" + saved
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(saved + "\n")
    print(json.dumps(doc) if args.json else text)
    return 1 if isinstance(oc, NotMember) else 0


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

    rep = enumerate_generated(args.dim, args.tag, threads=args.threads)
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
    members = random_members(args.dim, args.count, args.seed, args.tag)
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for i, m in enumerate(members):
        path = os.path.join(
            args.out, f"random-{args.tag}-d{args.dim}-s{args.seed}-{i:04d}.bmat"
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


# Each verb's help line, handler and add_argument calls, as (names, keywords).
VERBS = {
    "check": ("test properties of a point set", _cmd_check, [
        (["file"], {}),
        (["--props"], dict(default=DEFAULT_PROPS, help=",".join(PROP_NAMES))),
    ]),
    "decompose": ("membership with certificate or witness", _cmd_decompose, [
        (["file"], {}),
        (["-o", "--out"], dict(help="write certificate or witness JSON here")),
    ]),
    "build": ("replay a certificate to a BMAT file", _cmd_build, [
        (["cert"], {}),
        (["-o", "--out"], dict(help="write the BMAT text here")),
    ]),
    "canon": ("print the canonical form", _cmd_canon, [(["file"], {})]),
    "enumerate": ("iso-class census of a generated class", _cmd_enumerate, [
        (["--dim"], dict(type=int, required=True)),
        (["--class"], dict(dest="tag", choices=CLASS_TAGS, required=True)),
        (["--out"], dict(help="directory for representatives and report")),
        (["--threads"], dict(type=int, default=1)),
    ]),
    "random": ("sample class members to BMAT files", _cmd_random, [
        (["--dim"], dict(type=int, required=True)),
        (["--count"], dict(type=int, required=True)),
        (["--seed"], dict(type=int, required=True)),
        (["--class"], dict(dest="tag", choices=CLASS_TAGS, required=True)),
        (["--out"], dict(default=".", help="output directory")),
    ]),
    "selftest": ("run the verification suites", _cmd_selftest, [
        (["--level"], dict(choices=("quick", "full"), default="quick")),
    ]),
}


class _VerbParser:
    """Stands in for one verb's parser among the subparsers.

    argparse uses a subparser only to call its parse_known_args with the
    verb's arguments, so the real parser is built there: a call builds
    none for the verbs it does not name.
    """

    def __init__(self, arguments: list, **kwargs) -> None:
        self.arguments = arguments
        self.kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self.kwargs)
        for names, kw in self.arguments:
            parser.add_argument(*names, **kw)
        return parser.parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bmt", description="binary matroid structure toolkit"
    )
    top.add_argument("--json", action="store_true", help="JSON output on stdout")
    sub = top.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)
    for verb, (help_line, _, arguments) in VERBS.items():
        sub.add_parser(verb, help=help_line, arguments=arguments)
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _, run, _ = VERBS[args.verb]
        return run(args)
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

"""Isomorphism census of the generated classes, plus brute-force sweeps.

The affine and ai4 classes grow from a one-dimensional base by the step
grammar in GRAMMAR.  One level-synchronous BFS (walk_grammar) serves the
census, the ai4 normal forms and the selftest's alpha-only set.  It never
walks raw step sequences: isomorphic intermediates produce isomorphic
successors, so each level is deduplicated by canonical form before
expanding.  That keeps the search proportional to the class size instead
of the sequence count.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import time
from typing import Iterable, Iterator, NamedTuple

from .construct import STEP_OPS, Certificate, sag
from .decompose import NotMember, decompose_i4tf
from .detect import i4tf_witness
from .errors import TheoremViolation
from .gf2 import compose, identity_map, invert, random_invertible_map, rank
from .matroid import CLASS_TAGS, Matroid, canonical_form, is_affine, serialize_bmat

DIM_BOUND = 8

_BASES = (Matroid(1, 0), Matroid(1, 2))

# The step grammar: class tag -> state -> ordered (step name, next state)
# pairs.  Each class starts in its first state.  An ai4 certificate takes
# at most one beta0, after which only alpha steps follow.
GRAMMAR = {
    "i4tf_affine": {"S": (("expand0", "S"), ("expand1", "S"))},
    "ai4": {
        "A": (("alpha0", "A"), ("alpha1", "A"), ("beta1", "A"), ("beta0", "B")),
        "B": (("alpha0", "B"), ("alpha1", "B")),
    },
}


class CensusReport(NamedTuple):
    """Iso-class census of one generated class at one dimension.

    total_labeled counts the distinct point sets produced at the target
    dimension before isomorphism dedup; it depends on the per-level merge
    and is reported as derived data only.
    """

    dim: int
    tag: str
    total_labeled: int
    iso_classes: int
    representatives: tuple[Matroid, ...]
    elapsed: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "class": self.tag,
                "total_labeled": self.total_labeled,
                "iso_classes": self.iso_classes,
                "representatives": [list(m.points) for m in self.representatives],
                "elapsed": round(self.elapsed, 3),
            }
        )

    def table(self) -> str:
        head = (
            f"class {self.tag} dim {self.dim}: "
            f"{self.iso_classes} classes, {self.total_labeled} labeled, "
            f"{self.elapsed:.2f}s"
        )
        lines = [head, f"{'idx':>4} {'size':>5} {'rank':>5} {'affine':>7}"]
        for i, m in enumerate(self.representatives):
            aff = "yes" if is_affine(m) else "no"
            lines.append(f"{i:>4} {len(m.points):>5} {rank(m.points):>5} {aff:>7}")
        return "\n".join(lines)

    def write_representatives(self, directory: str) -> list[str]:
        os.makedirs(directory, exist_ok=True)
        paths = []
        for i, m in enumerate(self.representatives):
            path = os.path.join(directory, f"{self.tag}-d{self.dim}-{i:03d}.bmat")
            with open(path, "w") as fh:
                fh.write(serialize_bmat(m))
            paths.append(path)
        return paths


def _canon_bits(m: Matroid) -> int:
    return canonical_form(m)[0].bits


def walk_grammar(
    tag: str, dim: int, state: str | None = None, threads: int = 1
) -> tuple[dict[tuple[str, int], tuple[int, tuple[str, ...]]], set[int]]:
    """Level-synchronous BFS over GRAMMAR[tag] from the bases up to dim.

    The walk starts in `state` (default: the class's first state).  Each
    level is expanded from canonical representatives and keeps, for every
    (state, canonical bits) key, the first (base bits, step names) path in
    discovery order.  Successors are canonicalised with one map per level,
    so the outcome does not depend on scheduling; when threads > 1 that
    map is spread over `threads` processes, at most one per CPU.

    Returns that frontier at dim and the exact bits of the last level's
    images (the bases themselves at dim 1).
    """
    grammar = GRAMMAR[tag]
    start = state or next(iter(grammar))
    # Both bases are their own canonical forms.
    frontier = {(start, b.bits): (b.bits, ()) for b in _BASES}
    raw = {b.bits for b in _BASES}
    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the pool modules cost every other run memory and
        # start-up time.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn"))
    else:
        pool = contextlib.nullcontext()
    with pool as executor:
        canon_map = executor.map if executor else map
        for level in range(1, dim):
            succ = [
                (nxt, (base_bits, steps + (name,)), STEP_OPS[name](Matroid(level, bits)))
                for (cur, bits), (base_bits, steps) in frontier.items()
                for name, nxt in grammar[cur]
            ]
            images = list({img.bits: img for _, _, img in succ}.values())
            canon = dict(zip((m.bits for m in images), canon_map(_canon_bits, images)))
            frontier = {}
            for nxt, path, img in succ:
                frontier.setdefault((nxt, canon[img.bits]), path)
            raw = set(canon)
    return frontier, raw


def enumerate_generated(dim: int, tag: str, threads: int = 1) -> CensusReport:
    """Census of one class at one dimension, deduplicated by canonical form.

    The grammar classes come from one walk_grammar call; `threads` spreads
    its canonical-form calls over processes.  The nonaffine class is the
    doubling towers over sag(m).
    """
    if tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {tag!r}")
    if not 1 <= dim <= DIM_BOUND:
        raise ValueError(f"dimension must be between 1 and {DIM_BOUND}")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    start = time.monotonic()

    if tag == "i4tf_nonaffine":
        canon: set[int] = set()
        raws: set[int] = set()
        for mpar in range(3, dim):
            k = dim - 1 - mpar
            cert = Certificate(sag(mpar), ("double",) * k, identity_map(dim))
            m = cert.replay()
            raws.add(m.bits)
            canon.add(_canon_bits(m))
    else:
        frontier, raws = walk_grammar(tag, dim, threads=threads)
        canon = {bits for _, bits in frontier}

    reps = tuple(Matroid(dim, b) for b in sorted(canon))
    return CensusReport(dim, tag, len(raws), len(reps), reps, time.monotonic() - start)


class CrosscheckReport(NamedTuple):
    """Full-sweep comparison of the decomposer against the detectors."""

    dim: int
    subsets: int
    discrepancies: tuple[int, ...]
    tally: dict


def point_sets(dims: Iterable[int]) -> Iterator[Matroid]:
    """Every point set of PG(d-1, 2) for each d in dims, in ascending bits."""
    for d in dims:
        for idx in range(1 << ((1 << d) - 1)):
            yield Matroid(d, idx << 1)


def exhaustive_crosscheck(dim: int) -> CrosscheckReport:
    """Sweep every subset at dim <= 4 through the decomposer and tally the
    members, split by affineness and rank.

    Membership is the decomposer's outcome.  A member's evidence is a
    replayed certificate, which never consults the detector, so the
    detector checks it independently: a subset counts as a discrepancy
    when i4tf_witness finds a triangle or an induced I4 in a certified
    member, or when the decomposer raises its falsification signal, as on
    a certificate that fails to replay or a non-affine member that is no
    doubled series extension.  A non-member's witness already comes from
    the detector and is verified there.
    """
    if dim > 4:
        raise ValueError("exhaustive sweep is capped at dimension 4")
    groups = {
        "i4tf_affine": set(),
        "i4tf_nonaffine": set(),
        "i4tf_nonaffine_rank_deficient": set(),
    }
    labeled = {k: 0 for k in groups}
    bad: list[int] = []
    for m in point_sets((dim,)):
        try:
            outcome = decompose_i4tf(m).outcome
        except TheoremViolation:
            bad.append(m.bits)
            continue
        if isinstance(outcome, NotMember):
            continue
        if i4tf_witness(m) is not None:
            bad.append(m.bits)
            continue
        if is_affine(m):
            key = "i4tf_affine"
        elif rank(m.points) == dim:
            key = "i4tf_nonaffine"
        else:
            key = "i4tf_nonaffine_rank_deficient"
        labeled[key] += 1
        groups[key].add(_canon_bits(m))
    tally = {
        k: {"labeled": labeled[k], "iso_classes": len(groups[k])} for k in groups
    }
    return CrosscheckReport(dim, 1 << ((1 << dim) - 1), tuple(bad), tally)


def random_members(dim: int, count: int, seed: int, tag: str) -> list[Matroid]:
    """Deterministic random class members via random certificate replay.

    Step sequences walk GRAMMAR, drawing uniformly among the current
    state's steps at each level; the final relabeling map is uniform over
    invertible maps.
    """
    if tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {tag!r}")
    if tag == "i4tf_nonaffine" and dim < 4:
        raise ValueError("no nonaffine members below dimension 4")
    rng = random.Random(f"{tag}:{dim}:{seed}")
    out = []
    for _ in range(count):
        if tag == "i4tf_nonaffine":
            mpar = rng.randrange(3, dim)
            steps: tuple[str, ...] = ("double",) * (dim - 1 - mpar)
            base = sag(mpar)
        else:
            base = _BASES[rng.randrange(2)]
            grammar = GRAMMAR[tag]
            state = next(iter(grammar))
            names = []
            for _ in range(dim - 1):
                name, state = rng.choice(grammar[state])
                names.append(name)
            steps = tuple(names)
        cmap = random_invertible_map(dim, rng)
        out.append(Certificate(base, steps, cmap).replay())
    return out


@functools.lru_cache(maxsize=8)
def _normal_form_table(dim: int) -> dict[int, tuple[int, tuple[str, ...]]]:
    """canonical bits -> (base bits, step names) for every ai4 member."""
    table: dict[int, tuple[int, tuple[str, ...]]] = {}
    for (_, bits), path in walk_grammar("ai4", dim)[0].items():
        table.setdefault(bits, path)
    return table


def normal_form_certificate(m: Matroid) -> Certificate | None:
    """Certificate with at most one beta0, then alpha steps only, or None.

    Intended for small dimensions; the table behind it grows with the
    class census.
    """
    cm, fm = canonical_form(m)
    entry = _normal_form_table(m.n).get(cm.bits)
    if entry is None:
        return None
    base_bits, steps = entry
    raw = Certificate(Matroid(1, base_bits), steps, identity_map(m.n)).replay()
    fr = canonical_form(raw)[1]
    cmap = compose(invert(fm), fr)
    cert = Certificate(Matroid(1, base_bits), steps, cmap)
    if cert.replay() != m:
        raise TheoremViolation("normal form certificate failed to replay")
    return cert

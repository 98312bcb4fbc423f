"""Seeded inputs and operation lists for the four bmt workloads.

The program only ever receives BMAT files and CLI arguments; everything
here runs before timing starts.  Each input records how it was built
(class or AG half, dim, seed index, relabeling) so a slow case can be
rebuilt outside the benchmark.

Why the workloads look the way they do:

* decide-small: dim 4-5 inputs cost 1-3 ms per call, so per-call work
  (argument and BMAT parsing, JSON output, closure restriction, replay)
  dominates, and detect takes its numpy quad-table path, which exists
  only at dims 4-5.  Canonical form never runs.
* decide-large: almost all time goes to detect's DFS searches over
  matroid.xor_translate (ROADMAP item 2).  Canonical form never runs,
  so this is the no-change control for canonical-form work.
* census: thousands of shallow canonical_form calls plus the construct
  steps and the census BFS (ROADMAP items 3 and 4); detect barely runs,
  so this is the no-change control for item 2.
* canon-large: a few deep canonical-form searches whose cost is set by
  automorphism pruning, unlike census's many shallow ones (item 3).
  ai4 members at dim 7 are left out: some single canon calls on them
  take 4-42 s, longer than a run.

The workload seed draws labelings, not constructions.  The constructions
come from random_members at a fixed seed, or are the named towers, so
every seed runs the same mix of classes; a random dim-8 member alone
costs anywhere from 2 ms to 2.7 s and would otherwise set a run's
throughput by itself.  No input is ever dropped for being slow.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field

from bmt.census import random_members
from bmt.construct import ag, double, sag
from bmt.gf2 import random_invertible_map
from bmt.matroid import Matroid, apply_map, serialize_bmat

WORKLOADS = ("decide-small", "decide-large", "census", "canon-large")

CHECK_ALL = "triangle,i4,i3,ai4,affine,oddcircuit,chi"
CHECK_LARGE = "ai4,oddcircuit,chi"

# Seed of the random_members draws.  The workload seed relabels them.
CONSTRUCTION_SEED = 0

# (class, dim) -> iso-class count the seed commit produces (ROADMAP item 3).
CENSUS_OPS = {("i4tf_affine", 6): 33, ("ai4", 5): 66, ("i4tf_nonaffine", 7): 4}


@dataclass
class Input:
    """One BMAT input and how it was built."""

    key: str
    matroid: Matroid
    construction: dict
    # True for inputs built from i4tf_* certificates, None when either
    # outcome is allowed.
    member: bool | None = None
    # The construction before relabeling, for checks that need the
    # input's isomorphism class.
    reference: Matroid | None = None
    path: str = ""

    @property
    def size(self) -> tuple[int, int]:
        return self.matroid.n, self.matroid.size


@dataclass
class Op:
    """One cli.main call: head, then the input file if any, then tail.

    group ties the two copies of a canon pair together.
    """

    verb: str
    head: list[str]
    input: Input | None = None
    tail: list[str] = field(default_factory=list)
    group: str = ""
    census: tuple[str, int] | None = None

    @property
    def argv(self) -> list[str]:
        if self.input is None:
            return self.head + self.tail
        return self.head + [self.input.path] + self.tail

    @property
    def size(self) -> tuple[int, int]:
        if self.input is None:
            return self.census[1], 0
        return self.input.size


def _relabel(m: Matroid, rng: random.Random) -> tuple[Matroid, list[int]]:
    g = random_invertible_map(m.n, rng)
    return apply_map(g, m), list(g.images)


def _members(tag: str, dim: int, count: int, rng: random.Random) -> list[Input]:
    out = []
    for i, m in enumerate(random_members(dim, count, CONSTRUCTION_SEED, tag)):
        g, images = _relabel(m, rng)
        c = {"class": tag, "dim": dim, "seed": CONSTRUCTION_SEED, "index": i}
        c["relabel"] = images
        out.append(Input(f"{tag}-d{dim}-{i}", g, c, tag.startswith("i4tf") or None))
    return out


def _tower(par: int, dim: int) -> Matroid:
    m = sag(par)
    while m.n < dim:
        m = double(m)
    return m


def _towers(dim: int, counts: dict[int, int], rng: random.Random) -> list[Input]:
    """counts[m] seeded labelings of the tower double^(dim-1-m)(sag(m)).

    These towers are the i4tf_nonaffine members of dimension dim, one iso
    class per m.  Each class's cost is tight under relabeling while the
    classes differ by up to 5x, so a list that mixed them at random would
    put its median on the boundary between two classes and let it jump.
    The counts are fixed so that the middle of the list falls inside one
    class; the seed draws only the labelings.
    """
    out = []
    for par, count in counts.items():
        for i in range(count):
            m, images = _relabel(_tower(par, dim), rng)
            c = {"class": "i4tf_nonaffine", "dim": dim, "sag": par, "index": i}
            c["relabel"] = images
            out.append(Input(f"tower-d{dim}-sag{par}-{i}", m, c, True))
    return out


def _ag_halves(dim: int, count: int, rng: random.Random) -> list[Input]:
    # A half of AG(dim-1, 2) is triangle free and usually holds an
    # induced I4; either outcome is accepted, the evidence is checked.
    pts = list(ag(dim).points)
    out = []
    for i in range(count):
        bits = 0
        for p in rng.sample(pts, len(pts) // 2):
            bits |= 1 << p
        m, images = _relabel(Matroid(dim, bits), rng)
        out.append(
            Input(
                f"aghalf-d{dim}-{i}",
                m,
                {"class": "ag_half", "dim": dim, "index": i, "relabel": images},
            )
        )
    return out


def _fixed(name: str, m: Matroid, rng: random.Random) -> Input:
    g, images = _relabel(m, rng)
    return Input(name, g, {"class": name, "dim": m.n, "relabel": images}, True)


def _decompose(inp: Input) -> Op:
    return Op("decompose", ["--json", "decompose"], inp)


def _check(inp: Input, props: str) -> Op:
    return Op("check", ["--json", "check"], inp, ["--props", props])


def _build(name: str, seed: int) -> tuple[list[Input], list[Op]]:
    rng = random.Random(f"{name}:{seed}")
    inputs: list[Input] = []
    ops: list[Op] = []
    if name == "decide-small":
        for dim in (4, 5):
            for tag in ("i4tf_affine", "i4tf_nonaffine", "ai4"):
                inputs += _members(tag, dim, 24, rng)
            inputs += _ag_halves(dim, 24, rng)
        for inp in inputs:
            ops += [_decompose(inp), _check(inp, CHECK_ALL)]
    elif name == "decide-large":
        # Half the list is decompose of sag(6) at dim 7, with about
        # as many cheaper ops below it as dearer ones above, so the median
        # is that member's decomposition; the eleventh op from the top,
        # the tail, falls among the double^2(sag(4)) towers.
        dec = _towers(7, {6: 40, 5: 4, 4: 8, 3: 2}, rng)
        dec += _members("i4tf_affine", 7, 6, rng)
        dec.append(_fixed("double-sag6", double(sag(6)), rng))
        dec.append(_fixed("ag8", ag(8), rng))
        dec += _members("ai4", 8, 8, rng)
        dec += _ag_halves(7, 4, rng) + _ag_halves(8, 4, rng)
        chk = _members("ai4", 6, 4, rng) + _ag_halves(6, 4, rng)
        inputs = dec + chk
        ops = [_decompose(i) for i in dec] + [_check(i, CHECK_LARGE) for i in chk]
    elif name == "census":
        for (tag, dim) in CENSUS_OPS:
            head = ["--json", "enumerate", "--dim", str(dim), "--class", tag]
            ops.append(Op("enumerate", head + ["--threads", "1"], census=(tag, dim)))
    elif name == "canon-large":
        # The median lands on canon of double^3(sag(3)), whose cost under
        # relabeling is the tightest of the dearer classes; 20 pairs of it
        # put the median near that class's own median whatever the seed.
        bases = [
            ({"class": "i4tf_nonaffine", "dim": 7, "sag": par, "index": i}, rng)
            for par, count in {3: 20, 4: 4, 5: 4, 6: 4}.items()
            for i in range(count)
        ]
        # The d8 tower's search cost moves by up to 2x with the labeling,
        # so its two copies use labelings fixed across seeds.
        bases.append(({"class": "i4tf_nonaffine", "dim": 8, "sag": 6}, random.Random("d8")))
        for c, pair_rng in bases:
            key = f"tower-d{c['dim']}-sag{c['sag']}-{c.get('index', 0)}"
            tower = _tower(c["sag"], c["dim"])
            for copy in ("a", "b"):
                m, images = _relabel(tower, pair_rng)
                built = dict(c, copy=copy, relabel=images)
                inp = Input(f"{key}-{copy}", m, built, reference=tower)
                inputs.append(inp)
                ops.append(Op("canon", ["canon"], inp, group=key))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return inputs, ops


def build_workload(
    name: str, seed: int, directory: str
) -> tuple[list[Input], list[Op]]:
    """Write the workload's inputs into a fresh directory and return them
    with the op list."""
    inputs, ops = _build(name, seed)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    for i, inp in enumerate(inputs):
        inp.path = os.path.join(directory, f"{i:04d}.bmat")
        with open(inp.path, "w") as fh:
            fh.write(serialize_bmat(inp.matroid))
    return inputs, ops

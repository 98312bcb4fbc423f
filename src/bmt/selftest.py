"""Built-in verification suites: nine checks over the package's guarantees.

Each check is deterministic.  The quick level trims dimensions and sample
counts for interactive runs; the full level runs the complete scale.
"""

from __future__ import annotations

import functools
import json
import random
import time
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .census import (
    enumerate_generated,
    exhaustive_crosscheck,
    point_sets,
    random_members,
    walk_grammar,
)
from .construct import (
    Certificate,
    alpha0,
    alpha1,
    beta0,
    beta1,
    double,
    expand1,
    sag,
)
from .decompose import decompose_ai4, find_special_hyperplane
from .detect import (
    critical_number,
    find_ai4_violation,
    find_induced_is,
    find_induced_odd_circuit,
    find_triangle,
    i4tf_witness,
    recognize_sag,
)
from .errors import TheoremViolation
from .gf2 import closure, random_invertible_map
from .matroid import (
    Matroid,
    canonical_form,
    is_affine,
    stabilizer_flat,
    sumset,
)

_FULL = "full"


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"{mark}  {self.name:<26} {self.elapsed:>7.2f}s  {self.detail}"


def _random_set(rng: random.Random, lo: int, hi: int) -> Matroid:
    n = rng.randint(lo, hi)
    return Matroid(n, rng.getrandbits((1 << n) - 1) << 1)


def _random_affine(rng: random.Random, n: int) -> Matroid:
    w = rng.randrange(1, 1 << n)
    side = [p for p in range(1, 1 << n) if bin(p & w).count("1") % 2 == 1]
    bits = 0
    for p in side:
        if rng.random() < 0.5:
            bits |= 1 << p
    return Matroid(n, bits)


def _check(fn):
    """Turn fn(level) -> (passed, detail) into a check returning a timed
    CheckResult named after fn; a TheoremViolation becomes a FAIL row."""
    name = fn.__name__.removeprefix("check_")

    @functools.wraps(fn)
    def check(level: str = "quick") -> CheckResult:
        start = time.monotonic()
        try:
            passed, detail = fn(level)
        except TheoremViolation as exc:
            passed, detail = False, f"theorem violation: {exc}"
        return CheckResult(name, passed, detail, time.monotonic() - start)

    return check


def _sweep(cases: Iterable[tuple[object, object]]) -> tuple[int, object]:
    """How many (label, result) cases were tried, up to and including the
    first whose result is false, and that case's label (None when none
    fails).  Pass the cases lazily, so that nothing past the first failure
    is drawn or searched."""
    count = 0
    for label, result in cases:
        count += 1
        if not result:
            return count, label
    return count, None


def _fails(bad: object, prefix: str = "") -> str:
    return "" if bad is None else f"; fails {prefix}{bad}"


@_check
def check_census_counts(level: str) -> tuple[bool, str]:
    """Nonaffine class census must report dim - 3 classes at each dim."""
    top = 8 if level == _FULL else 6
    dims = range(4, top + 1)
    got = [enumerate_generated(d, "i4tf_nonaffine").iso_classes for d in dims]
    want = [d - 3 for d in dims]
    return got == want, f"dims 4..{top} classes {got} want {want}"


@_check
def check_exhaustive_equivalence(level: str) -> tuple[bool, str]:
    """Decomposer success must match detector membership on every subset."""
    dim = 4 if level == _FULL else 3
    rep = exhaustive_crosscheck(dim)
    detail = f"dim {dim}: {rep.subsets} subsets, {len(rep.discrepancies)} discrepancies"
    return rep.discrepancies == (), detail


@_check
def check_chi_bound(level: str) -> tuple[bool, str]:
    """Every member has critical number at most 2."""
    top = 4 if level == _FULL else 3
    dims = range(5, 10) if level == _FULL else range(5, 8)
    per = 100 if level == _FULL else 20
    small = (m for m in point_sets(range(1, top + 1)) if i4tf_witness(m) is None)
    drawn = (
        m
        for dim in dims
        for tag in ("i4tf_affine", "i4tf_nonaffine")
        for m in random_members(dim, per, 271, tag)
    )
    checked, bad = _sweep((m, critical_number(m) <= 2) for m in chain(small, drawn))
    return bad is None, f"{checked} members checked" + _fails(bad, "on ")


@_check
def check_affine_characterization(level: str) -> tuple[bool, str]:
    """Affineness must coincide with having no induced odd circuit."""
    top = 4 if level == _FULL else 3
    checked, bad = _sweep(
        (m, is_affine(m) == (find_induced_odd_circuit(m) is None))
        for m in point_sets(range(1, top + 1))
    )
    return bad is None, f"{checked} subsets checked" + _fails(bad, "on ")


@_check
def check_special_hyperplane(level: str) -> tuple[bool, str]:
    """The hyperplane comparison must succeed on every AI4-free matroid."""
    top = 4 if level == _FULL else 3
    count = 500 if level == _FULL else 100
    small = (m for m in point_sets(range(2, top + 1)) if find_ai4_violation(m) is None)
    # find_special_hyperplane returns a hyperplane, a nonempty tuple, or
    # raises TheoremViolation on exhaustion.
    checked, _ = _sweep(
        (m, find_special_hyperplane(m))
        for m in chain(small, random_members(5, count, 547, "ai4"))
    )
    return True, f"{checked} AI4-free inputs, zero exhaustion errors"


def _stabilizer_clauses(m: Matroid) -> bool:
    # stabilizer_flat itself raises unless the cross-sum clause holds.
    full = (1 << (1 << m.n)) - 2
    st = stabilizer_flat(m)
    u = st.flat.members
    comp = m.bits ^ full
    if m.size >= 2 and u & ~sumset(m.bits, m.bits):
        return False
    if m.size <= (1 << m.n) - 3 and u & ~sumset(comp, comp):
        return False
    return True


@_check
def check_stabilizer_clauses(level: str) -> tuple[bool, str]:
    """Stabilizer flat must satisfy the cross-sum and self-sum clauses."""
    count = 1000 if level == _FULL else 200
    rng = random.Random("stabilizer")
    drawn = (_random_set(rng, 1, 6) for _ in range(count))
    cases = chain(point_sets(range(1, 4)), drawn)
    checked, bad = _sweep((m, _stabilizer_clauses(m)) for m in cases)
    return bad is None, f"{checked} matroids checked" + _fails(bad, "on ")


def _gains_is(m: Matroid, img: Matroid, sizes: tuple[int, ...]) -> bool:
    """Whether img has an induced independent set of one of sizes that m lacks."""
    return any(
        find_induced_is(m, s) is None and find_induced_is(img, s) is not None
        for s in sizes
    )


def _preservation_cases(count: int) -> Iterator[tuple[tuple[str, Matroid], bool]]:
    rng = random.Random("preservation")
    for _ in range(count):
        m = _random_set(rng, 1, 5)
        d = double(m)
        yield ("chi", m), critical_number(d) == critical_number(m)
        yield ("triangle", m), find_triangle(m) is not None or find_triangle(d) is None
        yield ("independent-set", m), not _gains_is(m, d, (3, 4))
    for _ in range(count):
        n = rng.randint(1, 5)
        m = _random_affine(rng, n)
        e = expand1(m)
        yield ("affine", m), is_affine(e)
        yield ("independent-set", m), not _gains_is(m, e, (4, 5))


@_check
def check_preservation(level: str) -> tuple[bool, str]:
    """Doubling and 1-expansion must preserve their stated properties."""
    count = 200 if level == _FULL else 50
    _, bad = _sweep(_preservation_cases(count))
    return bad is None, f"2x{count} inputs" + _fails(bad)


@functools.lru_cache(maxsize=8)
def _alpha_only_canon(dim: int) -> frozenset[int]:
    return frozenset(bits for _, bits in walk_grammar("ai4", dim, "B")[0])


def _ledger_cases(count: int) -> Iterator[tuple[object, object]]:
    """One case per input of each ledger stage, labelled with the sorted
    clauses that input fails, then the small round-trips."""
    rng = random.Random("ledger")
    alphas = (alpha0, alpha1)
    betas = (beta0, beta1)

    for _ in range(count):
        m = _random_set(rng, 1, 4)
        free = find_ai4_violation(m) is None
        fails: set[str] = set()
        for g in alphas + betas:
            if find_ai4_violation(g(m)) is None and not free:
                fails.add("t1")
        for g in alphas:
            if free and find_ai4_violation(g(m)) is not None:
                fails.add("t2")
            if (find_induced_is(m, 3) is None) != (find_induced_is(g(m), 3) is None):
                fails.add("t3")
        if find_induced_is(beta1(m), 3) is not None:
            fails.add("t6")
        if m.bits != closure(m.points, m.n).members and find_induced_is(beta0(m), 3) is None:
            fails.add("t7")
        yield sorted(fails), not fails

    for _ in range(count):
        n = rng.randint(1, 4)
        steps = tuple(
            rng.choice(("alpha0", "alpha1", "beta1")) for _ in range(n - 1)
        )
        base = Matroid(1, 0) if rng.random() < 0.5 else Matroid(1, 2)
        m = Certificate(base, steps, random_invertible_map(n, rng)).replay()
        if find_ai4_violation(m) is not None or find_induced_is(m, 3) is not None:
            fails = {"t4-precondition"}
        else:
            fails = {"t4" for g in betas if find_ai4_violation(g(m)) is not None}
            while True:
                cand = _random_set(rng, 3, 4)
                if find_induced_is(cand, 3) is not None:
                    break
            fails |= {"t5" for g in betas if find_ai4_violation(g(cand)) is None}
        yield sorted(fails), not fails

    for _ in range(count):
        n = rng.randint(1, 4)
        pts = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, n))]
        img = beta0(Matroid(n, closure(pts, n).members))
        yield ["t8"], canonical_form(img)[0].bits in _alpha_only_canon(img.n)

    # decompose_ai4 raises unless its certificate replays to m.
    for m in point_sets((1, 2, 3)):
        yield m, decompose_ai4(m)


@_check
def check_alpha_beta_ledger(level: str) -> tuple[bool, str]:
    """The eight construction clauses, plus exhaustive small round-trips."""
    count = 200 if level == _FULL else 50
    checked, bad = _sweep(_ledger_cases(count))
    # Each of the three clause stages yields one case per input.
    roundtrips = checked - 3 * count if bad is None else 0
    return bad is None, (
        f"{count} inputs per clause, {roundtrips} round-trips" + _fails(bad)
    )


def _sag_cases(top: int) -> Iterator[tuple[tuple[int, str], bool]]:
    for n in range(3, top + 1):
        m = sag(n)
        yield (n, "size"), len(m.points) == (1 << (n - 1)) + 1
        yield (n, "freeness"), i4tf_witness(m) is None
        yield (n, "chi"), critical_number(m) == 2
        rec = recognize_sag(m)
        yield (n, "recognition"), rec is not None and rec[0] == n


@_check
def check_sag_properties(level: str) -> tuple[bool, str]:
    """Series extended affine geometries: size, freeness, chi, recognition."""
    top = 8 if level == _FULL else 6
    _, bad = _sweep(_sag_cases(top))
    return bad is None, f"n in 3..{top}" + _fails(bad)


CRITERIA = (
    check_census_counts,
    check_exhaustive_equivalence,
    check_chi_bound,
    check_affine_characterization,
    check_special_hyperplane,
    check_stabilizer_clauses,
    check_preservation,
    check_alpha_beta_ledger,
    check_sag_properties,
)


class SelftestReport(NamedTuple):
    results: tuple[CheckResult, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def table(self) -> str:
        lines = [r.line() for r in self.results]
        verdict = "all checks passed" if self.passed else "CHECKS FAILED"
        lines.append(f"{verdict} in {self.elapsed:.1f}s")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "elapsed": round(self.elapsed, 3),
                "checks": [
                    {**r._asdict(), "elapsed": round(r.elapsed, 3)} for r in self.results
                ],
            }
        )


def run_selftest(level: str = "quick") -> SelftestReport:
    if level not in ("quick", _FULL):
        raise ValueError("level must be quick or full")
    start = time.monotonic()
    results = tuple(check(level) for check in CRITERIA)
    return SelftestReport(results, time.monotonic() - start)

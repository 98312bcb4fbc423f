"""Built-in verification suites: nine checks over the package's guarantees.

Each check is deterministic.  The quick level trims dimensions and sample
counts for interactive runs; the full level runs the complete scale.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass

from .census import (
    enumerate_generated,
    exhaustive_crosscheck,
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
    apply_map,
    canonical_form,
    is_affine,
    stabilizer_flat,
    sumset,
)

_FULL = "full"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"{mark}  {self.name:<26} {self.elapsed:>7.2f}s  {self.detail}"


def _random_bits(rng: random.Random, n: int) -> int:
    return rng.getrandbits((1 << n) - 1) << 1


def _random_affine(rng: random.Random, n: int) -> Matroid:
    w = rng.randrange(1, 1 << n)
    side = [p for p in range(1, 1 << n) if bin(p & w).count("1") % 2 == 1]
    bits = 0
    for p in side:
        if rng.random() < 0.5:
            bits |= 1 << p
    return Matroid(n, bits)


def check_census_counts(level: str = "quick") -> CheckResult:
    """Nonaffine class census must report dim - 3 classes at each dim."""
    start = time.monotonic()
    top = 8 if level == _FULL else 6
    got = []
    for dim in range(4, top + 1):
        rep = enumerate_generated(dim, "i4tf_nonaffine")
        got.append(rep.iso_classes)
    want = [d - 3 for d in range(4, top + 1)]
    return CheckResult(
        "census_counts",
        got == want,
        f"dims 4..{top} classes {got} want {want}",
        time.monotonic() - start,
    )


def check_exhaustive_equivalence(level: str = "quick") -> CheckResult:
    """Decomposer success must match detector membership on every subset."""
    start = time.monotonic()
    dim = 4 if level == _FULL else 3
    rep = exhaustive_crosscheck(dim)
    ok = rep.discrepancies == ()
    return CheckResult(
        "exhaustive_equivalence",
        ok,
        f"dim {dim}: {rep.subsets} subsets, {len(rep.discrepancies)} discrepancies",
        time.monotonic() - start,
    )


def check_chi_bound(level: str = "quick") -> CheckResult:
    """Every member has critical number at most 2."""
    start = time.monotonic()
    top = 4 if level == _FULL else 3
    checked = 0
    bad = None
    for dim in range(1, top + 1):
        for idx in range(1 << ((1 << dim) - 1)):
            m = Matroid(dim, idx << 1)
            if i4tf_witness(m) is None:
                checked += 1
                if critical_number(m) > 2:
                    bad = m
                    break
        if bad:
            break
    dims = range(5, 10) if level == _FULL else range(5, 8)
    per = 100 if level == _FULL else 20
    if bad is None:
        for dim in dims:
            for tag in ("i4tf_affine", "i4tf_nonaffine"):
                for m in random_members(dim, per, 271, tag):
                    checked += 1
                    if critical_number(m) > 2:
                        bad = m
                        break
    return CheckResult(
        "chi_bound",
        bad is None,
        f"{checked} members checked" + ("" if bad is None else f"; fails on {bad}"),
        time.monotonic() - start,
    )


def check_affine_characterization(level: str = "quick") -> CheckResult:
    """Affineness must coincide with having no induced odd circuit."""
    start = time.monotonic()
    top = 4 if level == _FULL else 3
    checked = 0
    bad = None
    for dim in range(1, top + 1):
        for idx in range(1 << ((1 << dim) - 1)):
            m = Matroid(dim, idx << 1)
            checked += 1
            if is_affine(m) != (find_induced_odd_circuit(m) is None):
                bad = m
                break
        if bad:
            break
    return CheckResult(
        "affine_characterization",
        bad is None,
        f"{checked} subsets checked" + ("" if bad is None else f"; fails on {bad}"),
        time.monotonic() - start,
    )


def check_special_hyperplane(level: str = "quick") -> CheckResult:
    """The hyperplane comparison must succeed on every AI4-free matroid."""
    start = time.monotonic()
    top = 4 if level == _FULL else 3
    count = 500 if level == _FULL else 100
    checked = 0
    for dim in range(2, top + 1):
        for idx in range(1 << ((1 << dim) - 1)):
            m = Matroid(dim, idx << 1)
            if find_ai4_violation(m) is None:
                find_special_hyperplane(m)
                checked += 1
    for m in random_members(5, count, 547, "ai4"):
        if m.n >= 2:
            find_special_hyperplane(m)
            checked += 1
    return CheckResult(
        "special_hyperplane",
        True,
        f"{checked} AI4-free inputs, zero exhaustion errors",
        time.monotonic() - start,
    )


def _stabilizer_clauses(m: Matroid) -> bool:
    full = (1 << (1 << m.n)) - 2
    st = stabilizer_flat(m)
    u = st.flat.members
    comp = m.bits ^ full
    if sumset(m.bits, comp) != full ^ u:
        return False
    if m.size >= 2 and u & ~sumset(m.bits, m.bits):
        return False
    if m.size <= (1 << m.n) - 3 and u & ~sumset(comp, comp):
        return False
    return True


def check_stabilizer_clauses(level: str = "quick") -> CheckResult:
    """Stabilizer flat must satisfy the cross-sum and self-sum clauses."""
    start = time.monotonic()
    count = 1000 if level == _FULL else 200
    checked = 0
    bad = None
    for dim in range(1, 4):
        for idx in range(1 << ((1 << dim) - 1)):
            m = Matroid(dim, idx << 1)
            checked += 1
            if not _stabilizer_clauses(m):
                bad = m
                break
        if bad:
            break
    rng = random.Random("stabilizer")
    if bad is None:
        for _ in range(count):
            m = Matroid(rng.randint(1, 6), 0)
            m = Matroid(m.n, _random_bits(rng, m.n))
            checked += 1
            if not _stabilizer_clauses(m):
                bad = m
                break
    return CheckResult(
        "stabilizer_clauses",
        bad is None,
        f"{checked} matroids checked" + ("" if bad is None else f"; fails on {bad}"),
        time.monotonic() - start,
    )


def _is_free(m: Matroid, s: int) -> bool:
    return s > m.n or find_induced_is(m, s) is None


def check_preservation(level: str = "quick") -> CheckResult:
    """Doubling and 1-expansion must preserve their stated properties."""
    start = time.monotonic()
    count = 200 if level == _FULL else 50
    rng = random.Random("preservation")
    bad = None
    for _ in range(count):
        n = rng.randint(1, 5)
        m = Matroid(n, _random_bits(rng, n))
        d = double(m)
        if critical_number(d) != critical_number(m):
            bad = ("chi", m)
            break
        if find_triangle(m) is None and find_triangle(d) is not None:
            bad = ("triangle", m)
            break
        if any(_is_free(m, s) and not _is_free(d, s) for s in (3, 4)):
            bad = ("independent-set", m)
            break
    if bad is None:
        for _ in range(count):
            n = rng.randint(1, 5)
            m = _random_affine(rng, n)
            e = expand1(m)
            if not is_affine(e):
                bad = ("affine", m)
                break
            if any(_is_free(m, s) and not _is_free(e, s) for s in (4, 5)):
                bad = ("independent-set", m)
                break
    return CheckResult(
        "preservation",
        bad is None,
        f"2x{count} inputs" + ("" if bad is None else f"; fails {bad}"),
        time.monotonic() - start,
    )


@functools.lru_cache(maxsize=8)
def _alpha_only_canon(dim: int) -> frozenset[int]:
    return frozenset(bits for _, bits in walk_grammar("ai4", dim, "B")[0])


def check_alpha_beta_ledger(level: str = "quick") -> CheckResult:
    """The eight construction clauses, plus exhaustive small round-trips."""
    start = time.monotonic()
    count = 200 if level == _FULL else 50
    rng = random.Random("ledger")
    alphas = (alpha0, alpha1)
    betas = (beta0, beta1)
    fails: list[str] = []

    def rnd(max_dim: int = 4) -> Matroid:
        n = rng.randint(1, max_dim)
        return Matroid(n, _random_bits(rng, n))

    for _ in range(count):
        m = rnd()
        free = find_ai4_violation(m) is None
        for g in alphas + betas:
            if find_ai4_violation(g(m)) is None and not free:
                fails.append("t1")
        for g in alphas:
            if free and find_ai4_violation(g(m)) is not None:
                fails.append("t2")
            if _is_free(m, 3) != _is_free(g(m), 3):
                fails.append("t3")
        if not _is_free(beta1(m), 3):
            fails.append("t6")
        flat_set = m.bits == (closure(m.points, m.n).members if m.points else 0)
        if not flat_set and _is_free(beta0(m), 3):
            fails.append("t7")
        if fails:
            break

    if not fails:
        for _ in range(count):
            n = rng.randint(1, 4)
            steps = tuple(
                rng.choice(("alpha0", "alpha1", "beta1")) for _ in range(n - 1)
            )
            m = Certificate(
                _pick_base(rng), steps, random_invertible_map(n, rng)
            ).replay()
            if find_ai4_violation(m) is not None or not _is_free(m, 3):
                fails.append("t4-precondition")
                break
            for g in betas:
                if find_ai4_violation(g(m)) is not None:
                    fails.append("t4")
            while True:
                cand = Matroid(rng.randint(3, 4), 0)
                cand = Matroid(cand.n, _random_bits(rng, cand.n))
                if not _is_free(cand, 3):
                    break
            for g in betas:
                if find_ai4_violation(g(cand)) is None:
                    fails.append("t5")
            if fails:
                break

    if not fails:
        for _ in range(count):
            n = rng.randint(1, 4)
            pts = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, n))]
            bits = closure(tuple(pts), n).members if pts else 0
            m = Matroid(n, bits)
            img = beta0(m)
            if canonical_form(img)[0].bits not in _alpha_only_canon(img.n):
                fails.append("t8")
                break

    roundtrips = 0
    if not fails:
        for dim in (1, 2, 3):
            for idx in range(1 << ((1 << dim) - 1)):
                m = Matroid(dim, idx << 1)
                if decompose_ai4(m).replay() != m:
                    fails.append("roundtrip")
                    break
                roundtrips += 1
            if fails:
                break

    return CheckResult(
        "alpha_beta_ledger",
        not fails,
        f"{count} inputs per clause, {roundtrips} round-trips"
        + ("" if not fails else f"; fails {sorted(set(fails))}"),
        time.monotonic() - start,
    )


def _pick_base(rng: random.Random) -> Matroid:
    return Matroid(1, 0) if rng.random() < 0.5 else Matroid(1, 2)


def check_sag_properties(level: str = "quick") -> CheckResult:
    """Series extended affine geometries: size, freeness, chi, recognition."""
    start = time.monotonic()
    top = 8 if level == _FULL else 6
    bad = None
    for n in range(3, top + 1):
        m = sag(n)
        if len(m.points) != (1 << (n - 1)) + 1:
            bad = (n, "size")
            break
        if find_triangle(m) is not None or find_induced_is(m, 4) is not None:
            bad = (n, "freeness")
            break
        if critical_number(m) != 2:
            bad = (n, "chi")
            break
        rec = recognize_sag(m)
        if rec is None or rec[0] != n or apply_map(rec[1], sag(n)) != m:
            bad = (n, "recognition")
            break
    return CheckResult(
        "sag_properties",
        bad is None,
        f"n in 3..{top}" + ("" if bad is None else f"; fails {bad}"),
        time.monotonic() - start,
    )


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


@dataclass(frozen=True)
class SelftestReport:
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
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "elapsed": round(r.elapsed, 3),
                    }
                    for r in self.results
                ],
            }
        )


def _run_check(check, level: str) -> CheckResult:
    """One check's result; a TheoremViolation becomes a FAIL row."""
    start = time.monotonic()
    try:
        return check(level)
    except TheoremViolation as exc:
        name = check.__name__.removeprefix("check_")
        detail = f"theorem violation: {exc}"
        return CheckResult(name, False, detail, time.monotonic() - start)


def run_selftest(level: str = "quick") -> SelftestReport:
    if level not in ("quick", _FULL):
        raise ValueError("level must be quick or full")
    start = time.monotonic()
    results = tuple(_run_check(check, level) for check in CRITERIA)
    return SelftestReport(results, time.monotonic() - start)

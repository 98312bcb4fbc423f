"""Acceptance gate: the nine verification suites at full scale.

Each test runs one suite, prints a single pass/fail line, and enforces
the stated runtime budget where one exists.  Suites are cached so the
whole gate runs each computation once.  One more budget bounds the
slowest seeded canonical form with no translation symmetry, another
the canonical form of a dense set with none, a third the
decomposition of seeded members at dims 9 and 11, a fourth that of
relabeled series extensions at dims 11 and 13, and a fifth the critical
number of non-members at dims 8-10.  A memory budget bounds the peak of
a child process that decomposes a dim-16 non-member and scans a dim-16
set with no special hyperplane, and another that of a child that
decomposes three seeded dim-16 doubling towers.
"""

import os
import random
import subprocess
import sys
import time
from functools import lru_cache

import bmt
from bmt import (
    Matroid,
    apply_map,
    canonical_form,
    complement,
    critical_number,
    decompose_i4tf,
    random_members,
    sag,
    units,
)
from bmt.gf2 import points_mask, random_invertible_map
from bmt.selftest import (
    CRITERIA,
    check_affine_characterization,
    check_alpha_beta_ledger,
    check_census_counts,
    check_chi_bound,
    check_exhaustive_equivalence,
    check_preservation,
    check_sag_properties,
    check_special_hyperplane,
    check_stabilizer_clauses,
    run_selftest,
)

LEVEL = "full"


@lru_cache(maxsize=None)
def _run(check):
    return check(LEVEL)


def _report(idx, res, budget=None):
    verdict = "PASS" if res.passed else "FAIL"
    print(f"criterion {idx} {verdict}  {res.line()}")
    assert res.passed, res.detail
    if budget is not None:
        assert res.elapsed < budget, f"{res.name} took {res.elapsed:.1f}s"


def test_criterion_1_census_counts():
    # iso_classes 1..5 for the nonaffine class at dims 4..8, under 2 minutes.
    _report(1, _run(check_census_counts), budget=120.0)


def test_criterion_2_exhaustive_equivalence():
    # All 2^15 subsets at dim 4: decomposition agrees with the detectors
    # and every certificate replays, single threaded under 60 seconds.
    _report(2, _run(check_exhaustive_equivalence), budget=60.0)


def test_criterion_3_chi_bound():
    # Critical number at most 2 for every member, exhaustive at dim 4 plus
    # random members at dims 5..9, under 2 minutes.
    _report(3, _run(check_chi_bound), budget=120.0)


def test_criterion_4_affine_characterization():
    # Affine iff no induced odd circuit, exhaustive through dim 4.
    _report(4, _run(check_affine_characterization), budget=120.0)


def test_criterion_5_special_hyperplane():
    # A comparable hyperplane exists for every size-4-free set: exhaustive
    # through dim 4 plus 500 random class members at dim 5.
    _report(5, _run(check_special_hyperplane))


def test_criterion_6_stabilizer_clauses():
    # Stabilizer flat clauses: exhaustive at dim 3 plus 1000 random sets.
    _report(6, _run(check_stabilizer_clauses))


def test_criterion_7_preservation():
    # Doubling preserves chi and small freeness; 1-expansion preserves
    # affineness and size 4 and 5 freeness; 200 random inputs each.
    _report(7, _run(check_preservation))


def test_criterion_8_alpha_beta_ledger():
    # All eight layer-operation clauses on 200 random inputs per clause,
    # plus exhaustive certificate round trips through dim 3.
    _report(8, _run(check_alpha_beta_ledger))


def test_criterion_9_sag_properties():
    # Size, freeness, critical number 2, and self recognition for n 3..8.
    _report(9, _run(check_sag_properties))


def test_canon_budget_trivial_stabilizer_d7():
    # Draws 0 and 9 of the seeded dim-7 affine members have no translation
    # symmetry, with 51 and 55 points; each canonical form under 2 seconds.
    draws = random_members(7, 10, 0, "i4tf_affine")
    for i in (0, 9):
        start = time.perf_counter()
        canonical_form(draws[i])
        elapsed = time.perf_counter() - start
        print(f"canon draw {i} took {elapsed:.2f}s")
        assert elapsed < 2.0, f"canon of draw {i} took {elapsed:.1f}s"


def test_canon_budget_dense_trivial_stabilizer_d6():
    # The 57-point complement of units(6) has no translation symmetry;
    # under each of three labelings its canonical form takes under 1 second.
    for s in (1, 2, 3):
        m = apply_map(random_invertible_map(6, s), complement(units(6)))
        start = time.perf_counter()
        canonical_form(m)
        elapsed = time.perf_counter() - start
        print(f"canon of labeling {s} took {elapsed:.2f}s")
        assert elapsed < 1.0, f"canon of labeling {s} took {elapsed:.1f}s"


def test_selftest_report_aggregates_all_criteria():
    rep = run_selftest("quick")
    assert rep.passed
    assert len(rep.results) == 9
    assert "all checks passed" in rep.table()
    for res in rep.results:
        line = res.line()
        assert line.startswith("pass")
        assert res.name in line


def test_decompose_budget_members_d9_d11():
    # A member is decided by its replayed certificate, without the
    # induced-I4 search.  Three seeded affine members at dim 9 decompose
    # under 0.25 seconds together, three nonaffine ones at dim 11 under 0.8.
    for args, budget in (((9, 3, 7, "i4tf_affine"), 0.25), ((11, 3, 7, "i4tf_nonaffine"), 0.8)):
        members = random_members(*args)
        start = time.perf_counter()
        for m in members:
            decompose_i4tf(m)
        elapsed = time.perf_counter() - start
        print(f"decompose of {args} took {elapsed:.2f}s")
        assert elapsed < budget, f"decompose of {args} took {elapsed:.1f}s"


def test_decompose_budget_series_extensions_d11_d13():
    # A relabeled sag(k) decomposes into itself with no doublings.  Three
    # labelings of sag(10) at dim 11 decompose under 0.15 seconds
    # together, three of sag(12) at dim 13 under 0.5.
    for k, budget in ((10, 0.15), (12, 0.5)):
        inputs = [apply_map(random_invertible_map(k + 1, s), sag(k)) for s in (1, 2, 3)]
        start = time.perf_counter()
        outcomes = [decompose_i4tf(m).outcome for m in inputs]
        elapsed = time.perf_counter() - start
        print(f"decompose of sag({k}) took {elapsed:.2f}s")
        assert [(o.doublings, o.sag_param) for o in outcomes] == [(0, k)] * 3
        assert elapsed < budget, f"decompose of sag({k}) took {elapsed:.1f}s"


def test_chi_budget_non_members_d8_d10():
    # The AI4-free draw random_members(8, 3, 1, "ai4")[2] (43 points, with
    # a triangle) has chi 3, and seeded sets of 248 points at dim 9 and 64
    # points at dim 10 have chi 5 and 3.  Each takes under 2 seconds.
    inputs = [random_members(8, 3, 1, "ai4")[2]]
    for n, k in ((9, 248), (10, 64)):
        inputs.append(Matroid(n, points_mask(random.Random(0).sample(range(1, 1 << n), k))))
    for m, want in zip(inputs, (3, 5, 3)):
        start = time.perf_counter()
        chi = critical_number(m)
        elapsed = time.perf_counter() - start
        print(f"chi of a {m.size}-point set at dim {m.n} took {elapsed:.2f}s")
        assert chi == want
        assert elapsed < 2.0, f"chi at dim {m.n} took {elapsed:.1f}s"


# A seeded half of AG(16, 2), relabeled, is no member, and a seeded
# random half of PG(15, 2) has no special hyperplane, so the scan reads
# the kernel of every functional.
_D16_CHILD = """
import random
from bmt import Matroid, NotMember, ag, apply_map, decompose_i4tf
from bmt.decompose import find_special_hyperplane
from bmt.errors import TheoremViolation
from bmt.gf2 import points_mask, random_invertible_map

n, rng = 16, random.Random(16)
pts = list(ag(n).points)
half = Matroid(n, points_mask(rng.sample(pts, len(pts) // 2)))
half = apply_map(random_invertible_map(n, rng), half)
assert isinstance(decompose_i4tf(half).outcome, NotMember)
rand = Matroid(n, points_mask(rng.sample(range(1, 1 << n), 1 << (n - 1))))
try:
    find_special_hyperplane(rand)
except TheoremViolation:
    pass
else:
    raise AssertionError("the random half has a special hyperplane")
"""


# Runs the script in argv[1] as a child and prints the child's exit code
# and ru_maxrss.  A child's ru_maxrss starts at its parent's resident
# size, which exec carries over, so the test process, large by now, has
# this small one spawn the child.
_PEAK = """
import os, sys
argv = [sys.executable, "-c", sys.argv[1]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_mb(child: str) -> float:
    # Peak resident size of the script child, run through _PEAK.
    src = os.path.dirname(os.path.dirname(bmt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK, child],
        env=env,
        capture_output=True,
        text=True,
    )
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return peak_kb / 1024


def test_memory_budget_d16():
    # The child peaks under 48 MB.
    peak = _peak_mb(_D16_CHILD)
    print(f"d16 decompose and scan peaked at {peak:.1f} MB")
    assert peak < 48, f"d16 decompose and scan peaked at {peak:.1f} MB"


# Doubled members keep a large W = {w : E + w = E}, so finding each
# doubling element reads a translate per point of E; held at once, those
# |E| translates of 2^16 bits would take 250-370 MB.
_D16_DOUBLED_CHILD = """
from bmt import DoubledSag, decompose_i4tf, random_members

for seed in (1, 3, 4):
    m = random_members(16, 1, seed, "i4tf_nonaffine")[0]
    assert isinstance(decompose_i4tf(m).outcome, DoubledSag)
"""


def test_memory_budget_d16_doubled():
    # The child decomposes three seeded d16 towers and peaks under 48 MB.
    peak = _peak_mb(_D16_DOUBLED_CHILD)
    print(f"d16 tower decompositions peaked at {peak:.1f} MB")
    assert peak < 48, f"d16 tower decompositions peaked at {peak:.1f} MB"


# (name, passed, detail) of each full-level row, frozen from the code
# before the checks shared one timing harness and one point-set sweep.
FROZEN_FULL_ROWS = [
    ("census_counts", True, "dims 4..8 classes [1, 2, 3, 4, 5] want [1, 2, 3, 4, 5]"),
    ("exhaustive_equivalence", True, "dim 4: 32768 subsets, 0 discrepancies"),
    ("chi_bound", True, "3282 members checked"),
    ("affine_characterization", True, "32906 subsets checked"),
    ("special_hyperplane", True, "6468 AI4-free inputs, zero exhaustion errors"),
    ("stabilizer_clauses", True, "1138 matroids checked"),
    ("preservation", True, "2x200 inputs"),
    ("alpha_beta_ledger", True, "200 inputs per clause, 138 round-trips"),
    ("sag_properties", True, "n in 3..8"),
]


def test_full_rows_frozen():
    rows = [(r.name, r.passed, r.detail) for r in map(_run, CRITERIA)]
    assert rows == FROZEN_FULL_ROWS

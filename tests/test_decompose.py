"""Structure decomposition: special hyperplanes, stripping, certificates."""

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from bmt import decompose, detect, matroid
from bmt import (
    AffineChain,
    DoubledSag,
    Matroid,
    NotMember,
    affine_witness,
    ag,
    apply_map,
    circuit,
    Witness,
    decompose_affine_step,
    decompose_ai4,
    decompose_i4tf,
    double,
    expand0,
    expand1,
    find_ai4_violation,
    find_doubling_element,
    find_special_hyperplane,
    functional_kernel,
    i4tf_witness,
    is_affine,
    pg,
    random_members,
    sag,
    strip_doublings,
    units,
    xor_translate,
)
from bmt.errors import TheoremViolation
from bmt.gf2 import random_invertible_map
from oracles import brute_ai4_violation, brute_triangle, random_affine_bits, random_bits

SEED = 5003


def test_find_special_hyperplane_known_cases():
    sh = find_special_hyperplane(pg(3))
    assert (sh.case, sh.functional) == ("complement_subset_h", 1)
    sh = find_special_hyperplane(ag(3))
    assert (sh.case, sh.functional) == ("complement_subset_h", 4)
    sh = find_special_hyperplane(Matroid(3, 0))
    assert (sh.case, sh.functional) == ("e_subset_h", 1)


_CASES = ("e_subset_h", "complement_subset_h", "e_disjoint_h", "h_subset_e")


def _relations(m, w):
    # The four relations between E and the kernel of w, in scan order.
    h = functional_kernel(w, m.n).members
    comp = m.bits ^ ((1 << (1 << m.n)) - 2)
    return (m.bits & ~h == 0, comp & ~h == 0, m.bits & h == 0, h & ~m.bits == 0)


def _assert_scan_contract(m):
    # The returned case holds at the returned functional, no relation
    # earlier in the order holds there, and no smaller functional
    # satisfies any of the four.  decompose_affine_step relies on both.
    sh = find_special_hyperplane(m)
    assert functional_kernel(sh.functional, m.n).members == sh.flat.members
    rel = _relations(m, sh.functional)
    idx = _CASES.index(sh.case)
    assert rel[idx]
    assert not any(rel[:idx])
    for w in range(1, sh.functional):
        assert not any(_relations(m, w))


def test_find_special_hyperplane_case_labels_hold():
    # Everything at dim 3 satisfies the size 4 freeness condition, so the
    # search must always land on a hyperplane in one of the four relations.
    for bits in range(0, 1 << 8, 2):
        _assert_scan_contract(Matroid(3, bits))


def test_find_special_hyperplane_random_class_members():
    for m in random_members(5, 40, 97, "ai4"):
        _assert_scan_contract(m)


def test_find_special_hyperplane_exhaustion_is_a_falsification_signal():
    # This set has a violating independent 4-subset, so no hyperplane
    # compares with it and the search must say so loudly.
    bad = Matroid(4, sum(1 << p for p in (2, 5, 6, 12, 13, 15)))
    assert find_ai4_violation(bad) is not None
    with pytest.raises(TheoremViolation):
        find_special_hyperplane(bad)


def test_decompose_affine_step_validation():
    with pytest.raises(ValueError):
        decompose_affine_step(pg(3))
    with pytest.raises(ValueError):
        decompose_affine_step(Matroid(3, 0))
    with pytest.raises(ValueError):
        decompose_affine_step(Matroid(1, 2))


def test_decompose_affine_step_disjoint_case_raises():
    # The translate {3, 5, 9} spans the kernel of 15 but is a proper part
    # of the complement of the hyperplane the scan finds in it, so it is
    # no affine geometry of that kernel.  units(4) is an induced I4, not a
    # member, so the failed step names that witness.
    with pytest.raises(
        ValueError, match=r"induced_is witness \(1, 2, 4, 8\)"
    ):
        decompose_affine_step(units(4))
    # This affine non-member's translate has no special hyperplane.
    bad = Matroid(5, sum(1 << p for p in (18, 22, 24, 25, 28, 30)))
    with pytest.raises(
        ValueError, match=r"induced_is witness \(18, 22, 25, 30\)"
    ):
        decompose_affine_step(bad)


def test_decompose_affine_step_inverts_expansions():
    members = []
    for dim in (3, 4, 5, 6):
        members += random_members(dim, 20, SEED, "i4tf_affine")
    for m in members:
        if m.size == 0:
            continue
        n = m.n
        step = decompose_affine_step(m)
        assert step.tag in ("expand0", "expand1")
        assert step.inner.n == n - 1
        assert is_affine(step.inner)
        inner_bits = step.embed.apply_mask(step.inner.bits)
        if step.tag == "expand0":
            assert step.new_point is None
            assert inner_bits == m.bits
        else:
            kern = functional_kernel(step.witness_functional, step.inner.n)
            layer = (1 << step.new_point) | xor_translate(
                step.embed.apply_mask(kern.members), step.new_point
            )
            assert inner_bits | layer == m.bits
            assert inner_bits & layer == 0


def test_decompose_affine_step_on_constructed_expansions():
    for m in random_members(4, 30, SEED + 1, "i4tf_affine"):
        if m.size == 0:
            continue
        assert decompose_affine_step(expand0(m)).tag == "expand0"
        big = decompose_affine_step(expand1(m))
        # A 1-expansion may also read as a 0-expansion when the input was
        # small enough to fit inside another hyperplane; both must verify.
        assert big.tag in ("expand0", "expand1")


def test_strip_doublings_rebuilds_the_tower():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        n = rng.randrange(1, 4)
        core_bits = random_bits(rng, n)
        if not core_bits:
            continue
        k = rng.randrange(3)
        m = Matroid(n, core_bits)
        for _ in range(k):
            m = double(m)
        res = strip_doublings(m)
        assert res.count >= k
        assert find_doubling_element(res.core) is None
        assert len(res.trail) == res.count
        # Fold the trail back up: each entry lifts by its embedding and
        # doubles along the recorded element.
        cur = res.core.bits
        for w, emb in reversed(res.trail):
            cur = emb.apply_mask(cur)
            cur |= xor_translate(cur, w)
        assert cur == m.bits


def test_strip_doublings_counts():
    s = sag(3)
    assert strip_doublings(s).count == 0
    assert strip_doublings(double(s)).count == 1
    dd = strip_doublings(double(double(s)))
    assert dd.count == 2
    assert dd.core == s


def test_decompose_i4tf_not_member_witnesses():
    res = decompose_i4tf(pg(3))
    assert isinstance(res.outcome, NotMember)
    assert res.outcome.witness.kind == "triangle"
    assert res.outcome.witness.points == (1, 2, 3)
    res = decompose_i4tf(units(5))
    assert isinstance(res.outcome, NotMember)
    assert res.outcome.witness.kind == "induced_is"


def test_decompose_returns_only_verified_witnesses(monkeypatch):
    # Points 1, 2, 4 are in pg(3) but are no triangle: both decomposers
    # must refuse to hand such a witness on.
    fake = Witness("triangle", (1, 2, 4))
    monkeypatch.setattr(decompose, "find_triangle", lambda m: fake)
    with pytest.raises(TheoremViolation, match="fails to verify"):
        decompose_i4tf(pg(3))
    monkeypatch.setattr(decompose, "find_ai4_violation", lambda m: fake)
    with pytest.raises(TheoremViolation, match="fails to verify"):
        decompose_ai4(pg(3))


def test_decompose_i4tf_reraises_when_detector_finds_nothing(monkeypatch):
    # units(5) is triangle free and fails certification.  With no witness
    # to refute it, the decomposer's own violation comes out.
    monkeypatch.setattr(decompose, "find_induced_is", lambda m, s: None)
    with pytest.raises(TheoremViolation, match="disjoint case without an affine geometry"):
        decompose_i4tf(units(5))


def test_decompose_i4tf_runs_the_triangle_search_once(monkeypatch):
    # pg(3) is refuted by its triangle; a relabeled AG half is triangle
    # free and refuted by an induced I4 once certification fails.
    calls = []
    real = detect.find_triangle

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(decompose, "find_triangle", counted)
    monkeypatch.setattr(detect, "find_triangle", counted)
    half = _ag_half(6, random.Random(SEED + 11))
    for m, kind in ((pg(3), "triangle"), (half, "induced_is")):
        calls.clear()
        assert decompose_i4tf(m).outcome.witness.kind == kind
        assert calls == [m]


# Affine solves per decomposition of each member of
# test_decompose_i4tf_solves_each_affine_witness_once, as first measured:
# the chain's inner matroids, the expand1 steps' replayed copies and the
# matroids that certificate replay builds each solve once.
FROZEN_AFFINE_SOLVES = [
    5, 12, 10, 14, 14, 14, 10, 14, 10, 12, 10, 14, 12, 12, 14, 14, 14, 12, 14, 14, 7,
]


def test_decompose_i4tf_solves_each_affine_witness_once(monkeypatch):
    # Counts evaluations of the cached property that solves the system,
    # not reads of it: the core's witness is solved once, by _certify, and
    # the chain reads the kept value.  Members are rebuilt so that none
    # carries a witness solved before the count starts.
    calls = []
    solve = Matroid._affine_witness.func

    def counted(m):
        calls.append(m)
        return solve(m)

    prop = functools.cached_property(counted)
    prop.__set_name__(Matroid, "_affine_witness")
    monkeypatch.setattr(Matroid, "_affine_witness", prop)
    members = [Matroid(m.n, m.bits) for m in random_members(6, 20, 17, "i4tf_affine")]
    members.append(expand0(expand0(ag(3))))  # rank deficient
    totals = []
    for m in members:
        calls.clear()
        res = decompose_i4tf(m)
        core = res.restriction.matroid
        assert isinstance(res.outcome, AffineChain)
        assert calls.count(core) == 1
        totals.append(len(calls))
    assert totals == FROZEN_AFFINE_SOLVES


def test_decompose_i4tf_exhaustive_dim3():
    # Members at dim 3 are exactly the triangle-free sets, and every
    # certificate must replay bit for bit.
    for bits in range(0, 1 << 8, 2):
        m = Matroid(3, bits)
        res = decompose_i4tf(m)
        member = brute_triangle(bits) is None
        assert isinstance(res.outcome, NotMember) != member
        if member:
            cert = res.outcome.certificate
            target = m if isinstance(res.outcome, AffineChain) else res.restriction.matroid
            assert cert.replay() == target


def test_decompose_i4tf_doubled_sag_members():
    rng = random.Random(SEED + 3)
    for _ in range(25):
        mpar = rng.randrange(3, 6)
        k = rng.randrange(3)
        m = sag(mpar)
        for _ in range(k):
            m = double(m)
        g = random_invertible_map(m.n, rng)
        moved = apply_map(g, m)
        res = decompose_i4tf(moved)
        out = res.outcome
        assert isinstance(out, DoubledSag)
        assert out.doublings == k
        assert out.sag_param == mpar
        assert not res.restriction.rank_deficient
        assert out.certificate.replay() == moved


def test_decompose_i4tf_affine_members():
    rng = random.Random(SEED + 4)
    for m in random_members(5, 25, 11, "i4tf_affine"):
        res = decompose_i4tf(m)
        out = res.outcome
        assert isinstance(out, AffineChain)
        assert out.certificate.replay() == m
        assert len(out.certificate.steps) == m.n - 1


@st.composite
def _i4tf_members(draw):
    tag = draw(st.sampled_from(("i4tf_affine", "i4tf_nonaffine")))
    dim = draw(st.integers(1 if tag == "i4tf_affine" else 4, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    return tag, random_members(dim, 1, seed, tag)[0]


@settings(max_examples=100, deadline=None)
@given(_i4tf_members())
def test_decompose_i4tf_replays_random_members(case):
    # A chain replays to the member itself, a doubling tower to the
    # restriction onto the member's span, which embeds back onto it.
    tag, m = case
    res = decompose_i4tf(m)
    out = res.outcome
    if tag == "i4tf_affine":
        assert isinstance(out, AffineChain)
        assert out.certificate.replay() == m
    else:
        assert isinstance(out, DoubledSag)
        core = out.certificate.replay()
        assert core == res.restriction.matroid
        assert res.restriction.embed.apply_mask(core.bits) == m.bits


@st.composite
def _decide_inputs(draw):
    # At dims 5..8: random sets of density 1/2 down to 1/16, halves of
    # AG(n, 2), and class members, whole or with their least point dropped.
    n = draw(st.integers(5, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "ag_half", "i4tf_affine", "i4tf_nonaffine", "ai4")))
    if kind == "random":
        bits = random_bits(rng, n)
        for _ in range(draw(st.integers(0, 3))):
            bits &= random_bits(rng, n)
        return Matroid(n, bits)
    if kind == "ag_half":
        return _ag_half(n, rng)
    m = random_members(n, 1, rng.randrange(2**32), kind)[0]
    return Matroid(n, m.bits & (m.bits - 1)) if draw(st.booleans()) else m


@settings(max_examples=150, deadline=None)
@given(_decide_inputs())
def test_decompose_i4tf_refutes_exactly_where_detector_finds_witness(m):
    # Certification decides members without the detector; a non-member's
    # witness is still the detector's.
    w = i4tf_witness(m)
    out = decompose_i4tf(m).outcome
    assert isinstance(out, NotMember) == (w is not None)
    if w is not None:
        assert out.witness == w


def test_decompose_i4tf_rank_deficient_member():
    rng = random.Random(SEED + 5)
    for big_n in (5, 6, 7):
        raw = Matroid(big_n, circuit(5).bits)
        moved = apply_map(random_invertible_map(big_n, rng), raw)
        res = decompose_i4tf(moved)
        out = res.outcome
        assert isinstance(out, DoubledSag)
        assert (out.doublings, out.sag_param) == (0, 3)
        assert res.restriction.rank_deficient
        assert res.restriction.matroid.n == 4
        inner = out.certificate.replay()
        assert inner == res.restriction.matroid
        assert res.restriction.embed.apply_mask(inner.bits) == moved.bits


def test_decompose_ai4_round_trip_exhaustive_small_dims():
    count = 0
    for n in (1, 2, 3):
        for bits in range(0, 1 << (1 << n), 2):
            m = Matroid(n, bits)
            cert = decompose_ai4(m)
            assert not hasattr(cert, "kind")
            assert cert.replay() == m
            count += 1
    assert count == 2 + 8 + 128


def test_decompose_ai4_witness_or_certificate_dim4():
    rng = random.Random(SEED + 6)
    for _ in range(40):
        bits = random_bits(rng, 4)
        m = Matroid(4, bits)
        out = decompose_ai4(m)
        if brute_ai4_violation(bits) is None:
            assert out.replay() == m
        else:
            assert out.kind == "ai4_violation"
            total = 0
            for p in out.points:
                total ^= p
            assert all(not m.contains(total ^ p) for p in out.points)


def test_decompose_ai4_random_members_dim5():
    for m in random_members(5, 30, 23, "ai4"):
        assert find_ai4_violation(m) is None
        cert = decompose_ai4(m)
        assert cert.replay() == m
        # Peeling uses the four layer operations only.
        assert all(s in ("alpha0", "alpha1", "beta0", "beta1") for s in cert.steps)

# sha256 of the outputs of both decomposers on _frozen_inputs(), one
# record per input, joined by ";".  Frozen from the code before the flat
# restriction and the basis completion each moved into one helper.
FROZEN_DECOMPOSE_DIGEST = "41ad8a92eaf966fe84ddf30701ca3ac2abf7e71b26a0b6104cc3e71deb6db5e2"


def _frozen_inputs():
    rng = random.Random(SEED + 7)
    out = [Matroid(n, bits) for n in (1, 2, 3) for bits in range(0, 1 << (1 << n), 2)]
    for n in (4, 5, 6, 7):
        for tag in ("i4tf_affine", "i4tf_nonaffine", "ai4"):
            out += random_members(n, 2, SEED + n, tag)
    # Members placed one or two dimensions up and relabeled: the only
    # inputs whose decomposition completes a rank-deficient basis.
    for n in (2, 3, 4, 5):
        for tag in ("i4tf_affine", "ai4"):
            for m in random_members(n, 2, SEED + 8, tag):
                for up in (1, 2):
                    big = Matroid(n + up, m.bits)
                    out.append(apply_map(random_invertible_map(big.n, rng), big))
    return out


def _outcome_record(out):
    if isinstance(out, NotMember):
        w = out.witness
        return f"{w.kind}:{w.points}:{w.param}"
    if isinstance(out, Witness):
        return f"{out.kind}:{out.points}:{out.param}"
    cert = getattr(out, "certificate", out)
    return f"{type(out).__name__}:{cert.to_json()}"


def test_decompose_outputs_frozen():
    parts = []
    for m in _frozen_inputs():
        res = decompose_i4tf(m)
        r = res.restriction
        parts.append(
            f"{_outcome_record(res.outcome)}|{r.matroid.n}:{r.matroid.bits}:"
            f"{r.embed.images}:{r.rank_deficient}|{_outcome_record(decompose_ai4(m))}"
        )
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_DECOMPOSE_DIGEST


# sha256 of decompose_i4tf's outcome on _membership_inputs(), one record
# per input, joined by ";": the witness or certificate, the restriction,
# or the message of a TheoremViolation.  Frozen from the code that ran the
# induced-I4 search before any certification.
FROZEN_MEMBERSHIP_DIGEST = "30fd28b5eb99538f655933a644c524223558676b06784b53b75dca25369c63c7"


def _ag_half(n, rng):
    pts = list(ag(n).points)
    half = Matroid(n, sum(1 << p for p in rng.sample(pts, len(pts) // 2)))
    return apply_map(random_invertible_map(n, rng), half)


def _membership_inputs():
    # Every set through dim 3, then per dim 5..9 members of each class,
    # the same with their least point dropped (near misses of the class),
    # uniform random sets, and halves of AG(n, 2), whose failed
    # certifications run longest.
    rng = random.Random(SEED + 9)
    out = [Matroid(n, bits) for n in (1, 2, 3) for bits in range(0, 1 << (1 << n), 2)]
    for n in range(5, 10):
        for tag in ("i4tf_affine", "i4tf_nonaffine", "ai4"):
            members = random_members(n, 4, SEED + n, tag)
            out += members + [Matroid(n, m.bits & (m.bits - 1)) for m in members]
        out += [Matroid(n, random_bits(rng, n)) for _ in range(3)]
        out += [_ag_half(n, rng) for _ in range(6)]
    return out


def test_decompose_i4tf_membership_frozen():
    parts = []
    for m in _membership_inputs():
        try:
            res = decompose_i4tf(m)
        except TheoremViolation as exc:
            parts.append(f"violation:{exc}")
            continue
        r = res.restriction
        parts.append(
            f"{_outcome_record(res.outcome)}|{r.matroid.n}:{r.matroid.bits}:"
            f"{r.embed.images}:{r.rank_deficient}"
        )
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_MEMBERSHIP_DIGEST


# sha256 of decompose_affine_step's result on _affine_step_inputs(), one
# record per input, joined by ";": the step, or the type and message of
# what it raised.  Frozen from the code whose fallback called i4tf_witness.
FROZEN_AFFINE_STEP_DIGEST = "e811cf558aa529b8cf71c22639aca91545a4afd6c97f30e3ad36ccfe9415dca2"


def _affine_step_inputs():
    # Every affine set through dim 4, the empty set and dim 1 included
    # (both refused), then per dim 5..6 affine members, the same less their
    # least point, and random parts of an affine hyperplane's complement,
    # most of which are non-members.
    rng = random.Random(SEED + 10)
    out = []
    for n in (1, 2, 3, 4):
        sets = set()
        for w in range(1, 1 << n):
            side = [p for p in range(1, 1 << n) if (w & p).bit_count() & 1]
            for sub in range(1 << len(side)):
                sets.add(sum(1 << p for i, p in enumerate(side) if sub >> i & 1))
        out += [Matroid(n, bits) for bits in sorted(sets)]
    for n in (5, 6):
        members = random_members(n, 6, SEED + n, "i4tf_affine")
        out += members + [Matroid(n, m.bits & (m.bits - 1)) for m in members]
        out += [Matroid(n, random_affine_bits(rng, n)) for _ in range(12)]
    return out


def test_decompose_affine_step_frozen():
    parts = []
    for m in _affine_step_inputs():
        try:
            s = decompose_affine_step(m)
        except (ValueError, TheoremViolation) as exc:
            parts.append(f"{type(exc).__name__}:{exc}")
            continue
        parts.append(
            f"{s.tag}:{s.inner.n}:{s.inner.bits}:{s.embed.images}:"
            f"{s.new_point}:{s.witness_functional}"
        )
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_AFFINE_STEP_DIGEST


# sha256 of find_special_hyperplane's result on _special_hyperplane_inputs()
# and of functional_kernel for every w at dims 1..10, one record each,
# joined by ";".  Frozen from the code that read each scanned kernel mask
# from a lazily filled table.
FROZEN_SPECIAL_HYPERPLANE_DIGEST = "86bffd8fd449d34d3065b18354077cfdfa0d1bea919c3494627a530a740e1fd4"


def _special_hyperplane_inputs():
    # Every set through dim 4, then per dim 5..9 seeded AI4-free members,
    # which always have a special hyperplane, and uniform random sets,
    # most of which have none and scan every functional.
    rng = random.Random(SEED + 11)
    out = [Matroid(n, bits) for n in (1, 2, 3, 4) for bits in range(0, 1 << (1 << n), 2)]
    for n in range(5, 10):
        out += random_members(n, 8, SEED + n, "ai4")
        out += [Matroid(n, random_bits(rng, n)) for _ in range(8)]
    return out


def test_find_special_hyperplane_frozen():
    parts = []
    for m in _special_hyperplane_inputs():
        try:
            sh = find_special_hyperplane(m)
        except TheoremViolation:
            parts.append("raises TheoremViolation")
            continue
        f = sh.flat
        parts.append(f"{sh.case}:{sh.functional}:{f.dim}:{f.basis}:{f.members}")
    for n in range(1, 11):
        for w in range(1, 1 << n):
            f = functional_kernel(w, n)
            parts.append(f"{n}:{w}:{f.dim}:{f.basis}:{f.members}")
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_SPECIAL_HYPERPLANE_DIGEST

"""Forbidden substructure detectors against brute force oracles."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from bmt import detect
from bmt import (
    Matroid,
    ag,
    apply_map,
    circuit,
    critical_number,
    double,
    find_ai4_violation,
    find_doubling_element,
    find_induced_is,
    find_induced_odd_circuit,
    find_triangle,
    i4tf_witness,
    is_affine,
    pg,
    random_members,
    recognize_sag,
    sag,
    stabilizer_flat,
    units,
    xor_translate,
)
from bmt.gf2 import Translates, mask_points, points_mask, random_invertible_map
from oracles import (
    all_subspaces,
    brute_affine_w,
    brute_ai4_violation,
    brute_critical,
    brute_induced_is,
    brute_induced_odd_circuit,
    brute_largest_avoiding_subspace,
    brute_rank,
    brute_recognize_sag,
    brute_triangle,
    independent,
    parity,
    random_affine_bits,
    random_bits,
    xor_span,
)

SEED = 3001


def _witness_points_in(m, w):
    assert all(m.contains(p) for p in w.points)


# E holds the triangle 1 2 3, an induced odd circuit, the induced even
# circuit 1 4 8 13, and the 5-circuit 1 2 4 8 15, whose span also meets E
# at 3 and 7.
_VERIFY_SET = Matroid(4, points_mask((1, 2, 3, 4, 7, 8, 13, 15)))


@pytest.mark.parametrize(
    "kind, points, param",
    [
        ("triangle", (1, 1, 2), None),  # a repeated point
        ("triangle", (1, 4, 5), None),  # 5 is off E
        ("induced_is", (1, 2, 4), 4),  # param is not the size
        ("induced_is", (1, 2, 3), 3),  # dependent
        ("ai4_violation", (1, 2, 3, 4), None),  # dependent
        ("ai4_violation", (1, 2, 4, 8), None),  # 1 + 2 + 4 = 7 is on E
        ("odd_circuit", (1, 2, 4, 7), 4),  # even size
        ("odd_circuit", (1, 2, 4), 3),  # sums to 7, not 0
        ("odd_circuit", (1, 2, 4, 8, 15), 5),  # chords 3 and 7
        ("square", (1, 2), None),  # unknown kind
        ("induced_is", (1, 2), 2),  # the span holds 3, on E
        ("odd_circuit", (1, 2, 3), None),  # no param
        ("odd_circuit", (1, 2, 3), 5),  # param is not the size
        ("odd_circuit", (1,), 1),  # too small
        ("odd_circuit", (1, 4, 8, 13), 4),  # even size, span meets E in it
    ],
)
def test_witness_verify_rejects_corrupted_witness(kind, points, param):
    assert not detect.Witness(kind, points, param).verify(_VERIFY_SET)


def test_witness_verify_rejects_odd_set_that_is_no_circuit():
    # Five points of rank 4 whose span meets E in just them, but whose one
    # dependency is the triangle 1 2 3: they sum to 12, not 0.
    m = Matroid(4, points_mask((1, 2, 3, 4, 8)))
    assert not detect.Witness("odd_circuit", (1, 2, 3, 4, 8), 5).verify(m)


def test_find_triangle_exhaustive_dim3():
    for bits in range(0, 1 << 8, 2):
        m = Matroid(3, bits)
        w = find_triangle(m)
        assert (None if w is None else w.points) == brute_triangle(bits)


def test_find_triangle_random_dim5():
    rng = random.Random(SEED)
    for _ in range(80):
        bits = random_bits(rng, 5)
        m = Matroid(5, bits)
        w = find_triangle(m)
        assert (None if w is None else w.points) == brute_triangle(bits)


def test_find_triangle_sparse_sets_match_brute():
    # Sets of density 1/4 to 1/16, which are often triangle free and
    # otherwise have few triangles, so the first one is not the least pair.
    rng = random.Random(SEED + 9)
    for _ in range(200):
        n = rng.randrange(4, 8)
        bits = random_bits(rng, n)
        for _ in range(rng.randrange(1, 4)):
            bits &= random_bits(rng, n)
        w = find_triangle(Matroid(n, bits))
        assert (None if w is None else w.points) == brute_triangle(bits)


def test_find_induced_is_matches_brute():
    rng = random.Random(SEED + 1)
    for _ in range(150):
        n = rng.randrange(2, 6)
        s = rng.randrange(2, n + 1)
        bits = random_bits(rng, n)
        m = Matroid(n, bits)
        w = find_induced_is(m, s)
        want = brute_induced_is(bits, s)
        assert (w is None) == (want is None)
        if w is not None:
            # The brute force oracle returns the lex-least witness.
            assert w.points == want
            assert len(w.points) == s and w.param == s
            assert independent(w.points)
            extra = xor_span(w.points) - {0} - set(w.points)
            _witness_points_in(m, w)
            assert all(not m.contains(q) for q in extra)


def test_find_induced_is_validation():
    with pytest.raises(ValueError):
        find_induced_is(Matroid(3, 0), 1)
    assert find_induced_is(Matroid(3, 0), 4) is None


def test_find_induced_is_above_the_dimension_finds_nothing():
    # No s points of an n-dimensional space are independent when s > n.
    for n in (1, 2, 3):
        for bits in range(0, 1 << (1 << n), 2):
            m = Matroid(n, bits)
            for s in range(n + 1, 6):
                assert find_induced_is(m, s) is None
            for s in (-1, 0, 1):
                with pytest.raises(ValueError):
                    find_induced_is(m, s)


def test_find_ai4_violation_matches_brute():
    rng = random.Random(SEED + 2)
    for _ in range(120):
        n = rng.randrange(4, 6)
        bits = random_bits(rng, n)
        m = Matroid(n, bits)
        w = find_ai4_violation(m)
        want = brute_ai4_violation(bits)
        assert (w is None) == (want is None)
        if w is not None:
            assert w.points == want
            a, b, c, d = w.points
            total = a ^ b ^ c ^ d
            assert independent(w.points)
            _witness_points_in(m, w)
            assert all(not m.contains(total ^ x) for x in w.points)


def _points(w):
    return None if w is None else w.points


def _sparse_bits(rng, n):
    return sum(1 << p for p in rng.sample(range(1, 1 << n), rng.randrange(4, 1 << (n - 1))))


def _doubled(rng, n, count):
    # double(c) for seeded sets c and class members at dim n, each also
    # with one point of c added or removed, so that witnesses are found
    # and missed.
    cores = [Matroid(n, _sparse_bits(rng, n)) for _ in range(count)]
    for tag in ("ai4", "i4tf_affine", "i4tf_nonaffine"):
        cores += random_members(n, count // 2 + 1, SEED + n, tag)
    out = []
    for c in cores:
        p = rng.randrange(1, 1 << n)
        out += [double(c), double(Matroid(n, c.bits ^ (1 << p)))]
    return out


def _assert_searches_match_brute(sets, n, sizes):
    # Both outcomes must occur, so the exhaustive no-witness path is run
    # as well as the early exit.
    outcomes = set()
    for bits in sets:
        m = Matroid(n, bits)
        for s in sizes:
            want = brute_induced_is(bits, s)
            assert _points(find_induced_is(m, s)) == want
            outcomes.add(("is", s, want is None))
        want = brute_ai4_violation(bits)
        assert _points(find_ai4_violation(m)) == want
        outcomes.add(("ai4", want is None))
    for s in sizes:
        assert {("is", s, True), ("is", s, False)} <= outcomes
    assert {("ai4", True), ("ai4", False)} <= outcomes


def test_dfs_searches_match_brute_without_tables(monkeypatch):
    # At dims 4-5 the quad tables answer s=4 and AI4; switched off, the
    # DFS answers them and must give the same lex-least witnesses.
    monkeypatch.setattr(detect, "_TABLE_DIMS", ())
    rng = random.Random(SEED + 10)
    for n in (4, 5):
        sets = [_sparse_bits(rng, n) for _ in range(40)]
        sets += [random_bits(rng, n) for _ in range(10)]
        for tag in ("ai4", "i4tf_affine", "i4tf_nonaffine"):
            sets += [m.bits for m in random_members(n, 3, SEED, tag)]
        _assert_searches_match_brute(sets, n, (4,))
    # Doubled sets have a nonzero translation stabilizer W (E + w = E).
    # The oracles take seconds on the larger dim-6 sets.  The least AI4
    # violations of double(c) for the four fixed cores c take a point of
    # span + W that is not the least point of its W-coset.
    for n in (5, 6):
        sets = [m.bits for m in _doubled(rng, n - 1, 8 if n == 5 else 3) if m.size <= 32]
        if n == 5:
            sets += [double(Matroid(4, bits)).bits for bits in (1020, 1530, 1782, 2550)]
        assert all(find_doubling_element(Matroid(n, bits)) for bits in sets)
        _assert_searches_match_brute(sets, n, (4,))


def test_dfs_searches_match_brute_dim6():
    rng = random.Random(SEED + 11)
    sets = [_sparse_bits(rng, 6) for _ in range(30)]
    sets += [m.bits for m in (sag(5), double(sag(4)), double(double(sag(3))))]
    sets += [m.bits for m in random_members(6, 2, SEED, "i4tf_affine")]
    # The oracles take seconds on the larger ai4 draws.
    sets += [m.bits for m in random_members(6, 8, SEED + 2, "ai4") if m.size <= 32]
    _assert_searches_match_brute(sets, 6, (3, 4))


# sha256 of the witnesses of _search_inputs(), one "kind:points" per
# search, joined by ";".  At dims 7-8 the oracles are too slow to run,
# and the odd-circuit witness is not the oracle's lex-least set anyway.
FROZEN_SEARCH_DIGEST = "7151bca6a79f3e86563a3bd0d876e4ae8ce50a24ea0b8bde2556795d6759db27"


def _search_inputs():
    rng = random.Random(SEED + 12)
    out = []
    for n in (5, 6, 7):
        out += [Matroid(n, _sparse_bits(rng, n)) for _ in range(8)]
        for tag in ("ai4", "i4tf_affine", "i4tf_nonaffine"):
            out += random_members(n, 3, SEED + 12, tag)
    out.append(apply_map(random_invertible_map(8, rng), double(sag(6))))
    out += random_members(8, 2, SEED + 12, "ai4")
    return out


def test_search_witnesses_frozen():
    parts = []
    for m in _search_inputs():
        found = [find_induced_is(m, 3), find_induced_is(m, 4), find_ai4_violation(m)]
        if m.n <= 7:
            found.append(find_induced_odd_circuit(m))
        parts += ["-" if w is None else f"{w.kind}:{w.points}" for w in found]
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_SEARCH_DIGEST


# sha256 of the witnesses of _doubled_search_inputs(), as for
# FROZEN_SEARCH_DIGEST.  Each input has a nonzero translation stabilizer.
FROZEN_DOUBLED_DIGEST = "ec204a2bd3936df80ae64917bdbee3d580cb4b3b8b775c96bb186cef57bf9e16"


def _doubled_search_inputs():
    rng = random.Random(SEED + 13)
    out = []
    for n in (4, 5, 6, 7):
        out += _doubled(rng, n, 3)
    for k, par in ((1, 7), (2, 6), (3, 5)):
        tower = sag(par)
        for _ in range(k):
            tower = double(tower)
        out.append(apply_map(random_invertible_map(9, rng), tower))
    out.append(ag(9))
    return out


def test_doubled_search_witnesses_frozen():
    parts = []
    outcomes = set()
    for m in _doubled_search_inputs():
        assert find_doubling_element(m) is not None
        found = [find_induced_is(m, 3), find_induced_is(m, 4), find_ai4_violation(m)]
        outcomes |= {(i, w is None) for i, w in enumerate(found)}
        parts += ["-" if w is None else f"{w.kind}:{w.points}" for w in found]
    assert outcomes == {(i, b) for i in range(3) for b in (True, False)}
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_DOUBLED_DIGEST


# sha256 of _quad_tables(n): the "need", "span" and "trip" lists, each
# as its bitsets in hex joined by ";", then the packed quads.
FROZEN_QUAD_TABLE_DIGESTS = {
    4: "beaa19aa1f8e16356f2454c1aa51f19ec1f710f00bc8216547cb301e21d2e52e",
    5: "0a6792b929a605143ab7dc0df75d30f3b567423cb55639f3919db3d67ed4366a",
}


def test_quad_tables_frozen():
    for n, frozen in FROZEN_QUAD_TABLE_DIGESTS.items():
        table = detect._quad_tables(n)
        h = hashlib.sha256()
        for key in ("need", "span", "trip"):
            h.update(";".join("%x" % v for v in table[key]).encode())
        h.update(table["quads"])
        assert h.hexdigest() == frozen, n


def test_pruning_reads_the_stabilizer_flat():
    # On an even-size set, the W that the induced-IS and AI4 searches prune
    # with is the flat stabilizer_flat builds; the coset leaders are the
    # least point of each W-coset.
    rng = random.Random(SEED + 14)
    sets = [m for n in (4, 5) for m in _doubled(rng, n, 2)]
    sets += [Matroid(6, _sparse_bits(rng, 6)) for _ in range(6)] + [ag(6), double(double(sag(4)))]
    sets = [m for m in sets if m.size % 2 == 0]
    assert any(stabilizer_flat(m).flat.dim == 0 for m in sets)
    assert any(stabilizer_flat(m).flat.dim >= 2 for m in sets)
    for m in sets:
        wmask, leaders = detect._doubling_group(Translates(m.bits, m.n))
        assert wmask == stabilizer_flat(m).flat.members | 1
        w = [v for v in range(1 << m.n) if (wmask >> v) & 1]
        least = [v for v in range(1 << m.n) if all(v < v ^ u for u in w[1:])]
        assert leaders == points_mask(least)


def test_ai4_trivial_below_dim4():
    rng = random.Random(SEED + 3)
    for n in (1, 2, 3):
        for _ in range(20):
            assert find_ai4_violation(Matroid(n, random_bits(rng, n))) is None


def test_ai4_known_cases():
    # The 5-circuit violates the condition; projective and affine
    # geometries never do.
    assert find_ai4_violation(circuit(5)) is not None
    assert find_ai4_violation(sag(3)) is not None
    assert find_ai4_violation(pg(4)) is None
    assert find_ai4_violation(ag(4)) is None


def test_i4tf_witness_combines_both_detectors():
    rng = random.Random(SEED + 4)
    for _ in range(150):
        n = rng.randrange(1, 6)
        bits = random_bits(rng, n)
        m = Matroid(n, bits)
        w = i4tf_witness(m)
        tri = brute_triangle(bits)
        i4 = brute_induced_is(bits, 4) if n >= 4 else None
        assert (w is None) == (tri is None and i4 is None)
        if w is not None:
            assert w.kind in ("triangle", "induced_is")


def test_i4tf_known_members():
    assert i4tf_witness(circuit(5)) is None
    assert i4tf_witness(sag(4)) is None
    assert i4tf_witness(ag(3)) is None
    assert i4tf_witness(pg(3)) is not None
    assert i4tf_witness(units(4)).kind == "induced_is"


def test_find_induced_odd_circuit_matches_brute():
    for bits in range(0, 1 << 8, 2):
        m = Matroid(3, bits)
        w = find_induced_odd_circuit(m)
        assert (w is None) == (brute_induced_odd_circuit(bits, 3) is None)
    rng = random.Random(SEED + 5)
    for _ in range(60):
        n = rng.randrange(1, 5)
        bits = random_bits(rng, n)
        m = Matroid(n, bits)
        w = find_induced_odd_circuit(m)
        assert (w is None) == (brute_induced_odd_circuit(bits, n) is None)
        if w is not None:
            pts = w.points
            assert len(pts) == w.param and w.param % 2 == 1
            x = 0
            for p in pts:
                x ^= p
            assert x == 0
            assert brute_rank(pts) == len(pts) - 1
            extra = xor_span(pts) - {0} - set(pts)
            assert all(not m.contains(q) for q in extra)


def test_find_induced_odd_circuit_validation():
    assert find_induced_odd_circuit(circuit(5)).param == 5


def test_affine_iff_no_induced_odd_circuit_exhaustive_dim3():
    for bits in range(0, 1 << 8, 2):
        m = Matroid(3, bits)
        assert is_affine(m) == (find_induced_odd_circuit(m) is None)
    # Seeded affine and non-affine sets at dim 5, against the oracle,
    # which never reads the affine witness that the search stops on.
    rng = random.Random(SEED + 16)
    outcomes = set()
    for i in range(40):
        bits = random_affine_bits(rng, 5) if i % 2 else _sparse_bits(rng, 5)
        m = Matroid(5, bits)
        want = brute_induced_odd_circuit(bits, 5) is None
        assert is_affine(m) == want == (find_induced_odd_circuit(m) is None)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_critical_number_matches_brute():
    for bits in range(0, 1 << 8, 2):
        m = Matroid(3, bits)
        want = brute_critical(bits, 3) if bits else 0
        assert critical_number(m) == want
    rng = random.Random(SEED + 6)
    for _ in range(25):
        bits = random_bits(rng, 4)
        m = Matroid(4, bits)
        want = brute_critical(bits, 4) if bits else 0
        assert critical_number(m) == want


def test_critical_number_matches_subspace_oracle():
    # The subspace oracle against the cover oracle at dim 3, then against
    # critical_number on dense seeded sets at dims 5-6, where chi reaches
    # 3-5 and the flat search decides.
    assert (len(all_subspaces(5)), len(all_subspaces(6))) == (374, 2825)
    for bits in range(2, 1 << 8, 2):
        assert 3 - brute_largest_avoiding_subspace(bits, 3) == brute_critical(bits, 3)
    rng = random.Random(SEED + 15)
    seen = set()
    for n in (5, 6):
        for _ in range(30):
            k = rng.randrange(1 << (n - 1), 1 << n)
            bits = points_mask(rng.sample(range(1, 1 << n), k))
            want = n - brute_largest_avoiding_subspace(bits, n)
            assert critical_number(Matroid(n, bits)) == want
            seen.add(want)
    assert {3, 4, 5} <= seen


def test_critical_number_known_values():
    assert critical_number(Matroid(3, 0)) == 0
    for n in (2, 3, 4, 5):
        assert critical_number(pg(n)) == n
        assert critical_number(ag(n)) == 1
    for m in (3, 4, 5):
        assert critical_number(sag(m)) == 2


# sha256 of "chi:odd circuit" for each of _chi_inputs(), joined by ";":
# every set at dims 1-4, seeded sets at dims 5-6 across densities, and
# class members at dims 5-7.
FROZEN_CHI_DIGEST = "dcbedca0b86aa3ff481dd66e029a44edec3fab0095b56f2be0918351e6471b28"


def _chi_inputs():
    out = [Matroid(n, bits) for n in (1, 2, 3, 4) for bits in range(0, 1 << (1 << n), 2)]
    rng = random.Random(SEED + 14)
    for n in (5, 6):
        for density in (0.15, 0.3, 0.5, 0.7, 0.85):
            for _ in range(6):
                k = max(1, round(density * ((1 << n) - 1)))
                out.append(Matroid(n, points_mask(rng.sample(range(1, 1 << n), k))))
    for n in (5, 6, 7):
        for tag in ("ai4", "i4tf_affine", "i4tf_nonaffine"):
            out += random_members(n, 4, SEED + 14, tag)
    return out


def test_chi_and_odd_circuit_frozen():
    parts = []
    for m in _chi_inputs():
        w = find_induced_odd_circuit(m)
        parts.append(f"{critical_number(m)}:" + ("-" if w is None else f"{w.points}"))
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_CHI_DIGEST


def test_find_doubling_element():
    rng = random.Random(SEED + 7)
    for _ in range(60):
        n = rng.randrange(1, 5)
        core = Matroid(n, random_bits(rng, n))
        if core.size == 0:
            continue
        d = double(core)
        found = find_doubling_element(d)
        assert found is not None
        w, flat = found
        assert xor_translate(d.bits, w) == d.bits
        # The flat is a hyperplane missing w, so it splits E into the two
        # translated halves.
        assert not flat.contains(w)
        half = d.bits & flat.members
        assert xor_translate(half, w) == d.bits & ~flat.members
    # No doubling element in a 5-circuit or a projective geometry.
    assert find_doubling_element(circuit(5)) is None
    assert find_doubling_element(pg(3)) is None


def test_recognize_sag():
    rng = random.Random(SEED + 8)
    for m in (3, 4, 5, 6):
        s = sag(m)
        rec = recognize_sag(s)
        assert rec is not None and rec[0] == m
        assert apply_map(rec[1], sag(m)) == s
        g = random_invertible_map(s.n, rng)
        moved = apply_map(g, s)
        rec2 = recognize_sag(moved)
        assert rec2 is not None and rec2[0] == m
        assert apply_map(rec2[1], sag(m)) == moved
    assert recognize_sag(pg(3)) is None
    assert recognize_sag(ag(4)) is None
    assert recognize_sag(double(sag(3))) is None
    # Ten pairs of sag(3) pass under any labeling; the lex-least is read.
    for s in range(20):
        moved = apply_map(random_invertible_map(4, s), sag(3))
        rec = recognize_sag(moved)
        assert (rec[0], tuple(rec[1].images)) == brute_recognize_sag(moved.bits, 4)


@st.composite
def _sag_cases(draw):
    # A relabeled sag(k), k = 3..7, possibly with one point swapped out; a
    # random set of the size recognize_sag reads, 2^(n-2) + 1 points at
    # n = 4..8; or a set of that size inside a hyperplane.
    kind = draw(st.sampled_from(("sag", "random", "hyperplane")))
    if kind == "sag":
        n = draw(st.integers(4, 8))
        bits = sag(n - 1).bits
        if draw(st.booleans()):
            pts = mask_points(bits)
            out = draw(st.sampled_from(pts))
            new = draw(st.sampled_from([p for p in range(1, 1 << n) if p not in pts]))
            bits ^= (1 << out) | (1 << new)
    else:
        n = draw(st.integers(4, 8))
        top = 1 << (n - 1 if kind == "hyperplane" else n)
        pts = draw(
            st.lists(
                st.integers(1, top - 1),
                min_size=(1 << (n - 2)) + 1,
                max_size=(1 << (n - 2)) + 1,
                unique=True,
            )
        )
        bits = points_mask(pts)
    g = random_invertible_map(n, draw(st.integers(0, 2**32 - 1)))
    return apply_map(g, Matroid(n, bits))


@settings(max_examples=80, deadline=None)
@given(_sag_cases())
def test_recognize_sag_matches_brute_force(m):
    rec = recognize_sag(m)
    got = None if rec is None else (rec[0], tuple(rec[1].images))
    assert got == brute_recognize_sag(m.bits, m.n)
    # recognize_sag does not replay its map; the proof in its docstring
    # says the replay always matches.
    if rec is not None:
        assert apply_map(rec[1], sag(rec[0])) == m

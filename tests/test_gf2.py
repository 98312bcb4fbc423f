"""Linear algebra layer: spans, solving, maps, canonical labeling."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bmt.gf2 import (
    LinearMap,
    Translates,
    Transvections,
    canonical_form_bits,
    closure,
    compose,
    functional_kernel,
    identity_map,
    invert,
    kernel_list,
    linear_system_solve,
    mask_points,
    points_mask,
    random_invertible_map,
    rank,
    rref,
    span_members,
    stabilizer,
    translate_list,
    xor_translate,
)
from oracles import (
    brute_canonical,
    brute_rank,
    brute_transvections,
    gl_images,
    hyperplanes,
    independent,
    map_bits,
    map_point,
    parity,
    points_of,
    random_bits,
    random_gl,
    xor_span,
)

SEED = 1009


def test_mask_points_round_trip():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        bits = random_bits(rng, 4)
        pts = mask_points(bits)
        assert pts == points_of(bits)
        assert points_mask(pts) == bits


def test_mask_points_rejects_a_negative_mask():
    # mask & -mask never clears the sign, so the loop would not end.
    with pytest.raises(ValueError):
        mask_points(-0x6E52)
    assert mask_points(0) == []


def test_rref_preserves_span_and_is_reduced():
    rng = random.Random(SEED + 2)
    for _ in range(200):
        vecs = [rng.randrange(1 << 5) for _ in range(rng.randrange(6))]
        basis = rref(vecs)
        assert xor_span(basis) == xor_span(vecs)
        assert len(basis) == brute_rank(vecs)
        # Each leading bit appears in exactly one basis vector.
        for v in basis:
            lead = v.bit_length() - 1
            assert sum((u >> lead) & 1 for u in basis) == 1


def test_rank_and_independence_match_brute():
    rng = random.Random(SEED + 3)
    for _ in range(300):
        vecs = [rng.randrange(1 << 5) for _ in range(rng.randrange(7))]
        assert rank(vecs) == brute_rank(vecs)
        assert (rank(vecs) == len(vecs)) == independent(vecs)


def test_span_members_matches_brute():
    rng = random.Random(SEED + 4)
    for _ in range(100):
        vecs = [rng.randrange(1, 1 << 5) for _ in range(rng.randrange(1, 4))]
        members = span_members(vecs)
        assert set(points_of(members)) == xor_span(vecs) - {0}


def test_closure_shape():
    f = closure((3, 5), 3)
    assert f.dim == 2
    assert set(f.points()) == {3, 5, 6}
    assert f.size == 3
    rng = random.Random(SEED + 5)
    for _ in range(60):
        pts = [rng.randrange(1, 16) for _ in range(rng.randrange(4))]
        f = closure(pts, 4)
        assert f.size == (1 << f.dim) - 1
        assert set(f.points()) == xor_span(pts) - {0}
        assert independent(f.basis)


def test_functional_kernel_and_hyperplanes():
    for n in (2, 3, 4):
        for w, members in hyperplanes(n):
            flat = functional_kernel(w, n)
            assert flat.dim == n - 1
            assert flat.members == members
    # The kernel's basis is built reduced, for every w up to dimension 10.
    for n in range(1, 11):
        for w in range(1, 1 << n):
            basis = functional_kernel(w, n).basis
            assert rref(basis) == basis


def test_kernel_list_matches_brute_force():
    # Entry f holds the points x != 0 with <f, x> = 0, so entry 0 holds
    # every point.
    for n in range(1, 7):
        kernels = kernel_list(n)
        assert len(kernels) == 1 << n
        for f, got in enumerate(kernels):
            want = sum(1 << x for x in range(1, 1 << n) if parity(f & x) == 0)
            assert got == want, (n, f)


def test_transvections_match_brute_force():
    # Every w, in the stabilizer or not, on sampled sets at d <= 4, the
    # empty set and the full set among them, over the lazy table and the
    # flat list of translates.
    rng = random.Random(SEED + 11)
    for n in (1, 2, 3, 4):
        full = (1 << (1 << n)) - 2
        for bits in [0, full] + [random_bits(rng, n) for _ in range(10)]:
            for translates in (Translates, translate_list):
                got = Transvections(translates(bits, n), kernel_list(n))
                for w in range(1, 1 << n):
                    assert got[w] == brute_transvections(bits, n, w), (n, bits, w)


def test_linear_system_solve_consistent():
    rng = random.Random(SEED + 6)
    for _ in range(200):
        n = rng.randrange(2, 7)
        x0 = rng.randrange(1 << n)
        rows = [rng.randrange(1 << n) for _ in range(rng.randrange(1, n + 2))]
        rhs = [parity(r & x0) for r in rows]
        x, kernel = linear_system_solve(rows, rhs, n)
        assert x is not None
        assert all(parity(r & x) == b for r, b in zip(rows, rhs))
        # Kernel basis spans exactly the solutions of the homogeneous system.
        assert len(kernel) == n - brute_rank(rows)
        for k in kernel:
            assert all(parity(r & k) == 0 for r in rows)
        # Least representative of the solution coset.
        assert all(x <= (x ^ s) for s in xor_span(kernel))


def test_linear_system_solve_inconsistent():
    # x1 = 0 and x1 = 1 cannot both hold.
    x, kernel = linear_system_solve([1, 1], [0, 1], 3)
    assert x is None
    assert xor_span(kernel) == {0, 2, 4, 6}


def test_linear_map_apply_matches_brute():
    rng = random.Random(SEED + 7)
    for _ in range(100):
        n = rng.randrange(1, 6)
        images = tuple(rng.randrange(1 << n) for _ in range(n))
        g = LinearMap(n, n, images)
        for _ in range(5):
            x = rng.randrange(1 << n)
            assert g.apply(x) == map_point(images, x)
        bits = random_bits(rng, n)
        if g.is_invertible():
            assert g.apply_mask(bits) == map_bits(images, bits)
        assert g.is_invertible() == independent(images)


def test_identity_compose_invert_laws():
    rng = random.Random(SEED + 8)
    for _ in range(100):
        n = rng.randrange(1, 6)
        g = random_invertible_map(n, rng)
        h = random_invertible_map(n, rng)
        assert compose(g, invert(g)).images == identity_map(n).images
        assert compose(invert(g), g).images == identity_map(n).images
        x = rng.randrange(1 << n)
        # compose(g, h) applies h first.
        assert compose(g, h).apply(x) == g.apply(h.apply(x))


def test_random_invertible_map_seeding():
    a = random_invertible_map(5, 77)
    b = random_invertible_map(5, 77)
    c = random_invertible_map(5, random.Random(77))
    assert a.images == b.images == c.images
    assert a.is_invertible()


@st.composite
def _table_cases(draw, max_n=10):
    # Any bit set over the 2^n positions (point 0 included), with the
    # empty and full sets drawn on purpose, and half of the others
    # doubled so that E + 2^(n-1) = E.
    n = draw(st.integers(1, max_n))
    full = (1 << (1 << n)) - 1
    mask = draw(st.sampled_from((0, full)) | st.integers(0, full))
    if n > 1 and draw(st.booleans()):
        half = 1 << (n - 1)
        mask &= (1 << half) - 1
        mask |= mask << half
    return mask, n


@settings(max_examples=30, deadline=None)
@given(_table_cases())
def test_translates_match_xor_translate(case):
    mask, n = case
    table = Translates(mask, n)
    want = [xor_translate(mask, v) for v in range(1 << n)]
    assert stabilizer(table, n) == points_mask(v for v in range(1 << n) if want[v] == mask)
    assert [table[v] for v in range(1 << n)] == want
    assert len(table) == 1 << n


@settings(max_examples=30, deadline=None)
@given(_table_cases(max_n=8))
@example((0x6666, 4))  # W = {0, 4, 8, 12}
def test_translate_list_matches_xor_translate(case):
    # The flat list canonical_form_bits reads its columns from, and the
    # stabilizer it reads off that list.
    mask, n = case
    flat = translate_list(mask, n)
    assert flat == [xor_translate(mask, v) for v in range(1 << n)]
    wmask = points_mask(v for v, t in enumerate(flat) if t == mask)
    assert stabilizer(flat, n) == wmask == stabilizer(Translates(mask, n), n)


def test_canonical_form_bits_exhaustive_dim3():
    for bits in range(0, 1 << 8, 2):
        canon, g = canonical_form_bits(3, bits)
        assert canon == brute_canonical(bits, 3)
        assert g.apply_mask(bits) == canon


def test_canonical_form_bits_sampled_dim4():
    rng = random.Random(SEED + 9)
    for _ in range(12):
        bits = random_bits(rng, 4)
        canon, g = canonical_form_bits(4, bits)
        assert canon == brute_canonical(bits, 4)
        assert g.apply_mask(bits) == canon


def test_canonical_form_bits_relabel_invariant_dim5():
    rng = random.Random(SEED + 10)
    for _ in range(40):
        bits = random_bits(rng, 5)
        images = random_gl(rng, 5)
        moved = map_bits(images, bits)
        assert canonical_form_bits(5, bits)[0] == canonical_form_bits(5, moved)[0]


def test_gl_orbit_sizes_dim3():
    # Orbit-stabilizer sanity for the brute canonical helper itself: orbit
    # sizes over all of GL(3,2) divide the group order.
    orbits = {}
    for bits in range(0, 1 << 8, 2):
        orbits.setdefault(brute_canonical(bits, 3), set()).add(bits)
    assert sum(len(v) for v in orbits.values()) == 128
    for canon, members in orbits.items():
        assert canon in members
        assert len(gl_images(3)) % len(members) == 0


def _burnside_orbit_count(n):
    # Orbits of GL(n, 2) on the point sets of PG(n-1, 2): the mean over
    # the group of 2^(cycles of g on the points).
    total = 0
    for images in gl_images(n):
        perm = {p: map_point(images, p) for p in range(1, 1 << n)}
        cycles = 0
        while perm:
            p, q = perm.popitem()
            cycles += 1
            while q in perm:
                q = perm.pop(q)
        total += 2**cycles
    assert total % len(gl_images(n)) == 0
    return total // len(gl_images(n))


def test_canonical_form_bits_exhaustive_dim4():
    # Every set maps onto its form, so each orbit holds a form; as many
    # forms as orbits means each orbit holds exactly one.
    forms = set()
    for bits in range(0, 1 << 16, 2):
        canon, g = canonical_form_bits(4, bits)
        assert g.apply_mask(bits) == canon
        forms.add(canon)
    assert len(forms) == _burnside_orbit_count(4) == 46

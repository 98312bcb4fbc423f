"""Matroid container, text format, restriction, stabilizer flat."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from bmt import (
    FormatError,
    Matroid,
    affine_witness,
    apply_map,
    canonical_form,
    complement,
    from_points,
    induced_restriction,
    is_affine,
    parse_bmat,
    restrict_to_closure,
    serialize_bmat,
    stabilizer_flat,
    sumset,
    xor_translate,
)
import bmt.gf2
import bmt.matroid
from bmt.gf2 import closure, random_invertible_map, rref, span_members
from bmt.matroid import MAX_DIM
from oracles import (
    brute_affine_w,
    brute_rank,
    brute_translate,
    points_of,
    random_bits,
    random_gl,
    xor_span,
)

SEED = 2003


def _bits_text(m):
    # The `bits=` form of a BMAT document, which serialize_bmat does not
    # write but parse_bmat reads.
    return f"BMAT1 dim={m.n}\nbits={format(m.bits, 'x')[::-1]}\n"


def test_matroid_validation():
    with pytest.raises(ValueError):
        Matroid(0, 0)
    with pytest.raises(ValueError):
        Matroid(2, 1)  # zero vector
    with pytest.raises(ValueError):
        Matroid(2, 1 << 20)  # out of range
    m = Matroid(3, 0b10110)
    assert m.points == (1, 2, 4)
    assert m.size == 3
    assert m.contains(2) and not m.contains(3)


def test_from_points_validation():
    assert from_points(3, [1, 2, 4]).bits == 0b10110
    with pytest.raises(ValueError):
        from_points(3, [0])
    with pytest.raises(ValueError):
        from_points(3, [8])
    with pytest.raises(ValueError):
        from_points(3, [3, 3])


def test_complement():
    rng = random.Random(SEED)
    for _ in range(50):
        n = rng.randrange(1, 6)
        m = Matroid(n, random_bits(rng, n))
        c = complement(m)
        assert c.size == (1 << n) - 1 - m.size
        assert complement(c) == m


def _mask_set(mask):
    return {p for p in range(mask.bit_length()) if (mask >> p) & 1}


def test_xor_translate_and_sumset():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        bits = random_bits(rng, 4)
        x = rng.randrange(16)
        assert _mask_set(xor_translate(bits, x)) == {p ^ x for p in _mask_set(bits)}
        other = random_bits(rng, 4)
        want = {p ^ q for p in _mask_set(bits) for q in _mask_set(other)} - {0}
        assert _mask_set(sumset(bits, other)) == want


@st.composite
def _translate_cases(draw):
    # Any bit set over the 2^n positions (point 0 included), with the
    # empty and full sets and x = 0 drawn on purpose.
    n = draw(st.integers(1, MAX_DIM))
    full = (1 << (1 << n)) - 1
    mask = draw(st.sampled_from((0, full)) | st.integers(0, full))
    x = draw(st.just(0) | st.integers(0, (1 << n) - 1))
    return mask, x


@settings(max_examples=30, deadline=None)
@given(_translate_cases())
def test_xor_translate_matches_brute(case):
    mask, x = case
    assert xor_translate(mask, x) == brute_translate(mask, x)
    assert xor_translate(xor_translate(mask, x), x) == mask


def test_one_translation_kernel():
    # matroid and the package re-export gf2's kernel and its bound.
    assert bmt.matroid.xor_translate is bmt.gf2.xor_translate
    assert xor_translate is bmt.gf2.xor_translate
    assert MAX_DIM == bmt.gf2.MAX_DIM


def test_bmat_round_trip_points_and_bits():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        n = rng.randrange(1, 7)
        m = Matroid(n, random_bits(rng, n))
        assert parse_bmat(serialize_bmat(m)) == m
        assert parse_bmat(_bits_text(m)) == m


def test_bmat_known_document():
    text = "BMAT1 dim=4\npoints=5 6 7 8 12\n"
    m = parse_bmat(text)
    assert m.points == (5, 6, 7, 8, 12)
    assert serialize_bmat(m) == text


def test_parse_bmat_errors():
    bad = [
        "",
        "BMAT1 dim=3",
        "BMAT2 dim=3\npoints=1",
        "BMAT1 dim=3\npoints=0",
        "BMAT1 dim=3\npoints=9",
        "BMAT1 dim=3\npoints=1 1",
        "BMAT1 dim=0\npoints=",
        "BMAT1 dim=3\nbits=zz",
        "BMAT1 dim=2\nbits=1",  # bit 0 set
        "BMAT1 dim=1\nbits=4",  # past the dimension
    ]
    for text in bad:
        with pytest.raises(FormatError):
            parse_bmat(text)


def test_parse_bmat_bits_take_hex_digits_only():
    # int(payload, 16) alone reads a sign, spaces and underscores; the
    # payload is reversed first, so "25e6-" would become -0x6e52.
    for payload in ("25e6-", "2+", "+2", "-2", " 2", "2 ", "2_2", "0x2", "x02", "\u0663"):
        with pytest.raises(FormatError):
            parse_bmat(f"BMAT1 dim=2\nbits={payload}")
    assert parse_bmat("BMAT1 dim=3\nbits=0A").points == (5, 7)


def test_parse_bmat_dim_and_points_take_decimal_digits_only():
    # int() alone reads a sign, spaces, underscores and non-ASCII digits.
    for dim in (" 3", "+3", "3 ", "0_3", "\u0663", "3.0", ""):
        with pytest.raises(FormatError, match="bad dimension"):
            parse_bmat(f"BMAT1 dim={dim}\npoints=1")
    for tok in ("+1", "-1", "2_0", "\u0663", "0x3", "1.0"):
        with pytest.raises(FormatError, match="bad point"):
            parse_bmat(f"BMAT1 dim=5\npoints=1 {tok}")
    assert parse_bmat("BMAT1 dim=05\npoints=1 20").points == (1, 20)


def test_parse_bmat_points_take_single_ascii_spaces_only():
    # str.split() would read any run of whitespace as one separator.
    for sep in ("\u00a0", "\u3000", "\u001c", "\t", "  "):
        with pytest.raises(FormatError, match="bad point"):
            parse_bmat(f"BMAT1 dim=3\npoints=1{sep}2")
    for payload in (" 1 2", "1 2 ", " "):
        with pytest.raises(FormatError, match="bad point"):
            parse_bmat(f"BMAT1 dim=3\npoints={payload}")
    assert parse_bmat("BMAT1 dim=3\npoints=1 2").points == (1, 2)
    assert parse_bmat("BMAT1 dim=3\npoints=").points == ()


@st.composite
def _bmat_texts(draw):
    # Near-misses of the format as well as arbitrary text.
    head = draw(st.sampled_from(("BMAT1 dim=", "BMAT1 dim=", "BMAT2 dim=", "")))
    head += draw(st.sampled_from(("2", "3", "5", "16", "17", "-1", " 3")) | st.text(max_size=3))
    body = draw(st.sampled_from(("bits=", "points=", "")))
    digits = draw(st.text("0123456789abcdefAB", max_size=8))
    # One stray character at either end, at any other place, or none.
    at = draw(st.sampled_from((0, len(digits))) | st.integers(0, len(digits)))
    stray = draw(st.sampled_from(("", "+", "-", "_", "x", ".", "\t")) | st.text(max_size=1))
    body += digits[:at] + stray + digits[at:]
    tail = draw(st.sampled_from(("", "\n", "\n\n", "\nx")))
    return head + "\n" + body + tail


@settings(max_examples=300, deadline=None)
@given(_bmat_texts() | st.text(max_size=40))
def test_parse_bmat_fuzz_gives_matroid_or_format_error(text):
    try:
        m = parse_bmat(text)
    except FormatError:
        return
    assert parse_bmat(_bits_text(m)) == m


@st.composite
def _bmat_cases(draw):
    # A point set of PG(n-1, 2), empty and full sets drawn on purpose, and
    # a text form.
    n = draw(st.integers(1, 8))
    full = (1 << (1 << n)) - 2
    bits = draw(st.sampled_from((0, full)) | st.integers(0, full)) & full
    return Matroid(n, bits), draw(st.sampled_from(("points", "bits")))


@settings(max_examples=100, deadline=None)
@given(_bmat_cases())
def test_bmat_round_trip_property(case):
    m, form = case
    write = serialize_bmat if form == "points" else _bits_text
    text = write(m)
    assert parse_bmat(text) == m
    assert write(parse_bmat(text)) == text


def test_apply_map_is_a_group_action():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = Matroid(n, random_bits(rng, n))
        g = random_invertible_map(n, rng)
        moved = apply_map(g, m)
        assert moved.size == m.size
        back = apply_map(random_invertible_map(n, rng), moved)
        assert back.size == m.size
    with pytest.raises(ValueError):
        apply_map(random_invertible_map(3, 1), Matroid(4, 0))


@st.composite
def _canon_cases(draw):
    # A point set of PG(n-1, 2), empty and full sets drawn on purpose, half
    # of the others doubled so that E + 2^(n-1) = E, and a seeded
    # invertible map to relabel it by.
    n = draw(st.integers(1, 6))
    full = (1 << (1 << n)) - 2
    bits = draw(st.sampled_from((0, full)) | st.integers(0, full)) & full
    if n > 1 and draw(st.booleans()):
        half = 1 << (n - 1)
        bits &= (1 << half) - 1
        bits |= bits << half
    g = random_invertible_map(n, draw(st.integers(0, 2**32)))
    return Matroid(n, bits), g


@settings(max_examples=40, deadline=None)
@given(_canon_cases())
def test_canonical_form_properties(case):
    m, g = case
    canon, cmap = canonical_form(m)
    assert apply_map(cmap, m) == canon
    assert canonical_form(canon)[0] == canon
    assert canonical_form(apply_map(g, m))[0] == canon


def test_induced_restriction_keeps_flat_structure():
    rng = random.Random(SEED + 4)
    for _ in range(60):
        n = rng.randrange(2, 6)
        m = Matroid(n, random_bits(rng, n))
        pts = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, n))]
        flat = closure(pts, n)
        inner, emb = induced_restriction(m, flat)
        assert inner.n == flat.dim
        # The embedding carries the restriction back onto E within the flat.
        assert emb.apply_mask(inner.bits) == m.bits & flat.members


def test_restrict_to_closure():
    rng = random.Random(SEED + 5)
    for _ in range(80):
        n = rng.randrange(1, 7)
        m = Matroid(n, random_bits(rng, n))
        res = restrict_to_closure(m)
        # Ambient dimension never drops below 1, even for the empty set.
        r = max(brute_rank(m.points), 1)
        assert res.rank_deficient == (r < n)
        assert res.matroid.n == r
        assert res.matroid.size == m.size
        assert res.embed.apply_mask(res.matroid.bits) == m.bits
        # Already full rank: the restriction is the identity embedding.
        if not res.rank_deficient:
            assert res.matroid == m


def test_affine_witness_matches_brute():
    rng = random.Random(SEED + 6)
    for bits in range(0, 1 << 8, 2):
        m = Matroid(3, bits)
        assert affine_witness(m) == brute_affine_w(bits, 3)
        assert is_affine(m) == (brute_affine_w(bits, 3) is not None)
    for _ in range(60):
        n = rng.randrange(1, 6)
        bits = random_bits(rng, n)
        assert affine_witness(Matroid(n, bits)) == brute_affine_w(bits, n)


def test_stabilizer_flat_translation_group():
    rng = random.Random(SEED + 7)
    checked = 0
    for _ in range(300):
        n = rng.randrange(1, 6)
        bits = random_bits(rng, n)
        m = Matroid(n, bits)
        res = stabilizer_flat(m)
        # Members of the flat really stabilize the even-cardinality side.
        full = (1 << (1 << n)) - 2
        target = bits if m.size % 2 == 0 else bits ^ full
        stab = {x for x in range(1, 1 << n) if xor_translate(target, x) == target}
        assert set(res.flat.points()) == stab
        # The translates tile E (plus 0 when |E| is odd) by flat cosets.
        cosets = set()
        space = xor_span(res.flat.points()) if stab else {0}
        for t in res.translates:
            cosets |= {t ^ u for u in space}
        want = set(points_of(bits)) | ({0} if m.size % 2 else set())
        assert cosets == want
        checked += 1
    assert checked == 300


def test_stabilizer_flat_doubled_example():
    from bmt import double, sag

    res = stabilizer_flat(double(sag(3)))
    assert res.flat.dim == 1
    assert res.flat.points() == [16]
    assert res.translates == (5, 6, 7, 8, 12)


# sha256 of "flat basis:flat members:translates:span of the six least
# points:span of the reduced basis of E" for each of _stabilizer_inputs(),
# joined by ";": every set at dims 1-4, seeded sets at dims 5-8, and
# seeded sets at dims 4-7 doubled once or twice.
FROZEN_STABILIZER_DIGEST = "d2a38ff57b89cfd8f89044a3c6ea550ddb5c8c2c4e13c289d740250911dd7b20"


def _stabilizer_inputs():
    from bmt import double

    out = [Matroid(n, bits) for n in (1, 2, 3, 4) for bits in range(0, 1 << (1 << n), 2)]
    rng = random.Random(SEED + 20)
    for n in (5, 6, 7, 8):
        for density in (0.15, 0.5, 0.85):
            for _ in range(10):
                k = max(1, round(density * ((1 << n) - 1)))
                out.append(from_points(n, rng.sample(range(1, 1 << n), k)))
                half = Matroid(n - 1, random_bits(rng, n - 1))
                out.append(double(double(half)) if n > 5 and rng.random() < 0.5 else double(half))
    return out


def test_stabilizer_flat_and_span_frozen():
    parts = []
    for m in _stabilizer_inputs():
        st = stabilizer_flat(m)
        spans = (span_members(m.points[:6]), span_members(rref(m.points)))
        parts.append(f"{st.flat.basis}:{st.flat.members:x}:{st.translates}:{spans[0]:x}:{spans[1]:x}")
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_STABILIZER_DIGEST


def test_canonical_form_idempotent_and_invariant():
    rng = random.Random(SEED + 8)
    for _ in range(50):
        n = rng.randrange(1, 6)
        m = Matroid(n, random_bits(rng, n))
        canon, g = canonical_form(m)
        assert apply_map(g, m) == canon
        again, _ = canonical_form(canon)
        assert again == canon
        moved = apply_map(random_invertible_map(n, rng), m)
        assert canonical_form(moved)[0] == canon

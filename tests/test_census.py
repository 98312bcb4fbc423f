"""Class censuses, the exhaustive crosscheck, and sampling."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bmt import (
    CensusReport,
    Matroid,
    affine_witness,
    ag,
    apply_map,
    canonical_form,
    circuit,
    complement,
    decompose_i4tf,
    double,
    enumerate_generated,
    exhaustive_crosscheck,
    find_ai4_violation,
    i4tf_witness,
    is_affine,
    normal_form_certificate,
    parse_bmat,
    random_members,
    sag,
    units,
)
from bmt import census
from bmt.detect import Witness
from bmt.gf2 import Translates, canonical_form_bits, random_invertible_map, stabilizer

SEED = 6007

# Class counts for the generated censuses at small dimensions.
NONAFFINE_CLASSES = {4: 1, 5: 2, 6: 3}
AFFINE_CLASSES = {1: 2, 2: 3, 3: 5, 4: 9}
AI4_CLASSES = {1: 2, 2: 4, 3: 10, 4: 26}


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_generated(0, "ai4")
    with pytest.raises(ValueError):
        enumerate_generated(9, "ai4")
    with pytest.raises(ValueError):
        enumerate_generated(4, "bogus")


def test_enumerate_nonaffine_counts():
    for dim, want in NONAFFINE_CLASSES.items():
        rep = enumerate_generated(dim, "i4tf_nonaffine")
        assert rep.iso_classes == want
        assert len(rep.representatives) == want
    # Nothing nonaffine exists below dimension 4.
    assert enumerate_generated(3, "i4tf_nonaffine").iso_classes == 0


def test_enumerate_affine_counts():
    for dim, want in AFFINE_CLASSES.items():
        rep = enumerate_generated(dim, "i4tf_affine")
        assert rep.iso_classes == want


def test_enumerate_ai4_counts():
    for dim, want in AI4_CLASSES.items():
        rep = enumerate_generated(dim, "ai4")
        assert rep.iso_classes == want


def test_representatives_are_canonical_members():
    for tag in ("i4tf_nonaffine", "i4tf_affine", "ai4"):
        rep = enumerate_generated(4, tag)
        assert rep.total_labeled >= rep.iso_classes
        seen = set()
        for r in rep.representatives:
            assert r.n == 4
            assert canonical_form(r)[0] == r
            assert r.bits not in seen
            seen.add(r.bits)
            if tag == "ai4":
                assert find_ai4_violation(r) is None
            else:
                assert i4tf_witness(r) is None
                assert is_affine(r) == (tag == "i4tf_affine")


def test_enumerate_threads_agree():
    # At ai4 d5 one process stops 27 searches at forms found before them,
    # and the pool, whose tasks each get a copy of the empty set, none.
    for tag, dim in (
        ("i4tf_affine", 5),
        ("ai4", 4),
        ("ai4", 5),
        ("i4tf_nonaffine", 6),
    ):
        one = enumerate_generated(dim, tag, threads=1)
        two = enumerate_generated(dim, tag, threads=2)
        assert one.iso_classes == two.iso_classes
        assert one.total_labeled == two.total_labeled
        assert [r.bits for r in one.representatives] == [
            r.bits for r in two.representatives
        ]


def _stays_canonical(n, c):
    # c, a least image under GL(n), read at one and two dimensions up.
    return all(canonical_form_bits(n + k, c)[0] == c for k in (1, 2))


def test_canonical_forms_stay_canonical_one_dimension_up():
    # walk_grammar takes an image with a representative's bits as its own
    # form without a search; this is the claim that makes that sound.
    forms = [
        (m.n, m.bits)
        for tag in ("i4tf_affine", "ai4")
        for dim in range(1, 7)
        for m in enumerate_generated(dim, tag).representatives
    ]
    rng = random.Random(SEED)
    for n in (5, 6):
        for _ in range(10):
            forms.append((n, canonical_form_bits(n, rng.getrandbits(1 << n) & ~1)[0]))
    assert all(_stays_canonical(n, c) for n, c in forms)


@settings(max_examples=50, deadline=None)
@given(dim=st.integers(1, 5), bits=st.integers(0, 2**32 - 1))
def test_canonical_form_stays_canonical_property(dim, bits):
    bits &= (1 << (1 << dim)) - 2
    assert _stays_canonical(dim, canonical_form_bits(dim, bits)[0])


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 5),
    bits=st.integers(0, 2**32 - 1),
    others=st.lists(st.integers(0, 2**32 - 1), max_size=4),
    relabel=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_known_forms_leave_form_and_map_unchanged(dim, bits, others, relabel, seed):
    # A search that reaches a form in known stops there; it must return the
    # same form and the same map as a search without known, and add the
    # form's blocks to known exactly when the form is new.
    full = (1 << (1 << dim)) - 2
    bits &= full
    sources = [b & full for b in others]
    if relabel:
        sources.append(random_invertible_map(dim, seed).apply_mask(bits))
    known = set()
    for b in sources:
        canonical_form_bits(dim, b, known)
    forms = {canonical_form_bits(dim, b)[0] for b in sources}
    size = len(known)
    want = canonical_form_bits(dim, bits)
    assert canonical_form_bits(dim, bits, known) == want
    new = want[0] not in forms and bits not in (0, full)
    assert len(known) == size + new


# Canonical-form searches per census over the census benchmark workload,
# and how many of them stopped at a form found before them at their level:
# an image with a representative's bits (alpha0, expand0) skips its own.
CENSUS_SEARCHES = {
    ("i4tf_affine", 6): (36, 0),
    ("ai4", 5): (106, 27),
    ("i4tf_nonaffine", 7): (4, 0),
}


def test_census_searches_only_new_images(monkeypatch):
    # A search that leaves its set of known forms as it was stopped early;
    # the empty and the full set are their own forms and add nothing.
    stops = []
    real = census.canonical_form

    def counted(m, known):
        before = len(known)
        out = real(m, known)
        trivial = m.bits in (0, (1 << (1 << m.n)) - 2)
        stops.append(len(known) == before and not trivial)
        return out

    monkeypatch.setattr(census, "canonical_form", counted)
    counts = {}
    for tag, dim in CENSUS_SEARCHES:
        stops.clear()
        enumerate_generated(dim, tag)
        counts[tag, dim] = (len(stops), sum(stops))
    assert counts == CENSUS_SEARCHES


def test_census_report_json_and_files(tmp_path):
    rep = enumerate_generated(4, "i4tf_nonaffine")
    doc = json.loads(rep.to_json())
    assert doc["dim"] == 4
    assert doc["class"] == "i4tf_nonaffine"
    assert doc["iso_classes"] == 1
    assert doc["representatives"] == [[1, 2, 4, 8, 15]]
    paths = rep.write_representatives(tmp_path)
    assert len(paths) == 1
    back = parse_bmat((tmp_path / "i4tf_nonaffine-d4-000.bmat").read_text())
    assert back == rep.representatives[0]
    assert "idx" in rep.table()


def test_exhaustive_crosscheck_dim3():
    rep = exhaustive_crosscheck(3)
    assert rep.subsets == 128
    assert rep.discrepancies == ()
    assert rep.tally["i4tf_affine"] == {"labeled": 64, "iso_classes": 5}
    assert rep.tally["i4tf_nonaffine"] == {"labeled": 0, "iso_classes": 0}
    assert rep.tally["i4tf_nonaffine_rank_deficient"] == {
        "labeled": 0,
        "iso_classes": 0,
    }


def test_exhaustive_crosscheck_counts_detector_witness_on_member(monkeypatch):
    # A member's certificate never consults the detector, so a witness the
    # detector reports in it is a discrepancy, and the member goes untallied.
    target = ag(3).bits
    real = census.i4tf_witness
    fake = Witness("triangle", (1, 2, 3))
    monkeypatch.setattr(
        census, "i4tf_witness", lambda m: fake if m.bits == target else real(m)
    )
    rep = exhaustive_crosscheck(3)
    assert rep.discrepancies == (target,)
    assert rep.tally["i4tf_affine"] == {"labeled": 63, "iso_classes": 5}


def test_exhaustive_crosscheck_dim4():
    rep = exhaustive_crosscheck(4)
    assert rep.subsets == 1 << 15
    assert rep.discrepancies == ()
    assert rep.tally["i4tf_affine"] == {"labeled": 2041, "iso_classes": 9}
    assert rep.tally["i4tf_nonaffine"] == {"labeled": 168, "iso_classes": 1}
    assert rep.tally["i4tf_nonaffine_rank_deficient"] == {
        "labeled": 0,
        "iso_classes": 0,
    }


def test_exhaustive_crosscheck_cap():
    with pytest.raises(ValueError):
        exhaustive_crosscheck(5)


def test_random_members_contracts():
    with pytest.raises(ValueError):
        random_members(3, 2, 1, "i4tf_nonaffine")
    with pytest.raises(ValueError):
        random_members(4, 2, 1, "bogus")
    assert random_members(4, 0, 1, "ai4") == []
    a = random_members(5, 8, 42, "ai4")
    b = random_members(5, 8, 42, "ai4")
    c = random_members(5, 8, 43, "ai4")
    assert a == b
    assert [m.bits for m in a] != [m.bits for m in c]


def test_random_members_are_members():
    for tag in ("i4tf_nonaffine", "i4tf_affine", "ai4"):
        for dim in (4, 5, 6):
            for m in random_members(dim, 10, SEED, tag):
                assert m.n == dim
                if tag == "ai4":
                    assert find_ai4_violation(m) is None
                elif tag == "i4tf_affine":
                    assert i4tf_witness(m) is None
                    assert is_affine(m)
                else:
                    assert i4tf_witness(m) is None
                    assert not is_affine(m)


def test_normal_form_certificate_contract():
    # Known small normal form: the affine plane grows from the empty base.
    nf = normal_form_certificate(Matroid(3, sum(1 << p for p in (4, 5, 6, 7))))
    assert nf is not None
    assert nf.base == Matroid(1, 0)
    assert nf.steps == ("alpha0", "alpha1")
    # Violating inputs have no normal form.
    assert normal_form_certificate(sag(3)) is None


def test_normal_form_certificate_replays_and_respects_grammar():
    rng = random.Random(SEED + 1)
    for dim in (3, 4, 5):
        for m in random_members(dim, 12, SEED + dim, "ai4"):
            cert = normal_form_certificate(m)
            assert cert is not None
            assert cert.replay() == m
            assert cert.base.n == 1
            steps = cert.steps
            assert len(steps) == dim - 1
            assert steps.count("beta0") <= 1
            if "beta0" in steps:
                tail = steps[steps.index("beta0") + 1:]
                assert all(s in ("alpha0", "alpha1") for s in tail)
            assert all(
                s in ("alpha0", "alpha1", "beta0", "beta1") for s in steps
            )


def test_normal_form_agrees_with_census_at_dim4():
    # Every census representative is reachable, so each gets a certificate.
    rep = enumerate_generated(4, "ai4")
    for r in rep.representatives:
        cert = normal_form_certificate(r)
        assert cert is not None
        assert cert.replay() == r


# Outputs frozen from the code before the census BFS was rewritten as one
# walk over the step grammar.  The benchmark builds its inputs with
# random_members, so drift in its draws would also change the benchmark.
FROZEN_CENSUS = {
    ("i4tf_affine", 5): (
        18, 17, "72be22e48adf2d7933b7c8cba203e0febac92dc758d0b38005040cf086a1ea05"
    ),
    ("i4tf_affine", 6): (
        34, 33, "49bd371e99d5ee6b40f83081a940023ddab382eab66f9a5670dceff9396f0635"
    ),
    ("ai4", 5): (
        92, 66, "0df900ddb6bbb73209e40b97d2bb8c1c22ee6d434ee7c03dcfa18a8d0cfb7383"
    ),
    ("i4tf_nonaffine", 7): (
        4, 4, "23af953518e3283ba12d4ea6a58d247e2f3670581f6e4f164a42e93898fa7b2a"
    ),
}

FROZEN_NORMAL_FORMS = [
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha1", "alpha0", "alpha0", "beta0"], "map": [6, 12, 1, 16, 5]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha0", "beta0", "alpha1", "alpha1"], "map": [10, 16, 4, 1, 2]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha0", "alpha0", "alpha1", "alpha0"], "map": [5, 9, 19, 1, 2]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha0", "alpha1", "alpha1", "alpha0"], "map": [3, 24, 4, 9, 1]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha0", "alpha1", "alpha0", "beta1"], "map": [15, 16, 7, 2, 3]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha0", "alpha0", "beta0", "alpha1"], "map": [2, 4, 9, 26, 1]}',
    '{"base": {"kind": "onedim", "points": [1]}, "steps": ["alpha1", "alpha0", "alpha1", "alpha0"], "map": [8, 21, 2, 4, 1]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha1", "alpha0", "alpha0", "alpha1"], "map": [1, 12, 2, 4, 16]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha1", "alpha1", "alpha1", "alpha1"], "map": [13, 1, 2, 4, 16]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha1", "alpha0", "alpha0", "alpha0"], "map": [31, 6, 1, 2, 8]}',
    '{"base": {"kind": "onedim", "points": [1]}, "steps": ["alpha1", "alpha0", "alpha0", "beta1"], "map": [13, 23, 3, 5, 7]}',
    '{"base": {"kind": "onedim", "points": []}, "steps": ["alpha0", "beta0", "alpha1", "alpha1"], "map": [1, 12, 17, 2, 4]}',
]

FROZEN_RANDOM_BITS = {
    ("i4tf_nonaffine", 5): [
        0x22441686, 0xA504662, 0x1823814C, 0x3C01E10,
        0x9600A512, 0x14A0051A, 0x11884126, 0x8E414180,
    ],
    ("i4tf_nonaffine", 6): [
        0x8E102B404D201780, 0x9696000000FF9600, 0x6340406304363604,
        0x8142152A8142152A, 0x42242C442442442C, 0x6090090608177180,
        0x80471D2080471D20, 0x22881144700D0BE0,
    ],
    ("i4tf_affine", 5): [
        0xC3C33C3C, 0x0, 0x80000084, 0x60909020,
        0x40040000, 0x4182, 0x4A81A41A, 0x2808000,
    ],
    ("i4tf_affine", 6): [
        0xAAAA55455545AAA2, 0x308000080100000, 0xA005A00505A004A0,
        0x1A0000A01A0100A, 0x8000000000, 0x1008081002400002,
        0x45A28815A81144A2, 0x303C0C00C042020,
    ],
    ("ai4", 5): [
        0xF3F7BF3E, 0x2800284, 0x7FFFDFFE, 0x83C3C3C0,
        0x2A000000, 0xFFFFFFFC, 0x5A5A5A5E, 0xFFFFDFDE,
    ],
    ("ai4", 6): [
        0xFF06FFFF90FF00, 0xE700E70E0066006, 0x403030C0C03030C0,
        0xDBE3DBE77EBC7EBC, 0x3CBC3C3C3C3C3C3C, 0xAAAAA82AAAAAA82A,
        0x2244999966661988, 0x4060206040606060,
    ],
}


# sha256 of "form:map images" over _canon_inputs(), joined by ";".  The
# dim-7 draws leave out i4tf_affine, whose labelings here take seconds
# each; the dim-8 tower stands for the deep searches.
FROZEN_CANON_DIGEST = "d15a0fcadf3874e15298b633e4bea4674ae365c34bbbf3d687e90e50eb227300"


def _canon_inputs():
    out = []
    every = ("i4tf_affine", "ai4", "i4tf_nonaffine")
    for dim, count, tags in (
        (4, 6, every),
        (5, 6, every),
        (6, 4, every),
        (7, 3, ("ai4", "i4tf_nonaffine")),
    ):
        for tag in tags:
            out += random_members(dim, count, SEED + 7, tag)
    out.append(apply_map(random_invertible_map(8, SEED + 7), double(sag(6))))
    return out


def test_frozen_outputs():
    for (tag, dim), (labeled, classes, digest) in FROZEN_CENSUS.items():
        rep = enumerate_generated(dim, tag)
        reps = ",".join(str(r.bits) for r in rep.representatives)
        assert (rep.total_labeled, rep.iso_classes) == (labeled, classes), (tag, dim)
        assert hashlib.sha256(reps.encode()).hexdigest() == digest, (tag, dim)
    members = random_members(5, 12, SEED + 5, "ai4")
    assert [normal_form_certificate(m).to_json() for m in members] == FROZEN_NORMAL_FORMS
    for (tag, dim), bits in FROZEN_RANDOM_BITS.items():
        assert [m.bits for m in random_members(dim, 8, 0, tag)] == bits, (tag, dim)
    parts = []
    for m in _canon_inputs():
        cm, g = canonical_form(m)
        parts.append(f"{cm.bits:x}:{','.join(map(str, g.images))}")
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_CANON_DIGEST


# sha256 of "form:map images" over _deep_canon_inputs(), joined by ";".
# Pins the maps of the deep dim-7 searches, whose pruning is where the
# search spends its time: two labelings of each tower double^k(sag(m)),
# AG(6, 2), and seeded ai4 draws (draw 0 is pinned with the dim-8 maps
# below, for its cost).
FROZEN_DEEP_CANON_DIGEST = (
    "e26f6a94f7afc84d4dc9cbdd91ad2323c21c1a85fc250f1372160b06b8eee834"
)


def _deep_canon_inputs():
    rng = random.Random(SEED + 9)
    out = []
    for par in range(3, 7):
        tower = sag(par)
        while tower.n < 7:
            tower = double(tower)
        out += [apply_map(random_invertible_map(7, rng), tower) for _ in range(2)]
    out.append(ag(7))
    out += random_members(7, 4, 0, "ai4")[1:]
    return out


def test_frozen_deep_canonical_maps():
    parts = []
    for m in _deep_canon_inputs():
        cm, g = canonical_form(m)
        parts.append(f"{cm.bits:x}:{','.join(map(str, g.images))}")
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_DEEP_CANON_DIGEST


# sha256 of "form:map images" over _d8_canon_inputs(), joined by ";".
# Pins the deepest searches: AG(8, 2), a second labeling of the dim-8
# tower double(sag(6)), and the costliest seeded dim-7 ai4 draw.
FROZEN_D8_CANON_DIGEST = (
    "aee7aadfb6b6ddec9ca8d2a538c92288cc7bcf321895d9d97583c207e8db4272"
)


def _d8_canon_inputs():
    return [
        ag(8),
        apply_map(random_invertible_map(8, SEED + 8), double(sag(6))),
        random_members(7, 4, 0, "ai4")[0],
    ]


def test_frozen_d8_canonical_maps():
    parts = []
    for m in _d8_canon_inputs():
        cm, g = canonical_form(m)
        parts.append(f"{cm.bits:x}:{','.join(map(str, g.images))}")
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_D8_CANON_DIGEST


# sha256 of "form:map images" over _doubled_canon_inputs(), joined by ";".
# Pins the maps of doubled sets, whose translation stabilizer W = {w : E +
# w = E} is not {0}: relabelings of double^k(c) at dims 5-7, k = 1..3, for
# seeded random cores c.
FROZEN_DOUBLED_CANON_DIGEST = (
    "4a5da5708691018d52cd28b6cac838f702b3aefefb36995b53657d15300f1971"
)


def _doubled_canon_inputs():
    rng = random.Random(SEED + 10)
    out = []
    for dim in (5, 6, 7):
        for k in (1, 2, 3):
            for _ in range(3):
                core = Matroid(dim - k, rng.getrandbits(1 << (dim - k)) & ~1)
                for _ in range(k):
                    core = double(core)
                out.append(apply_map(random_invertible_map(dim, rng), core))
    return out


# sha256 of "form:map images" of the dim-9 tower double^k(sag(m)) under
# random_invertible_map(9, s), keyed by (m, k, s).  The labelings are ones
# whose search takes about a second or less.  (4, 4, 2) is pinned from the
# search that prunes by the translations fixing the set; without that it
# ran past 15 minutes, and its form matches the one (4, 4, 1) and (4, 4, 3)
# gave then.
FROZEN_D9_TOWER_DIGESTS = {
    (3, 5, 1): "995f7f98d9d529edad30b5bbf05bfa3f1f79509504b9af0145bec714fdbcaa78",
    (3, 5, 2): "6f7461151a47f5c2e34c97e83d8eccb8d2465951b651033a78008eef83506da7",
    (3, 5, 3): "6f866e08196d3f8fd6644842a13590a178ddf78e555ea5d1b9d055b92690985e",
    (8, 0, 1): "c4a91dad059be7c1e5afcfed57ae129f37b106433b245151f607e93e3f9fe485",
    (4, 4, 2): "16e7679cc2be5371167fa0d407a5fc9a07da7e54b6c1cbc7d5e83da0a1270529",
}


def _d9_tower(m, k, s):
    tower = sag(m)
    for _ in range(k):
        tower = double(tower)
    return apply_map(random_invertible_map(9, s), tower)


def _form_and_map(m):
    cm, g = canonical_form(m)
    return f"{cm.bits:x}:{','.join(map(str, g.images))}"


def test_frozen_doubled_canonical_maps():
    parts = [_form_and_map(m) for m in _doubled_canon_inputs()]
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_DOUBLED_CANON_DIGEST
    for key, want in FROZEN_D9_TOWER_DIGESTS.items():
        got = hashlib.sha256(_form_and_map(_d9_tower(*key)).encode()).hexdigest()
        assert got == want, key


def test_doubled_d9_worst_case_is_its_own_form():
    # double^4(sag(4)) has |W| = 16.  Under this labeling the search once
    # filled its automorphism cap and then visited every tying leaf.
    cm = canonical_form(_d9_tower(4, 4, 2))[0]
    assert canonical_form(cm)[0] == cm


# sha256 of "form:map images" over _trivial_stabilizer_canon_inputs(),
# joined by ";".  Seeded dim-7 i4tf_affine draws whose translation
# stabilizer W is {0}, so no coset pruning applies; draws 0 and 9 are
# pinned on their own below.
FROZEN_TRIVIAL_W_D7_DIGEST = (
    "7e40fbfc5af04725fea41230407db5875aa657941944b424575254a048962fdf"
)


def _trivial_stabilizer_canon_inputs():
    draws = random_members(7, 37, 0, "i4tf_affine")
    return [draws[i] for i in (1, 2, 10, 17, 29, 32, 36)]


def test_frozen_trivial_stabilizer_d7_canonical_maps():
    inputs = _trivial_stabilizer_canon_inputs()
    assert all(stabilizer(Translates(m.bits, 7), 7) == 1 for m in inputs)
    parts = [_form_and_map(m) for m in inputs]
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_TRIVIAL_W_D7_DIGEST


# sha256 of "form:map images" of draws 0 and 9 of random_members(7, 10,
# 0, "i4tf_affine"), joined by ";".  Both have W = {0}, with 51 and 55
# points, and their searches meet leaves that tie the best one.
FROZEN_TRIVIAL_W_D7_DEEP_DIGEST = (
    "dedf63cfa58f85396a68b50c0cc333ac5d345c0540539c08e930ce7466ccd94c"
)


def test_frozen_trivial_stabilizer_d7_deep_canonical_maps():
    draws = random_members(7, 10, 0, "i4tf_affine")
    inputs = [draws[0], draws[9]]
    assert all(stabilizer(Translates(m.bits, 7), 7) == 1 for m in inputs)
    parts = [_form_and_map(m) for m in inputs]
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_TRIVIAL_W_D7_DEEP_DIGEST


# sha256 of "form:map images" over _symmetric_canon_inputs(), joined by
# ";".  These sets have W = {0} and large automorphism groups, so their
# searches keep the most maps per point: units(n) for n = 5..9, the
# circuits of 5, 7 and 9 elements, and the complements of units(5) and
# units(6), each under random_invertible_map(n, s) for s = 1, 2.
FROZEN_SYMMETRIC_CANON_DIGEST = (
    "1df178ca790982b981fd2092ead38af0fc9bf05911fed98a01cd80a5791f6b91"
)


def _symmetric_canon_inputs():
    cores = [units(n) for n in range(5, 10)]
    cores += [circuit(k) for k in (5, 7, 9)]
    cores += [complement(units(n)) for n in (5, 6)]
    return [apply_map(random_invertible_map(c.n, s), c) for c in cores for s in (1, 2)]


def test_frozen_symmetric_canonical_maps():
    inputs = _symmetric_canon_inputs()
    assert all(stabilizer(Translates(m.bits, m.n), m.n) == 1 for m in inputs)
    parts = [_form_and_map(m) for m in inputs]
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_SYMMETRIC_CANON_DIGEST


# sha256 of "form:map images" over _census_relabeled_inputs(), joined by
# ";".  Every representative of the i4tf_affine d6 and ai4 d5 censuses,
# relabeled by one random map per dimension, so that the search has to
# find each form again and its map is pinned too.
FROZEN_CENSUS_RELABELED_DIGEST = (
    "a3f5a81769268478269fba9e17af214500b8aa2fe7cf966b59fee04f38638992"
)


def _census_relabeled_inputs():
    out = []
    for dim, tag in ((6, "i4tf_affine"), (5, "ai4")):
        g = random_invertible_map(dim, SEED + 11)
        out += [apply_map(g, r) for r in enumerate_generated(dim, tag).representatives]
    return out


def test_frozen_census_relabeled_canonical_maps():
    inputs = _census_relabeled_inputs()
    assert len(inputs) == 99
    parts = [_form_and_map(m) for m in inputs]
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_CENSUS_RELABELED_DIGEST


# sha256 of "form:map images" over _dense_canon_inputs(), joined by ";".
# The complements of units(d), d = 4..6, are dense sets with W = {0}
# under every labeling: random_invertible_map(d, s) for s = 1, 2, 3.
FROZEN_DENSE_CANON_DIGEST = (
    "ae9aff2869aad68e1c8d472da9e2399ffcf0bdb53099743f5a3f3c2d4fd78e8b"
)


def _dense_canon_inputs():
    return [
        apply_map(random_invertible_map(d, s), complement(units(d)))
        for d in (4, 5, 6)
        for s in (1, 2, 3)
    ]


def test_frozen_dense_canonical_maps():
    inputs = _dense_canon_inputs()
    assert all(stabilizer(Translates(m.bits, m.n), m.n) == 1 for m in inputs)
    parts = [_form_and_map(m) for m in inputs]
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_DENSE_CANON_DIGEST


@settings(max_examples=60, deadline=None)
@given(
    tag=st.sampled_from(("i4tf_affine", "ai4", "i4tf_nonaffine")),
    dim=st.sampled_from((5, 6)),
    seed=st.integers(0, 10**6),
    relabel=st.integers(0, 10**6),
)
def test_canonical_form_ignores_labeling(tag, dim, seed, relabel):
    # A search that prunes a branch holding the least leaf would return a
    # form that moves with the labeling.
    m = random_members(dim, 1, seed, tag)[0]
    moved = apply_map(random_invertible_map(dim, relabel), m)
    cm, g = canonical_form(m)
    cmoved, gmoved = canonical_form(moved)
    assert cmoved == cm
    assert apply_map(g, m) == cm
    assert apply_map(gmoved, moved) == cm

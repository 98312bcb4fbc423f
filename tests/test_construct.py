"""Builders, growth operations, and certificate replay."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bmt import (
    Certificate,
    FormatError,
    Matroid,
    ag,
    alpha0,
    alpha1,
    apply_map,
    beta0,
    beta1,
    certificate_from_json,
    circuit,
    double,
    expand0,
    expand1,
    affine_witness,
    functional_kernel,
    is_affine,
    pg,
    sag,
    units,
    xor_translate,
)
from bmt.construct import STEP_OPS
from bmt.gf2 import identity_map, random_invertible_map
from oracles import parity, random_affine_bits, random_bits

SEED = 4001


def test_builder_point_sets():
    assert pg(3).points == (1, 2, 3, 4, 5, 6, 7)
    assert ag(3).points == (4, 5, 6, 7)
    assert units(3).points == (1, 2, 4)
    assert circuit(3).points == (1, 2, 3)
    assert circuit(5).points == (1, 2, 4, 8, 15)
    assert sag(3).points == (5, 6, 7, 8, 12)


def test_builder_sizes():
    for n in range(1, 8):
        assert pg(n).size == (1 << n) - 1
        assert ag(n).size == 1 << (n - 1)
        assert units(n).size == n
    for k in (3, 5, 7, 9):
        c = circuit(k)
        assert c.n == k - 1 and c.size == k
        x = 0
        for p in c.points:
            x ^= p
        assert x == 0
    for m in (3, 4, 5, 6, 7):
        s = sag(m)
        assert s.n == m + 1
        assert s.size == (1 << (m - 1)) + 1


def test_builder_validation():
    with pytest.raises(ValueError):
        circuit(4)
    with pytest.raises(ValueError):
        circuit(1)
    with pytest.raises(ValueError):
        sag(2)
    with pytest.raises(ValueError):
        pg(0)


def test_ag_is_affine_and_pg_is_not():
    for n in (2, 3, 4, 5):
        assert is_affine(ag(n))
        assert not is_affine(pg(n))


def test_double_layout():
    rng = random.Random(SEED)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = Matroid(n, random_bits(rng, n))
        d = double(m)
        w = 1 << n
        assert d.n == n + 1
        assert d.size == 2 * m.size
        assert d.bits == m.bits | xor_translate(m.bits, w)
        if m.size:
            assert xor_translate(d.bits, w) == d.bits


def test_alpha_beta_layout():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = Matroid(n, random_bits(rng, n))
        w = 1 << n
        full_old = (1 << w) - 2  # nonzero points of the old space
        a0 = alpha0(m)
        assert a0.n == n + 1 and a0.bits == m.bits
        a1 = alpha1(m)
        assert a1.n == n + 1
        assert a1.bits == m.bits | xor_translate(full_old | 1, w)
        b0 = beta0(m)
        assert b0.n == n + 1
        assert b0.bits == (1 << w) | xor_translate(m.bits, w)
        b1 = beta1(m)
        assert b1.n == n + 1
        assert b1.bits == full_old | (1 << w) | xor_translate(m.bits, w)


def test_expansions_require_affine():
    for op in (expand0, expand1):
        with pytest.raises(ValueError):
            op(pg(3))
        with pytest.raises(ValueError):
            op(circuit(5))


def test_expand_layout():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        n = rng.randrange(2, 6)
        m = Matroid(n, random_affine_bits(rng, n))
        e0 = expand0(m)
        assert e0.n == n + 1 and e0.bits == m.bits
        assert is_affine(e0)
        e1 = expand1(m)
        w = 1 << n
        phi = affine_witness(m)
        layer = (1 << w) | xor_translate(functional_kernel(phi, n).members, w)
        assert e1.n == n + 1
        assert e1.bits == m.bits | layer
        assert is_affine(e1)
    assert expand1(ag(3)).points == (4, 5, 6, 7, 8, 9, 10, 11)


def test_certificate_replay_and_json_round_trip():
    rng = random.Random(SEED + 3)
    names = ("alpha0", "alpha1", "beta0", "beta1", "double")
    for _ in range(40):
        base = Matroid(1, 2 * rng.randrange(2))
        steps = tuple(rng.choice(names) for _ in range(rng.randrange(5)))
        dim = 1 + len(steps)
        cmap = random_invertible_map(dim, rng)
        cert = Certificate(base, steps, cmap)
        out = cert.replay()
        assert out.n == dim
        back = certificate_from_json(cert.to_json())
        assert back.base == cert.base
        assert back.steps == cert.steps
        assert back.cmap.images == cert.cmap.images
        assert back.replay() == out


def test_certificate_replay_applies_the_map_last():
    base = sag(3)
    cert_id = Certificate(base, ("double",), identity_map(5))
    g = random_invertible_map(5, 11)
    cert_g = Certificate(base, ("double",), g)
    assert cert_g.replay() == apply_map(g, cert_id.replay())


def test_certificate_sag_base_json():
    cert = Certificate(sag(3), ("double",), identity_map(5))
    doc = json.loads(cert.to_json())
    assert doc["base"] == {"kind": "sag", "n": 3}
    assert doc["steps"] == ["double"]
    assert len(doc["map"]) == 5


def test_certificate_onedim_base_json():
    cert = Certificate(Matroid(1, 2), ("alpha0",), identity_map(2))
    doc = json.loads(cert.to_json())
    assert doc["base"] == {"kind": "onedim", "points": [1]}


def test_certificate_onedim_base_point_is_the_int_one():
    # true and 1.0 compare equal to 1 but are no point.
    for point in ("true", "1.0"):
        text = f'{{"base": {{"kind": "onedim", "points": [{point}]}}, "steps": [], "map": [1]}}'
        with pytest.raises(FormatError, match="onedim base points"):
            certificate_from_json(text)
    text = '{"base": {"kind": "onedim", "points": [1]}, "steps": [], "map": [1]}'
    assert certificate_from_json(text).replay() == Matroid(1, 2)


def test_certificate_from_json_errors():
    good = Certificate(sag(3), ("double",), identity_map(5)).to_json()
    doc = json.loads(good)
    doc["steps"] = ["frobnicate"]
    with pytest.raises(FormatError):
        certificate_from_json(json.dumps(doc))
    for images, match in (
        ([1, 2], "wrong length"),
        ([1, 2, 4, 8, "2"], "list of ints"),
        ([1, 2, 4, 8, 32], "out of range"),
    ):
        doc = json.loads(good)
        doc["map"] = images
        with pytest.raises(FormatError, match=match):
            certificate_from_json(json.dumps(doc))
    onedim = {"base": {"kind": "onedim", "points": [1, 1]}, "steps": [], "map": [1]}
    with pytest.raises(FormatError, match="duplicate base point"):
        certificate_from_json(json.dumps(onedim))
    with pytest.raises(FormatError):
        certificate_from_json("not json")
    with pytest.raises(FormatError):
        certificate_from_json("{}")


def test_certificate_from_json_decoder_errors():
    # json.loads raises ValueError past the int digit limit and
    # RecursionError on deep nesting, not JSONDecodeError.
    for text in ("[" * 100_000, "[" + "1" * 5000 + "]"):
        with pytest.raises(FormatError):
            certificate_from_json(text)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def _certificate_docs(draw):
    # Documents shaped like certificates with any field swapped for other
    # JSON; the dimension stays small so replay is quick.
    base = draw(st.fixed_dictionaries(
        {"kind": st.sampled_from(("onedim", "sag", "other")) | _JSON},
        optional={
            "n": st.integers(-1, 6) | _JSON,
            "points": st.lists(st.sampled_from((0, 1, 1.0, True, 2)), max_size=2) | _JSON,
        },
    ))
    doc = draw(st.fixed_dictionaries({}, optional={
        "base": st.just(base) | _JSON,
        "steps": st.lists(st.sampled_from(sorted(STEP_OPS) + ["bogus"]), max_size=6) | _JSON,
        "map": st.lists(st.integers(-1, 1 << 9), max_size=10) | _JSON,
    }))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(_certificate_docs() | _JSON.map(json.dumps) | st.text(max_size=30))
def test_certificate_from_json_fuzz_gives_certificate_or_format_error(text):
    try:
        cert = certificate_from_json(text)
        m = cert.replay()
    except FormatError:
        return
    assert certificate_from_json(cert.to_json()) == cert
    assert isinstance(m, Matroid)


def test_certificate_base_validation():
    with pytest.raises(ValueError):
        Certificate(pg(2), (), identity_map(3))
    # Canonical sag bases and both one dimensional bases are accepted.
    Certificate(sag(4), (), identity_map(5))
    Certificate(Matroid(1, 0), (), identity_map(1))
    Certificate(Matroid(1, 2), (), identity_map(1))


def test_certificate_map_must_fit():
    cert = Certificate(Matroid(1, 2), ("alpha0",), identity_map(1))
    with pytest.raises(FormatError):
        cert.replay()


def test_expansion_steps_in_certificates_need_affine_results():
    # expand1 consumes the least affine witness at replay time, so a replay
    # hitting a non-affine intermediate is a format-level failure.  alpha1
    # turns the single point into a full triangle, which is not affine.
    cert = Certificate(Matroid(1, 2), ("alpha1", "expand1"), identity_map(3))
    with pytest.raises(FormatError):
        cert.replay()

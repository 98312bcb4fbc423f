"""The package's record types: read-only fields, hashing, validation and
pickling, whatever class machinery defines them."""

import pickle

import pytest

from bmt import (
    AffineChain,
    Certificate,
    CensusReport,
    DecompositionResult,
    DoubledSag,
    Matroid,
    NotMember,
    Witness,
    affine_witness,
    sag,
)
from bmt.census import CrosscheckReport
from bmt.decompose import AffineStep, SpecialHyperplane, StripResult
from bmt.gf2 import Flat, LinearMap, identity_map
from bmt.matroid import RestrictionResult, StabilizerResult
from bmt.selftest import CheckResult, SelftestReport


def _records():
    # One fresh instance of each record type, every field given by keyword.
    m = Matroid(n=3, bits=0b10110)
    flat = Flat(dim=2, basis=(1, 2), members=0b1110)
    emb = LinearMap(n_from=3, n_to=3, images=(1, 2, 4))
    cert = Certificate(base=Matroid(1, 2), steps=("expand0",), cmap=identity_map(2))
    wit = Witness(kind="triangle", points=(1, 2, 3))
    restriction = RestrictionResult(matroid=m, embed=emb, rank_deficient=False)
    check = CheckResult(name="ledger", passed=True, detail="ok", elapsed=0.5)
    return [
        (Flat, dict(dim=2, basis=(1, 2), members=0b1110)),
        (LinearMap, dict(n_from=3, n_to=3, images=(1, 2, 4))),
        (Matroid, dict(n=3, bits=0b10110)),
        (Witness, dict(kind="induced_is", points=(1, 2, 4), param=3)),
        (Certificate, dict(base=sag(4), steps=(), cmap=identity_map(5))),
        (AffineChain, dict(certificate=cert)),
        (DoubledSag, dict(certificate=cert, doublings=1, sag_param=4)),
        (NotMember, dict(witness=wit)),
        (DecompositionResult, dict(outcome=NotMember(wit), restriction=restriction)),
        (CensusReport, dict(dim=3, tag="ai4", total_labeled=2, iso_classes=1,
                            representatives=(m,), elapsed=0.25)),
        (CrosscheckReport, dict(dim=3, subsets=128, discrepancies=(), tally={"a": 1})),
        (CheckResult, dict(name="ledger", passed=True, detail="ok", elapsed=0.5)),
        (SelftestReport, dict(results=(check,), elapsed=1.5)),
        (SpecialHyperplane, dict(flat=flat, case="e_subset_h", functional=4)),
        (AffineStep, dict(tag="expand0", inner=m, embed=emb)),
        (StripResult, dict(count=0, core=m, trail=())),
        (RestrictionResult, dict(matroid=m, embed=emb, rank_deficient=False)),
        (StabilizerResult, dict(flat=flat, translates=(1,))),
    ]


def test_record_fields_refuse_assignment():
    for cls, fields in _records():
        rec = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
            assert getattr(rec, name) == value, (cls.__name__, name)


def test_equal_records_hash_alike():
    for (cls, fields), (_, again) in zip(_records(), _records()):
        a, b = cls(**fields), cls(**again)
        assert a == b and a is not b, cls.__name__
        if cls is CrosscheckReport:
            # Its tally is a dict, so the report has no hash.
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b), cls.__name__


def test_matroid_and_certificate_validation_messages():
    for args, message in [
        ((0, 0), "dimension must be at least 1"),
        ((0, 1), "dimension must be at least 1"),
        ((2, 1), "zero is never an element"),
        ((2, 1 << 4), "element out of range for dimension"),
        ((2, -2), "element out of range for dimension"),
    ]:
        with pytest.raises(ValueError) as err:
            Matroid(*args)
        assert str(err.value) == message, args
    # A base of dimension 2 or 3 fails in sag, which the check calls.
    bad_base = "base must be one dimensional or a canonical sag"
    for base, message in [
        (Matroid(5, sag(4).bits ^ 2), bad_base),
        (Matroid(4, 0b1110), bad_base),
        (Matroid(3, 0), "parameter must be at least 3"),
        (Matroid(2, 0b1110), "parameter must be at least 3"),
    ]:
        with pytest.raises(ValueError) as err:
            Certificate(base=base, steps=(), cmap=identity_map(base.n))
        assert str(err.value) == message, base


def test_matroid_pickles_with_its_cached_properties():
    # enumerate --threads sends Matroids to worker processes by pickle.
    m = sag(5)
    fresh = pickle.loads(pickle.dumps(m))
    assert type(fresh) is Matroid and fresh == m
    points, witness, translate = m.points, affine_witness(m), m.translates[3]
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(m, protocol))
        assert type(back) is Matroid and back == m and hash(back) == hash(m)
        assert back.points == points and affine_witness(back) == witness
        assert back.translates[3] == translate and back.translates.n == m.n
        assert repr(back) == repr(m)

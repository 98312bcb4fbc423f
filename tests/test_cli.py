"""Command line driver: verbs, exit codes, machine readable output."""

import hashlib
import json
import os.path
import random
import subprocess
import sys

import pytest

import bmt
from bmt import (
    Matroid,
    canonical_form,
    circuit,
    from_points,
    parse_bmat,
    pg,
    random_members,
    sag,
    serialize_bmat,
)
from bmt import census, cli, decompose, selftest
from bmt.cli import MAX_COUNT, _build_parser, main
from bmt.detect import Witness
from bmt.errors import TheoremViolation
from oracles import random_affine_bits, random_bits


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.bmat"
    path.write_text(serialize_bmat(Matroid(4, circuit(5).bits)))
    return str(path)


@pytest.fixture()
def pg3_file(tmp_path):
    path = tmp_path / "pg3.bmat"
    path.write_text(serialize_bmat(pg(3)))
    return str(path)


def test_check_member_default_props(c5_file, capsys):
    assert main(["check", c5_file]) == 0
    out = capsys.readouterr().out
    assert out == "triangle: none\ni4: none\n"


def test_check_witness_line_and_exit_code(pg3_file, capsys):
    assert main(["check", pg3_file]) == 1
    out = capsys.readouterr().out
    assert "triangle: 1 2 3" in out


def test_check_chi_is_informational(c5_file, capsys):
    assert main(["check", "--props", "chi", c5_file]) == 0
    assert capsys.readouterr().out == "chi: 2\n"


def test_check_all_props(c5_file, capsys):
    props = "triangle,i4,i3,ai4,affine,oddcircuit,chi"
    assert main(["check", "--props", props, c5_file]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "triangle: none"
    assert out[1] == "i4: none"
    assert out[2].startswith("i3: ")
    assert out[3].startswith("ai4: ")
    assert out[4].startswith("affine: no (odd circuit")
    assert out[5].startswith("oddcircuit: ")
    assert out[6] == "chi: 2"


def test_check_shares_one_odd_circuit_search(c5_file, monkeypatch, capsys):
    # c5 is not affine, so the affine line also reports an odd circuit.
    want = []
    for prop in ("affine", "oddcircuit"):
        assert main(["check", "--props", prop, c5_file]) == 1
        want += capsys.readouterr().out.splitlines()
    search = cli.find_induced_odd_circuit
    calls = []

    def counting(m):
        calls.append(m)
        return search(m)

    verify = Witness.verify
    verified = []

    def verify_counting(w, m):
        verified.append(w)
        return verify(w, m)

    monkeypatch.setattr(cli, "find_induced_odd_circuit", counting)
    monkeypatch.setattr(Witness, "verify", verify_counting)
    assert main(["check", "--props", "affine,oddcircuit", c5_file]) == 1
    assert capsys.readouterr().out.splitlines() == want
    assert len(calls) == 1
    assert len(verified) == 1


def test_check_affine_member(tmp_path, capsys):
    # The affine plane AG(2, 2): every point has <4, p> = 1.
    path = tmp_path / "ag3.bmat"
    path.write_text("BMAT1 dim=3\npoints=4 5 6 7\n")
    assert main(["check", "--props", "affine", str(path)]) == 0
    assert capsys.readouterr().out == "affine: yes (functional 4)\n"
    assert main(["--json", "check", "--props", "affine", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["props"] == {"affine": {"pass": True, "functional": 4}}


def test_check_affine_without_odd_circuit_is_theorem_violation(c5_file, monkeypatch, capsys):
    # A set with no affine functional has an induced odd circuit; a search
    # that finds none is a bug, not a verdict.
    monkeypatch.setattr(cli, "find_induced_odd_circuit", lambda m: None)
    assert main(["check", "--props", "affine", c5_file]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "without an induced odd circuit" in out.err


def test_check_json(pg3_file, capsys):
    assert main(["--json", "check", pg3_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 3
    assert doc["props"]["triangle"]["pass"] is False
    assert doc["props"]["triangle"]["witness"]["points"] == [1, 2, 3]


def test_check_reports_a_repeated_property_once(c5_file, capsys):
    assert main(["check", "--props", "i4,triangle,i4", c5_file]) == 0
    assert capsys.readouterr().out == "i4: none\ntriangle: none\n"
    assert main(["--json", "check", "--props", "i4,i4", c5_file]) == 0
    assert list(json.loads(capsys.readouterr().out)["props"]) == ["i4"]


def test_check_unknown_prop_is_usage_error(c5_file, capsys):
    assert main(["check", "--props", "bogus", c5_file]) == 2


@pytest.mark.parametrize("props", [",", "", " , ,"])
def test_check_empty_prop_list_is_usage_error(c5_file, capsys, props):
    assert main(["check", "--props", props, c5_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no property to check" in err


def test_check_missing_file(capsys):
    assert main(["check", "definitely-not-here.bmat"]) == 2


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.bmat"
    path.write_text("BMAT9 dim=3\npoints=1\n")
    assert main(["check", str(path)]) == 2


# sha256 of the stdout and exit code of `--json check` with every
# property but chi on _check_inputs(), one record per input, joined by
# ";".  Frozen from the code whose callers checked the dimension before
# each induced independent set search.
FROZEN_CHECK_DIGEST = "1d4addd9472a25bdfd38b71f46e434274c7a7ba8c81b66fcced43de9780d9ce2"
ALL_SEARCHES = "triangle,i4,i3,ai4,affine,oddcircuit"


def _check_inputs():
    # Every set through dim 3, then per dim 4..6 members of each class,
    # uniform random sets and random parts of an affine hyperplane's
    # complement (about half of a copy of AG(n - 1, 2)).
    rng = random.Random(7)
    out = [Matroid(n, bits) for n in (1, 2, 3) for bits in range(0, 1 << (1 << n), 2)]
    for n in (4, 5, 6):
        for tag in ("i4tf_affine", "i4tf_nonaffine", "ai4"):
            out += random_members(n, 2, 100 + n, tag)
        out += [Matroid(n, random_bits(rng, n)) for _ in range(3)]
        out += [Matroid(n, random_affine_bits(rng, n)) for _ in range(3)]
    return out


def test_check_all_searches_frozen(tmp_path, monkeypatch, capsys):
    # The path is printed in the JSON, so it is the same on every run.
    monkeypatch.chdir(tmp_path)
    parts = []
    for m in _check_inputs():
        with open("set.bmat", "w") as fh:
            fh.write(serialize_bmat(m))
        code = main(["--json", "check", "set.bmat", "--props", ALL_SEARCHES])
        parts.append(f"{code}:{capsys.readouterr().out}")
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    assert digest == FROZEN_CHECK_DIGEST


def test_decompose_member_line(c5_file, capsys):
    assert main(["decompose", c5_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "DoubledSag k=0 n=3"


def test_decompose_not_member(pg3_file, capsys):
    assert main(["decompose", pg3_file]) == 1
    out = capsys.readouterr().out
    assert "NotMember triangle: 1 2 3" in out


def test_decompose_json_member(c5_file, capsys):
    assert main(["--json", "decompose", c5_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "doubled_sag"
    assert doc["doublings"] == 0
    assert doc["sag"] == 3
    # The flag only appears when the input does not span its space.
    assert "rank_deficient" not in doc
    assert doc["certificate"]["base"] == {"kind": "sag", "n": 3}


def test_decompose_json_rank_deficient_member(tmp_path, capsys):
    # c5 spans only a hyperplane of GF(2)^5.
    path = tmp_path / "c5d5.bmat"
    path.write_text(serialize_bmat(Matroid(5, circuit(5).bits)))
    assert main(["--json", "decompose", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "doubled_sag"
    assert doc["rank_deficient"] is True


def test_decompose_out_writes_witness_of_non_member(tmp_path, pg3_file, capsys):
    out = tmp_path / "witness.json"
    assert main(["decompose", pg3_file, "-o", str(out)]) == 1
    assert json.loads(out.read_text()) == {
        "outcome": "not_member",
        "witness": {"kind": "triangle", "points": [1, 2, 3]},
    }
    assert capsys.readouterr().out == "NotMember triangle: 1 2 3\n"


def test_decompose_json_not_member(pg3_file, capsys):
    assert main(["--json", "decompose", pg3_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "outcome": "not_member",
        "witness": {"kind": "triangle", "points": [1, 2, 3]},
    }


def test_decompose_build_canon_round_trip(tmp_path, c5_file, capsys):
    cert = tmp_path / "cert.json"
    rebuilt = tmp_path / "rebuilt.bmat"
    assert main(["decompose", c5_file, "-o", str(cert)]) == 0
    json.loads(cert.read_text())
    assert main(["build", str(cert), "-o", str(rebuilt)]) == 0
    capsys.readouterr()
    assert main(["canon", str(rebuilt)]) == 0
    canon_rebuilt = capsys.readouterr().out
    assert main(["canon", c5_file]) == 0
    canon_original = capsys.readouterr().out
    assert canon_rebuilt == canon_original


def test_decompose_affine_member(tmp_path, capsys):
    # The affine plane: a two step expansion chain.
    path = tmp_path / "ag3.bmat"
    path.write_text("BMAT1 dim=3\npoints=4 5 6 7\n")
    assert main(["decompose", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "AffineChain steps=2"


def test_build_to_stdout(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(
        '{"base": {"kind": "sag", "n": 3}, "steps": [], "map": [1, 2, 4, 8]}'
    )
    assert main(["build", str(cert)]) == 0
    m = parse_bmat(capsys.readouterr().out)
    assert m == sag(3)


def test_build_bad_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text('{"base": {"kind": "sag", "n": 3}, "steps": ["x"], "map": []}')
    assert main(["build", str(cert)]) == 2


def test_canon_output_is_canonical_bmat(c5_file, capsys):
    assert main(["canon", c5_file]) == 0
    m = parse_bmat(capsys.readouterr().out)
    assert m == canonical_form(Matroid(4, circuit(5).bits))[0]


def test_canon_and_build_write_bmat_under_json(tmp_path, c5_file, capsys):
    # --json changes only the verbs that print a report; canon and build
    # print the BMAT text either way.
    assert main(["canon", c5_file]) == 0
    text = capsys.readouterr().out
    assert main(["--json", "canon", c5_file]) == 0
    assert capsys.readouterr().out == text
    assert parse_bmat(text) == canonical_form(Matroid(4, circuit(5).bits))[0]
    cert = tmp_path / "cert.json"
    cert.write_text(
        '{"base": {"kind": "sag", "n": 3}, "steps": [], "map": [1, 2, 4, 8]}'
    )
    assert main(["--json", "build", str(cert)]) == 0
    assert capsys.readouterr().out == serialize_bmat(sag(3))


def test_enumerate_table_and_json(capsys):
    assert main(["enumerate", "--dim", "4", "--class", "i4tf_nonaffine"]) == 0
    out = capsys.readouterr().out
    assert "class i4tf_nonaffine dim 4: 1 classes" in out
    assert main(["--json", "enumerate", "--dim", "3", "--class", "i4tf_affine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iso_classes"] == 5
    assert doc["representatives"][0] == []


def test_enumerate_writes_representatives(tmp_path, capsys):
    out = tmp_path / "reps"
    assert main(
        ["enumerate", "--dim", "4", "--class", "ai4", "--out", str(out)]
    ) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "ai4-d4-report.json" in files
    bmats = [f for f in files if f.endswith(".bmat")]
    assert len(bmats) == 26
    report = json.loads((out / "ai4-d4-report.json").read_text())
    assert report["iso_classes"] == 26


def test_enumerate_usage_errors(capsys):
    assert main(["enumerate", "--dim", "9", "--class", "ai4"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--dim", "4", "--class", "nope"])
    assert exc.value.code == 2


def test_random_writes_files(tmp_path, capsys, monkeypatch):
    out = tmp_path / "samples"
    rc = main(
        [
            "random",
            "--dim",
            "4",
            "--count",
            "3",
            "--seed",
            "9",
            "--class",
            "ai4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "random-ai4-d4-s9-0000.bmat",
        "random-ai4-d4-s9-0001.bmat",
        "random-ai4-d4-s9-0002.bmat",
    ]
    for name in names:
        parse_bmat((out / name).read_text())
    # Default output directory is the working directory.
    monkeypatch.chdir(tmp_path)
    rc = main(
        ["--json", "random", "--dim", "4", "--count", "1", "--seed", "1",
         "--class", "i4tf_affine"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    # Paths keep their directory prefix, "." by default.
    assert [os.path.basename(p) for p in doc["files"]] == [
        "random-i4tf_affine-d4-s1-0000.bmat"
    ]
    assert (tmp_path / "random-i4tf_affine-d4-s1-0000.bmat").exists()


def test_random_usage_error(capsys):
    assert main(
        ["random", "--dim", "3", "--count", "1", "--seed", "1",
         "--class", "i4tf_nonaffine"]
    ) == 2


def test_random_count_is_bounded(tmp_path, capsys):
    argv = ["random", "--dim", "4", "--seed", "1", "--class", "ai4", "--out", str(tmp_path)]
    for count in ("-3", "0", str(MAX_COUNT + 1)):
        assert main(argv + ["--count", count]) == 2
        assert f"count must be between 1 and {MAX_COUNT}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_corrupted_witness_is_theorem_violation(tmp_path, pg3_file, monkeypatch, capsys):
    # {2, 3, 4, 8} is a triangle free non-member, so decompose asks the
    # induced-I4 search once certification fails.  Point 1 is not an
    # element, nor are 1, 2, 4 in pg(3) a triangle: verification fails on
    # both.
    i4_file = tmp_path / "i4.bmat"
    i4_file.write_text(serialize_bmat(from_points(4, (2, 3, 4, 8))))
    bad = Witness("induced_is", (1, 2, 4, 8), 4)
    monkeypatch.setattr(decompose, "find_induced_is", lambda m, s: bad)
    assert main(["decompose", str(i4_file)]) == 3
    assert "fails to verify" in capsys.readouterr().err
    monkeypatch.setattr(cli, "find_triangle", lambda m: Witness("triangle", (1, 2, 4)))
    assert main(["check", pg3_file]) == 3
    assert "fails to verify" in capsys.readouterr().err


def test_unexpected_exception_is_internal_error(c5_file, monkeypatch, capsys):
    def broken(m):
        raise KeyError("lost point")

    monkeypatch.setattr(cli, "find_triangle", broken)
    assert main(["check", c5_file]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "internal error: KeyError: 'lost point'\n"


# (name, passed, detail) of each quick selftest row, frozen from the code
# before the checks shared one timing harness and one point-set sweep.
FROZEN_QUICK_ROWS = [
    ["census_counts", True, "dims 4..6 classes [1, 2, 3] want [1, 2, 3]"],
    ["exhaustive_equivalence", True, "dim 3: 128 subsets, 0 discrepancies"],
    ["chi_bound", True, "193 members checked"],
    ["affine_characterization", True, "138 subsets checked"],
    ["special_hyperplane", True, "236 AI4-free inputs, zero exhaustion errors"],
    ["stabilizer_clauses", True, "338 matroids checked"],
    ["preservation", True, "2x50 inputs"],
    ["alpha_beta_ledger", True, "50 inputs per clause, 138 round-trips"],
    ["sag_properties", True, "n in 3..6"],
]


def test_selftest_quick(capsys):
    assert main(["selftest", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert main(["--json", "selftest", "--level", "quick"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 9
    rows = [[c["name"], c["passed"], c["detail"]] for c in doc["checks"]]
    assert rows == FROZEN_QUICK_ROWS


def test_selftest_reports_theorem_violation_as_fail(monkeypatch, capsys):
    def find_special_hyperplane(m):
        raise TheoremViolation("no comparable hyperplane")

    monkeypatch.setattr(selftest, "find_special_hyperplane", find_special_hyperplane)
    assert main(["selftest", "--level", "quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    fails = [line for line in lines[:9] if line.startswith("FAIL")]
    assert len(fails) == 1
    assert "special_hyperplane" in fails[0]
    assert "theorem violation: no comparable hyperplane" in fails[0]
    assert sum(line.startswith("pass") for line in lines[:9]) == 8
    assert "CHECKS FAILED" in lines[9]


def test_selftest_sweep_names_its_first_failing_set(monkeypatch):
    # Every drawn member fails; the row names the first one drawn and
    # counts up to it.
    monkeypatch.setattr(selftest, "critical_number", lambda m: 3 if m.n >= 5 else 1)
    res = selftest.check_chi_bound("quick")
    first = random_members(5, 20, 271, "i4tf_affine")[0]
    assert not res.passed
    assert res.detail == f"74 members checked; fails on {first}"


# (check, search patched in selftest, stand-in, clause the FAIL row names).
_BROKEN_CLAUSES = [
    ("preservation", "critical_number", lambda m: m.n, "('chi', "),
    # A triangle in every set above dimension 1: doubling a set at
    # dimension 1 seems to make one.
    ("preservation", "find_triangle", lambda m: "triangle" if m.n > 1 else None, "('triangle', "),
    ("preservation", "is_affine", lambda m: False, "('affine', "),
    ("alpha_beta_ledger", "find_induced_is", lambda m, s: None, "['t7']"),
    ("alpha_beta_ledger", "find_ai4_violation", lambda m: "ai4", "['t4-precondition']"),
    ("sag_properties", "critical_number", lambda m: m.n, "(3, 'chi')"),
    ("sag_properties", "recognize_sag", lambda m: None, "(3, 'recognition')"),
]


@pytest.mark.parametrize("name, search, fake, clause", _BROKEN_CLAUSES)
def test_selftest_row_names_the_failing_clause(monkeypatch, name, search, fake, clause):
    monkeypatch.setattr(selftest, search, fake)
    res = getattr(selftest, f"check_{name}")("quick")
    assert not res.passed
    assert f"; fails {clause}" in res.detail


def test_selftest_ledger_row_lists_every_clause_one_input_fails(monkeypatch):
    # An independent 3-set in every set from dimension 3 breaks t3 and t6
    # on the first input at dimension 2.
    monkeypatch.setattr(selftest, "find_induced_is", lambda m, s: "is" if m.n >= 3 else None)
    res = selftest.check_alpha_beta_ledger("quick")
    assert not res.passed
    assert res.detail.endswith("; fails ['t3', 't6']")


def test_selftest_check_stops_at_its_first_failing_case(monkeypatch):
    # chi breaks on the first doubling and on sag(3): nothing after that
    # case is drawn or searched.
    monkeypatch.setattr(selftest, "critical_number", lambda m: m.n)
    calls = {name: 0 for name in ("_random_set", "find_triangle", "recognize_sag")}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(selftest, name, counted(name, getattr(selftest, name)))
    assert not selftest.check_preservation("quick").passed
    assert not selftest.check_sag_properties("quick").passed
    assert calls == {"_random_set": 1, "find_triangle": 0, "recognize_sag": 0}


def test_selftest_keeps_every_row_when_clauses_fail(monkeypatch):
    monkeypatch.setattr(selftest, "critical_number", lambda m: m.n)
    monkeypatch.setattr(selftest, "find_induced_is", lambda m, s: None)
    rep = selftest.run_selftest("quick")
    assert [r.name for r in rep.results] == [row[0] for row in FROZEN_QUICK_ROWS]
    failed = {r.name: r.detail for r in rep.results if not r.passed}
    assert set(failed) == {"chi_bound", "preservation", "alpha_beta_ledger", "sag_properties"}
    assert "; fails ('chi', " in failed["preservation"]
    assert failed["alpha_beta_ledger"].endswith("; fails ['t7']")
    assert failed["sag_properties"].endswith("; fails (3, 'chi')")


def test_threads_default_is_one():
    args = _build_parser().parse_args(["enumerate", "--dim", "4", "--class", "ai4"])
    assert args.threads == 1


def test_enumerate_threads_must_be_positive(capsys):
    for n in ("0", "-1"):
        assert main(["enumerate", "--dim", "3", "--class", "ai4", "--threads", n]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err


def test_enumerate_threads_capped_at_cpu_count(monkeypatch, capsys):
    # Stands in for the process pool, so no process is started.
    seen = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    argv = ["--json", "enumerate", "--dim", "4", "--class", "ai4"]
    assert main(argv + ["--threads", "1"]) == 0
    one = json.loads(capsys.readouterr().out)
    assert seen == []
    assert main(argv + ["--threads", "1000"]) == 0
    many = json.loads(capsys.readouterr().out)
    assert seen == [2]
    del one["elapsed"], many["elapsed"]
    assert many == one
    # One CPU: no pool at all.
    monkeypatch.setattr(census.os, "cpu_count", lambda: 1)
    assert main(argv + ["--threads", "4"]) == 0
    assert seen == [2]


def test_oversized_dimensions_are_format_errors(tmp_path, capsys):
    big = tmp_path / "big.bmat"
    big.write_text("BMAT1 dim=64\npoints=1 2\n")
    assert main(["check", str(big)]) == 2
    assert "dimension must be between 1 and 16" in capsys.readouterr().err
    cert = tmp_path / "cert.json"
    cert.write_text('{"base": {"kind": "sag", "n": 70}, "steps": [], "map": []}')
    assert main(["build", str(cert)]) == 2
    assert "exceeds 16" in capsys.readouterr().err
    doc = {"base": {"kind": "onedim", "points": []}, "steps": ["alpha0"] * 16, "map": []}
    cert.write_text(json.dumps(doc))
    assert main(["build", str(cert)]) == 2
    assert "exceeds 16" in capsys.readouterr().err
    argv = ["random", "--dim", "64", "--count", "1", "--seed", "1", "--class", "ai4"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "dimension must be between 1 and 16" in capsys.readouterr().err
    # The bound itself still parses.
    edge = tmp_path / "edge.bmat"
    edge.write_text("BMAT1 dim=16\npoints=1 2 4\n")
    assert main(["check", "--props", "triangle", str(edge)]) == 0


def test_runs_without_numpy(tmp_path):
    # A dim-5 affine member: the quad tables scan every quad and find none.
    path = tmp_path / "d5.bmat"
    path.write_text(serialize_bmat(random_members(5, 1, 1, "i4tf_affine")[0]))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from bmt.cli import main\n"
        "check = main(['check', '--props', 'triangle,i4,ai4', sys.argv[1]])\n"
        "canon = main(['canon', sys.argv[1]])\n"
        "sys.exit(check or canon)\n"
    )
    src = os.path.dirname(os.path.dirname(bmt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == ["triangle: none", "i4: none", "ai4: none"]
    assert proc.stdout.splitlines()[3] == "BMAT1 dim=5"


def test_cli_import_leaves_out_the_process_pool():
    # The pool modules load only when enumerate starts more than one worker.
    code = (
        "import sys\n"
        "import bmt.cli\n"
        "pool = {'concurrent.futures.process', 'multiprocessing'}\n"
        "print(sorted(pool & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(bmt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

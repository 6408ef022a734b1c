"""CLI behaviour: exit codes, output shapes, determinism, error paths."""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import qgl2.matrices
import qgl2.scalars
from oracles import dense_conjugator, intertwines, product_vanishes, singular
from qgl2.catalog import CATALOG, instantiate
from qgl2.cli import _load_matrix, main
from qgl2.matrices import Mat
from qgl2.residues import RESIDUE_P
from qgl2.scalars import MAX_N, Q


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def diag_file(tmp_path):
    return write_json(tmp_path / "a.json", {
        "n": 4,
        "entries": [["q^2", "0", "0", "0"], ["0", "q", "0", "0"],
                    ["0", "0", "q", "0"], ["0", "0", "0", "1"]]})


@pytest.fixture
def spinor_b_file(tmp_path):
    return write_json(tmp_path / "b.json", {
        "n": 4,
        "entries": [["0", "0", "q", "0"], ["0", "0", "0", "-1"],
                    ["0", "0", "0", "0"], ["0", "0", "0", "0"]]})


# sha256 of `verify-catalog` stdout: the full catalog at the defaults, and
# a subset of two gl2 and two q-spinor entries at a second sample point
# and at the flipped orientation
CATALOG_DIGESTS = {
    "table": "a3b87463005388579bf874b8ff912b56d86fb13a83e17885bfa0cb2a2e495755",
    "json": "0384ff5df4d3175cd68461aba7cf850c01df5f1d9f754e2ce16de9ac465f4868",
}
SUBSET = ["--entry", "triangular-dim8", "--entry", "diagonal-dim3",
          "--entry", "admissible-jordan", "--entry", "rejected-shifted-diag"]
SUBSET_DIGESTS = {
    ("table", "--q0", "3"):
        "1d0a3246b504fad4462ed6834d9277f70dd526fea5d56b530d1fdd84241fdb62",
    ("json", "--q0", "3"):
        "0dab8b06738e5dd316a8b7d734685d475fe76bc7f6c6d77e22c44adadbab4f1f",
    ("table", "--orientation", "flipped"):
        "faddd79c3357a6178766fed0a63f917f5d7116f5de66e96bcbfab76b8fed12e7",
    ("json", "--orientation", "flipped"):
        "8fa7d05d0196e5239f82fe56be50c8119b0e60f5326cb683ed136afe63e20a2f",
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestVerifyCatalog:
    def test_clean_subset_passes(self, capsys):
        code = main(["verify-catalog", "--entry", "rejected-j3-lower",
                     "--entry", "rejected-j3-upper"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "rejected-j3-lower" in out

    def test_subset_json(self, capsys):
        code = main(["verify-catalog", "--entry", "admissible-jordan",
                     "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["summary"]["all_claims_reproduced"] is True
        assert report["summary"]["checked"] == 1
        rec = report["entries"][0]
        assert rec["admissible"] is True
        assert rec["crosscheck"]["ok"] is True

    def test_deterministic_output(self, capsys):
        args = ["verify-catalog", "--entry", "admissible-a",
                "--entry", "rejected-diag-chain"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_full_run_reports_known_discrepancy(self, capsys):
        # the two perturbed entries really are equivalent, so the
        # distinct-class claim on record is reported as a discrepancy and
        # the run exits 1
        code = main(["verify-catalog"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "equivalence witness was found" in out
        assert "unchecked 2" in out
        assert sha256(out) == CATALOG_DIGESTS["table"]

    def test_full_run_json_bytes(self, capsys):
        code = main(["verify-catalog", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 1
        assert sha256(out) == CATALOG_DIGESTS["json"]

    @pytest.mark.parametrize("fmt,flag,value", sorted(SUBSET_DIGESTS))
    def test_subset_bytes(self, capsys, fmt, flag, value):
        code = main(["verify-catalog", *SUBSET, flag, value, "--format", fmt])
        assert code == 0
        assert sha256(capsys.readouterr().out) \
            == SUBSET_DIGESTS[fmt, flag, value]

    def test_orientation_flag(self, capsys):
        code = main(["verify-catalog", "--entry", "admissible-a",
                     "--orientation", "flipped", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["summary"]["orientation"] == "flipped"

    def test_unknown_entry(self, capsys):
        code = main(["verify-catalog", "--entry", "nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: unknown catalog entry: nope" in err

    def test_pole_q0(self, capsys):
        code = main(["verify-catalog", "--entry", "admissible-a",
                     "--q0", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "evaluation pole" in err

    def test_negative_fraction_q0(self, capsys):
        # "--q0 -1/2" is a usage error, as argparse reads -1/2 as an
        # option; the --q0 help and the README give the form that works
        code = main(["verify-catalog", "--q0=-1/2",
                     "--entry", "rejected-j3-lower"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == (
            "catalog verification  (q0 = -1/2, orientation = default)")

    @pytest.mark.parametrize("q0", ["1/0", "abc", "1e5000", "1e20000000"])
    def test_bad_q0_is_a_usage_error(self, capsys, q0):
        # a zero denominator, or a numerator or denominator of 10^1000 or
        # more, is rejected by argparse like any non-rational, with one
        # error line and no traceback
        with pytest.raises(SystemExit) as exc:
            main(["verify-catalog", "--q0", q0])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.splitlines()[-1] == (
            f"qgl2 verify-catalog: error: argument --q0: "
            f"invalid Fraction value: '{q0}'")
        assert err.count("error") == 1 and "Traceback" not in err


@pytest.fixture(scope="class")
def jordan_commutant(tmp_path_factory):
    """(argv, stdout) of `commutant --format json`, with no adversary in
    place, on the a of admissible-jordan conjugated by the dense u of the
    installed-command CI step: its B(a) has non-real entries, read off
    residue points at both embeddings of i."""
    u = dense_conjugator(1)
    a = u * instantiate("admissible-jordan").a * u.inverse()
    path = write_json(tmp_path_factory.mktemp("jordan") / "a.json",
                      a.to_json())
    argv = ["commutant", path, "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return argv, out.getvalue()


class TestSearchAdversaries:
    """A search routine only proposes and an exact check accepts, so an
    adversary in its place changes no output byte.  Each adversary is
    wrong at finitely many primes, or wrong the same way at every prime:
    one wrong at every prime in a new way would keep the lift from ever
    settling.  So no case corrupts the residue images at one prime only,
    which CRT would carry into every later modulus."""

    def assert_bytes_kept(self, capsys, jordan_commutant):
        assert main(["verify-catalog", "--format", "json"]) == 1
        assert sha256(capsys.readouterr().out) == CATALOG_DIGESTS["json"]
        argv, out = jordan_commutant
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_gcd_candidate_of_the_wrong_degree(self, monkeypatch, capsys,
                                               jordan_commutant):
        # at RESIDUE_P, residues._lift returns the constant 1 for every
        # gcd_p of degree >= 1; scalars._candidates must discard it, not
        # let scalars._cancel read it as "coprime" and leave num/den
        # uncancelled, as (q^2 - 1)/(q - 1) would be
        lift, hits = qgl2.scalars._lift, []

        def adversary(a, b, p, r, combined, m):
            combined, m, h = lift(a, b, p, r, combined, m)
            if p == RESIDUE_P and len(a) > 1 and h is not None:
                hits.append(h)
                h = [(1, 0, 1)]
            return combined, m, h

        monkeypatch.setattr(qgl2.scalars, "_lift", adversary)
        self.assert_bytes_kept(capsys, jordan_commutant)
        assert hits

    def test_kernel_coefficients_off_by_one(self, monkeypatch, capsys,
                                            jordan_commutant):
        # at RESIDUE_P, every kernel candidate that residues._lift returns
        # has each coefficient (x + y*i)/d raised by 1; the Mat products of
        # matrices._residue_kernel must refuse each, and the next prime,
        # whose CRT state is honest, proposes the true kernel
        lift, hits = qgl2.matrices._lift, []

        def adversary(a, b, p, r, combined, m):
            combined, m, h = lift(a, b, p, r, combined, m)
            if p == RESIDUE_P and h is not None:
                hits.append(h)
                h = [(x + d, y, d) for x, y, d in h]
            return combined, m, h

        monkeypatch.setattr(qgl2.matrices, "_lift", adversary)
        self.assert_bytes_kept(capsys, jordan_commutant)
        assert hits

    def test_thiele_numerator_off_by_one(self, monkeypatch, capsys,
                                         jordan_commutant):
        # every folded Thiele fraction P/Q has P[0] + 1 in place of P[0],
        # at every prime: the lift settles on a wrong kernel, the exact
        # check refuses it, the same h at the next prime ends the search,
        # and the exact elimination answers
        fold, hits = qgl2.matrices._fold, []

        def adversary(xs, a, p):
            folded = fold(xs, a, p)
            if folded and folded[0]:
                hits.append(folded)
                num, den = folded
                folded = [(num[0] + 1) % p] + num[1:], den
            return folded

        monkeypatch.setattr(qgl2.matrices, "_fold", adversary)
        self.assert_bytes_kept(capsys, jordan_commutant)
        assert hits


class TestCommutant:
    def test_table(self, capsys, diag_file):
        assert main(["commutant", diag_file]) == 0
        out = capsys.readouterr().out
        assert "a*x = q*x*a solutions: dimension 4" in out

    def test_reverse_json(self, capsys, diag_file):
        assert main(["commutant", diag_file, "--reverse",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["reverse"] is True
        assert obj["dim"] == 4
        assert len(obj["basis"]) == 4

    def test_missing_file(self, capsys):
        assert main(["commutant", "no-such-file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_number_entry(self, capsys, tmp_path):
        path = write_json(tmp_path / "m.json", {
            "n": 2, "entries": [[1, "0"], ["0", "1"]]})
        assert main(["commutant", path]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: matrix entries must be strings\n"

    HUGE_POWERS = [
        ("q^99999999", 2, "of degree over 1000"),
        ("(q^999)^999", 8, "of degree over 1000"),
        # refused by its leading coefficient 10^99900 before it is formed
        ("(10^999*q+1)^100", 13, "with a coefficient of over 1000 digits"),
    ]

    @pytest.mark.parametrize("power, pos, what", HUGE_POWERS,
                             ids=[f"{p}-{n}" for p, n, _ in HUGE_POWERS])
    def test_huge_exponent_exits_2_at_once(self, capsys, tmp_path, power,
                                           pos, what):
        path = write_json(tmp_path / "m.json", {
            "n": 2, "entries": [[power, "0"], ["0", "1"]]})
        start = time.perf_counter()
        assert main(["commutant", path]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            f"error: {path}: parse error at position {pos}: power {what}\n")

    @pytest.mark.parametrize("entry, pos, what", [
        ("*".join(["q^1000"] * 100), 6, "product"),
        ("+".join(f"1/(q^999+{j})" for j in range(1, 21)), 11, "sum"),
    ], ids=["product", "sum"])
    def test_huge_degree_exits_2_at_once(self, capsys, tmp_path, entry, pos,
                                         what):
        path = write_json(tmp_path / "m.json", {
            "n": 2, "entries": [[entry, "0"], ["0", "1"]]})
        start = time.perf_counter()
        assert main(["commutant", path]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            f"error: {path}: parse error at position {pos}: {what} of "
            "degree over 1000\n")

    @pytest.mark.parametrize("power", ["q^1000", "q^-1000", "q^600*q^400"])
    def test_exponent_at_the_bound_parses(self, capsys, tmp_path, power):
        path = write_json(tmp_path / "m.json", {
            "n": 2, "entries": [[power, "0"], ["0", "1"]]})
        assert main(["commutant", path, "--format", "json"]) == 0
        # a X = q X a has no nonzero solution for a = diag(q^k, 1), k != 1
        assert json.loads(capsys.readouterr().out)["dim"] == 0


class TestAdmissible:
    def test_yes(self, capsys, diag_file, spinor_b_file):
        assert main(["admissible", diag_file, spinor_b_file]) == 0
        out = capsys.readouterr().out
        assert "admissible: yes" in out
        assert "c-space: dimension 1" in out

    def test_json(self, capsys, diag_file, spinor_b_file):
        assert main(["admissible", diag_file, spinor_b_file,
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["admissible"] is True
        assert obj["c_space"]["dim"] == 1
        assert obj["witness"] is not None

    def test_not_a_spinor(self, capsys, diag_file):
        assert main(["admissible", diag_file, diag_file]) == 2
        assert "not a q-spinor" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ({"n": 4, "entries": [["0"] * 4] * 3},
         "entries must form an n x n grid"),
        ({"n": 1, "entries": [["q^^2"]]},
         "parse error at position 2: integer exponent expected"),
    ], ids=["grid", "scalar"])
    def test_bad_second_file_is_named(self, capsys, tmp_path, diag_file,
                                      bad, message):
        b = write_json(tmp_path / "bad-b.json", bad)
        assert main(["admissible", diag_file, b]) == 2
        assert capsys.readouterr().err == f"error: {b}: {message}\n"


class TestCentralizerAndClosure:
    def test_centralizer(self, capsys, tmp_path):
        ident = write_json(tmp_path / "i.json", {
            "n": 2, "entries": [["1", "0"], ["0", "1"]]})
        assert main(["centralizer", ident]) == 0
        assert "centralizer: dimension 4" in capsys.readouterr().out

    def test_closure_files(self, capsys, tmp_path):
        e12 = write_json(tmp_path / "e12.json", {
            "n": 2, "entries": [["0", "1"], ["0", "0"]]})
        e21 = write_json(tmp_path / "e21.json", {
            "n": 2, "entries": [["0", "0"], ["1", "0"]]})
        assert main(["closure", e12, e21]) == 0
        assert "closure: dimension 4" in capsys.readouterr().out

    def test_closure_entry_modes(self, capsys):
        assert main(["closure", "--entry", "triangular-dim8",
                     "--mode", "single", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 6
        assert main(["closure", "--entry", "triangular-dim8",
                     "--mode", "family", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 8

    def test_closure_conflicting_inputs(self, capsys, tmp_path):
        e12 = write_json(tmp_path / "e12.json", {
            "n": 2, "entries": [["0", "1"], ["0", "0"]]})
        assert main(["closure", e12, "--entry", "perturbed-a"]) == 2
        assert "either --entry or matrix files" in capsys.readouterr().err

    def test_closure_no_inputs(self, capsys):
        assert main(["closure"]) == 2
        assert "need matrix files or --entry" in capsys.readouterr().err


M2 = json.dumps({"n": 2, "entries": [["1", "q"], ["0", "1"]]})
M3 = json.dumps({"n": 3, "entries": [["0", "0", "0"], ["0", "0", "0"],
                                     ["0", "0", "1"]]})


def zero_matrix(n):
    return json.dumps({"n": n, "entries": [["0"] * n for _ in range(n)]})


DEEP = "[" * 100000 + "]" * 100000
DEEP_SCALAR = "(" * 5000 + "1" + ")" * 5000

# argv with {0}, {1} for the files, then the JSON text of each file (None
# makes a directory); every case must exit 2 with one "error:" line
ONE_FILE = ["commutant", "{0}"]
BAD_INPUT = {
    "entries-number": (ONE_FILE, ['{"n": 2, "entries": 5}']),
    "entries-null": (ONE_FILE, ['{"n": 2, "entries": null}']),
    "row-number": (ONE_FILE, ['{"n": 1, "entries": [5]}']),
    "nested-matrix": (ONE_FILE, [DEEP]),
    "nested-rep": (["equiv", "{0}", "perturbed-a"], [DEEP]),
    "top-level-list": (ONE_FILE, ["[1, 2]"]),
    "number-entry": (ONE_FILE, ['{"n": 1, "entries": [[5]]}']),
    "wrong-n": (ONE_FILE, ['{"n": 3, "entries": [["1", "0"], ["0", "1"]]}']),
    "bad-scalar": (ONE_FILE, ['{"n": 1, "entries": [["q^^2"]]}']),
    "arabic-indic-digit": (ONE_FILE,
                           ['{"n": 1, "entries": [["\\u0663*q"]]}']),
    "nested-scalar": (ONE_FILE,
                      [f'{{"n": 1, "entries": [["{DEEP_SCALAR}"]]}}']),
    "directory": (ONE_FILE, [None]),
    "not-json": (ONE_FILE, ["{"]),
    "no-n": (ONE_FILE, ['{"entries": [["1"]]}']),
    "n-boolean": (ONE_FILE, ['{"n": true, "entries": [["q"]]}']),
    "n-above-max": (ONE_FILE, [zero_matrix(MAX_N + 1)]),
    "rep-mixed-sizes": (["equiv", "{0}", "admissible-a"],
                        [f'{{"a": {M2}, "b": {M3}}}']),
    "centralizer-2-3": (["centralizer", "{0}", "{1}"], [M2, M3]),
    "centralizer-3-2": (["centralizer", "{0}", "{1}"], [M3, M2]),
    "closure-2-3": (["closure", "{0}", "{1}"], [M2, M3]),
    "closure-3-2": (["closure", "{0}", "{1}"], [M3, M2]),
}


@pytest.mark.parametrize("argv, files", BAD_INPUT.values(),
                         ids=BAD_INPUT.keys())
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv, files):
    paths = []
    for k, text in enumerate(files):
        path = tmp_path / f"{k}.json"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        paths.append(str(path))
    assert main([arg.format(*paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_matrix_of_size_max_n_parses(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(zero_matrix(MAX_N))
    assert _load_matrix(str(path)).n == MAX_N


# a trace pins the exponent of every pair with a nonzero power trace
SPINOR_FAMILY = \
    "q^k, k in Z; |k| <= 4 for a pair whose power traces all vanish"

SPINOR_EQUIV = {
    ("admissible-b", "table"): (
        "equivalent: yes\n"
        "alpha = 1\n"
        "u:\n"
        "[ 1   0   0   0]\n"
        "[ 0   0   1   0]\n"
        "[ 0   2   4   0]\n"
        "[ 0   0   0  -2]\n"),
    ("admissible-b", "json"): json.dumps({
        "equivalent": True,
        "scaling_family": SPINOR_FAMILY,
        "u": {"n": 4, "entries": [["1", "0", "0", "0"],
                                  ["0", "0", "1", "0"],
                                  ["0", "2", "4", "0"],
                                  ["0", "0", "0", "-2"]]},
        "alpha": "1"}, indent=2) + "\n",
    ("admissible-jordan", "table"):
        "equivalent: none within monomial scalings\n",
    ("admissible-jordan", "json"): (
        '{\n'
        '  "equivalent": false,\n'
        f'  "scaling_family": "{SPINOR_FAMILY}",\n'
        '  "u": null,\n'
        '  "alpha": null\n'
        '}\n'),
}


class TestEquiv:
    def test_catalog_pair_equivalent(self, capsys):
        assert main(["equiv", "perturbed-a", "perturbed-b"]) == 0
        out = capsys.readouterr().out
        assert "equivalent: yes" in out
        assert "alpha1 = 1, alpha2 = 1" in out

    def test_catalog_pair_witness_golden(self, capsys):
        # the witness the search order finds, byte for byte
        golden = pathlib.Path(__file__).parent / "golden" \
            / "equiv_perturbed_a_b.json"
        assert main(["equiv", "perturbed-a", "perturbed-b",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_catalog_pair_distinct(self, capsys):
        assert main(["equiv", "perturbed-a", "triangular-dim8"]) == 0
        out = capsys.readouterr().out
        assert "equivalent: none within monomial scalings" in out

    def test_rep_file(self, capsys, tmp_path, diag_file, spinor_b_file):
        a = json.loads(pathlib.Path(diag_file).read_text())
        b = json.loads(pathlib.Path(spinor_b_file).read_text())
        rep = write_json(tmp_path / "rep.json", {"a": a, "b": b})
        assert main(["equiv", rep, "admissible-a", "--format",
                     "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["equivalent"] is True
        assert obj["alpha"] == "1"
        assert obj["scaling_family"] == SPINOR_FAMILY

    def test_bad_matrix_in_rep_file_is_named(self, capsys, tmp_path,
                                             diag_file):
        a = json.loads(pathlib.Path(diag_file).read_text())
        rep = write_json(tmp_path / "rep.json",
                         {"a": a, "b": {"n": 4, "entries": "q"}})
        assert main(["equiv", "admissible-a", rep]) == 2
        assert capsys.readouterr().err == \
            f"error: {rep}: entries must form an n x n grid\n"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("second", ["admissible-b", "admissible-jordan"])
    def test_spinor_pair_bytes(self, capsys, second, fmt):
        # q-spinor output, found and none, byte for byte
        assert main(["equiv", "admissible-a", second, "--format", fmt]) == 0
        assert capsys.readouterr().out == SPINOR_EQUIV[second, fmt]

    @pytest.mark.parametrize("fmt, tail", [
        ("table", "equivalent: none within monomial scalings\n"),
        ("json", '"equivalent": false,')], ids=["table", "json"])
    def test_former_search_miss_is_no(self, capsys, fmt, tail):
        # a trace pin passes, but no conjugator space has an invertible
        # member, and invertible_element proves that
        assert main(["equiv", "admissible-a", "admissible-jordan",
                     "--format", fmt]) == 0
        assert tail in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_bounded_search_is_labelled(self, capsys, tmp_path, fmt):
        # a = E12 + E23, b = E13: every power trace vanishes, so no trace
        # pins k, and the witness alpha = q^5 lies past the searched range
        a = Mat.unit(3, 0, 1) + Mat.unit(3, 1, 2)
        b = Mat.unit(3, 0, 2)
        first = write_json(tmp_path / "r.json",
                           {"a": a.to_json(), "b": b.to_json()})
        second = write_json(tmp_path / "s.json", {
            "a": a.scale(Q ** 5).to_json(), "b": b.scale(Q ** 5).to_json()})
        assert main(["equiv", first, second, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "table":
            assert out == ("equivalent: none within monomial scalings\n"
                           "searched |k| <= 4 only, for a pair whose power "
                           "traces all vanish\n")
        else:
            # the JSON of any "no" names the bound in scaling_family
            assert json.loads(out) == {"equivalent": False,
                                       "scaling_family": SPINOR_FAMILY,
                                       "u": None, "alpha": None}

    def test_kind_mismatch(self, capsys):
        assert main(["equiv", "perturbed-a", "admissible-a"]) == 2
        assert "cannot compare" in capsys.readouterr().err

    def test_unresolvable_ref(self, capsys):
        assert main(["equiv", "no-such-thing", "perturbed-a"]) == 2
        err = capsys.readouterr().err
        assert "neither a catalog entry nor a readable rep file" in err


# sha256 of `equiv A B --format json` stdout concatenated over every
# ordered pair of same-kind checkable catalog entries, in catalog order
EQUIV_PAIRS_DIGEST = \
    "7b79e71ba4f0e05301e33d913b3b1c7ce2a8619fd97127a78065a1305706b4c2"

# the two witnesses of those pairs that come from the grid stage of
# invertible_element, both self-pairs
GRID_WITNESSES = {
    "diagonal-dim3": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                      [0, 0, 0, 1]],
    "rejected-diag-chain": [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0],
                            [0, -1, 0, 1]],
}


def witness_equations(r1, r2, obj) -> list:
    """(g1, g2, alpha) for each generator that the printed witness obj of
    `equiv r1 r2 --format json` carries from r1 to r2: alpha1 scales the
    first column of a quadruple and alpha2 the second."""
    if "alpha" in obj:
        scalings = {"a": obj["alpha"], "b": obj["alpha"]}
    else:
        scalings = {"c11": obj["alpha1"], "c21": obj["alpha1"],
                    "c12": obj["alpha2"], "c22": obj["alpha2"]}
    return [(getattr(r1, k).rows, getattr(r2, k).rows, alpha)
            for k, alpha in scalings.items()]


def test_equiv_catalog_pairs_bytes(capsys):
    entries = [e for e in CATALOG if e.builder is not None]
    out, pairs, witnesses = [], 0, []
    for first in entries:
        for second in entries:
            if first.kind != second.kind:
                continue
            assert main(["equiv", first.name, second.name,
                         "--format", "json"]) == 0
            text = capsys.readouterr().out
            obj = json.loads(text)
            assert type(obj["equivalent"]) is bool
            if obj["equivalent"]:
                witnesses.append((first.name, second.name, obj))
            if first is second and first.name in GRID_WITNESSES:
                assert obj["u"]["entries"] == [
                    [str(x) for x in row]
                    for row in GRID_WITNESSES[first.name]]
            pairs += 1
            out.append(text)
    assert (pairs, len(witnesses)) == (185, 23)
    # qgl2 proves a witness by its conjugator space and a rank; sympy
    # re-proves each one here from the reps and the printed u and alphas
    for first, second, obj in witnesses:
        u = obj["u"]["entries"]
        assert not singular(u), (first, second)
        assert intertwines(u, witness_equations(
            instantiate(first), instantiate(second), obj)), (first, second)
    assert sha256("".join(out)) == EQUIV_PAIRS_DIGEST


def test_admissibility_witnesses_are_proved(capsys, tmp_path):
    # the printed c of each admissible catalog entry, re-proved by sympy:
    # c b = q b c and c a = q a c, so c b (1/q) = b c, and c b != 0
    names = [e.name for e in CATALOG if e.claims.admissible]
    assert names == ["admissible-a", "admissible-b", "admissible-jordan"]
    for name in names:
        rep = instantiate(name)
        files = [write_json(tmp_path / f"{name}-{k}.json", m.to_json())
                 for k, m in (("a", rep.a), ("b", rep.b))]
        assert main(["admissible", *files, "--format", "json"]) == 0
        c = json.loads(capsys.readouterr().out)["witness"]["entries"]
        assert intertwines(c, [(g.rows, g.rows, "1/q")
                               for g in (rep.b, rep.a)]), name
        assert not product_vanishes(c, rep.b.rows), name


# sha256 of the exit code and stdout of every command but verify-catalog,
# in both formats, concatenated in the order of non_catalog_runs
NON_CATALOG_DIGEST = \
    "d7f2d9f19967f06a6db0ff989cc2f14d14977b49810a0e800099e1393dfed72f"


def non_catalog_runs(tmp_path):
    """argv of every command but verify-catalog, on files written from
    catalog entries: commutant both ways, admissible (yes, no, flipped),
    centralizer, closure on files and on an entry, equiv on a rep file."""
    def files(name, rep):
        paths = {}
        for key, mat in vars(rep).items():
            paths[key] = write_json(tmp_path / f"{name}-{key}.json",
                                    mat.to_json())
        return paths

    yes = files("adm", instantiate("admissible-a"))
    no = files("rej", instantiate("rejected-j3-lower"))
    quad = instantiate("diagonal-dim3")
    gens = list(files("diag", quad).values())
    rep = write_json(tmp_path / "diag-rep.json",
                     {k: m.to_json() for k, m in vars(quad).items()})
    return [
        ["commutant", yes["a"]],
        ["commutant", yes["a"], "--reverse"],
        ["admissible", yes["a"], yes["b"]],
        ["admissible", no["a"], no["b"]],
        ["admissible", yes["a"], yes["b"], "--orientation", "flipped"],
        ["centralizer", *gens],
        ["closure", *gens],
        ["closure", "--entry", "diagonal-dim3"],
        ["closure", "--entry", "diagonal-dim3", "--mode", "family"],
        ["equiv", rep, "diagonal-dim3"],
    ]


def test_non_catalog_commands_bytes(capsys, tmp_path):
    out = []
    for argv in non_catalog_runs(tmp_path):
        for fmt in ("table", "json"):
            code = main([*argv, "--format", fmt])
            text = capsys.readouterr().out
            if fmt == "json":
                json.loads(text)
            out.append(f"{code}\n{text}")
    assert sha256("".join(out)) == NON_CATALOG_DIGEST


def test_repeated_entry_is_checked_once(capsys):
    entry = ["--entry", "rejected-j3-lower"]
    for fmt in ("table", "json"):
        assert main(["verify-catalog", *entry, "--format", fmt]) == 0
        once = capsys.readouterr().out
        assert main(["verify-catalog", *entry, *entry,
                     "--format", fmt]) == 0
        assert capsys.readouterr().out == once


COMMANDS = ("verify-catalog", "commutant", "admissible", "centralizer",
            "closure", "equiv")


@pytest.mark.parametrize("argv", [[]] + [[c] for c in COMMANDS],
                         ids=["qgl2", *COMMANDS])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['qgl2', *argv])} ")
    if argv:
        assert "--format {table,json}" in out
    else:
        assert all(c in out for c in COMMANDS)


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qgl2", "verify-catalog",
             "--entry", "rejected-j3-lower"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


def seeded_dense(n: int, seed: int) -> list:
    """Entries v or v*q (chance 0.3) with v in -3..3, drawn row by row."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            v = rng.randint(-3, 3)
            row.append(f"{v}*q" if rng.random() < 0.3 else str(v))
        rows.append(row)
    return rows


def q_shift(n: int) -> list:
    """q*I plus the cyclic shift."""
    return [["q" if j == i else "1" if j == (i + 1) % n else "0"
             for j in range(n)] for i in range(n)]


# full-rank commutants that ran from 16 s to over 100 s when the kernel
# was only proved {0} by elimination over Q(i)(q)
FULL_RANK = {f"dense{n}-seed{s}": seeded_dense(n, s)
             for n, s in ((4, 1), (4, 2), (4, 3), (5, 1), (6, 1))}
FULL_RANK.update({f"shift{n}": q_shift(n) for n in (5, 6, 8)})


@pytest.mark.parametrize("name", FULL_RANK)
def test_full_rank_commutant_answers_at_once(tmp_path, name):
    rows = FULL_RANK[name]
    path = write_json(tmp_path / "a.json", {"n": len(rows), "entries": rows})
    proc = subprocess.run(
        [sys.executable, "-m", "qgl2", "commutant", path, "--format", "json"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 0


def test_dense_closure_answers_in_seconds(tmp_path):
    # M_3 from two matrices with (q - 1)/q, 1/q and q + 1 entries: the
    # gcds of its non-monomial denominators swelled in the Euclidean loop
    # without monic remainders, and the closure took 21 s
    a = write_json(tmp_path / "a.json", {"n": 3, "entries": [
        ["(q - 1)/q", "q", "0"], ["-1", "0", "1/q"], ["0", "0", "0"]]})
    b = write_json(tmp_path / "b.json", {"n": 3, "entries": [
        ["i", "2", "0"], ["(q - 1)/q", "0", "0"], ["1/q", "2", "q + 1"]]})
    proc = subprocess.run(
        [sys.executable, "-m", "qgl2", "closure", a, b, "--format", "json"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 9


# ---------------------------------------------------------------------------
# generated input files: whatever JSON a matrix or rep file holds, every
# command ends with exit 0, 1 or 2 and raises nothing; the deadline makes
# a stall a failure

GRAMMAR = "0123456789iq+-*/^() "
# entries that parse, so that well-shaped matrices reach the solvers
ENTRIES = ("0", "0", "1", "-1", "2", "i", "q", "-q", "q^2", "1/q", "q + 1",
           "(q - 1)/q", "2*i*q")
VALUES = st.sampled_from(ENTRIES)
STRINGS = VALUES | st.text(alphabet=GRAMMAR, max_size=4)
CELLS = STRINGS | st.integers(-2, 2) | st.none() \
    | st.lists(st.just("1"), max_size=1)


@st.composite
def matrix_objects(draw, n):
    """An n x n matrix object of parsing entries (half the time), of
    strings over the grammar alphabet, or of any cells in ragged rows, a
    wrong n, a bare list of rows or no n."""
    kind = draw(st.integers(0, 3))
    if kind < 3:
        cell = VALUES if kind < 2 else STRINGS
        rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        return {"n": n, "entries": rows}
    rows = draw(st.lists(st.lists(CELLS, max_size=3), max_size=3))
    return draw(st.sampled_from([
        {"n": n, "entries": rows}, {"n": draw(st.integers(-1, 4) | st.none()
                                             | st.just("2")),
                                    "entries": rows},
        rows, {"entries": rows}, {"n": n}]))


@st.composite
def matrix_files(draw, count):
    """count matrix objects, of one size n <= 3 but once in four times."""
    n = draw(st.integers(1, 3))
    sizes = [n] * count if draw(st.integers(0, 3)) \
        else draw(st.lists(st.integers(1, 3), min_size=count,
                           max_size=count))
    return [draw(matrix_objects(k)) for k in sizes]


@st.composite
def rep_objects(draw):
    """A gl2 quadruple or a q-spinor pair of matrix objects, or a broken
    one: a missing key or a list."""
    keys = draw(st.sampled_from([("c11", "c12", "c21", "c22"), ("a", "b"),
                                 ("c11", "c12", "c21"), ("a",)]))
    rep = dict(zip(keys, draw(matrix_files(len(keys)))))
    return draw(st.just(rep) | st.just(list(rep.values())))


FUZZ_CLI = settings(derandomize=True, max_examples=40, deadline=5000)


def run_fuzz(argv, objects):
    """main(argv) with {0}, {1} in argv replaced by files holding the
    JSON of objects: it must return 0, 1 or 2 and raise nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write_json(pathlib.Path(tmp) / f"{k}.json", obj)
                 for k, obj in enumerate(objects)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(*paths) for arg in argv])
    assert code in (0, 1, 2)


class TestGeneratedFiles:
    @FUZZ_CLI
    @given(files=matrix_files(1), reverse=st.booleans())
    def test_commutant(self, files, reverse):
        run_fuzz(["commutant", "{0}"] + ["--reverse"] * reverse, files)

    @FUZZ_CLI
    @given(files=matrix_files(2),
           orientation=st.sampled_from(["default", "flipped"]))
    def test_admissible(self, files, orientation):
        run_fuzz(["admissible", "{0}", "{1}", "--orientation", orientation],
                 files)

    @FUZZ_CLI
    @given(files=matrix_files(2))
    def test_centralizer(self, files):
        run_fuzz(["centralizer", "{0}", "{1}"], files)

    @FUZZ_CLI
    @given(files=matrix_files(2))
    def test_closure(self, files):
        run_fuzz(["closure", "{0}", "{1}"], files)

    @FUZZ_CLI
    @given(first=rep_objects(), second=rep_objects()
           | st.sampled_from(["perturbed-a", "admissible-a"]))
    def test_equiv(self, first, second):
        if isinstance(second, str):
            run_fuzz(["equiv", "{0}", second], [first])
        else:
            run_fuzz(["equiv", "{0}", "{1}"], [first, second])


# sha256 of `closure --format json` on each dense pair below: M_3, with
# the nine unit matrices as its basis
DENSE_CLOSURE_DIGEST = \
    "d649ea33f67319e06c9e1e24c97ab10f9d64733e24de994b70cc15a96dbdbcd0"


def test_dense_closures_with_i_meet_a_cpu_budget(tmp_path, capsys):
    # pairs of dense 3 x 3 matrices drawn from ENTRIES, as the generated
    # files draw them: their gcds are non-real or have parts past 32767,
    # and these five took 13 s of CPU in all when the Euclidean gcd
    # decided them
    rng = random.Random(1)
    pairs = [[[[rng.choice(ENTRIES) for _ in range(3)] for _ in range(3)]
              for _ in range(2)] for _ in range(100)]
    start = time.process_time()
    for k in (4, 31, 35, 45, 6):
        paths = [write_json(tmp_path / f"{k}-{j}.json",
                            {"n": 3, "entries": rows})
                 for j, rows in enumerate(pairs[k])]
        assert main(["closure", *paths, "--format", "json"]) == 0
        assert sha256(capsys.readouterr().out) == DENSE_CLOSURE_DIGEST
    assert time.process_time() - start < 6

"""CLI behaviour: exit codes, output shapes, determinism, error paths."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

from qgl2.cli import main


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
            "error: matrix entries must be strings\n"

    @pytest.mark.parametrize("power, pos", [("q^99999999", 2),
                                            ("(q^999)^999", 8)])
    def test_huge_exponent_exits_2_at_once(self, capsys, tmp_path, power,
                                           pos):
        path = write_json(tmp_path / "m.json", {
            "n": 2, "entries": [[power, "0"], ["0", "1"]]})
        start = time.perf_counter()
        assert main(["commutant", path]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            f"error: parse error at position {pos}: power of degree "
            "over 1000\n")

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
            f"error: parse error at position {pos}: {what} of degree "
            "over 1000\n")

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
        "scaling_family": "q^k, |k| <= 4",
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
        '  "scaling_family": "q^k, |k| <= 4",\n'
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
        a = json.loads(open(diag_file).read())
        b = json.loads(open(spinor_b_file).read())
        rep = write_json(tmp_path / "rep.json", {"a": a, "b": b})
        assert main(["equiv", rep, "admissible-a", "--format",
                     "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["equivalent"] is True
        assert obj["alpha"] == "1"
        assert obj["scaling_family"] == "q^k, |k| <= 4"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("second", ["admissible-b", "admissible-jordan"])
    def test_spinor_pair_bytes(self, capsys, second, fmt):
        # q-spinor output, found and none, byte for byte
        assert main(["equiv", "admissible-a", second, "--format", fmt]) == 0
        assert capsys.readouterr().out == SPINOR_EQUIV[second, fmt]

    def test_kind_mismatch(self, capsys):
        assert main(["equiv", "perturbed-a", "admissible-a"]) == 2
        assert "cannot compare" in capsys.readouterr().err

    def test_unresolvable_ref(self, capsys):
        assert main(["equiv", "no-such-thing", "perturbed-a"]) == 2
        err = capsys.readouterr().err
        assert "neither a catalog entry nor a readable rep file" in err


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qgl2", "verify-catalog",
             "--entry", "rejected-j3-lower"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

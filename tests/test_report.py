"""Report records: each published claim is compared once, a wrong claim
gives False and its exact message, an absent claim gives None and no
message, and the sample-point rerun flags a dimension mismatch."""

import dataclasses
from fractions import Fraction

import pytest

from qgl2 import report
from qgl2.catalog import get_entry
from qgl2.gl2 import GL2Rep
from qgl2.matrices import Mat
from qgl2.report import build_report, render_table, report_exit_code
from qgl2.spinors import QSpinorRep


def record_with(monkeypatch, name, orientation="default", **claims):
    """The report record of catalog entry `name` with some of its claims
    replaced."""
    entry = get_entry(name)
    changed = dataclasses.replace(
        entry, claims=dataclasses.replace(entry.claims, **claims))
    monkeypatch.setattr(
        report, "get_entry",
        lambda n: changed if n == name else get_entry(n))
    return build_report([name], orientation=orientation)["entries"][0]


WRONG = Mat.identity(4)

# (entry, claim, wrong value, record field or None, message)
WRONG_CLAIMS = [
    ("diagonal-dim3", "detq", WRONG, "detq_matches_claim",
     "quantum determinant differs from claim"),
    ("diagonal-dim3", "perturbation_nonzero", True, "perturbation_claim_ok",
     "perturbation zero/nonzero claim failed"),
    ("diagonal-dim3", "dim_operator_algebra", 4, None,
     "operator algebra dimension differs from claim (got 3, claimed 4)"),
    ("diagonal-dim3", "dim_invariants", 7, None,
     "invariant dimension differs from claim (got 6, claimed 7)"),
    ("diagonal-dim3", "operator_space", (WRONG,),
     "operator_space_matches_claim",
     "operator algebra basis pattern differs from claim"),
    ("diagonal-dim3", "invariant_space", (WRONG,),
     "invariant_space_matches_claim",
     "invariant space differs from claimed unit pattern"),
    ("admissible-a", "commutant_basis", (WRONG,), "commutant_matches_claim",
     "commutant differs from claimed basis"),
    ("admissible-a", "commutant_rev_basis", (WRONG,),
     "commutant_rev_matches_claim",
     "reverse commutant differs from claimed basis"),
    ("admissible-a", "admissible", False, "admissible_claim_ok",
     "admissibility verdict True differs from claim False"),
]

# (entry that makes the claim, claim, record field or None)
ABSENT_CLAIMS = [
    ("diagonal-dim3", "detq", "detq_matches_claim"),
    ("perturbed-a", "perturbation_nonzero", "perturbation_claim_ok"),
    ("diagonal-dim3", "dim_operator_algebra", None),
    ("diagonal-dim3", "dim_invariants", None),
    ("triangular-dim8", "operator_space", "operator_space_matches_claim"),
    ("diagonal-dim3", "invariant_space", "invariant_space_matches_claim"),
    ("admissible-a", "commutant_basis", "commutant_matches_claim"),
    ("admissible-a", "commutant_rev_basis", "commutant_rev_matches_claim"),
    ("admissible-a", "admissible", "admissible_claim_ok"),
]


class TestClaims:
    @pytest.mark.parametrize("name,claim,value,field,message", WRONG_CLAIMS,
                             ids=[c[1] for c in WRONG_CLAIMS])
    def test_wrong_claim(self, monkeypatch, name, claim, value, field,
                         message):
        rec = record_with(monkeypatch, name, **{claim: value})
        if field is not None:
            assert rec[field] is False
        assert rec["discrepancies"] == [message]

    @pytest.mark.parametrize("name,claim,field", ABSENT_CLAIMS,
                             ids=[c[1] for c in ABSENT_CLAIMS])
    def test_absent_claim(self, monkeypatch, name, claim, field):
        assert getattr(get_entry(name).claims, claim) is not None
        rec = record_with(monkeypatch, name, **{claim: None})
        if field is not None:
            assert rec[field] is None
        assert rec["discrepancies"] == []

    def test_flipped_orientation_ignores_a_wrong_admissibility_claim(
            self, monkeypatch):
        rec = record_with(monkeypatch, "admissible-a", orientation="flipped",
                          admissible=False)
        assert rec["orientation"] == "flipped"
        assert rec["admissible_claim_ok"] is None
        assert rec["discrepancies"] == []


class TestSamplePoint:
    def test_degenerate_point_is_flagged(self):
        # q = 1 collapses the dimensions of both kinds of entry, and the
        # report flags the sample point as a failed crosscheck
        rep = build_report(["triangular-dim8", "rejected-j3-lower"],
                           q0=Fraction(1))
        gl2, spinor = rep["entries"]
        assert gl2["crosscheck"] == {
            "q0": "1",
            "single": {"operator_algebra": [6, 3], "invariants": [3, 6]},
            "family": {"operator_algebra": [8, 6], "invariants": [1, 3]},
            "ok": False,
        }
        assert spinor["crosscheck"] == {
            "q0": "1", "commutant": [1, 6], "commutant_rev": [1, 6],
            "c_space": [0, 4], "ok": False,
        }
        for rec in (gl2, spinor):
            assert rec["discrepancies"] == [
                "dimension mismatch at sample point q = 1"]
        assert rep["summary"]["total_discrepancies"] == 2


    @pytest.mark.parametrize("q0, flagged", [(Fraction(2), False),
                                             (Fraction(1), True)])
    def test_crosscheck_of_every_record(self, q0, flagged):
        # the exact side of every crosscheck is the record's own dimension,
        # and ok is False exactly when the mismatch is a discrepancy
        message = f"dimension mismatch at sample point q = {q0}"
        checked = [rec for rec in build_report(q0=q0)["entries"]
                   if rec["status"] == "checked"]
        assert {rec["kind"] for rec in checked} == {"gl2", "qspinor"}
        for rec in checked:
            cc = rec["crosscheck"]
            if rec["kind"] == "gl2":
                assert {mode: {key: cc[mode][key][0] for key in cc[mode]}
                        for mode in ("single", "family")} == rec["dims"]
            else:
                assert [cc[key][0] for key in
                        ("commutant", "commutant_rev", "c_space")] == [
                    rec["commutant_dim"], rec["commutant_rev_dim"],
                    rec["c_space_dim"]]
            assert (cc["ok"] is False) == (message in rec["discrepancies"])
        assert any(rec["crosscheck"]["ok"] is False
                   for rec in checked) == flagged


def broken_record(name, rep):
    """The one record, exit code and table of a report on catalog entry
    `name` (its claims) with its builder returning rep."""
    entry = dataclasses.replace(get_entry(name), name="broken", params=(),
                                builder=lambda _: rep)
    out = build_report([entry])
    return out["entries"][0], report_exit_code(out), render_table(out)


class TestFailedPremise:
    # a failed premise is listed as a discrepancy; what needs the premise
    # is skipped and left null, and the report still renders and exits 1
    def test_singular_quantum_determinant(self):
        zero = Mat.zero(4)
        rec, code, table = broken_record(
            "triangular-dim8", GL2Rep(Mat.identity(4), zero, zero, zero))
        assert "quantum determinant not invertible" in rec["discrepancies"]
        assert rec["dims"] is None and rec["mode_divergence"] is None
        assert rec["operator_space_matches_claim"] is None
        assert rec["counit_matches_centralizer"] is None
        assert rec["crosscheck"] == {"q0": "2", "ok": None}
        assert code == 1
        assert "broken                       gl2       DISCREPANCY  " \
            "class broken\n" in table

    def test_singular_quantum_determinant_with_invertible_block_matrix(self):
        # detq is singular, so there are no dims, but M has full rank: the
        # action is defined, and its counit space is the centralizer of
        # the four blocks.  Here they are a 2 x 2 quadruple of a seeded
        # search, with M invertible and detq singular, summed with the
        # 1 x 1 quadruple (1, 0, 0, 1), so the two diagonal idempotents
        # span that space
        rec, code, _ = broken_record("triangular-dim8", GL2Rep(
            Mat([[2, 1, 0], [0, 0, 0], [0, 0, 1]]),
            Mat([[-1, 1, 0], [1, 2, 0], [0, 0, 0]]),
            Mat([[2, 0, 0], [1, 0, 0], [0, 0, 0]]),
            Mat([[-1, 0, 0], [-1, 0, 0], [0, 0, 1]])))
        assert rec["detq_invertible"] is False
        assert "quantum determinant not invertible" in rec["discrepancies"]
        assert rec["dims"] is None
        assert rec["counit_invariants_dim"] == 2
        assert rec["counit_matches_centralizer"] is None
        assert rec["action"] == {"well_defined": True, "unital": True,
                                 "module_algebra": True}
        assert code == 1

    def test_singular_c11(self):
        one, zero = Mat([[1]]), Mat([[0]])
        rec, code, table = broken_record("triangular-dim8",
                                         GL2Rep(zero, one, one, zero))
        assert rec["detq_invertible"] is True
        assert "invertibility/nilpotency consequences failed: " \
            "c11_invertible, c22_invertible, c12_nilpotent, " \
            "c21_nilpotent, offdiag_product_diag_zero" in rec["discrepancies"]
        assert rec["quantum_plane"] is None
        assert rec["dims"]["family"] == {"operator_algebra": 1,
                                         "invariants": 1}
        assert code == 1 and "R 1/1  I 1/1  class broken" in table

    def test_not_a_q_spinor(self):
        rec, code, table = broken_record(
            "admissible-a", QSpinorRep(Mat.identity(2), Mat.identity(2)))
        assert rec["is_spinor_pair"] is False
        assert "pair does not satisfy the q-spinor relation" \
            in rec["discrepancies"]
        assert rec["admissible"] is None
        assert rec["admissible_claim_ok"] is None
        assert rec["c_space_dim"] is None
        assert rec["crosscheck"]["c_space"] == [None, None]
        assert code == 1 and "B(a) 0  B'(a) 0  admissible -" in table

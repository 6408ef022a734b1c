"""16-dimensional exact gamma-matrix algebra and the inner action of
quadruples on it, pinned against golden action tables."""

import json
import pathlib
from fractions import Fraction
from itertools import permutations

import pytest

from qgl2 import clifford
from qgl2.clifford import (BASIS_NAMES, CliffordAlgebra, InnerAction,
                           build_action, build_clifford,
                           counit_invariance_space, module_algebra_shadow,
                           seeded_pairs, unitality_ok)
from qgl2.gl2 import GL2Rep
from qgl2.matrices import Mat, MatSpace, centralizer, subalgebra_closure
from qgl2.scalars import I, ONE, Q, parse_scalar, scalar

GOLDEN = pathlib.Path(__file__).parent / "golden"


def antisymmetrized(gammas, idx):
    """Reference basis element: (1/k!) sum_perm sgn(perm) prod(gammas),
    with the sign counted from inversions."""
    n = gammas[0].n
    if not idx:
        return Mat.identity(n)
    acc = Mat.zero(n)
    count = 0
    for perm in permutations(range(len(idx))):
        sign = 1
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = gammas[idx[perm[0]]]
        for p in perm[1:]:
            prod = prod * gammas[idx[p]]
        acc = acc + (prod if sign > 0 else -prod)
        count += 1
    return acc.scale(Fraction(1, count))


def index_set(name):
    return () if name == "1" else tuple(int(c) for c in name[1:])


def e(i, j, n=4):
    return Mat.unit(n, i - 1, j - 1)


def case1(mu=scalar(1)):
    qi = Q.inverse()
    return GL2Rep(
        Mat.diag(1, qi, 1, qi),
        e(1, 3).scale(Q) - e(2, 4).scale(mu),
        e(2, 1).scale(-mu) + e(4, 3),
        Mat.diag(Q ** 2, Q ** 2, Q, Q) - e(2, 3).scale(Q * mu))


def case2(mu=scalar(1)):
    qi = Q.inverse()
    return GL2Rep(
        Mat.diag(1, 1, qi, qi),
        e(1, 2).scale(Q) + e(3, 4).scale(mu),
        e(3, 1).scale(mu) + e(4, 2),
        Mat.diag(Q ** 2, Q, Q ** 2, Q) + e(3, 2).scale(Q * mu))


class TestAlgebra:
    def test_build_is_cached(self):
        assert build_clifford() is build_clifford()

    def test_signature(self):
        cl = build_clifford()
        ident = Mat.identity(4)
        for mu, sign in enumerate(cl.metric):
            assert cl.gammas[mu] * cl.gammas[mu] == ident.scale(scalar(sign))

    def test_anticommutation(self):
        cl = build_clifford()
        for mu in range(4):
            for nu in range(mu + 1, 4):
                a, b = cl.gammas[mu], cl.gammas[nu]
                assert (a * b + b * a).is_zero()

    def test_basis_names(self):
        assert BASIS_NAMES == (
            "1", "g0", "g1", "g2", "g3",
            "g01", "g02", "g03", "g12", "g13", "g23",
            "g012", "g013", "g023", "g123",
            "g0123")

    def test_elements_match_antisymmetrized_oracle(self):
        cl = build_clifford()
        for name, m in zip(cl.names, cl.elements):
            assert m == antisymmetrized(cl.gammas, index_set(name)), name

    def test_grade1_product_rule(self):
        # gamma_mu gamma_nu = g_mn + gamma_mn
        cl = build_clifford()
        g, gam = cl.metric, cl.gammas
        for mu in range(4):
            for nu in range(4):
                want = antisymmetrized(gam, (mu, nu)) + Mat.identity(4).scale(
                    scalar(g[mu] if mu == nu else 0))
                assert gam[mu] * gam[nu] == want, (mu, nu)

    def test_grade2_product_rule(self):
        # gamma_r gamma_mn = g_rm gamma_n - g_rn gamma_m + gamma_rmn
        cl = build_clifford()
        g, gam = cl.metric, cl.gammas
        for rho in range(4):
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    rhs = antisymmetrized(gam, (rho, mu, nu))
                    if rho == mu:
                        rhs = rhs + gam[nu].scale(scalar(g[rho]))
                    if rho == nu:
                        rhs = rhs - gam[mu].scale(scalar(g[rho]))
                    lhs = gam[rho] * antisymmetrized(gam, (mu, nu))
                    assert lhs == rhs, (rho, mu, nu)

    def test_grade3_product_rule(self):
        # gamma_l gamma_mnr = g_lm gamma_nr - g_ln gamma_mr + g_lr gamma_mn
        #   + gamma_lmnr
        cl = build_clifford()
        g, gam = cl.metric, cl.gammas
        for lam in range(4):
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    for rho in range(nu + 1, 4):
                        rhs = antisymmetrized(gam, (lam, mu, nu, rho))
                        if lam == mu:
                            rhs = rhs + antisymmetrized(
                                gam, (nu, rho)).scale(scalar(g[lam]))
                        if lam == nu:
                            rhs = rhs - antisymmetrized(
                                gam, (mu, rho)).scale(scalar(g[lam]))
                        if lam == rho:
                            rhs = rhs + antisymmetrized(
                                gam, (mu, nu)).scale(scalar(g[lam]))
                        lhs = gam[lam] * antisymmetrized(gam, (mu, nu, rho))
                        assert lhs == rhs, (lam, mu, nu, rho)

    @pytest.mark.parametrize("where", ["1,3", "0,0"])
    def test_broken_sign_fails_relation(self, monkeypatch, where):
        # one flipped entry of g3 breaks its anticommutation with g1;
        # i*g0 anticommutes like g0 but squares to -1
        g0, g1, g2, g3 = clifford._gamma_matrices()
        if where == "1,3":
            rows = [list(r) for r in g3.rows]
            rows[0][2] = -rows[0][2]
            g3 = Mat(rows)
        else:
            g0 = g0.scale(I)
        broken = (g0, g1, g2, g3)
        monkeypatch.setattr(clifford, "_gamma_matrices", lambda: broken)
        with pytest.raises(ArithmeticError,
                           match=rf"Clifford relation failed at \({where}\)"):
            CliffordAlgebra()
        cl = build_clifford()
        monkeypatch.setattr(cl, "gammas", broken)
        with pytest.raises(ArithmeticError,
                           match=rf"Clifford relation failed at \({where}\)"):
            cl._verify_relations()

    def test_dependent_gamma_does_not_span(self, monkeypatch):
        g0, g1, g2, _ = clifford._gamma_matrices()
        monkeypatch.setattr(clifford, "_gamma_matrices",
                            lambda: (g0, g1, g2, g0))
        with pytest.raises(ArithmeticError,
                           match="basis does not span the matrix algebra"):
            CliffordAlgebra()

    def test_basis_has_full_rank(self):
        cl = build_clifford()
        assert MatSpace.span(list(cl.elements)).dim == 16

    def test_element_lookup(self):
        cl = build_clifford()
        assert cl.element("1") == Mat.identity(4)
        assert cl.element("g0") == cl.gammas[0]

    def test_coords_of_basis_elements(self):
        cl = build_clifford()
        for k, name in enumerate(cl.names):
            coords = cl.to_coords(cl.element(name))
            assert coords[k] == ONE
            assert all(c == scalar(0) for i, c in enumerate(coords) if i != k)

    def test_grade2_from_product(self):
        # distinct gammas anticommute, so g1*g2 is already antisymmetrized
        cl = build_clifford()
        coords = cl.to_coords(cl.gammas[1] * cl.gammas[2])
        assert coords[cl.index["g12"]] == ONE
        assert sum(1 for c in coords if c != scalar(0)) == 1

    def test_round_trip(self):
        cl = build_clifford()
        coords = [scalar(k - 7) * Q ** (k % 3) for k in range(16)]
        assert list(cl.to_coords(cl.from_coords(coords))) == coords

    def test_dimension_errors(self):
        cl = build_clifford()
        with pytest.raises(ValueError, match="dimension mismatch"):
            cl.to_coords(Mat.identity(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            cl.from_coords([1, 2, 3])


class TestInnerAction:
    @pytest.mark.parametrize("rep", [case1(), case2()], ids=["a", "b"])
    def test_unitality(self, rep):
        assert unitality_ok(build_action(rep))

    def test_action_undefined(self):
        z = Mat.zero(4)
        with pytest.raises(ValueError, match="action undefined"):
            build_action(GL2Rep(z, z, z, z))

    def test_act_dimension_mismatch(self):
        action = build_action(case1())
        with pytest.raises(ValueError, match="dimension mismatch"):
            action.act(0, 0, Mat.identity(3))

    def test_mstar_inverts_block_matrix(self):
        rep = case1()
        action = build_action(rep)
        # sum_k m[i][k] * mstar[k][j] = delta_ij
        for i in range(2):
            for j in range(2):
                acc = action.m[i][0] * action.mstar[0][j] \
                    + action.m[i][1] * action.mstar[1][j]
                want = Mat.identity(4) if i == j else Mat.zero(4)
                assert acc == want

    @pytest.mark.parametrize("entry", ["perturbed_a", "perturbed_b"])
    def test_golden_action_tables(self, entry):
        cl = build_clifford()
        rep = case1() if entry == "perturbed_a" else case2()
        action = build_action(rep)
        records = json.loads((GOLDEN / f"action_{entry}.json").read_text())
        assert len(records) == 16
        for r in records:
            out = action.act(r["i"], r["j"], cl.element(r["generator"]))
            assert [str(c) for c in cl.to_coords(out)] == r["coords"]

    def test_golden_numeric_consistency(self):
        # re-run one golden record over plain Gaussian rationals at q = 2
        cl = build_clifford()
        rep = case1()
        rep_num = GL2Rep(rep.c11.eval(2), rep.c12.eval(2),
                         rep.c21.eval(2), rep.c22.eval(2))
        action_num = build_action(rep_num)
        records = json.loads((GOLDEN / "action_perturbed_a.json").read_text())
        r = records[5]
        lhs = action_num.act(r["i"], r["j"],
                             cl.element(r["generator"]).eval(2))
        coords = [parse_scalar(c) for c in r["coords"]]
        assert lhs == cl.from_coords(coords).eval(2)

    def test_seeded_pairs_deterministic(self):
        assert seeded_pairs(3) == seeded_pairs(3)
        assert len(seeded_pairs()) == 20

    def test_module_algebra_shadow_default_pairs(self):
        assert module_algebra_shadow(build_action(case1()))

    def test_module_algebra_shadow_small(self):
        assert module_algebra_shadow(build_action(case2()),
                                     pairs=seeded_pairs(3, seed=1))

    def test_wrong_inverse_fails_certificate_and_oracle(self):
        # the report takes unitality and the module-algebra law from the
        # exact inverse m*; with m* not the inverse of m, both oracles that
        # re-check them must reject the action
        action = build_action(case2())
        (s00, s01), (s10, s11) = action.mstar
        action.mstar = ((s01, s00), (s11, s10))
        assert not unitality_ok(action)
        assert not module_algebra_shadow(action,
                                         pairs=seeded_pairs(3, seed=1))


class TestInvariants:
    def test_counit_space_matches_centralizer_case1(self):
        rep = case1()
        gens = list(rep.generators()) + [rep.detq().inverse()]
        inv = centralizer(subalgebra_closure(gens).basis)
        counit = counit_invariance_space(build_action(rep))
        assert counit == inv
        assert counit.dim == 1
        assert counit.contains(Mat.identity(4))

    def test_counit_space_matches_centralizer_diagonal(self):
        two = scalar(2)
        rep = GL2Rep(
            Mat.diag(scalar(1), Q, Q, two),
            Mat.zero(4),
            Mat.zero(4),
            Mat.diag(Q ** 2, ONE, ONE, two.inverse()))
        gens = list(rep.generators()) + [rep.detq().inverse()]
        inv = centralizer(subalgebra_closure(gens).basis)
        counit = counit_invariance_space(build_action(rep))
        assert counit == inv
        assert counit.dim == 6

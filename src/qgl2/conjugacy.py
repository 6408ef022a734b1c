"""Equivalence up to conjugation and monomial rescaling: scaled_conjugacy."""

from dataclasses import dataclass
from itertools import product

from .matrices import Mat, invertible_element, stacked_nullspace
from .scalars import Q, _valuation


def _traces(m: Mat):
    """tr(m), tr(m^2), ... exactly and lazily: m^j is formed only when
    tr(m^j) is drawn."""
    power = m
    while True:
        yield power.trace()
        power = power * m


MAX_EXPONENT = 4
HOWS = ("witness found", "proved exactly", "invariant differs",
        f"searched |k| <= {MAX_EXPONENT}")


@dataclass(frozen=True)
class Verdict:
    """A decision: witness is the exactly proved object or None, and
    how is one of HOWS, "witness found" exactly when there is a witness."""

    witness: object
    how: str

    def __post_init__(self):
        if self.how not in HOWS or self.found != (self.how == HOWS[0]):
            raise ValueError(f"inconsistent verdict: {self.how!r}")

    @property
    def found(self) -> bool:
        return self.witness is not None


def scaled_conjugacy(equations: list) -> Verdict:
    """Search for (u, alpha_0, alpha_1, ...) with g2 = u g1 u^-1 alpha_g
    for each (g1, g2, g) in the nonempty equations, alpha_g = q^k.

    Conjugation preserves power traces, so each equation gives the necessary
    condition tr(g2^j) = q^(jk) tr(g1^j), j = 1..n, on the exponent k of its
    group g.  The first pair of a group with both sides nonzero pins k = m/j,
    m the gap of their q-adic valuations, and every pair of the group must
    hold with that k at that j.  Traces only pin k: once every group is
    pinned, no later trace is drawn and no power formed, and the solve
    decides.  They come lazily (_traces), j = 1 for every equation first,
    and a failed pair ends the search at once: a pair that tr(g) rules
    out forms no matrix product.  Only a group whose power traces all
    vanish (so its matrices are nilpotent) tries each |k| <= MAX_EXPONENT,
    in itertools.product order (alpha_0 outermost).
    The witness's u needs no product check: it is in the proved space of
    X g1 alpha = g2 X, at full rank.  A "no", for every k of a pinned group,
    is "invariant differs" when the sizes differ or a pair fails, and
    otherwise "proved exactly": invertible_element decides each conjugator
    space; with an unpinned group it is HOWS[3], proved for those k only.
    """
    if not equations:
        raise ValueError("conjugacy of an empty list")
    n = equations[0][0].n
    if any(g1.n != n or g2.n != n for g1, g2, _ in equations):
        return Verdict(None, "invariant differs")
    pinned = [None] * (1 + max(g for *_, g in equations))
    traces = [(zip(_traces(g1), _traces(g2)), g) for g1, g2, g in equations]
    for j in range(1, n + 1):
        if None not in pinned:
            break
        for pairs, g in traces:
            x1, x2 = next(pairs)
            if pinned[g] is None and x1 and x2:
                pinned[g] = (_valuation(x2) - _valuation(x1)) // j
            # k = 0 passes only x1 = x2 = 0, and gap // j only if j | gap
            if x2 != Q ** (j * (pinned[g] or 0)) * x1:
                return Verdict(None, "invariant differs")
    unpinned = range(-MAX_EXPONENT, MAX_EXPONENT + 1)
    for ks in product(*[unpinned if k is None else (k,) for k in pinned]):
        alphas = tuple(Q ** k for k in ks)
        space = stacked_nullspace([(g1.scale(alphas[g]), g2)
                                   for g1, g2, g in equations])
        u = invertible_element(space)
        if u is not None:
            return Verdict((u,) + alphas, "witness found")
    return Verdict(None, HOWS[1] if None not in pinned else HOWS[3])

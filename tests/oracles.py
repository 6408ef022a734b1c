"""Reference objects that only the tests use."""

from qgl2.gl2 import GL2Rep
from qgl2.matrices import Mat
from qgl2.scalars import ONE, Q, Scalar


def q_integer(k: int) -> Scalar:
    """The q-integer [k] = (q^k - 1)/(q - 1) = 1 + q + ... + q^(k-1)."""
    if not isinstance(k, int) or k <= 0:
        raise ValueError("undefined q-integer")
    return (Q ** k - ONE) / (Q - ONE)


def classical_point(n: int = 4) -> GL2Rep:
    """The commutative quadruple: identity diagonal generators, zero
    off-diagonal ones.  Useful as a baseline; its invariant space is the
    whole matrix algebra."""
    return GL2Rep(Mat.identity(n), Mat.zero(n), Mat.zero(n), Mat.identity(n))

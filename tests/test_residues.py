"""Thiele fractions over F_p and their lift to a Scalar: a fraction fed
exact values of a rational function of degrees at most (B, B) is that
function after at most 2B + 1 terms, and then takes every later value
without growing."""

from qgl2.residues import _lift, _thiele
from qgl2.scalars import RESIDUE_P, RESIDUE_Q0, Q, scalar


def feed(values) -> tuple:
    """A fresh Thiele fraction fed values at RESIDUE_Q0, RESIDUE_Q0 + 1,
    ...: (each _thiele result, the points, the inverse differences)."""
    xs, a = [], []
    done = [_thiele(xs, a, RESIDUE_Q0 + k, y) for k, y in enumerate(values)]
    return done, xs, a


def test_a_constant_settles_at_its_second_point():
    done, xs, a = feed([5] * 4)
    assert done == [False, True, True, True]
    assert a == [5]
    assert _lift(xs, a) == scalar(5)


def test_degrees_two_and_one_settle_after_four_terms():
    # (q^2 + 3) / (2q - 1): 2 * 2 + 1 = 5 terms would do for degrees at
    # most (2, 2); degrees (2, 1) need 4, and every later point agrees
    p = RESIDUE_P
    values = [(t * t + 3) * pow(2 * t - 1, -1, p) % p
              for t in range(RESIDUE_Q0, RESIDUE_Q0 + 9)]
    done, xs, a = feed(values)
    assert done == [False] * 4 + [True] * 5
    assert len(a) == 4
    assert _lift(xs, a) == (Q ** 2 + 3) / (Q * 2 - 1)


def test_a_division_by_zero_before_the_last_term_abstains():
    # the third value equals the first term: the first difference of
    # the new point divides by 0 with one more term still to go
    done, xs, a = feed([1, 2, 1])
    assert done == [False, False, None]
    assert len(xs) == len(a) == 2

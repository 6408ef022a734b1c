"""Thiele fractions over F_p and the lift of coefficients of Q(i) from
their residues: a fraction fed exact values of a rational function of
degrees at most (B, B) is that function after at most 2B + 1 terms, and
then takes every later value without growing."""

from fractions import Fraction
from itertools import islice

from qgl2.residues import (RESIDUE_I, RESIDUE_P, RESIDUE_Q0, _fold, _lift,
                           _moduli, _residues, _thiele)
from qgl2.scalars import GaussRational, Q, scalar


def feed(values) -> tuple:
    """A fresh Thiele fraction fed values at RESIDUE_Q0, RESIDUE_Q0 + 1,
    ...: (each _thiele result, the points, the inverse differences)."""
    xs, a = [], []
    done = [_thiele(xs, a, RESIDUE_Q0 + k, y, RESIDUE_P)
            for k, y in enumerate(values)]
    return done, xs, a


def residues_of(x) -> tuple:
    """The coefficient residues of the canonical num and monic den of x,
    which a folded fraction of x equals."""
    return (_residues(x.num, RESIDUE_P, RESIDUE_I),
            _residues(x.den, RESIDUE_P, RESIDUE_I))


def test_a_constant_settles_at_its_second_point():
    done, xs, a = feed([5] * 4)
    assert done == [False, True, True, True]
    assert a == [5]
    assert _fold(xs, a, RESIDUE_P) == residues_of(scalar(5))


def test_degrees_two_and_one_settle_after_four_terms():
    # (q^2 + 3) / (2q - 1): 2 * 2 + 1 = 5 terms would do for degrees at
    # most (2, 2); degrees (2, 1) need 4, and every later point agrees
    p = RESIDUE_P
    values = [(t * t + 3) * pow(2 * t - 1, -1, p) % p
              for t in range(RESIDUE_Q0, RESIDUE_Q0 + 9)]
    done, xs, a = feed(values)
    assert done == [False] * 4 + [True] * 5
    assert len(a) == 4
    assert _fold(xs, a, RESIDUE_P) == residues_of((Q ** 2 + 3) / (Q * 2 - 1))


def test_a_division_by_zero_before_the_last_term_abstains():
    # the third value equals the first term: the first difference of
    # the new point divides by 0 with one more term still to go
    done, xs, a = feed([1, 2, 1])
    assert done == [False, False, None]
    assert len(xs) == len(a) == 2


def test_huge_non_real_parts_lift_at_the_third_prime():
    # parts past 2^64 over 7 reconstruct only once isqrt(M/2) passes
    # 2^64: M = RESIDUE_P p1 p2, p1 and p2 above 2^62
    coefficients = [GaussRational(Fraction(2 ** 64 + 13, 7), -2 ** 65 - 9),
                    GaussRational(-3, Fraction(2 ** 63 + 1, 5)),
                    GaussRational(1)]
    expected = [(c.a, c.b, c.d) for c in coefficients]
    combined, m, lifted = [], 1, []
    for p, r in islice(_moduli(), 3):
        combined, m, h = _lift(_residues(coefficients, p, r),
                               _residues(coefficients, p, p - r), p, r,
                               combined, m)
        lifted.append(h)
    assert lifted[2] == expected
    assert expected not in lifted[:2]

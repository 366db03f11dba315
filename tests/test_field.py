"""Field arithmetic over Z_p with comparisons on signed representatives."""

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from selectc.field import (
    ALL_OPS,
    ARITH_OPS,
    COMPARISON_OPS,
    FIELD_PRIME,
    Op,
    apply_op,
    is_prime,
    norm,
    op_from_name,
    signed,
)

P = FIELD_PRIME


def test_prime_is_mersenne_61():
    assert P == 2**61 - 1


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 5000) if is_prime(n)] == [
        n for n in range(-3, 5000) if _trial_division(n)
    ]


def test_is_prime_on_64_bit_moduli():
    assert is_prime(P)
    assert is_prime(2**64 - 59)  # largest 64-bit prime
    assert not is_prime(2**64 - 1)
    # strong pseudoprimes to every prime base up to 23 and up to 11
    assert not is_prime(3825123056546413051)
    assert not is_prime(2152302898747)
    assert not is_prime(561)  # Carmichael


def test_norm_wraps_negatives():
    assert norm(-1) == P - 1
    assert norm(P) == 0
    assert norm(P + 5) == 5


def test_signed_centers_representatives():
    assert signed(P - 1) == -1
    assert signed(1) == 1
    half = (P - 1) // 2
    assert signed(half) == half
    assert signed(half + 1) == half + 1 - P


def test_signed_norm_round_trip():
    for v in (-9999, -1, 0, 1, 12345):
        assert signed(norm(v)) == v


def test_arithmetic_mod_p():
    assert apply_op(Op.ADD, P - 1, 2) == 1
    assert apply_op(Op.SUB, 1, 2) == P - 1
    assert apply_op(Op.MUL, P - 1, P - 1) == 1  # (-1)*(-1)


def test_division_is_field_inverse():
    q = apply_op(Op.DIV, 3, 2)
    assert apply_op(Op.MUL, q, 2) == 3


def test_division_by_zero_yields_zero():
    assert apply_op(Op.DIV, 17, 0) == 0
    assert apply_op(Op.DIV, 0, 0) == 0


@given(
    hst.sampled_from([P, 2, 3, 5, 7, 13, 251, 65521]),
    hst.integers(-(2**70), 2**70),
    hst.integers(-(2**70), 2**70),
)
def test_division_agrees_with_the_fermat_inverse(prime, a, b):
    want = 0 if b % prime == 0 else a * pow(b % prime, prime - 2, prime) % prime
    assert apply_op(Op.DIV, a, b, prime) == want


def test_comparisons_use_signed_order():
    # norm(-3) is a huge residue but compares as -3
    assert apply_op(Op.LT, norm(-3), 2) == 1
    assert apply_op(Op.GT, norm(-3), 2) == 0
    assert apply_op(Op.LE, norm(-3), norm(-3)) == 1
    assert apply_op(Op.GE, 5, norm(-5)) == 1


def test_equality_ops_are_boolean():
    assert apply_op(Op.EQ, 4, 4) == 1
    assert apply_op(Op.EQ, 4, 5) == 0
    assert apply_op(Op.NEQ, 4, 5) == 1
    assert apply_op(Op.NEQ, 4, 4) == 0


def test_all_ops_return_canonical_residues():
    for op in ALL_OPS:
        r = apply_op(op, norm(-7), norm(13))
        assert 0 <= r < P


def test_op_groups_cover_the_enum():
    assert set(ARITH_OPS) | set(COMPARISON_OPS) == set(ALL_OPS)
    assert len(ALL_OPS) == 10


def test_op_from_name():
    assert op_from_name("ADD") is Op.ADD
    assert op_from_name("NEQ") is Op.NEQ
    with pytest.raises(ValueError):
        op_from_name("XOR")

"""Field arithmetic over Z_p with comparisons on signed representatives."""

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from selectc.field import (
    ALL_OPS,
    ARITH_OPS,
    FIELD_PRIME,
    INVERSE_MEMO,
    Op,
    apply_op,
    field_ops,
    is_prime,
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


def test_signed_centers_representatives():
    assert signed(P - 1) == -1
    assert signed(1) == 1
    half = (P - 1) // 2
    assert signed(half) == half
    assert signed(half + 1) == half + 1 - P


def test_signed_norm_round_trip():
    for v in (-9999, -1, 0, 1, 12345):
        assert signed(v % P) == v


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
    # -3 % P is a huge residue but compares as -3
    assert apply_op(Op.LT, -3 % P, 2) == 1
    assert apply_op(Op.GT, -3 % P, 2) == 0
    assert apply_op(Op.LE, -3 % P, -3 % P) == 1
    assert apply_op(Op.GE, 5, -5 % P) == 1


def test_equality_ops_are_boolean():
    assert apply_op(Op.EQ, 4, 4) == 1
    assert apply_op(Op.EQ, 4, 5) == 0
    assert apply_op(Op.NEQ, 4, 5) == 1
    assert apply_op(Op.NEQ, 4, 4) == 0


def test_all_ops_return_canonical_residues():
    for op in ALL_OPS:
        r = apply_op(op, -7 % P, 13 % P)
        assert 0 <= r < P


def test_op_groups_cover_the_enum():
    assert set(ALL_OPS) - set(ARITH_OPS) == {Op.EQ, Op.NEQ, Op.LT, Op.LE, Op.GT, Op.GE}
    assert len(ALL_OPS) == 10


def test_op_from_name():
    assert op_from_name("ADD") is Op.ADD
    assert op_from_name("NEQ") is Op.NEQ
    with pytest.raises(ValueError):
        op_from_name("XOR")


def reference_apply_op(op, a, b, prime=P):
    """The if-chain apply_op that the per-op table replaced."""
    a %= prime
    b %= prime
    if op is Op.ADD:
        return (a + b) % prime
    if op is Op.SUB:
        return (a - b) % prime
    if op is Op.MUL:
        return (a * b) % prime
    if op is Op.DIV:
        if b == 0:
            return 0
        return (a * pow(b, -1, prime)) % prime
    sa = signed(a, prime)
    sb = signed(b, prime)
    if op is Op.EQ:
        return int(sa == sb)
    if op is Op.NEQ:
        return int(sa != sb)
    if op is Op.LT:
        return int(sa < sb)
    if op is Op.LE:
        return int(sa <= sb)
    if op is Op.GT:
        return int(sa > sb)
    if op is Op.GE:
        return int(sa >= sb)
    raise ValueError(f"unknown operation {op!r}")


def boundary_grid(prime):
    """Reduced values where the field and the signed reading turn over."""
    half = (prime - 1) // 2
    small_negatives = [(-v) % prime for v in (1, 2, 3, 7)]
    grid = {0, 1, 2, 3, prime - 1, half, half + 1, (prime + 1) // 2, *small_negatives}
    return sorted({v % prime for v in grid})


@pytest.mark.parametrize("prime", [P, 101, 2])
def test_op_table_agrees_with_the_if_chain(prime):
    """Every op of the table, and apply_op through it, on the boundary grid.

    The grid holds 0 (DIV by 0), 1, 2, p - 1, (p - 1)/2 and (p + 1)/2
    (the last non-negative and the first negative signed values) and
    small negatives; apply_op also gets unreduced operands.
    """
    table = field_ops(prime)
    assert set(table) == set(ALL_OPS)
    grid = boundary_grid(prime)
    raw = grid + [prime, prime + 1, -1, -2, -prime - 3, 2 * prime - 1]
    for op in ALL_OPS:
        for a in grid:
            for b in grid:
                assert table[op](a, b) == reference_apply_op(op, a, b, prime), (op, a, b)
        for a in raw:
            for b in raw:
                assert apply_op(op, a, b, prime) == reference_apply_op(op, a, b, prime), (op, a, b)


def test_op_table_is_built_once_per_prime_and_read_only():
    assert field_ops(101) is field_ops(101)
    assert field_ops(P) is field_ops(P)
    assert field_ops(101) is not field_ops(P)
    with pytest.raises(TypeError):
        field_ops(101)[Op.ADD] = field_ops(101)[Op.SUB]


def test_apply_op_refuses_an_unknown_operation():
    with pytest.raises(ValueError, match="unknown operation"):
        apply_op("XOR", 1, 2)


def test_division_memo_is_per_prime(inverses):
    """The same divisors, interleaved and repeated across three primes,
    each divide at their own prime; each (divisor, prime) is inverted
    once, and a zero divisor is never inverted."""
    primes = (101, 65521, P)
    # -1 and -2 reduce to p - 1 and p - 2
    divisions = [(prime, b) for _ in range(2) for b in (2, 3, -1, -2) for prime in primes]
    for prime, b in divisions:
        for a in (1, 5, -7):
            assert apply_op(Op.DIV, a, b, prime) == reference_apply_op(Op.DIV, a, b, prime)
    once_each = sorted({(b % prime, prime) for prime, b in divisions})
    assert sorted(inverses) == once_each
    for prime in primes:
        assert field_ops(prime)[Op.DIV](3, 0) == 0
        assert apply_op(Op.DIV, 3, prime, prime) == 0
    assert sorted(inverses) == once_each


def test_division_memo_is_bounded():
    """Five times the memo's bound of distinct 61-bit divisors: the memo
    keeps INVERSE_MEMO of them in about 0.8 MiB, where an unbounded one
    would hold all of them in about 2 MiB."""
    field_ops.cache_clear()
    div = field_ops(P)[Op.DIV]
    rng = random.Random(7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5 * INVERSE_MEMO):
            b = rng.randrange(1 << 60, P)
            assert div(1, b) * b % P == 1
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1.5 * 2**20

"""Prime-field arithmetic and the statement operation set.

Values are plain ints reduced into [0, p) for a fixed prime p (default
2^61 - 1). Comparisons use the centered signed reading: a representative
above (p - 1) / 2 counts as the negative number it wraps to, so literals
like -9999 compare the way the source text suggests. Division is field
division, with the extra convention DIV(x, 0) = 0 to keep every
operation total.
"""

from __future__ import annotations

from enum import Enum

FIELD_PRIME = (1 << 61) - 1


class Op(Enum):
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    DIV = "DIV"
    EQ = "EQ"
    NEQ = "NEQ"
    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"

    # Members are singletons compared by identity. Enum's own __hash__ is a
    # Python call on every Op-keyed lookup; the identity hash is not.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


ARITH_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV)
COMPARISON_OPS = (Op.EQ, Op.NEQ, Op.LT, Op.LE, Op.GT, Op.GE)
ALL_OPS = tuple(Op)

_OP_BY_NAME = {op.value: op for op in Op}
# for per-statement paths: a dict lookup, where Op.value is a property call
OP_NAMES = {op: op.value for op in Op}


def op_from_name(name: str) -> Op:
    try:
        return _OP_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown operation {name!r}") from None


# Miller-Rabin with these bases is exact for every n below 3.18 * 10**23,
# so for all 64-bit moduli; above that it is a strong probable-prime test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 2**64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def norm(x: int, prime: int = FIELD_PRIME) -> int:
    return x % prime


def signed(x: int, prime: int = FIELD_PRIME) -> int:
    """Centered representative in [-(p-1)/2, (p-1)/2]."""
    x = x % prime
    return x - prime if x > (prime - 1) // 2 else x


def apply_op(op: Op, a: int, b: int, prime: int = FIELD_PRIME) -> int:
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

"""Prime-field arithmetic and the statement operation set.

Values are plain ints reduced into [0, p) for a fixed prime p (default
2^61 - 1). Comparisons use the centered signed reading: a representative
above (p - 1) / 2 counts as the negative number it wraps to, so literals
like -9999 compare the way the source text suggests. Division is field
division, with the extra convention DIV(x, 0) = 0 to keep every
operation total.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from enum import Enum
from types import MappingProxyType

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


@functools.lru_cache(maxsize=8)
def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 2**64.

    The results for the last few moduli are kept: every parse_program
    call proves its modulus.
    """
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


@functools.lru_cache(maxsize=8)
def field_ops(prime: int) -> Mapping[Op, Callable[[int, int], int]]:
    """The ten operations at prime, as functions of two reduced field elements.

    A read-only table, built once per prime and shared by every caller;
    the tables of the last few primes used are kept. Operands must
    already lie in [0, p); apply_op reduces them first. Comparisons
    read each operand as signed does.
    """
    p = prime
    half = (p - 1) // 2
    return MappingProxyType({
        Op.ADD: lambda a, b: (a + b) % p,
        Op.SUB: lambda a, b: (a - b) % p,
        Op.MUL: lambda a, b: a * b % p,
        Op.DIV: lambda a, b: a * pow(b, -1, p) % p if b else 0,
        Op.EQ: lambda a, b: int(a == b),
        Op.NEQ: lambda a, b: int(a != b),
        Op.LT: lambda a, b: int((a - p if a > half else a) < (b - p if b > half else b)),
        Op.LE: lambda a, b: int((a - p if a > half else a) <= (b - p if b > half else b)),
        Op.GT: lambda a, b: int((a - p if a > half else a) > (b - p if b > half else b)),
        Op.GE: lambda a, b: int((a - p if a > half else a) >= (b - p if b > half else b)),
    })


def apply_op(op: Op, a: int, b: int, prime: int = FIELD_PRIME) -> int:
    try:
        fn = field_ops(prime)[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    return fn(a % prime, b % prime)

"""Prime-field arithmetic and the statement operation set.

Values are plain ints reduced into [0, p) for a fixed prime p (default
2^61 - 1). Comparisons use the centered signed reading: a representative
above (p - 1) / 2 counts as the negative number it wraps to, so literals
like -9999 compare the way the source text suggests. Division is field
division, with the extra convention DIV(x, 0) = 0 to keep every
operation total. The operation tables are read-only, but DIV keeps
state: a bounded memo of the inverses it has computed at its prime.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from enum import Enum
from types import MappingProxyType

FIELD_PRIME = (1 << 61) - 1

# inverses each prime's DIV keeps: about 0.66 MiB when full, 0.8 MiB once it evicts
INVERSE_MEMO = 4096


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
ALL_OPS = tuple(Op)

# for per-statement paths: a dict lookup, where Op.value is a property call
OP_NAMES = {op: op.value for op in Op}
OP_BY_NAME = {name: op for op, name in OP_NAMES.items()}


def op_from_name(name: str) -> Op:
    try:
        return OP_BY_NAME[name]
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

    The table is read-only, but DIV keeps state: it memoises the
    INVERSE_MEMO inverses it used last, since the KPA walk re-runs the
    same DIVs on the same values along many branches (one l1 demo
    attack: 832 DIVs over 50 distinct nonzero divisors). The memo lives
    and dies with the table.
    """
    p = prime
    half = (p - 1) // 2
    inverse = functools.lru_cache(maxsize=INVERSE_MEMO)(lambda b: pow(b, -1, p))
    return MappingProxyType({
        Op.ADD: lambda a, b: (a + b) % p,
        Op.SUB: lambda a, b: (a - b) % p,
        Op.MUL: lambda a, b: a * b % p,
        Op.DIV: lambda a, b: a * inverse(b) % p if b else 0,
        Op.EQ: lambda a, b: int(a == b),
        Op.NEQ: lambda a, b: int(a != b),
        Op.LT: lambda a, b: int((a - p if a > half else a) < (b - p if b > half else b)),
        Op.LE: lambda a, b: int((a - p if a > half else a) <= (b - p if b > half else b)),
        Op.GT: lambda a, b: int((a - p if a > half else a) > (b - p if b > half else b)),
        Op.GE: lambda a, b: int((a - p if a > half else a) >= (b - p if b > half else b)),
    })


def parse_int(text: str) -> int:
    """The integer text spells: an optional sign, then ASCII digits only.

    Every integer field of selectc's text formats, --inputs and
    SELECTC_SEED is read here. int() alone also takes other Unicode
    digits ('٣', '５'), underscores and surrounding whitespace, and
    str.isdigit() is true for '²', which int() refuses. Raises
    ValueError, with int()'s message, for anything else or for more
    digits than int() converts.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def apply_op(op: Op, a: int, b: int, prime: int = FIELD_PRIME) -> int:
    try:
        fn = field_ops(prime)[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    return fn(a % prime, b % prime)

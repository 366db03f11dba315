"""Reference homomorphic operations that crypto.run_program is checked against.

enc_many and he_op mint through crypto.enc: enc_many encrypts several
values in turn, and he_op applies one operation to two ciphertexts. A
statement walk (ir.run_statements) over he_op is the reference for
crypto.run_program, which runs the same walk over plaintexts and then
draws the handles he_op would: the two must agree on every handle,
every output and every error.
"""

from selectc.crypto import Ciphertext, SecretKey, enc
from selectc.errors import ForeignCiphertextError
from selectc.field import Op, field_ops


def enc_many(key: SecretKey, values) -> list[Ciphertext]:
    """enc of each value in turn."""
    return [enc(key, v) for v in values]


def he_op(key: SecretKey, op: Op, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Ciphertext of op applied to c1 and c2; minted like enc."""
    store = key._store
    try:
        a = store[c1.handle]
        b = store[c2.handle]
    except KeyError:
        foreign = c2 if c1.handle in store else c1
        raise ForeignCiphertextError(
            f"handle {foreign.handle:#x} was not produced under this key"
        ) from None
    return enc(key, field_ops(key.prime)[op](a, b))

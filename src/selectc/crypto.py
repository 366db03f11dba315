"""Mock homomorphic backend with opaque ciphertext handles.

A ciphertext is a random 128-bit handle; the plaintext it stands for
lives only inside the key's private store. Handles carry no information
about values, encrypting the same value twice yields unrelated handles,
and homomorphic evaluation supports every statement operation. This
models the interface of an FHE scheme without its cost, so outputs stay
exact and experiments over thousands of runs stay cheap.

The selector key is the client-side secret for an obfuscated program:
the 0/1 assignment for every selector variable plus the values of the
bound variables (hoisted constants and fake-variable initials) that the
obfuscated file lists as plain inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ForeignCiphertextError, FormatError
from .field import FIELD_PRIME, Op, apply_op, signed


@dataclass(frozen=True)
class Ciphertext:
    handle: int


class SecretKey:
    """Handle store plus the deterministic handle stream for one key."""

    def __init__(self, seed: int, prime: int = FIELD_PRIME):
        self.seed = seed
        self.prime = prime
        self._store: dict[int, int] = {}
        self._rng = random.Random(seed)

    def _fresh_handle(self) -> int:
        handle = self._rng.getrandbits(128)
        while handle in self._store:
            handle = self._rng.getrandbits(128)
        return handle

    def _put(self, value: int) -> Ciphertext:
        handle = self._fresh_handle()
        self._store[handle] = value % self.prime
        return Ciphertext(handle)

    def __len__(self) -> int:
        """Number of live handles."""
        return len(self._store)

    def release_since(self, mark: int, keep: Ciphertext) -> None:
        """Delete every handle minted since the store held mark, except keep.

        Handles are inserted in order, so those minted since mark are
        the newest entries of the store.
        """
        value = self._store[keep.handle]
        for _ in range(len(self._store) - mark):
            self._store.popitem()
        self._store[keep.handle] = value

    def _get(self, ct: Ciphertext) -> int:
        try:
            return self._store[ct.handle]
        except KeyError:
            raise ForeignCiphertextError(
                f"handle {ct.handle:#x} was not produced under this key"
            ) from None


def keygen(seed: int, prime: int = FIELD_PRIME) -> SecretKey:
    return SecretKey(seed, prime)


def enc(key: SecretKey, value: int) -> Ciphertext:
    return key._put(value)


def dec(key: SecretKey, ct: Ciphertext) -> int:
    return key._get(ct)


def he_op(key: SecretKey, op: Op, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    a = key._get(c1)
    b = key._get(c2)
    return key._put(apply_op(op, a, b, key.prime))


@dataclass
class SelectorKey:
    """Secret side of an obfuscation: selector bits and variable bindings.

    bits maps every selector id to 0 or 1; obfuscate.checked_key checks
    them against the combining statements of a program. bindings holds
    the plaintext values of const and fake variables the obfuscated
    program treats as inputs. This is exactly what a key file holds.
    """

    bits: dict[str, int]
    bindings: dict[str, int] = field(default_factory=dict)


def write_key_file(path: str, seed: int, sel_key: SelectorKey, prime: int = FIELD_PRIME) -> None:
    lines = [f"seed {seed}"]
    lines.extend(f"sel {s} = {sel_key.bits[s]}" for s in sel_key.bits)
    lines.extend(
        f"const {v} = {signed(val, prime)}" for v, val in sel_key.bindings.items()
    )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key_file(path: str, prime: int = FIELD_PRIME) -> tuple[int, SelectorKey]:
    seed: int | None = None
    bits: dict[str, int] = {}
    bindings: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] == "seed" and len(tokens) == 2:
                try:
                    seed = int(tokens[1])
                except ValueError:
                    raise FormatError(f"line {lineno}: malformed seed") from None
            elif tokens[0] == "sel" and len(tokens) == 4 and tokens[2] == "=":
                if tokens[3] not in ("0", "1"):
                    raise FormatError(f"line {lineno}: selector bit must be 0 or 1")
                bits[tokens[1]] = int(tokens[3])
            elif tokens[0] == "const" and len(tokens) == 4 and tokens[2] == "=":
                try:
                    bindings[tokens[1]] = int(tokens[3]) % prime
                except ValueError:
                    raise FormatError(f"line {lineno}: malformed const value") from None
            else:
                raise FormatError(f"line {lineno}: unrecognized key line {line!r}")
    if seed is None:
        raise FormatError("key file has no seed line")
    return seed, SelectorKey(bits=bits, bindings=bindings)

"""Mock homomorphic backend with opaque ciphertext handles.

A ciphertext is a random 128-bit handle; the plaintext it stands for
lives only inside the key's private store. Handles carry no information
about values, encrypting the same value twice yields unrelated handles,
and homomorphic evaluation supports every statement operation. This
models the interface of an FHE scheme without its cost, so outputs stay
exact and experiments over thousands of runs stay cheap.

Each key builds its mint path once: one mint function and one plan
runner, both closing over the key's store and handle stream; the runner
also holds the field table of the key's prime. enc, enc_many and he_op
mint through mint. run_plan runs an ir.SlotPlan (a program compiled to
register slots) in one loop that computes each operation and mints its
result inline. Either way every encryption and every homomorphic
operation costs one draw and one store insert, and an encrypted run
mints one handle per operation. Handles are drawn from the key's
seeded stream in call order, re-drawn on the (negligible) chance of
colliding with a live handle, so the handles a key mints depend only
on its seed and the sequence of calls.

The selector key is the client-side secret for an obfuscated program:
the 0/1 assignment for every selector variable plus the values of the
bound variables (hoisted constants and fake-variable initials) that the
obfuscated file lists as plain inputs.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from itertools import islice

from .errors import ForeignCiphertextError, FormatError, UnboundVariableError
from .field import FIELD_PRIME, Op, field_ops, signed
from .ir import SlotPlan


@dataclass(slots=True, unsafe_hash=True)
class Ciphertext:
    """An opaque handle: equal handles compare equal and hash alike.

    Slotted rather than frozen, so that minting one is an allocation and
    a slot store; nothing assigns handle after minting.
    """

    handle: int


def _foreign(ct: Ciphertext) -> ForeignCiphertextError:
    return ForeignCiphertextError(f"handle {ct.handle:#x} was not produced under this key")


def _mint_path(
    store: dict[int, int], draw: Callable[[int], int], prime: int
) -> tuple[Callable[[int], Ciphertext], Callable[..., Ciphertext]]:
    """The mint and the plan runner of one key.

    mint(value) draws a handle, re-draws while it is live, stores value
    (a reduced field element) under it and wraps it. run(plan, env,
    selectors) runs an ir.SlotPlan in one loop: per operation it reads
    both operands' values, computes at prime, and mints the result the
    way mint does; registers hold bare handles, and only the output is
    wrapped.
    """
    new = object.__new__
    fns = dict(field_ops(prime))

    def mint(value: int) -> Ciphertext:
        h = draw(128)
        while h in store:
            h = draw(128)
        store[h] = value
        ct = new(Ciphertext)
        ct.handle = h
        return ct

    def run(plan: SlotPlan, env: Mapping[str, Ciphertext], selectors: list[Ciphertext]) -> Ciphertext:
        regs = [ct.handle for ct in selectors]
        regs += [None] * (len(plan.names) - len(regs))
        registers = plan.registers
        for name, ct in env.items():
            r = registers.get(name)
            if r is not None:
                regs[r] = ct.handle
        try:
            for op, i, j, t in plan.ops:
                value = fns[op](store[regs[i]], store[regs[j]])
                h = draw(128)
                while h in store:
                    h = draw(128)
                store[h] = value
                regs[t] = h
        except KeyError:
            a, b = regs[i], regs[j]
            if a is None or b is None:
                unbound = plan.names[i if a is None else j]
                raise UnboundVariableError(f"unbound variable {unbound!r}") from None
            raise _foreign(Ciphertext(b if a in store else a)) from None
        ct = new(Ciphertext)
        ct.handle = regs[plan.output]
        return ct

    return mint, run


class SecretKey:
    """Handle store, deterministic handle stream and mint path of one key."""

    def __init__(self, seed: int, prime: int = FIELD_PRIME):
        self.seed = seed
        self.prime = prime
        self._store: dict[int, int] = {}
        self._rng = random.Random(seed)
        self._mint, self._run = _mint_path(self._store, self._rng.getrandbits, prime)

    def __len__(self) -> int:
        """Number of live handles."""
        return len(self._store)

    def release_since(self, mark: int, keep: Ciphertext | None = None) -> None:
        """Delete every handle minted since the store held mark, except keep.

        Handles are inserted in order, so those minted since mark are
        the newest entries of the store: the store keeps its first mark
        entries, then keep.
        """
        store = self._store
        kept = list(islice(store.items(), mark))
        if keep is not None:
            kept.append((keep.handle, store[keep.handle]))
        store.clear()
        store.update(kept)


def keygen(seed: int, prime: int = FIELD_PRIME) -> SecretKey:
    return SecretKey(seed, prime)


def enc(key: SecretKey, value: int) -> Ciphertext:
    return key._mint(value % key.prime)


def enc_many(key: SecretKey, values: Iterable[int]) -> list[Ciphertext]:
    """enc of each value in turn, in one call."""
    mint, prime = key._mint, key.prime
    return [mint(v % prime) for v in values]


def dec(key: SecretKey, ct: Ciphertext) -> int:
    try:
        return key._store[ct.handle]
    except KeyError:
        raise _foreign(ct) from None


def he_op(key: SecretKey, op: Op, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Ciphertext of op applied to c1 and c2; minted like enc."""
    store = key._store
    try:
        a = store[c1.handle]
        b = store[c2.handle]
    except KeyError:
        raise _foreign(c2 if c1.handle in store else c1) from None
    return key._mint(field_ops(key.prime)[op](a, b))


def run_plan(
    key: SecretKey, plan: SlotPlan, env: Mapping[str, Ciphertext], selectors: list[Ciphertext]
) -> Ciphertext:
    """Run plan under key and return its output ciphertext.

    selectors fills the plan's selector registers in order, and env
    (variable name -> ciphertext) the registers of the variables it
    names. Each operation does what he_op does, in plan order: an
    operand no earlier operation or env set raises UnboundVariableError
    naming its variable, one minted under another key raises
    ForeignCiphertextError naming its handle, and each result mints one
    handle. Handles minted before an error stay in the store.
    """
    return key._run(plan, env, selectors)


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

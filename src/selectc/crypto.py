"""Mock homomorphic backend with opaque ciphertext handles.

A ciphertext is a random 128-bit handle; the plaintext it stands for
lives only inside the key's private store. Handles carry no information
about values, encrypting the same value twice yields unrelated handles,
and homomorphic evaluation supports every statement operation. This
models the interface of an FHE scheme without its cost, so outputs stay
exact and experiments over thousands of runs stay cheap.

Each key builds its mint path once: one mint function and one plan
runner, both closing over the key's store and handle stream; the runner
also holds the field table of the key's prime. mint draws a handle per
value into a table it is given: enc gives it the store. run_plan runs
an ir.SlotPlan, a program compiled to register slots whose operations
sit in one flat list, against a table local to the run: it mints the bound values and the selector bits into that
table through mint, reads each caller input from the store once, and
then, in one loop, computes each operation and mints its result into
the table. Only the output handle goes into the store, so a run
allocates no object per operation and frees nothing one handle at a
time. Handles are drawn from the key's seeded stream in call order,
re-drawn on the (negligible) chance of colliding with a live handle or
one of the run's, so the handles a key mints depend only on its seed
and the sequence of calls.

The selector key is the client-side secret for an obfuscated program:
the 0/1 assignment for every selector variable plus the values of the
bound variables (hoisted constants and fake-variable initials) that the
obfuscated file lists as plain inputs.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from .errors import ForeignCiphertextError, FormatError, UnboundVariableError
from .field import FIELD_PRIME, field_ops, parse_int, signed
from .ir import SlotPlan, unbound_inputs


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
) -> tuple[Callable[[Iterable[int], dict[int, int]], list[int]], Callable[..., Ciphertext]]:
    """The mint and the plan runner of one key.

    mint(values, table) draws a handle per value, in order, re-drawing
    while it is live in the store or in table, reduces the value at
    prime, stores it in table under the handle and returns the handles.
    run(plan, env, bound, bits) runs an ir.SlotPlan against a table of
    its own (see run_plan); registers hold bare handles, and only the
    output goes into the store and is wrapped.
    """
    fns = dict(field_ops(prime))

    def mint(values: Iterable[int], table: dict[int, int]) -> list[int]:
        handles = []
        append = handles.append
        for v in values:
            h = draw(128)
            while h in store or h in table:
                h = draw(128)
            table[h] = v % prime
            append(h)
        return handles

    def run(
        plan: SlotPlan, env: Mapping[str, Ciphertext], bound: Mapping[str, int], bits: Iterable[int]
    ) -> Ciphertext:
        table: dict[int, int] = {}
        bound_handles = mint(bound.values(), table)
        regs: list[int | None] = mint(bits, table)
        regs += [None] * (len(plan.names) - len(regs))
        register = plan.registers.get
        for name, h in zip(bound, bound_handles):
            r = register(name)
            if r is not None:
                regs[r] = h
        for name, ct in env.items():
            r = register(name)
            if r is not None:
                regs[r] = h = ct.handle
                if h in store:
                    table[h] = store[h]
        missing = [plan.names[r] for r in plan.inputs if regs[r] is None]
        if missing:
            raise unbound_inputs(missing)
        it = iter(plan.ops)
        try:
            for op, i, j, t in zip(it, it, it, it):
                value = fns[op](table[regs[i]], table[regs[j]])
                h = draw(128)
                while h in store or h in table:
                    h = draw(128)
                table[h] = value
                regs[t] = h
        except KeyError:
            a, b = regs[i], regs[j]
            if a is None or b is None:
                unbound = plan.names[i if a is None else j]
                raise UnboundVariableError(f"unbound variable {unbound!r}") from None
            raise _foreign(Ciphertext(b if a in table else a)) from None
        h = regs[plan.ops[-1]]
        store[h] = table[h]
        return Ciphertext(h)

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


def keygen(seed: int, prime: int = FIELD_PRIME) -> SecretKey:
    return SecretKey(seed, prime)


def enc(key: SecretKey, value: int) -> Ciphertext:
    return Ciphertext(key._mint((value,), key._store)[0])


def dec(key: SecretKey, ct: Ciphertext) -> int:
    try:
        return key._store[ct.handle]
    except KeyError:
        raise _foreign(ct) from None


def run_plan(
    key: SecretKey,
    plan: SlotPlan,
    env: Mapping[str, Ciphertext],
    bound: Mapping[str, int],
    bits: Iterable[int],
) -> Ciphertext:
    """Run plan under key and return its output ciphertext.

    Every handle of the run is minted into a table local to it, in the
    key's handle stream: first bound's values, then bits (the selector
    registers, in order), then one handle per operation; a draw is
    re-drawn while it is live in the store or in that table. bound
    (variable name -> plaintext) fills the registers of the variables it
    names, then env (variable name -> ciphertext) does, each of its
    handles looked up in the store once; a program input neither names
    raises UnboundVariableError. Each operation then computes its field
    operation on its operands' plaintexts and mints the result, in plan
    order: an operand no earlier operation, bound or env set raises
    UnboundVariableError naming its variable, and one minted under
    another key raises ForeignCiphertextError naming its handle.
    Only the output handle goes into the store; the table, and with it
    every other handle of the run, is dropped on return or error.
    """
    return key._run(plan, env, bound, bits)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key_file(path: str, prime: int = FIELD_PRIME) -> tuple[int, SelectorKey]:
    """Read a key file as write_key_file writes it.

    One seed line, and each selector and each const at most once.
    """
    seed: int | None = None
    bits: dict[str, int] = {}
    bindings: dict[str, int] = {}
    seen: dict[tuple[str, str], int] = {}  # (sel or const, name) -> its line
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] == "seed" and len(tokens) == 2:
                if seed is not None:
                    raise FormatError(f"line {lineno}: second seed line")
                try:
                    seed = parse_int(tokens[1])
                except ValueError:
                    raise FormatError(f"line {lineno}: malformed seed") from None
            elif tokens[0] in ("sel", "const") and len(tokens) == 4 and tokens[2] == "=":
                kind, name, value = tokens[0], tokens[1], tokens[3]
                first = seen.setdefault((kind, name), lineno)
                if first != lineno:
                    raise FormatError(
                        f"line {lineno}: {kind} {name!r} is given twice (first on line {first})"
                    )
                if kind == "sel":
                    if value not in ("0", "1"):
                        raise FormatError(f"line {lineno}: selector bit must be 0 or 1")
                    bits[name] = int(value)
                else:
                    try:
                        bindings[name] = parse_int(value) % prime
                    except ValueError:
                        raise FormatError(f"line {lineno}: malformed const value") from None
            else:
                raise FormatError(f"line {lineno}: unrecognized key line {line!r}")
    if seed is None:
        raise FormatError("key file has no seed line")
    return seed, SelectorKey(bits=bits, bindings=bindings)

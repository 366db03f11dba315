"""Mock homomorphic backend with opaque ciphertext handles.

A ciphertext is a random 128-bit handle; the plaintext it stands for
lives only inside the key's private store. Handles carry no information
about values, encrypting the same value twice yields unrelated handles,
and homomorphic evaluation supports every statement operation. This
models the interface of an FHE scheme without its cost, so outputs stay
exact and experiments over thousands of runs stay cheap.

An encrypted run (run_program) is the plain evaluator, ir.run_statements,
run inside the key on the plaintexts its handles stand for. It then
draws the handles of the homomorphic operations that run stands for and
stores only the output's, so it allocates no object per operation.
Handles are drawn from the key's seeded stream in call order, re-drawn
on the (negligible) chance of colliding with a live handle or one of
the run's, so the handles a key mints depend only on its seed and the
sequence of calls.

The selector key is the client-side secret for an obfuscated program:
the 0/1 assignment for every selector variable plus the values of the
bound variables (hoisted constants and fake-variable initials) that the
obfuscated file lists as plain inputs.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import ForeignCiphertextError, FormatError, SelectcError, UnboundVariableError
from .field import FIELD_PRIME, field_ops, parse_int, signed
from .ir import Program, run_statements, unbound_inputs


@dataclass(slots=True, unsafe_hash=True)
class Ciphertext:
    """An opaque handle: equal handles compare equal and hash alike.

    Slotted rather than frozen, so that minting one is an allocation and
    a slot store; nothing assigns handle after minting.
    """

    handle: int


def _foreign(ct: Ciphertext) -> ForeignCiphertextError:
    return ForeignCiphertextError(f"handle {ct.handle:#x} was not produced under this key")


class SecretKey:
    """Handle store, deterministic handle stream and field table of one key."""

    def __init__(self, seed: int, prime: int = FIELD_PRIME):
        self.seed = seed
        self.prime = prime
        self._store: dict[int, int] = {}
        self._draw = random.Random(seed).getrandbits
        self._ops = field_ops(prime)

    def __len__(self) -> int:
        """Number of live handles."""
        return len(self._store)

    def _spend(self, count: int, taken: set[int]) -> int | None:
        """Draw count handles, each re-drawn while it is live or in taken,
        add them to taken, and return the last (None for none)."""
        store, draw, take = self._store, self._draw, taken.add
        h = None
        for _ in range(count):
            h = draw(128)
            while h in store or h in taken:
                h = draw(128)
            take(h)
        return h


def keygen(seed: int, prime: int = FIELD_PRIME) -> SecretKey:
    return SecretKey(seed, prime)


def enc(key: SecretKey, value: int) -> Ciphertext:
    store, draw = key._store, key._draw
    h = draw(128)
    while h in store:
        h = draw(128)
    store[h] = value % key.prime
    return Ciphertext(h)


def dec(key: SecretKey, ct: Ciphertext) -> int:
    try:
        return key._store[ct.handle]
    except KeyError:
        raise _foreign(ct) from None


def operation_count(program: Program, stop: int | None = None) -> int:
    """The homomorphic operations of the statements before stop (all by
    default): one per assignment, 2k - 1 per k-way combining statement."""
    if stop is None:
        stop = len(program)
    return stop + sum(len(options) - 2 for i, options in program.combines.items() if i < stop)


def run_program(
    key: SecretKey,
    program: Program,
    env: Mapping[str, Ciphertext],
    bound: Mapping[str, int],
    bits: Mapping[str, int],
    n_ops: int | None = None,
) -> Ciphertext:
    """Run program under key and return its output ciphertext.

    It draws a handle for each of bound's values, then for each selector
    bit, then one per operation (n_ops, operation_count(program) if not
    given). bound (variable name -> plaintext) binds first, then env
    (variable name -> ciphertext); a program input neither binds raises
    UnboundVariableError. Statements run at the key's prime, bits giving
    the selectors. A failure raises what the walk of ir.run_statements
    over homomorphic operations raises (ForeignCiphertextError naming a
    handle minted under another key where a statement first reads it,
    UnboundVariableError for a variable nothing bound) after drawing the
    handles that walk draws first. Only the output's handle is stored.
    """
    output = program.output  # ValueError for an empty program, before any draw
    store, prime = key._store, key.prime
    taken: set[int] = set()
    key._spend(len(bound) + len(bits), taken)
    values = {v: x % prime for v, x in bound.items()}
    foreign: dict[str, Ciphertext] = {}
    for v, ct in env.items():
        x = store.get(ct.handle)
        if x is None:
            values.pop(v, None)
            foreign[v] = ct
        else:
            values[v] = x
    missing = [v for v in program.inputs if v not in values and v not in foreign]
    if missing:
        raise unbound_inputs(missing)
    statements = iter(range(len(program)))
    try:
        run_statements(program, statements, values, bits, key._ops)
    except UnboundVariableError as exc:
        # reading a foreign input lands here too: the statement that raised
        # runs again with the ciphertexts in their place, as the walk runs it
        at = next(statements, len(program)) - 1
        replay = _Replay(key._ops)
        error: SelectcError = exc
        try:
            run_statements(program, (at,), {**foreign, **values}, bits, replay)
        except SelectcError as again:
            error = again
        key._spend(operation_count(program, at) + replay.drawn, taken)
        raise error from None
    h = key._spend(operation_count(program) if n_ops is None else n_ops, taken)
    store[h] = values[output]
    return Ciphertext(h)


class _Replay(dict):
    """A field table whose operations raise ForeignCiphertextError for a
    Ciphertext operand, the first operand first, as a homomorphic
    operation does, and count in drawn the handles the others draw."""

    def __init__(self, ops: Mapping) -> None:
        super().__init__({op: self._checked(fn) for op, fn in ops.items()})
        self.drawn = 0

    def _checked(self, fn):
        def op(a: int | Ciphertext, b: int | Ciphertext) -> int:
            for x in (a, b):
                if isinstance(x, Ciphertext):
                    raise _foreign(x)
            self.drawn += 1
            return fn(a, b)

        return op


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

"""Bundled demonstration obfuscations of two classic beginner tasks.

Task 1 guards a division against a zero divisor; task 2 scans an array
for an extremum. Two obfuscation levels are built:

  * L0 hides task 1 by hand: the five variable positions of the
    statement each become a combining statement over five of the pool
    u, v, w, x, y, z (w and z are fake), the comparison chooses between
    `not equal` and `less than`, and the division between division and
    multiplication. That yields a class of 5^5 * 2^2 = 12,500 programs.
  * L1 runs the generic statement-level obfuscator on the lowered
    six-statement form of task 1 with five options per statement and
    three whole misleading combining statements, for a class of
    5^6 = 15,625 programs. The operand pool grows to eight variables
    and the operation pool gains addition and subtraction.

Builds are seeded, so the emitted artifacts are reproducible.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

from .crypto import SelectorKey, write_key_file
from .field import FIELD_PRIME, Op
from .ir import Program, render_program
from .lower import lower
from .obfuscate import ObfProgram, ObfuscationConfig, checked_key, obfuscate_statement_level, write_obf_program
from .rng import DEFAULT_SEED, spawn
from .surface import parse_surface

TASK1_SOURCE = "if (y != 0) then r := x / y else r := -9999\n"

TASK2_SOURCE = """\
array a[4]
m := a[0]
for (x := 0; x < y; x := x + 1) bound 4 {
    if (m >= a[x]) then m := a[x]
}
"""

_L0_POOL = ("u", "v", "w", "x", "y", "z")
_L0_FAKES = ("w", "z")


@dataclass
class Demo:
    name: str
    seed: int
    source: str
    program: Program
    obf: ObfProgram
    sel_key: SelectorKey


def _l0_confidential(prime: int) -> Program:
    """Task 1 in three-address form, constants named as in the handout.

    u carries 0, v carries -9999, one carries 1; the last four
    statements blend the branch results by the comparison bit.
    """
    rows = [
        (Op.NEQ, "y", "u", "t0"),
        (Op.DIV, "x", "y", "t1"),
        (Op.MUL, "t0", "t1", "t2"),
        (Op.SUB, "one", "t0", "t3"),
        (Op.MUL, "t3", "v", "t4"),
        (Op.ADD, "t2", "t4", "t5"),
    ]
    consts = {"u": 0, "one": 1, "v": (-9999) % prime}
    return Program.from_columns(["x", "y"], *zip(*rows), consts=consts, prime=prime)


def build_l0(seed: int = DEFAULT_SEED, prime: int = FIELD_PRIME) -> Demo:
    """Hand-built L0 obfuscation with the handout's option counts.

    Five variable slots get five options each even though the pool has
    six names; the slot's true variable is always among the five.
    """
    rng = spawn(seed, "l0-options")
    program = _l0_confidential(prime)

    sel_n = 0

    def sels(count: int) -> list[str]:
        nonlocal sel_n
        out = [f"s{sel_n + i}" for i in range(count)]
        sel_n += count
        return out

    bits: dict[str, int] = {}
    rows: list[tuple] = []  # (op, in1, in2, target); op None for a combining statement
    combines: dict[int, tuple[str, ...]] = {}

    def combine(target: str, ss: Sequence[str], srcs: Sequence[str]) -> None:
        combines[len(rows)] = (*ss, *srcs)
        rows.append((None, None, None, target))

    def var_slot(target: str, true_var: str) -> None:
        others = [v for v in _L0_POOL if v != true_var]
        options = [true_var] + rng.sample(others, 4)
        rng.shuffle(options)
        ss = sels(5)
        for s, v in zip(ss, options):
            bits[s] = int(v == true_var)
        combine(target, ss, options)

    def op_slot(target: str, ops: tuple[Op, Op], in1: str, in2: str, names: tuple[str, str]) -> None:
        order = [0, 1]
        rng.shuffle(order)
        ss = sels(2)
        for i, which in enumerate(order):
            rows.append((ops[which], in1, in2, names[i]))
            bits[ss[i]] = int(which == 0)
        combine(target, ss, names)

    var_slot("c0", "y")
    var_slot("c1", "u")
    op_slot("t0", (Op.NEQ, Op.LT), "c0", "c1", ("o0", "o1"))
    var_slot("c2", "x")
    var_slot("c3", "y")
    op_slot("t1", (Op.DIV, Op.MUL), "c2", "c3", ("o2", "o3"))
    rows += [(Op.MUL, "t0", "t1", "t2"), (Op.SUB, "one", "t0", "t3")]
    var_slot("c4", "v")
    rows += [(Op.MUL, "t3", "c4", "t4"), (Op.ADD, "t2", "t4", "t5")]

    rng_vals = spawn(seed, "l0-fake-values")
    bindings = dict(program.consts)
    bindings.update({v: rng_vals.randrange(1, prime) for v in _L0_FAKES})

    obf_program = Program.from_columns(
        list(program.inputs) + sorted(bindings), *zip(*rows), combines, prime=prime
    )
    obf = ObfProgram(program=obf_program, selector_ids=obf_program.selector_ids())
    sel_key = SelectorKey(bits=bits, bindings=bindings)
    checked_key(obf, sel_key)
    return Demo(
        name="l0", seed=seed, source=TASK1_SOURCE, program=program, obf=obf, sel_key=sel_key
    )


def build_l1(seed: int = DEFAULT_SEED, prime: int = FIELD_PRIME) -> Demo:
    """Generic statement-level obfuscation of lowered task 1.

    The lowered form has six statements; five options per statement
    give the 15,625-program class. Three fake variables bring the
    operand pool to eight names.
    """
    program = lower(parse_surface(TASK1_SOURCE), prime)
    cfg = ObfuscationConfig(
        mislead_factor=5,
        fake_vars=("w", "z", "f0"),
        op_pool=(Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.NEQ, Op.LT),
        fake_combining=3,
        strategy="uniform",
        seed=seed,
    )
    obf, sel_key = obfuscate_statement_level(program, cfg)
    return Demo(
        name="l1", seed=seed, source=TASK1_SOURCE, program=program, obf=obf, sel_key=sel_key
    )


def emit_artifacts(demo: Demo, out_dir: str) -> list[str]:
    """Write source, lowered, obfuscated, and key files; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def put(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)

    put("task1.src", TASK1_SOURCE)
    put("task1.tac", render_program(lower(parse_surface(TASK1_SOURCE))))
    put("task2.src", TASK2_SOURCE)
    put("task2.tac", render_program(lower(parse_surface(TASK2_SOURCE))))
    # the confidential program under the names the obfuscation uses,
    # suitable as ground truth for attack grading
    put(f"task1.{demo.name}.tac", render_program(demo.program))

    obf_path = os.path.join(out_dir, f"task1.{demo.name}.obf")
    write_obf_program(obf_path, demo.obf)
    paths.append(obf_path)
    key_path = os.path.join(out_dir, f"task1.{demo.name}.key")
    write_key_file(key_path, demo.seed, demo.sel_key, demo.obf.program.prime)
    paths.append(key_path)
    return paths

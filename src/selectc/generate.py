"""Random program generators for differential and property testing.

The surface generator stays inside the language subset where the
direct interpreter and the lowered three-address program provably
agree: the first statement assigns a scalar (so a result variable
always exists), branch and loop bodies only reassign scalars that are
already unconditionally defined, literal array indices are in range,
and loop trip counts never exceed the unroll bound. Free variables are
introduced on purpose; first reads turn them into program inputs on
both execution paths.
"""

from __future__ import annotations

import random

from .field import ALL_OPS, FIELD_PRIME, Op
from .ir import Program
from .surface import (
    AssignStmt,
    Binary,
    ForStmt,
    IfStmt,
    Index,
    Lit,
    Name,
    Stmt,
    SurfaceProgram,
    Unary,
)

_BINARY_OPS = ("+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=")
_CMP_ONLY = ("==", "!=", "<", "<=", ">", ">=")
_INPUT_NAMES = ("x", "y", "z", "p", "q")
_SCALAR_NAMES = ("s", "t", "u", "v", "w")


def random_expr(
    rng: random.Random,
    scalars: list[str],
    arrays: dict[str, int],
    depth: int = 2,
) -> "object":
    """Expression over defined scalars, free inputs, literals, arrays."""
    roll = rng.random()
    if depth == 0 or roll < 0.30:
        if scalars and rng.random() < 0.6:
            return Name(rng.choice(scalars))
        return Name(rng.choice(_INPUT_NAMES))
    if roll < 0.45:
        return Lit(rng.randint(-10, 10))
    if roll < 0.55 and arrays:
        arr = rng.choice(sorted(arrays))
        if scalars and rng.random() < 0.5:
            return Index(arr, Name(rng.choice(scalars)))
        return Index(arr, Lit(rng.randrange(arrays[arr])))
    if roll < 0.65:
        op = "-" if rng.random() < 0.7 else "not"
        operand = random_expr(rng, scalars, arrays, depth - 1)
        if op == "-" and isinstance(operand, Lit):
            # the parser folds negated literals, keep round trips exact
            return Lit(-operand.value)
        return Unary(op, operand)
    op = rng.choice(_BINARY_OPS)
    return Binary(
        op,
        random_expr(rng, scalars, arrays, depth - 1),
        random_expr(rng, scalars, arrays, depth - 1),
    )


def _random_cond(rng: random.Random, scalars: list[str], arrays: dict) -> Binary:
    return Binary(
        rng.choice(_CMP_ONLY),
        random_expr(rng, scalars, arrays, depth=1),
        Lit(rng.randint(-4, 4)),
    )


def _body_assign(rng: random.Random, scalars: list[str], arrays: dict) -> AssignStmt:
    # reassignments only: a branch must never be the sole definition of
    # the result variable
    if arrays and rng.random() < 0.3:
        arr = rng.choice(sorted(arrays))
        idx = (
            Name(rng.choice(scalars))
            if scalars and rng.random() < 0.5
            else Lit(rng.randrange(arrays[arr]))
        )
        return AssignStmt(Index(arr, idx), random_expr(rng, scalars, arrays))
    return AssignStmt(Name(rng.choice(scalars)), random_expr(rng, scalars, arrays))


def random_surface_program(
    rng: random.Random, max_statements: int = 8
) -> SurfaceProgram:
    arrays: dict[str, int] = {}
    for name in ("a", "b")[: rng.choice((0, 0, 1, 1, 2))]:
        arrays[name] = rng.randint(1, 4)

    scalars: list[str] = []
    statements: list[Stmt] = []
    budget = rng.randint(1, max_statements)

    first = _SCALAR_NAMES[0]
    statements.append(AssignStmt(Name(first), random_expr(rng, scalars, arrays)))
    scalars.append(first)
    budget -= 1
    loop_count = 0

    while budget > 0:
        roll = rng.random()
        if roll < 0.45 or budget < 3:
            if rng.random() < 0.75 or not arrays:
                target = rng.choice(
                    [n for n in _SCALAR_NAMES if n not in scalars] or scalars
                )
                statements.append(
                    AssignStmt(Name(target), random_expr(rng, scalars, arrays))
                )
                if target not in scalars:
                    scalars.append(target)
            else:
                statements.append(_body_assign(rng, scalars, arrays))
            budget -= 1
        elif roll < 0.75 or budget < 4:
            n_then = rng.randint(1, min(2, budget - 1))
            n_else = rng.randint(0, min(2, budget - 1 - n_then))
            then = [_body_assign(rng, scalars, arrays) for _ in range(n_then)]
            orelse = [_body_assign(rng, scalars, arrays) for _ in range(n_else)]
            statements.append(
                IfStmt(_random_cond(rng, scalars, arrays), then, orelse)
            )
            budget -= 1 + n_then + n_else
        else:
            loop_var = f"i{loop_count}"
            loop_count += 1
            trips = rng.randint(1, 4)
            n_body = rng.randint(1, min(2, budget - 3))
            body = [_body_assign(rng, scalars, arrays) for _ in range(n_body)]
            statements.append(
                ForStmt(
                    init=AssignStmt(Name(loop_var), Lit(0)),
                    cond=Binary("<", Name(loop_var), Lit(trips)),
                    step=AssignStmt(
                        Name(loop_var), Binary("+", Name(loop_var), Lit(1))
                    ),
                    bound=4,
                    body=body,
                )
            )
            scalars.append(loop_var)
            budget -= 3 + n_body

    return SurfaceProgram(arrays=arrays, statements=statements)


def random_linear_program(
    rng: random.Random,
    n_statements: int = 4,
    n_inputs: int = 2,
    n_consts: int = 1,
    ops: tuple[Op, ...] = ALL_OPS,
    prime: int = FIELD_PRIME,
) -> Program:
    """Straight-line three-address program with random expressions.

    Every statement past the first consumes the previous target, so no
    statement is dead code and obfuscating the program yields exactly
    one live combining statement per source statement.
    """
    if n_statements < 1 or n_inputs < 1:
        raise ValueError("need at least one statement and one input")
    inputs = [f"x{i}" for i in range(n_inputs)]
    consts = {f"k{i}": rng.randrange(prime) for i in range(n_consts)}
    available = inputs + sorted(consts)
    drawn_ops, in1, in2, targets = [], [], [], []
    for i in range(n_statements):
        target = f"t{i}"
        operands = [rng.choice(available), rng.choice(available)]
        if i > 0:
            operands[rng.randrange(2)] = f"t{i - 1}"
        drawn_ops.append(rng.choice(ops))
        in1.append(operands[0])
        in2.append(operands[1])
        targets.append(target)
        available.append(target)
    return Program.from_columns(inputs, drawn_ops, in1, in2, targets, consts=consts, prime=prime)


def random_inputs(
    program: Program, rng: random.Random, small: bool = False
) -> dict[str, int]:
    """Bindings for every program input.

    small draws from a narrow signed range so comparisons and loop
    conditions routinely go both ways.
    """
    if small:
        return {v: rng.randint(-8, 8) % program.prime for v in program.inputs}
    return {v: rng.randrange(program.prime) for v in program.inputs}

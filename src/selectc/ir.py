"""Three-address program representation.

A program is an ordered list of statements over named variables. Each
statement either assigns the result of one operation applied to exactly
two variables, or combines several source variables under binary
selector variables:

    t3 := MUL x y
    t4 := COMBINE (s0,t3) (s1,t5)

A combining statement evaluates to the selector-weighted sum of its
sources; with a one-hot selector assignment it picks exactly one of
them. The program's output is the target of its last statement.

Integer literals never appear in statements. They are hoisted into
const variables whose bindings travel with the program, so the
statement stream itself is uniform: every operand is a variable.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any

from .errors import FormatError, UnboundVariableError
from .field import FIELD_PRIME, Op, apply_op, is_prime, op_from_name, signed


@dataclass(frozen=True)
class SimpleExpression:
    """One operation applied to two input variables."""

    op: Op
    in1: str
    in2: str

    def render(self) -> str:
        return f"{self.op} {self.in1} {self.in2}"


@dataclass(frozen=True)
class Assign:
    target: str
    expr: SimpleExpression

    def render(self) -> str:
        return f"{self.target} := {self.expr.render()}"


@dataclass(frozen=True)
class Combine:
    """target := sum over options of selector * source.

    Options are ordered; selectors must be pairwise distinct and there
    must be at least two options.
    """

    target: str
    options: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(self.options) < 2:
            raise ValueError("combining statement needs at least two options")
        sels = [s for s, _ in self.options]
        if len(set(sels)) != len(sels):
            raise ValueError("combining statement selectors must be distinct")

    def render(self) -> str:
        opts = " ".join(f"({s},{v})" for s, v in self.options)
        return f"{self.target} := COMBINE {opts}"


Statement = Assign | Combine


@dataclass
class Program:
    """Ordered statements plus the interface they run against.

    inputs:  variables the caller must bind before evaluation.
    consts:  hoisted literal bindings carried with the program.
    The output is the target of the last statement.
    """

    inputs: list[str]
    statements: list[Statement]
    consts: dict[str, int] = field(default_factory=dict)
    prime: int = FIELD_PRIME

    @property
    def output(self) -> str:
        if not self.statements:
            raise ValueError("empty program has no output")
        return self.statements[-1].target

    def selector_ids(self) -> list[str]:
        """Selector variables of all combining statements, in first-use order."""
        return list(
            dict.fromkeys(
                sel
                for st in self.statements
                if isinstance(st, Combine)
                for sel, _ in st.options
            )
        )

    def copy(self) -> "Program":
        return Program(
            inputs=list(self.inputs),
            statements=list(self.statements),
            consts=dict(self.consts),
            prime=self.prime,
        )


def count_expressions(num_vars: int, num_ops: int, arity: int = 2) -> int:
    """Size of the simple-expression space: num_ops * num_vars ** arity."""
    if num_vars < 1 or num_ops < 1 or arity < 1:
        raise ValueError("expression space needs at least one op and one variable")
    return num_ops * num_vars**arity


def run_statements(
    program: Program,
    env: dict[str, Any],
    selectors: dict[str, Any],
    apply: Callable[[Op, Any, Any], Any],
) -> dict[str, Any]:
    """Run every statement in order over env and return it, extended.

    Values are whatever apply(op, a, b) computes on: field elements for
    a plain run, ciphertexts for an encrypted one. A combining statement
    is the ADD-fold of MUL(selector, source) over all of its options,
    with no short-circuit of any kind. A selector is looked up in
    selectors first, then among the program's variables.
    """
    missing = [v for v in program.inputs if v not in env]
    if missing:
        raise UnboundVariableError(f"unbound input variable(s): {', '.join(missing)}")
    for st in program.statements:
        if isinstance(st, Assign):
            try:
                a = env[st.expr.in1]
                b = env[st.expr.in2]
            except KeyError as exc:
                raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
            env[st.target] = apply(st.expr.op, a, b)
        else:
            acc = None
            for sel, src in st.options:
                bit = selectors[sel] if sel in selectors else env.get(sel)
                if bit is None:
                    raise UnboundVariableError(f"unbound selector {sel!r}")
                if src not in env:
                    raise UnboundVariableError(f"unbound variable {src!r}")
                term = apply(Op.MUL, bit, env[src])
                acc = term if acc is None else apply(Op.ADD, acc, term)
            env[st.target] = acc
    return env


def eval_env(
    program: Program,
    inputs: dict[str, int],
    selectors: dict[str, int] | None = None,
) -> dict[str, int]:
    """Run every statement over field elements; return the final environment.

    Selector variables must be bound, either merged into inputs or
    passed separately.
    """
    prime = program.prime
    env = {v: val % prime for v, val in program.consts.items()}
    for v, val in inputs.items():
        env[v] = val % prime
    sel = {s: bit % prime for s, bit in selectors.items()} if selectors else {}
    return run_statements(program, env, sel, partial(apply_op, prime=prime))


def eval_plain(
    program: Program,
    inputs: dict[str, int],
    selectors: dict[str, int] | None = None,
) -> int:
    """Evaluate the program and return the value of its output variable."""
    return eval_env(program, inputs, selectors)[program.output]


def statement_operands(st: Statement) -> tuple[str, ...]:
    if isinstance(st, Assign):
        return (st.expr.in1, st.expr.in2)
    return tuple(src for _, src in st.options)


def referenced_vars(program: Program) -> set[str]:
    refs: set[str] = set()
    for st in program.statements:
        refs.update(statement_operands(st))
    return refs


def live_statement_indices(program: Program) -> list[int]:
    """Indices of statements whose targets reach the output, in order."""
    if not program.statements:
        return []
    live = {program.output}
    keep: list[int] = []
    for idx in range(len(program.statements) - 1, -1, -1):
        st = program.statements[idx]
        if st.target in live:
            keep.append(idx)
            live.update(statement_operands(st))
    keep.reverse()
    return keep or [len(program.statements) - 1]


def dead_code_eliminate(program: Program) -> Program:
    """Drop statements whose targets never reach the output."""
    if not program.statements:
        return program.copy()
    keep = [program.statements[i] for i in live_statement_indices(program)]
    return Program(
        inputs=list(program.inputs),
        statements=keep,
        consts=dict(program.consts),
        prime=program.prime,
    )


class FoldPlan:
    """The selection-independent part of fold_combines, built once per program.

    Holds the use counts and definitions fold needs to decide between
    inlining and substitution, and the statement positions a selection
    can change: every combining statement, and every assignment that
    reads a combining statement's target. All other assignments come
    through fold unchanged, as the same (frozen) statement objects.
    """

    def __init__(self, program: Program):
        self.program = program
        stmts = program.statements
        use_count: dict[str, int] = {}
        defs: dict[str, Assign] = {}
        for st in stmts:
            for v in statement_operands(st):
                use_count[v] = use_count.get(v, 0) + 1
            if isinstance(st, Assign):
                defs[st.target] = st
        # an option defined by an assignment it alone reads is inlined
        self._inline = {v: d for v, d in defs.items() if use_count.get(v, 0) == 1}
        # substitution keys are combining targets, so only their readers move
        combined = {st.target for st in stmts if isinstance(st, Combine)}
        self._steps = [
            (idx, st)
            for idx, st in enumerate(stmts)
            if isinstance(st, Combine) or st.expr.in1 in combined or st.expr.in2 in combined
        ]

    def fold(self, selection: dict[int, int]) -> Program:
        """Resolve every combining statement to one chosen option.

        selection maps statement index to option index; unlisted
        combining statements fold to option 0 (they are dead wherever
        that matters). An option defined by a single-use assignment is
        inlined in place of the combining statement; any other option
        variable substitutes for the statement's target downstream.
        Fold output contains assignments only; callers usually run
        dead_code_eliminate on it afterwards.
        """
        program = self.program
        stmts: list[Statement | None] = list(program.statements)
        last = len(stmts) - 1
        subst: dict[str, str] = {}
        for idx, st in self._steps:
            if isinstance(st, Assign):
                expr = _resolved(st.expr, subst)
                if expr is not st.expr:
                    stmts[idx] = Assign(st.target, expr)
                continue
            choice = selection.get(idx, 0)
            if not 0 <= choice < len(st.options):
                raise ValueError(f"option index {choice} out of range at statement {idx}")
            src = st.options[choice][1]
            src = subst.get(src, src)
            definition = self._inline.get(src)
            if definition is not None:
                stmts[idx] = Assign(st.target, _resolved(definition.expr, subst))
            elif idx == last:
                raise ValueError(
                    "cannot fold a final combining statement whose option is a shared variable"
                )
            else:
                subst[st.target] = src
                stmts[idx] = None
        return Program(
            inputs=list(program.inputs),
            statements=[st for st in stmts if st is not None],
            consts=dict(program.consts),
            prime=program.prime,
        )


def _resolved(expr: SimpleExpression, subst: dict[str, str]) -> SimpleExpression:
    """expr with substituted operands; expr itself when none applies."""
    in1 = subst.get(expr.in1, expr.in1)
    in2 = subst.get(expr.in2, expr.in2)
    if in1 is expr.in1 and in2 is expr.in2:
        return expr
    return SimpleExpression(expr.op, in1, in2)


def fold_combines(program: Program, selection: dict[int, int]) -> Program:
    """Resolve every combining statement to one chosen option (see FoldPlan.fold)."""
    return FoldPlan(program).fold(selection)


def normalize(program: Program) -> Program:
    """Canonical form: dead code removed, temporaries renumbered t0, t1, ...

    Input and const variables keep their names; unused const bindings
    are dropped. Two programs that differ only in temporary naming and
    dead statements normalize to equal values.
    """
    p = dead_code_eliminate(program)
    fixed = set(p.inputs) | set(p.consts)
    rename: dict[str, str] = {}
    counter = 0
    for st in p.statements:
        if st.target not in fixed and st.target not in rename:
            while f"t{counter}" in fixed:
                counter += 1
            rename[st.target] = f"t{counter}"
            counter += 1

    def rn(v: str) -> str:
        return rename.get(v, v)

    stmts: list[Statement] = []
    for st in p.statements:
        if isinstance(st, Assign):
            stmts.append(
                Assign(rn(st.target), SimpleExpression(st.expr.op, rn(st.expr.in1), rn(st.expr.in2)))
            )
        else:
            stmts.append(Combine(rn(st.target), tuple((s, rn(v)) for s, v in st.options)))
    refs = set()
    for st in stmts:
        refs.update(statement_operands(st))
    consts = {v: val for v, val in p.consts.items() if v in refs}
    return Program(inputs=list(p.inputs), statements=stmts, consts=consts, prime=p.prime)


def canonical_key(program: Program, with_const_values: bool = True) -> str:
    """Stable identity string for program comparisons.

    Normalizes first, then renders referenced terminals and statements.
    With with_const_values=False, const variables count as opaque named
    inputs and their values are dropped; that is the right identity for
    class membership, where one side holds the bindings and the other
    side sees the same variables as plain inputs.
    """
    p = normalize(program)
    refs = referenced_vars(p)
    parts: list[str] = []
    if with_const_values:
        ins = sorted(v for v in p.inputs if v in refs)
        parts.append("in " + ",".join(ins))
        parts.extend(f"const {v}={signed(p.consts[v], p.prime)}" for v in sorted(p.consts))
    else:
        ins = sorted((set(p.inputs) | set(p.consts)) & refs)
        parts.append("in " + ",".join(ins))
    parts.extend(st.render() for st in p.statements)
    return " ; ".join(parts)


_COMBINE_OPT = re.compile(r"^\(([^\s,()]+),([^\s,()]+)\)$")


def render_program(program: Program) -> str:
    """Serialize to the line-oriented program format (ends with newline)."""
    lines = [f"prime {program.prime}"]
    lines.extend(f"input {v}" for v in program.inputs)
    lines.extend(
        f"const {v} = {signed(val, program.prime)}" for v, val in program.consts.items()
    )
    lines.extend(st.render() for st in program.statements)
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> Program:
    """Parse the format produced by render_program."""
    prime = FIELD_PRIME
    inputs: list[str] = []
    consts: dict[str, int] = {}
    statements: list[Statement] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "prime":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise FormatError(f"line {lineno}: malformed prime line")
            prime = int(tokens[1])
            if not is_prime(prime):
                raise FormatError(f"line {lineno}: field modulus {prime} is not prime")
            continue
        if tokens[0] == "input":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: malformed input line")
            inputs.append(tokens[1])
            continue
        if tokens[0] == "const":
            if len(tokens) != 4 or tokens[2] != "=":
                raise FormatError(f"line {lineno}: malformed const line")
            try:
                consts[tokens[1]] = int(tokens[3]) % prime
            except ValueError:
                raise FormatError(f"line {lineno}: const value is not an integer") from None
            continue
        if len(tokens) < 3 or tokens[1] != ":=":
            raise FormatError(f"line {lineno}: expected '<target> := ...'")
        target = tokens[0]
        if tokens[2] == "COMBINE":
            opts: list[tuple[str, str]] = []
            for tok in tokens[3:]:
                m = _COMBINE_OPT.match(tok)
                if not m:
                    raise FormatError(f"line {lineno}: malformed combine option {tok!r}")
                opts.append((m.group(1), m.group(2)))
            if len(opts) < 2:
                raise FormatError(f"line {lineno}: combining statement needs two options")
            try:
                statements.append(Combine(target, tuple(opts)))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            continue
        if len(tokens) != 5:
            raise FormatError(f"line {lineno}: expected '<target> := OP v1 v2'")
        try:
            op = op_from_name(tokens[2])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        statements.append(Assign(target, SimpleExpression(op, tokens[3], tokens[4])))
    if not statements:
        raise FormatError("program has no statements")
    return Program(inputs=inputs, statements=statements, consts=consts, prime=prime)


def strip_const_values(program: Program) -> Program:
    """Turn const bindings into plain inputs (values dropped)."""
    extra = [v for v in program.consts if v not in program.inputs]
    return replace(
        program,
        inputs=list(program.inputs) + extra,
        consts={},
        statements=list(program.statements),
    )

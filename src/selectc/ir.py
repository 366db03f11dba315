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
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from .errors import FormatError, UnboundVariableError
from .field import FIELD_PRIME, OP_NAMES, Op, field_ops, is_prime, op_from_name, signed


# Op.X reads go through EnumType.__getattr__; a module global does not
_MUL, _ADD = Op.MUL, Op.ADD


@dataclass(frozen=True, slots=True)
class SimpleExpression:
    """One operation applied to two input variables."""

    op: Op
    in1: str
    in2: str

    def render(self) -> str:
        return f"{OP_NAMES[self.op]} {self.in1} {self.in2}"


@dataclass(frozen=True, slots=True)
class Assign:
    target: str
    expr: SimpleExpression

    def render(self) -> str:
        return f"{self.target} := {self.expr.render()}"


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
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


def run_statements(
    program: Program,
    env: dict[str, Any],
    selectors: dict[str, Any],
    ops: Mapping[Op, Callable[[Any, Any], Any]],
) -> dict[str, Any]:
    """Run every statement in order over env and return it, extended.

    Values are field elements and ops is the field table of their prime
    (field.field_ops). An assignment is ops[op](a, b). A combining
    statement is the ADD-fold of MUL(selector, source) over all of its
    options, with no short-circuit of any kind. A selector is looked up
    in selectors first, then among the program's variables.
    """
    if program.inputs:
        require_inputs(program, env)
    for st in program.statements:
        if isinstance(st, Assign):
            expr = st.expr
            try:
                a = env[expr.in1]
                b = env[expr.in2]
            except KeyError as exc:
                raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
            env[st.target] = ops[expr.op](a, b)
        else:
            mul, add = ops[_MUL], ops[_ADD]
            acc = None
            for sel, src in st.options:
                bit = selectors[sel] if sel in selectors else env.get(sel)
                if bit is None:
                    raise UnboundVariableError(f"unbound selector {sel!r}")
                if src not in env:
                    raise UnboundVariableError(f"unbound variable {src!r}")
                term = mul(bit, env[src])
                acc = term if acc is None else add(acc, term)
            env[st.target] = acc
    return env


@dataclass(frozen=True, slots=True)
class SlotPlan:
    """A program compiled once into register slots, for runs that repeat it.

    Registers: the selectors first, in the order compile_plan was given
    them, then two scratch registers, then one per variable, the
    program's inputs first. ops is the run in order, one (op, in1, in2,
    target) register tuple per operation: an assignment is one entry,
    and a k-way combining statement is its 2k - 1 entries MUL, MUL, ADD,
    MUL, ADD, ... (run_statements' ADD-fold) through the scratch
    registers, the last writing its target. registers maps each variable
    to its register, so a run can fill them from its environment; names
    maps every register back to its selector or variable name (None for
    scratch), for error messages only.
    """

    registers: dict[str, int]
    names: tuple[str | None, ...]
    ops: tuple[tuple[Op, int, int, int], ...]
    output: int


class _Registers(dict):
    """Variable -> register, numbering each new variable on first lookup."""

    __slots__ = ("base",)

    def __missing__(self, v: str) -> int:
        r = self[v] = self.base + len(self)
        return r


def compile_plan(program: Program, selectors: Iterable[str]) -> SlotPlan:
    """program as a SlotPlan whose selector registers follow selectors' order.

    One pass over the statements. Raises UnboundVariableError for a
    combining statement's selector that selectors lacks.
    """
    sel_reg = {s: i for i, s in enumerate(selectors)}
    acc = len(sel_reg)
    term = acc + 1
    reg = _Registers()
    reg.base = term + 1
    for v in program.inputs:  # the first variable registers
        reg[v]
    ops: list[tuple[Op, int, int, int]] = []
    append = ops.append
    try:
        for st in program.statements:
            if isinstance(st, Assign):
                expr = st.expr
                append((expr.op, reg[expr.in1], reg[expr.in2], reg[st.target]))
                continue
            (s0, v0), (s1, v1), *more = st.options
            append((_MUL, sel_reg[s0], reg[v0], acc))
            append((_MUL, sel_reg[s1], reg[v1], term))
            for s, v in more:
                append((_ADD, acc, term, acc))
                append((_MUL, sel_reg[s], reg[v], term))
            append((_ADD, acc, term, reg[st.target]))
    except KeyError as exc:
        raise UnboundVariableError(f"unbound selector {exc.args[0]!r}") from None
    if not ops:
        raise ValueError("empty program has no output")
    return SlotPlan(
        registers=dict(reg),
        names=(*sel_reg, None, None, *reg),
        ops=tuple(ops),
        output=ops[-1][3],
    )


def require_inputs(program: Program, bound) -> None:
    """Raise UnboundVariableError unless bound holds every program input."""
    missing = [v for v in program.inputs if v not in bound]
    if missing:
        raise UnboundVariableError(f"unbound input variable(s): {', '.join(missing)}")


def field_env(program: Program, inputs: dict[str, int]) -> dict[str, int]:
    """The program's consts and the given inputs as field elements.

    Raises UnboundVariableError unless every program input is bound.
    """
    prime = program.prime
    env = {v: val % prime for v, val in program.consts.items()}
    for v, val in inputs.items():
        env[v] = val % prime
    require_inputs(program, env)
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
    sel = {s: bit % prime for s, bit in selectors.items()} if selectors else {}
    return run_statements(program, field_env(program, inputs), sel, field_ops(prime))


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


def check_single_assignment(program: Program) -> None:
    """Raise FormatError unless each statement reads only inputs, consts
    and earlier targets, and assigns a name nothing else assigns."""
    defined = {*program.inputs, *program.consts}
    for number, st in enumerate(program.statements, start=1):
        if isinstance(st, Assign):
            expr = st.expr
            unread = expr.in1 not in defined or expr.in2 not in defined
        else:
            unread = not defined.issuperset([src for _, src in st.options])
        if unread:
            v = next(v for v in statement_operands(st) if v not in defined)
            raise FormatError(f"statement {number} reads {v!r} before it is assigned")
        if st.target in defined:
            raise FormatError(f"statement {number} assigns {st.target!r} again")
        defined.add(st.target)


def referenced_vars(statements: list[Statement]) -> set[str]:
    refs: set[str] = set()
    for st in statements:
        refs.update(statement_operands(st))
    return refs


def live_statement_indices(program: Program) -> list[int]:
    """Indices of statements whose targets reach the output, in order."""
    if not program.statements:
        return []
    stmts = program.statements
    live = {program.output}
    keep: list[int] = []
    for idx in range(len(stmts) - 1, -1, -1):
        st = stmts[idx]
        if st.target in live:
            keep.append(idx)
            if isinstance(st, Assign):
                live.add(st.expr.in1)
                live.add(st.expr.in2)
            else:
                live.update(src for _, src in st.options)
    keep.reverse()
    return keep or [len(program.statements) - 1]


def inline_map(program: Program) -> dict[str, Assign]:
    """The assignments a fold inlines, by target: those read exactly once.

    A combining statement whose chosen option is one of these becomes
    target := that definition, and the definition goes; any other
    chosen source substitutes for the statement's target in what reads
    it. Raises FormatError unless every option of a final combining
    statement is in the map: the output has no reader to substitute
    into. Folds check single assignment first, so a target names one
    definition.
    """
    stmts = program.statements
    reads: list[str] = []
    for st in stmts:
        if isinstance(st, Assign):
            reads.append(st.expr.in1)
            reads.append(st.expr.in2)
        else:
            reads.extend([src for _, src in st.options])
    use_count = Counter(reads)
    inline = {st.target: st for st in stmts if isinstance(st, Assign) and use_count[st.target] == 1}
    last = stmts[-1] if stmts else None
    if isinstance(last, Combine):
        for _, src in last.options:
            if src not in inline:
                raise FormatError(
                    f"statement {len(stmts)} `{last.render()}` cannot be folded: it is the "
                    f"output, so each option must be an assignment only it reads, and "
                    f"{src!r} is not"
                )
    return inline


def emit_fold(
    statements: list[Statement],
    live: Iterable[int],
    chosen: Iterable[tuple[int, str, Assign | None]],
    interned: dict[tuple[str, Op, str, str], Assign],
) -> list[Statement]:
    """The statements at the live indices, in that order, with the choices applied.

    chosen holds, in program order, (combining statement index, chosen
    source, its inline_map definition or None) for each live combining
    statement. One with a definition becomes target := definition; any
    other chosen source substitutes for the statement's target in the
    statements that read it. Untouched assignments are the program's
    own statement objects. A rewritten one is interned by (target, op,
    operands), so each distinct rewritten statement is built once per
    interned dict, whichever folds share it.
    """
    subst: dict[str, str] = {}
    inlined: dict[int, Assign] = {}
    for idx, src, definition in chosen:
        if definition is None:
            subst[statements[idx].target] = subst.get(src, src)
        else:
            inlined[idx] = definition
    get = subst.get
    out: list[Statement] = []
    for idx in live:
        st = statements[idx]
        definition = inlined.get(idx)
        expr = st.expr if definition is None else definition.expr
        in1, in2 = expr.in1, expr.in2
        new1, new2 = get(in1, in1), get(in2, in2)
        if definition is None and new1 is in1 and new2 is in2:
            out.append(st)
            continue
        key = (st.target, expr.op, new1, new2)
        assign = interned.get(key)
        if assign is None:
            assign = interned[key] = Assign(st.target, SimpleExpression(expr.op, new1, new2))
        out.append(assign)
    return out


def fold_selection(program: Program, selection: Mapping[int, int]) -> list[Statement]:
    """The live statements of program with each combining statement resolved.

    selection maps the index of each combining statement to the index
    of its chosen option; only live ones are read. One backward walk
    from the output takes selection[idx] at each live combining
    statement: an option in inline_map keeps the statement live and
    reads its definition's operands, any other reads the chosen source.
    emit_fold then resolves the live statements. Raises FormatError
    unless program passes check_single_assignment and inline_map, and
    ValueError for an out-of-range choice at a live combining statement.
    """
    check_single_assignment(program)
    inline = inline_map(program)
    stmts = program.statements
    live = {program.output}
    keep: list[int] = []
    chosen: list[tuple[int, str, Assign | None]] = []
    for idx in range(len(stmts) - 1, -1, -1):
        st = stmts[idx]
        if st.target not in live:
            continue
        if isinstance(st, Assign):
            keep.append(idx)
            expr = st.expr
        else:
            choice = selection[idx]
            if not 0 <= choice < len(st.options):
                raise ValueError(f"option index {choice} out of range at statement {idx}")
            src = st.options[choice][1]
            definition = inline.get(src)
            chosen.append((idx, src, definition))
            if definition is None:
                live.add(src)
                continue
            keep.append(idx)
            expr = definition.expr
        live.add(expr.in1)
        live.add(expr.in2)
    keep.reverse()
    chosen.reverse()
    return emit_fold(stmts, keep, chosen, {})


def _temporary_names(statements: list[Statement], fixed: set[str]) -> dict[str, str]:
    """Rename map t0, t1, ... for the targets outside fixed, in statement order.

    A name already in fixed is skipped, so no temporary collides with an
    input or const.
    """
    rename: dict[str, str] = {}
    counter = 0
    for st in statements:
        if st.target not in fixed and st.target not in rename:
            while f"t{counter}" in fixed:
                counter += 1
            rename[st.target] = f"t{counter}"
            counter += 1
    return rename


def normalize(program: Program) -> Program:
    """Canonical form: dead code removed, temporaries renumbered t0, t1, ...

    Input and const variables keep their names; unused const bindings
    are dropped. Two programs that differ only in temporary naming and
    dead statements normalize to equal values.
    """
    live = [program.statements[i] for i in live_statement_indices(program)]
    rename = _temporary_names(live, {*program.inputs, *program.consts})

    def rn(v: str) -> str:
        return rename.get(v, v)

    stmts: list[Statement] = []
    for st in live:
        if isinstance(st, Assign):
            stmts.append(
                Assign(rn(st.target), SimpleExpression(st.expr.op, rn(st.expr.in1), rn(st.expr.in2)))
            )
        else:
            stmts.append(Combine(rn(st.target), tuple((s, rn(v)) for s, v in st.options)))
    refs = referenced_vars(live)
    consts = {v: val for v, val in program.consts.items() if v in refs}
    return Program(
        inputs=list(program.inputs), statements=stmts, consts=consts, prime=program.prime
    )


def canonical_key(program: Program, with_const_values: bool = True) -> str:
    """Stable identity string for program comparisons.

    Renders normalize(program): its referenced terminals, then its
    statements. It is rendered from one liveness pass and one rename
    map, without building the normalized program. With
    with_const_values=False, const variables count as opaque named
    inputs and their values are dropped; that is the right identity for
    class membership, where one side holds the bindings and the other
    side sees the same variables as plain inputs.
    """
    live = [program.statements[i] for i in live_statement_indices(program)]
    return render_key(program, live, with_const_values)


def render_key(
    program: Program,
    stmts: list[Statement],
    with_const_values: bool = True,
    renames: dict[tuple[str, ...], dict[str, str]] | None = None,
) -> str:
    """canonical_key of program, given its live statements in order.

    A program whose statements are all live, such as a folded class
    member, passes its own statements and needs no liveness pass.
    renames, if given, caches the rename map by target order. Share one
    cache only among programs with the same inputs and consts, such as
    the members of one class.
    """
    fixed = {*program.inputs, *program.consts}
    if renames is None:
        rename = _temporary_names(stmts, fixed)
    else:
        order = tuple([st.target for st in stmts])
        rename = renames.get(order)
        if rename is None:
            rename = renames[order] = _temporary_names(stmts, fixed)
    get = rename.get
    refs: set[str] = set()
    body: list[str] = []
    for st in stmts:
        target = get(st.target, st.target)
        if isinstance(st, Assign):
            expr = st.expr
            in1, in2 = expr.in1, expr.in2
            refs.add(in1)
            refs.add(in2)
            body.append(f"{target} := {OP_NAMES[expr.op]} {get(in1, in1)} {get(in2, in2)}")
        else:
            refs.update(src for _, src in st.options)
            opts = " ".join(f"({s},{get(v, v)})" for s, v in st.options)
            body.append(f"{target} := COMBINE {opts}")
    # renaming never maps onto an input or const, so the terminals are
    # the original reads that are inputs or consts
    if with_const_values:
        parts = ["in " + ",".join(sorted(v for v in program.inputs if v in refs))]
        parts.extend(
            f"const {v}={signed(program.consts[v], program.prime)}"
            for v in sorted(program.consts)
            if v in refs
        )
    else:
        parts = ["in " + ",".join(sorted(fixed & refs))]
    return " ; ".join(parts + body)


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

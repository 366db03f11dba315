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

from .errors import FormatError, KeyMismatchError, UnboundVariableError
from .field import FIELD_PRIME, OP_BY_NAME, OP_NAMES, Op, field_ops, is_prime, parse_int, signed


# Op.X reads go through EnumType.__getattr__; a module global does not
_MUL, _ADD = Op.MUL, Op.ADD


# Statement nodes are slotted values, equal and hashed by their fields.
# Not frozen: a frozen dataclass sets each field through
# object.__setattr__, and compiling builds about k + 1 nodes per source
# statement, twice. emit_fold's interning relies on nothing writing a
# node's fields; tests/test_ir_nodes.py checks.
@dataclass(slots=True, unsafe_hash=True)
class SimpleExpression:
    """One operation applied to two input variables."""

    op: Op
    in1: str
    in2: str

    def render(self) -> str:
        return f"{OP_NAMES[self.op]} {self.in1} {self.in2}"


@dataclass(slots=True, unsafe_hash=True)
class Assign:
    target: str
    expr: SimpleExpression

    def render(self) -> str:
        return f"{self.target} := {self.expr.render()}"


@dataclass(slots=True, unsafe_hash=True)
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
        # a repeated selector collapses into one key
        if len(dict(self.options)) != len(self.options):
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

    Registers: the selectors first, in the order of the bits compile_plan
    was given, then two scratch registers, then one per variable, the
    program's inputs first. ops is the run in order as one flat list,
    four entries per operation: op, in1, in2 and target registers, read
    back with zip(it, it, it, it) over one iterator. An assignment is one
    operation, and a k-way combining statement is its 2k - 1 operations
    MUL, MUL, ADD, MUL, ADD, ... (run_statements' ADD-fold) through the
    scratch registers, the last writing its target. The program's output
    is the target of the last operation, ops[-1]. registers maps each
    variable to its register, so a run can fill them from its
    environment; inputs holds the register of each program input, in
    order, so a run can name the ones it left empty; names maps every
    register back to its selector or variable name (None for scratch),
    for error messages only.
    """

    registers: dict[str, int]
    names: tuple[str | None, ...]
    ops: list[Op | int]
    inputs: tuple[int, ...]


class _Registers(dict):
    """Variable -> register, numbering each new variable on first lookup."""

    __slots__ = ("base",)

    def __missing__(self, v: str) -> int:
        r = self[v] = self.base + len(self)
        return r


def check_bits(bits: Mapping[str, int]) -> None:
    """Raise KeyMismatchError unless every selector bit is 0 or 1."""
    values = list(bits.values())
    if values.count(0) + values.count(1) != len(values):
        sel, bit = next((s, b) for s, b in bits.items() if b not in (0, 1))
        raise KeyMismatchError(f"selector {sel} has non-binary value {bit}")


def hot_option(st: Combine, bits: Mapping[str, int]) -> int:
    """Index of the option of st that bits select; bits passed check_bits.

    Raises KeyMismatchError unless every selector of st has a bit and
    exactly one of them is 1.
    """
    try:
        picks = [bits[sel] for sel, _ in st.options]
    except KeyError:
        missing = [s for s, _ in st.options if s not in bits]
        raise KeyMismatchError(f"selectors without bits: {', '.join(missing)}") from None
    # every bit is 0 or 1, so the 1s are the hot selectors
    hot = picks.count(1)
    if hot != 1:
        group = ", ".join(s for s, _ in st.options)
        raise KeyMismatchError(f"combining statement over ({group}) has {hot} hot selectors")
    return picks.index(1)


def compile_plan(program: Program, bits: Mapping[str, int]) -> SlotPlan:
    """program as a SlotPlan whose selector registers follow bits' order.

    One pass over the statements, which also checks the key: it raises
    KeyMismatchError where obfuscate.checked_key would (check_bits, then
    hot_option at each combining statement in order), and ValueError
    for an empty program.
    """
    check_bits(bits)
    sel_reg = {s: i for i, s in enumerate(bits)}
    acc = len(sel_reg)
    term = acc + 1
    reg = _Registers()
    reg.base = term + 1
    inputs = tuple(reg[v] for v in program.inputs)  # the first variable registers
    ops: list[Op | int] = []
    extend = ops.extend
    for st in program.statements:
        if isinstance(st, Assign):
            expr = st.expr
            extend((expr.op, reg[expr.in1], reg[expr.in2], reg[st.target]))
            continue
        hot_option(st, bits)  # so sel_reg holds every selector of st
        (s0, v0), (s1, v1), *more = st.options
        extend((_MUL, sel_reg[s0], reg[v0], acc, _MUL, sel_reg[s1], reg[v1], term))
        for s, v in more:
            extend((_ADD, acc, term, acc, _MUL, sel_reg[s], reg[v], term))
        extend((_ADD, acc, term, reg[st.target]))
    if not ops:
        raise ValueError("empty program has no output")
    return SlotPlan(
        registers=dict(reg),
        names=(*sel_reg, None, None, *reg),
        ops=ops,
        inputs=inputs,
    )


def require_inputs(program: Program, bound) -> None:
    """Raise UnboundVariableError unless bound holds every program input."""
    missing = [v for v in program.inputs if v not in bound]
    if missing:
        raise unbound_inputs(missing)


def unbound_inputs(missing: list[str]) -> UnboundVariableError:
    """The error for program inputs a run leaves unbound, in input order."""
    return UnboundVariableError(f"unbound input variable(s): {', '.join(missing)}")


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


def fold_maps(
    statements: list[Statement], chosen: Iterable[tuple[int, str, Assign | None]]
) -> tuple[dict[str, str], dict[int, Assign]]:
    """emit_fold's substitution map (target -> source) and inline map (index -> definition)."""
    subst: dict[str, str] = {}
    inlined: dict[int, Assign] = {}
    for idx, src, definition in chosen:
        if definition is None:
            subst[statements[idx].target] = subst.get(src, src)
        else:
            inlined[idx] = definition
    return subst, inlined


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
    interned dict, whichever folds share it; an inlined definition
    whose operands nothing substitutes keeps its expression object.
    """
    subst, inlined = fold_maps(statements, chosen)
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
            if new1 is not in1 or new2 is not in2:
                expr = SimpleExpression(expr.op, new1, new2)
            assign = interned[key] = Assign(st.target, expr)
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


def temporary_names(statements: list[Statement], fixed: set[str]) -> dict[str, str]:
    """Rename map t0, t1, ... for the targets outside fixed, in statement order.

    A name already in fixed is skipped, so no temporary collides with an
    input or const. This is the renaming normalize and canonical_key apply.
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
    rename = temporary_names(live, {*program.inputs, *program.consts})

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


def key_line(get: Callable[[str, str], str], target: str, op: Op, in1: str, in2: str) -> str:
    """An assignment's line in a canonical key; get is its rename map's get."""
    return f"{get(target, target)} := {OP_NAMES[op]} {get(in1, in1)} {get(in2, in2)}"


def key_text(terminals: Iterable[str], body: list[str]) -> str:
    """A canonical key without const values: the terminals read, sorted, then the lines."""
    return " ; ".join(["in " + ",".join(sorted(terminals)), *body])


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
    fixed = {*program.inputs, *program.consts}
    get = temporary_names(live, fixed).get
    refs: set[str] = set()
    add = refs.add
    body: list[str] = []
    for st in live:
        if isinstance(st, Assign):
            expr = st.expr
            add(expr.in1)
            add(expr.in2)
            body.append(key_line(get, st.target, expr.op, expr.in1, expr.in2))
        else:
            refs.update(src for _, src in st.options)
            opts = " ".join(f"({s},{get(v, v)})" for s, v in st.options)
            body.append(f"{get(st.target, st.target)} := COMBINE {opts}")
    # renaming never maps onto an input or const, so the terminals are
    # the original reads that are inputs or consts
    if not with_const_values:
        return key_text(fixed & refs, body)
    parts = ["in " + ",".join(sorted(v for v in program.inputs if v in refs))]
    parts.extend(
        f"const {v}={signed(program.consts[v], program.prime)}"
        for v in sorted(program.consts)
        if v in refs
    )
    return " ; ".join(parts + body)


_COMBINE_OPT = re.compile(r"^\(([^\s,()]+),([^\s,()]+)\)$")
# the first words of header lines, which no assignment target may be read as
_HEADERS = frozenset(("prime", "input", "const"))


def render_program(program: Program) -> str:
    """Serialize to the line-oriented program format (ends with newline)."""
    lines = [f"prime {program.prime}"]
    lines.extend(f"input {v}" for v in program.inputs)
    lines.extend(
        f"const {v} = {signed(val, program.prime)}" for v, val in program.consts.items()
    )
    names = OP_NAMES
    for st in program.statements:
        if type(st) is Assign:
            expr = st.expr
            lines.append(f"{st.target} := {names[expr.op]} {expr.in1} {expr.in2}")
        else:
            lines.append(st.render())
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> Program:
    """Parse the format produced by render_program.

    The header lines may come in any order; const values are reduced by
    the program's prime once all lines are read. At most one prime line,
    and each name is declared once, as an input or as a const.
    """
    prime = None
    inputs: list[str] = []
    consts: dict[str, int] = {}
    declared: dict[str, int] = {}  # input or const name -> its line
    statements: list[Statement] = []
    append = statements.append
    op_named = OP_BY_NAME.get
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        # most lines are assignments: take them before any other form
        if len(tokens) == 5 and tokens[1] == ":=":
            target = tokens[0]
            op = op_named(tokens[2])
            if op is not None and target[0] != "#" and target not in _HEADERS:
                append(Assign(target, SimpleExpression(op, tokens[3], tokens[4])))
                continue
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] == "prime":
            if prime is not None:
                raise FormatError(f"line {lineno}: second prime line")
            try:
                (prime,) = map(parse_int, tokens[1:])
            except ValueError:  # not one token, or not an integer
                raise FormatError(f"line {lineno}: malformed prime line") from None
            if not is_prime(prime):
                raise FormatError(f"line {lineno}: field modulus {prime} is not prime")
            continue
        if tokens[0] == "input":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: malformed input line")
            _declare(declared, tokens[1], lineno)
            inputs.append(tokens[1])
            continue
        if tokens[0] == "const":
            if len(tokens) != 4 or tokens[2] != "=":
                raise FormatError(f"line {lineno}: malformed const line")
            _declare(declared, tokens[1], lineno)
            try:
                consts[tokens[1]] = parse_int(tokens[3])
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
                opts.append(m.groups())
            if len(opts) < 2:
                raise FormatError(f"line {lineno}: combining statement needs two options")
            try:
                append(Combine(target, tuple(opts)))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            continue
        if len(tokens) != 5:
            raise FormatError(f"line {lineno}: expected '<target> := OP v1 v2'")
        # the assignment branch above took every known operation
        raise FormatError(f"line {lineno}: unknown operation {tokens[2]!r}")
    if not statements:
        raise FormatError("program has no statements")
    if prime is None:
        prime = FIELD_PRIME
    consts = {v: val % prime for v, val in consts.items()}
    return Program(inputs=inputs, statements=statements, consts=consts, prime=prime)


def _declare(declared: dict[str, int], name: str, lineno: int) -> None:
    """Note that line lineno declares name; a second declaration is a FormatError."""
    first = declared.setdefault(name, lineno)
    if first != lineno:
        raise FormatError(f"line {lineno}: {name!r} is declared twice (first on line {first})")

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

A Program stores its statements as quadruples (Aho, Lam, Sethi &
Ullman, Compilers, 2nd ed., section 6.2): four parallel columns, and
a side table for the combining statements, and Program.from_columns
is its only constructor. Assign, SimpleExpression and Combine are a
read-only node view of one statement, which Program.statements builds
for the benchmark harness; they go once it reads the columns (ROADMAP
item 1b). Nothing in the package builds a node otherwise.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Any

from .errors import FormatError, KeyMismatchError, SelectcError, UnboundVariableError
from .field import FIELD_PRIME, OP_BY_NAME, OP_NAMES, Op, field_ops, is_prime, parse_int, signed


# Op.X reads go through EnumType.__getattr__; a module global does not
_MUL, _ADD = Op.MUL, Op.ADD


# Statement nodes: the view Program.statements returns, kept only until
# the benchmark harness reads the columns (ROADMAP item 1b). They are
# slotted values, equal and hashed by their fields. Not frozen: a frozen
# dataclass sets each field through object.__setattr__.
# tests/test_ir_nodes.py checks that nothing writes a node's fields.
@dataclass(slots=True, unsafe_hash=True)
class SimpleExpression:
    """One operation applied to two input variables (node view only)."""

    op: Op
    in1: str
    in2: str


@dataclass(slots=True, unsafe_hash=True)
class Assign:
    """target := expr (node view only)."""

    target: str
    expr: SimpleExpression


@dataclass(slots=True, unsafe_hash=True)
class Combine:
    """target := sum over options of selector * source (node view only).

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


Statement = Assign | Combine
# A combining statement's entry in Program.combines: its k selectors,
# then its k sources, in option order. One flat tuple is one object for
# the cyclic GC to count per statement, where a pair of tuples is three.
Options = tuple[str, ...]


def selectors(options: Options) -> tuple[str, ...]:
    """The selectors of a combining statement's Program.combines entry."""
    return options[: len(options) >> 1]


def sources(options: Options) -> tuple[str, ...]:
    """The sources of a combining statement's Program.combines entry."""
    return options[len(options) >> 1 :]


@dataclass(slots=True, init=False)
class Program:
    """Statements as quadruple columns plus the interface they run against.

    columns is (ops, in1, in2, targets), four tuples with one entry per
    statement. Statement i assigns targets[i] := ops[i] in1[i] in2[i],
    or, where ops[i] is None (and in1[i] and in2[i] are too), it is the
    combining statement targets[i] := COMBINE over combines[i], that
    statement's Options. combines holds the combining statements in
    program order. Nothing edits a program in place: build a new one
    with Program.from_columns, the only constructor.

    inputs:  variables the caller must bind before evaluation.
    consts:  hoisted literal bindings carried with the program.
    The output is the target of the last statement.
    """

    inputs: list[str]
    columns: tuple[tuple, tuple, tuple, tuple]
    combines: dict[int, Options]
    consts: dict[str, int]
    prime: int

    @classmethod
    def from_columns(
        cls,
        inputs: list[str],
        ops: Iterable[Op | None],
        in1: Iterable[str | None],
        in2: Iterable[str | None],
        targets: Iterable[str],
        combines: dict[int, Options] | None = None,
        consts: dict[str, int] | None = None,
        prime: int = FIELD_PRIME,
    ) -> Program:
        """The program with these columns, as the class docstring lays them out."""
        program = cls.__new__(cls)
        program.inputs = inputs
        program.columns = (tuple(ops), tuple(in1), tuple(in2), tuple(targets))
        program.combines = combines or {}
        program.consts = {} if consts is None else consts
        program.prime = prime
        return program

    def __len__(self) -> int:
        return len(self.columns[3])

    @property
    def output(self) -> str:
        targets = self.columns[3]
        if not targets:
            raise ValueError("empty program has no output")
        return targets[-1]

    @property
    def statements(self) -> list[Statement]:
        """The statements as nodes, built anew on every read.

        Only the benchmark harness reads this view; it goes with the
        node classes (ROADMAP item 1b).
        """
        combines = self.combines
        return [
            Assign(t, SimpleExpression(op, a, b))
            if op is not None
            else Combine(t, tuple(zip(selectors(combines[i]), sources(combines[i]))))
            for i, (op, a, b, t) in enumerate(zip(*self.columns))
        ]

    def operands(self, i: int) -> tuple[str, ...]:
        """The variables statement i reads, in order."""
        ops, in1, in2, _ = self.columns
        return sources(self.combines[i]) if ops[i] is None else (in1[i], in2[i])

    def selector_ids(self) -> list[str]:
        """Selector variables of all combining statements, in first-use order."""
        return list(dict.fromkeys(chain.from_iterable(map(selectors, self.combines.values()))))


def run_statements(
    program: Program,
    indices: Iterable[int],
    env: dict[str, Any],
    bits: dict[str, Any],
    ops: Mapping[Op, Callable[[Any, Any], Any]],
) -> dict[str, Any]:
    """Run the statements at indices, in that order, over env and return it, extended.

    eval_env and crypto.run_program pass every index, the latter as an
    iterator whose position names the statement that raised; the KPA
    walk passes one of its segments of the obfuscated program
    (attack._MemberCones), a statement or two on most calls. Values are
    field elements and ops is the field table of their prime
    (field.field_ops). An assignment is ops[op](a, b). A combining
    statement is the ADD-fold of MUL(selector, source) over all of its
    options, with no short-circuit of any kind. A selector's value
    is looked up in bits first, then among the program's variables.
    Nothing here checks the program's inputs: field_env has.
    """
    op_column, in1_column, in2_column, targets = program.columns
    for i in indices:
        op = op_column[i]
        if op is not None:
            try:
                a = env[in1_column[i]]
                b = env[in2_column[i]]
            except KeyError as exc:
                raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
            env[targets[i]] = ops[op](a, b)
            continue
        # option j's selector is options[j] and its source options[k + j]
        options = program.combines[i]
        k = len(options) >> 1
        mul, add = ops[_MUL], ops[_ADD]
        acc = None
        for j in range(k):
            sel = options[j]
            bit = bits[sel] if sel in bits else env.get(sel)
            if bit is None:
                raise UnboundVariableError(f"unbound selector {sel!r}")
            try:
                value = env[options[k + j]]
            except KeyError:
                raise UnboundVariableError(f"unbound variable {options[k + j]!r}") from None
            term = mul(bit, value)
            acc = term if acc is None else add(acc, term)
        env[targets[i]] = acc
    return env


def check_bits(bits: Mapping[str, int]) -> None:
    """Raise KeyMismatchError unless every selector bit is 0 or 1."""
    values = list(bits.values())
    if values.count(0) + values.count(1) != len(values):
        sel, bit = next((s, b) for s, b in bits.items() if b not in (0, 1))
        raise KeyMismatchError(f"selector {sel} has non-binary value {bit}")


def hot_option(sels: Sequence[str], bits: Mapping[str, int]) -> int:
    """Index of the option a combining statement's bits select; bits passed check_bits.

    sels are the statement's selectors. Raises KeyMismatchError unless
    every one of them has a bit and exactly one of them is 1.
    """
    try:
        picks = list(map(bits.__getitem__, sels))
    except KeyError:
        missing = [s for s in sels if s not in bits]
        raise KeyMismatchError(f"selectors without bits: {', '.join(missing)}") from None
    # every bit is 0 or 1, so the 1s are the hot selectors
    hot = picks.count(1)
    if hot != 1:
        raise KeyMismatchError(
            f"combining statement over ({', '.join(sels)}) has {hot} hot selectors"
        )
    return picks.index(1)


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
    missing = [v for v in program.inputs if v not in env]
    if missing:
        raise unbound_inputs(missing)
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
    env = field_env(program, inputs)
    return run_statements(program, range(len(program)), env, sel, field_ops(prime))


def eval_plain(
    program: Program,
    inputs: dict[str, int],
    selectors: dict[str, int] | None = None,
) -> int:
    """Evaluate the program and return the value of its output variable."""
    return eval_env(program, inputs, selectors)[program.output]


def check_single_assignment(program: Program) -> None:
    """Raise FormatError unless each statement reads only inputs, consts
    and earlier targets, and assigns a name nothing else assigns."""
    defined = {*program.inputs, *program.consts}
    ops, in1, in2, targets = program.columns
    combines = program.combines
    for i, target in enumerate(targets):
        if ops[i] is None:
            unread = not defined.issuperset(sources(combines[i]))
        else:
            unread = in1[i] not in defined or in2[i] not in defined
        if unread:
            v = next(v for v in program.operands(i) if v not in defined)
            raise FormatError(f"statement {i + 1} reads {v!r} before it is assigned")
        if target in defined:
            raise FormatError(f"statement {i + 1} assigns {target!r} again")
        defined.add(target)


def referenced_vars(program: Program) -> set[str]:
    """Every variable some statement of program reads."""
    _, in1, in2, _ = program.columns
    refs = {*in1, *in2}
    refs.discard(None)
    for options in program.combines.values():
        refs.update(sources(options))
    return refs


def live_statement_indices(program: Program) -> list[int]:
    """Indices of statements whose targets reach the output, in order."""
    ops, in1, in2, targets = program.columns
    if not targets:
        return []
    combines = program.combines
    live = {targets[-1]}
    keep: list[int] = []
    for idx in range(len(targets) - 1, -1, -1):
        if targets[idx] in live:
            keep.append(idx)
            if ops[idx] is None:
                live.update(sources(combines[idx]))
            else:
                live.add(in1[idx])
                live.add(in2[idx])
    keep.reverse()
    return keep


def inline_map(program: Program) -> dict[str, int]:
    """The assignments a fold inlines, target -> index: those read exactly once.

    A combining statement whose chosen option is one of these becomes
    target := that definition, and the definition goes; any other
    chosen source substitutes for the statement's target in what reads
    it. Raises FormatError unless every option of a final combining
    statement is in the map: the output has no reader to substitute
    into. Folds check single assignment first, so a target names one
    definition.
    """
    ops, in1, in2, targets = program.columns
    combines = program.combines
    reads = [*in1, *in2]
    for options in combines.values():
        reads += sources(options)
    use_count = Counter(reads)
    inline = {t: i for i, t in enumerate(targets) if use_count[t] == 1 and ops[i] is not None}
    last = len(targets) - 1
    if last in combines:
        options = combines[last]
        for src in sources(options):
            if src not in inline:
                raise FormatError(
                    f"statement {last + 1} `{_combine_line(targets[last], options)}` cannot "
                    f"be folded: it is the output, so each option must be an assignment only "
                    f"it reads, and {src!r} is not"
                )
    return inline


# a live combining statement's fold choice: its index, its chosen source
# and that source's inline_map index, or None if the source substitutes
Chosen = tuple[int, str, int | None]


def fold_maps(
    targets: Sequence[str], chosen: Iterable[Chosen]
) -> tuple[dict[str, str], dict[int, int]]:
    """emit_fold's substitution map (target -> source) and inline map
    (combining statement index -> index of the definition it takes)."""
    subst: dict[str, str] = {}
    inlined: dict[int, int] = {}
    for idx, src, definition in chosen:
        if definition is None:
            subst[targets[idx]] = subst.get(src, src)
        else:
            inlined[idx] = definition
    return subst, inlined


def emit_fold(
    program: Program, live: list[int], chosen: Iterable[Chosen]
) -> tuple[list[Op], list[str], list[str], list[str]]:
    """The columns of the statements at the live indices, in that order,
    with the choices applied.

    chosen holds, in program order, a Chosen for each live combining
    statement. One with a definition becomes target := definition; any
    other chosen source substitutes for the statement's target in the
    statements that read it. A fold has no combining statement left.
    """
    ops, in1, in2, targets = program.columns
    subst, inlined = fold_maps(targets, chosen)
    get = subst.get
    source = [inlined.get(i, i) for i in live] if inlined else live
    return (
        [ops[i] for i in source],
        [get(v, v) for v in map(in1.__getitem__, source)],
        [get(v, v) for v in map(in2.__getitem__, source)],
        [targets[i] for i in live],
    )


def fold_selection(
    program: Program, selection: Mapping[int, int]
) -> tuple[list[Op], list[str], list[str], list[str]]:
    """The columns of program's live statements with each combining statement resolved.

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
    ops, in1, in2, targets = program.columns
    combines = program.combines
    live = {program.output}
    keep: list[int] = []
    chosen: list[Chosen] = []
    for idx in range(len(targets) - 1, -1, -1):
        if targets[idx] not in live:
            continue
        source = idx
        if ops[idx] is None:
            srcs = sources(combines[idx])
            choice = selection[idx]
            if not 0 <= choice < len(srcs):
                raise ValueError(f"option index {choice} out of range at statement {idx}")
            src = srcs[choice]
            source = inline.get(src)
            chosen.append((idx, src, source))
            if source is None:
                live.add(src)
                continue
        keep.append(idx)
        live.add(in1[source])
        live.add(in2[source])
    keep.reverse()
    chosen.reverse()
    return emit_fold(program, keep, chosen)


def temporary_names(targets: Iterable[str], fixed: set[str]) -> dict[str, str]:
    """Rename map t0, t1, ... for the targets outside fixed, in order.

    A name already in fixed is skipped, so no temporary collides with an
    input or const. This is the renaming normalize and canonical_key apply.
    """
    rename: dict[str, str] = {}
    counter = 0
    for target in targets:
        if target not in fixed and target not in rename:
            while f"t{counter}" in fixed:
                counter += 1
            rename[target] = f"t{counter}"
            counter += 1
    return rename


def normalize(program: Program) -> Program:
    """Canonical form: dead code removed, temporaries renumbered t0, t1, ...

    Input and const variables keep their names; unused const bindings
    are dropped. Two programs that differ only in temporary naming and
    dead statements normalize to equal values.
    """
    live = live_statement_indices(program)
    ops, in1, in2, targets = program.columns
    get = temporary_names([targets[i] for i in live], {*program.inputs, *program.consts}).get
    reads = [in1[i] for i in live] + [in2[i] for i in live]
    combines: dict[int, Options] = {}
    for n, i in enumerate(live):
        if ops[i] is None:
            options = program.combines[i]
            srcs = sources(options)
            reads += srcs
            combines[n] = selectors(options) + tuple(get(v, v) for v in srcs)
    # renaming never maps onto a const, so a const is read before renaming or not at all
    consts = {v: val for v, val in program.consts.items() if v in set(reads)}
    return Program.from_columns(
        list(program.inputs),
        [ops[i] for i in live],
        [None if v is None else get(v, v) for v in map(in1.__getitem__, live)],
        [None if v is None else get(v, v) for v in map(in2.__getitem__, live)],
        [get(v, v) for v in map(targets.__getitem__, live)],
        combines,
        consts,
        program.prime,
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
    live = live_statement_indices(program)
    ops, in1, in2, targets = program.columns
    fixed = {*program.inputs, *program.consts}
    get = temporary_names([targets[i] for i in live], fixed).get
    refs: set[str] = set()
    add = refs.add
    body: list[str] = []
    for i in live:
        op = ops[i]
        if op is not None:
            add(in1[i])
            add(in2[i])
            body.append(key_line(get, targets[i], op, in1[i], in2[i]))
        else:
            options = program.combines[i]
            srcs = sources(options)
            refs.update(srcs)
            renamed = selectors(options) + tuple(get(v, v) for v in srcs)
            body.append(_combine_line(get(targets[i], targets[i]), renamed))
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


def _combine_line(target: str, options: Options) -> str:
    return _combine_format(len(options) >> 1).format(target, *options)


def _combine_format(k: int) -> str:
    """The format of a k-way combining statement's line, from its target and Options."""
    return "{0} := COMBINE " + " ".join(f"({{{j + 1}}},{{{k + j + 1}}})" for j in range(k))


# what no variable name may hold: whitespace splits a line into tokens,
# and parentheses and commas split a combining statement's options
_NAME_BREAKS = r"\s,()"
_NAME = rf"[^{_NAME_BREAKS}]+"  # a name parse_program reads back
_NAME_BREAK = re.compile(rf"[{_NAME_BREAKS}]")
_COMBINE_OPT = re.compile(rf"^\(({_NAME}),({_NAME})\)$")
# a combining statement's options, joined by single spaces
_COMBINE_OPTS = re.compile(rf"\({_NAME},{_NAME}\)(?: \({_NAME},{_NAME}\))*")
# the first words of header lines, which no assignment target may be read as
# (nor may it begin with "#", which starts a comment; see check_targets)
_HEADERS = frozenset(("prime", "input", "const"))


def check_names(names: Sequence[str], what: str, error: type[SelectcError]) -> None:
    """Raise error, naming the first of names that parse_program could not
    read back, unless there is none. One scan checks them all."""
    if all(names) and not _NAME_BREAK.search("".join(names)):
        return
    name = next(v for v in names if not v or _NAME_BREAK.search(v))
    raise error(
        f"{what} {name!r} cannot be read back from a program file: "
        "a name is not empty and holds no whitespace, '(', ')' or ','"
    )


def check_targets(targets: Sequence[str], error: type[SelectcError]) -> None:
    """Raise error, naming the first of targets that parse_program would read
    as a comment or a header line rather than as a statement, unless there
    is none."""
    for target in targets:
        if target[:1] == "#" or target in _HEADERS:
            raise error(
                f"target {target!r} cannot be read back from a program file: "
                "a target does not begin with '#' and is not 'prime', 'input' or 'const'"
            )


def render_program(program: Program) -> str:
    """Serialize to the line-oriented program format (ends with newline)."""
    lines = [f"prime {program.prime}"]
    lines.extend(f"input {v}" for v in program.inputs)
    lines.extend(
        f"const {v} = {signed(val, program.prime)}" for v, val in program.consts.items()
    )
    names = OP_NAMES
    ops, in1, in2, targets = program.columns
    lines += [
        f"{t} := {names[op]} {a} {b}" if op is not None else ""
        for op, a, b, t in zip(ops, in1, in2, targets)
    ]
    at = len(lines) - len(targets)
    formats: dict[int, str] = {}  # option count -> _combine_format, made once per render
    for i, options in program.combines.items():
        k = len(options) >> 1
        line = formats.get(k) or formats.setdefault(k, _combine_format(k))
        lines[at + i] = line.format(targets[i], *options)
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
    ops: list[Op | None] = []
    in1: list[str | None] = []
    in2: list[str | None] = []
    targets: list[str] = []
    combines: dict[int, Options] = {}
    add_op, add_in1, add_in2, add_target = ops.append, in1.append, in2.append, targets.append
    op_named = OP_BY_NAME.get
    headers = _HEADERS
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        # most lines are assignments: take them before any other form
        if len(tokens) == 5 and tokens[1] == ":=":
            target, _, name, a, b = tokens
            op = op_named(name)
            if op is not None and target[0] != "#" and target not in headers:
                add_op(op)
                add_in1(a)
                add_in2(b)
                add_target(target)
                continue
        # then combining statements, under the same guards: a target that
        # starts with "#" is a comment, and one that is a header word is a
        # malformed header line
        if len(tokens) > 2 and tokens[2] == "COMBINE" and tokens[1] == ":=":
            target = tokens[0]
            if target[0] != "#" and target not in headers:
                opts = " ".join(tokens[3:])
                if not _COMBINE_OPTS.fullmatch(opts):
                    for tok in tokens[3:]:
                        if not _COMBINE_OPT.match(tok):
                            raise FormatError(f"line {lineno}: malformed combine option {tok!r}")
                if len(tokens) < 5:
                    raise FormatError(f"line {lineno}: combining statement needs two options")
                # "(s0,a) (s1,b)" -> "s0,a,s1,b" -> its selectors and options
                halves = opts.replace(") (", ",")[1:-1].split(",")
                sels = halves[::2]
                if len(set(sels)) != len(sels):
                    raise FormatError(
                        f"line {lineno}: combining statement selectors must be distinct"
                    )
                combines[len(targets)] = tuple(sels + halves[1::2])
                add_op(None)
                add_in1(None)
                add_in2(None)
                add_target(target)
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
        if len(tokens) != 5:
            raise FormatError(f"line {lineno}: expected '<target> := OP v1 v2'")
        # the assignment branch above took every known operation
        raise FormatError(f"line {lineno}: unknown operation {tokens[2]!r}")
    if not targets:
        raise FormatError("program has no statements")
    if prime is None:
        prime = FIELD_PRIME
    consts = {v: val % prime for v, val in consts.items()}
    return Program.from_columns(inputs, ops, in1, in2, targets, combines, consts, prime)


def _declare(declared: dict[str, int], name: str, lineno: int) -> None:
    """Note that line lineno declares name; a second declaration is a FormatError."""
    first = declared.setdefault(name, lineno)
    if first != lineno:
        raise FormatError(f"line {lineno}: {name!r} is declared twice (first on line {first})")

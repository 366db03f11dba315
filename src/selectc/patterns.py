"""Pattern mining over expression-tree corpora.

Misleading statements blend in best when they are drawn from the same
statistical distribution as real code, so this module counts three
pattern families in corpora of expression trees:

  * operators: how often each binary/unary operator appears;
  * integer constants: which literal values occur with which operator
    in binary expressions ("plus 1", "minus 1", ...);
  * structure: the kind composition of expressions ("NameE plus
    IntegerLiteralE", "assign MethodCallE", "not NameE", ...).

Trees use a front-end-neutral format (kind label, optional operator,
optional literal value, children), so any language front end can dump
corpora; a bridge from the toy surface language is included. Aggregation
across corpora reports relative frequencies with mean and population
standard deviation per pattern, rows sorted by first-corpus frequency.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from . import surface
from .errors import ConfigError, FormatError

INT_LITERAL_KIND = "IntegerLiteralE"

# Deepest node a .trees file may hold (the root is depth 0). Reading and
# mining recurse once or twice per level, so this keeps them well inside
# Python's stack.
MAX_TREE_DEPTH = 200

# Printed operator labels for the toy surface language, matching the
# naming style pattern corpora use for Java-like sources.
SURFACE_BINARY_NAMES = {
    "+": "plus",
    "-": "minus",
    "*": "times",
    "/": "divide",
    "==": "equals",
    "!=": "notEquals",
    "<": "less",
    "<=": "lessEquals",
    ">": "greater",
    ">=": "greaterEquals",
}
SURFACE_UNARY_NAMES = {"-": "minus", "not": "not"}

# Bridge from printed operator labels to the three-address operation
# names, so a mined table can weight misleading-statement generation
# and candidate ranking, which both live in three-address terms.
IR_NAME_FOR = {
    "plus": "ADD",
    "minus": "SUB",
    "times": "MUL",
    "divide": "DIV",
    "equals": "EQ",
    "notEquals": "NEQ",
    "less": "LT",
    "lessEquals": "LE",
    "greater": "GT",
    "greaterEquals": "GE",
}


@dataclass(frozen=True)
class ExprTree:
    """One expression-tree node.

    kind is a free-form label ("NameE", "BinaryE", "MethodCallE", ...).
    Operator-bearing nodes set op and carry one child (unary) or two
    (binary); integer literals set value.
    """

    kind: str
    op: str | None = None
    value: int | None = None
    children: tuple["ExprTree", ...] = ()


def _check_node(node: ExprTree) -> None:
    if node.kind == "BinaryE" and (node.op is None or len(node.children) != 2):
        raise FormatError("BinaryE nodes need an operator and exactly 2 children")
    if node.kind == "UnaryE" and (node.op is None or len(node.children) != 1):
        raise FormatError("UnaryE nodes need an operator and exactly 1 child")
    if node.op is not None and len(node.children) not in (1, 2):
        raise FormatError(
            f"operator node {node.op!r} has {len(node.children)} children, expected 1 or 2"
        )
    if node.kind == INT_LITERAL_KIND and node.value is None:
        raise FormatError("integer literal node has no value")


@dataclass
class PatternTable:
    """Counts for the three pattern families of one corpus."""

    operator_counts: Counter = field(default_factory=Counter)
    int_const_counts: Counter = field(default_factory=Counter)
    structural_counts: Counter = field(default_factory=Counter)

    def families(self) -> dict[str, Counter]:
        return {
            "operators": self.operator_counts,
            "integer constants": self.int_const_counts,
            "structural": self.structural_counts,
        }

    def totals(self) -> dict[str, int]:
        return {name: sum(c.values()) for name, c in self.families().items()}

    def merge(self, other: "PatternTable") -> "PatternTable":
        return PatternTable(
            operator_counts=self.operator_counts + other.operator_counts,
            int_const_counts=self.int_const_counts + other.int_const_counts,
            structural_counts=self.structural_counts + other.structural_counts,
        )

    def ir_operator_counts(self) -> Counter:
        """Operator counts rekeyed to three-address operation names.

        Printed labels translate through IR_NAME_FOR; keys already in
        three-address form, and labels with no counterpart, pass
        through unchanged.
        """
        out: Counter = Counter()
        for name, count in self.operator_counts.items():
            out[IR_NAME_FOR.get(name, name)] += count
        return out


def mine(corpus: Iterable[ExprTree]) -> PatternTable:
    """Count all three pattern families over every node of the corpus.

    Structural keys are `<op> <childKind>` for unary nodes and
    `<leftKind> <op> <rightKind>` for binary ones; assignments keep
    only the right-hand kind (`assign <rightKind>`), since their left
    side is fixed by the language. Integer-constant keys are
    `<op> <value>`, one count per literal child of a binary node.
    """
    pt = PatternTable()
    stack = list(corpus)
    stack.reverse()
    while stack:
        node = stack.pop()
        _check_node(node)
        if node.op is not None:
            pt.operator_counts[node.op] += 1
            if len(node.children) == 1:
                pt.structural_counts[f"{node.op} {node.children[0].kind}"] += 1
            else:
                left, right = node.children
                if node.op == "assign":
                    key = f"assign {right.kind}"
                else:
                    key = f"{left.kind} {node.op} {right.kind}"
                pt.structural_counts[key] += 1
                for child in node.children:
                    if child.kind == INT_LITERAL_KIND:
                        pt.int_const_counts[f"{node.op} {child.value}"] += 1
        stack.extend(reversed(node.children))
    return pt


def merge_tables(tables: Iterable[PatternTable]) -> PatternTable:
    merged = PatternTable()
    for t in tables:
        merged = merged.merge(t)
    return merged


# --------------------------------------------------------- aggregation

@dataclass(frozen=True)
class AggregateRow:
    key: str
    counts: tuple[int, ...]
    pcts: tuple[float, ...]
    mean: float
    std: float


@dataclass
class AggregateTable:
    names: tuple[str, ...]
    rows: dict[str, list[AggregateRow]]


def aggregate(
    tables: list[PatternTable], names: list[str] | None = None
) -> AggregateTable:
    """Cross-corpus statistics per pattern key.

    Percentages are relative within each corpus and family; mean and
    population standard deviation are taken over the unrounded
    percentages. Rows sort by first-corpus count descending, key
    ascending on ties.
    """
    if not tables:
        raise ConfigError("aggregate needs at least one pattern table")
    if names is None:
        names = [f"corpus{i + 1}" for i in range(len(tables))]
    if len(names) != len(tables):
        raise ConfigError("one name per table required")
    rows: dict[str, list[AggregateRow]] = {}
    n = len(tables)
    for family in tables[0].families():
        counters = [t.families()[family] for t in tables]
        totals = [sum(c.values()) for c in counters]
        keys = sorted({k for c in counters for k in c})
        family_rows = []
        for key in keys:
            counts = tuple(c.get(key, 0) for c in counters)
            pcts = tuple(
                100.0 * cnt / tot if tot else 0.0 for cnt, tot in zip(counts, totals)
            )
            mean = math.fsum(pcts) / n
            std = math.sqrt(math.fsum((x - mean) ** 2 for x in pcts) / n)
            family_rows.append(
                AggregateRow(key=key, counts=counts, pcts=pcts, mean=mean, std=std)
            )
        family_rows.sort(key=lambda r: (-r.counts[0], r.key))
        rows[family] = family_rows
    return AggregateTable(names=tuple(names), rows=rows)


def export_table(agg: AggregateTable) -> str:
    """Delimited text rendering of an aggregate table.

    One section per family; each row prints the percentage rounded to
    an integer with the absolute count in brackets per corpus, then
    mean and standard deviation to one decimal.
    """
    lines: list[str] = []
    header = " | ".join(["pattern", *agg.names, "mean", "std"])
    for family, rows in agg.rows.items():
        lines.append(f"# {family}")
        lines.append(header)
        for row in rows:
            cells = [f"{round(pct)}({cnt})" for pct, cnt in zip(row.pcts, row.counts)]
            lines.append(
                " | ".join([row.key, *cells, f"{row.mean:.1f}", f"{row.std:.1f}"])
            )
        lines.append("")
    return "\n".join(lines)


# ------------------------------------------------------- serialization

_FAMILY_TAGS = {
    "operator": "operator_counts",
    "intconst": "int_const_counts",
    "structural": "structural_counts",
}


def render_table(pt: PatternTable) -> str:
    """Reloadable counts format: `<family> | <key> | <count>` lines."""
    lines = []
    for tag, attr in _FAMILY_TAGS.items():
        counter: Counter = getattr(pt, attr)
        for key, count in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{tag} | {key} | {count}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> PatternTable:
    pt = PatternTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected `family | key | count`")
        tag, key, count_text = parts
        if tag not in _FAMILY_TAGS:
            raise FormatError(f"line {lineno}: unknown pattern family {tag!r}")
        try:
            count = int(count_text)
        except ValueError:
            raise FormatError(f"line {lineno}: count {count_text!r} is not an integer")
        if count < 0 or not key:
            raise FormatError(f"line {lineno}: bad pattern row")
        getattr(pt, _FAMILY_TAGS[tag])[key] += count
    return pt


def write_table(path: str, pt: PatternTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_table(pt))


def read_table(path: str) -> PatternTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read())


def render_trees(trees: Iterable[ExprTree]) -> str:
    """Indented one-node-per-line tree format."""
    lines: list[str] = []

    def emit(node: ExprTree, depth: int) -> None:
        bits = [node.kind]
        if node.op is not None:
            bits.append(f"op={node.op}")
        if node.value is not None:
            bits.append(f"value={node.value}")
        lines.append("  " * depth + " ".join(bits))
        for child in node.children:
            emit(child, depth + 1)

    for tree in trees:
        emit(tree, 0)
    return "\n".join(lines) + "\n"


def parse_trees(text: str) -> list[ExprTree]:
    # [kind, op, value, children] records; children lists are mutated
    # while parsing, then frozen bottom-up.
    stack: list[tuple[int, list]] = []
    roots: list[list] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            raise FormatError(f"line {lineno}: indentation must be a multiple of 2")
        depth = indent // 2
        if depth > MAX_TREE_DEPTH:
            raise FormatError(f"line {lineno}: tree deeper than {MAX_TREE_DEPTH} levels")
        kind = None
        op = None
        value = None
        for token in raw.split():
            if token.startswith("op="):
                op = token[3:]
            elif token.startswith("value="):
                try:
                    value = int(token[6:])
                except ValueError:
                    raise FormatError(f"line {lineno}: bad literal value")
            elif kind is None:
                kind = token
            else:
                raise FormatError(f"line {lineno}: unexpected token {token!r}")
        if kind is None:
            raise FormatError(f"line {lineno}: node kind missing")
        entry = [kind, op, value, []]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0:
            roots.append(entry)
        elif not stack or stack[-1][0] != depth - 1:
            raise FormatError(f"line {lineno}: node at depth {depth} has no parent")
        else:
            stack[-1][1][3].append(entry)
        stack.append((depth, entry))

    def build(entry: list) -> ExprTree:
        kind, op, value, children = entry
        return ExprTree(
            kind=kind, op=op, value=value, children=tuple(build(c) for c in children)
        )

    return [build(r) for r in roots]


def write_trees(path: str, trees: Iterable[ExprTree]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_trees(trees))


def read_trees(path: str) -> list[ExprTree]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trees(fh.read())


# ------------------------------------------------ surface-language bridge

def _expr_tree(e: surface.Expr) -> ExprTree:
    if isinstance(e, surface.Lit):
        return ExprTree(INT_LITERAL_KIND, value=e.value)
    if isinstance(e, surface.Name):
        return ExprTree("NameE")
    if isinstance(e, surface.Index):
        return ExprTree(
            "ArrayAccessE", children=(ExprTree("NameE"), _expr_tree(e.index))
        )
    if isinstance(e, surface.Unary):
        return ExprTree(
            "UnaryE", op=SURFACE_UNARY_NAMES[e.op], children=(_expr_tree(e.operand),)
        )
    if isinstance(e, surface.Binary):
        return ExprTree(
            "BinaryE",
            op=SURFACE_BINARY_NAMES[e.op],
            children=(_expr_tree(e.left), _expr_tree(e.right)),
        )
    raise FormatError(f"unknown expression node {type(e).__name__}")


def _stmt_trees(st: surface.Stmt) -> list[ExprTree]:
    if isinstance(st, surface.AssignStmt):
        return [
            ExprTree(
                "AssignE",
                op="assign",
                children=(_expr_tree(st.target), _expr_tree(st.value)),
            )
        ]
    if isinstance(st, surface.IfStmt):
        trees = [_expr_tree(st.cond)]
        for s in st.then:
            trees.extend(_stmt_trees(s))
        for s in st.orelse:
            trees.extend(_stmt_trees(s))
        return trees
    if isinstance(st, surface.ForStmt):
        trees = _stmt_trees(st.init)
        trees.append(_expr_tree(st.cond))
        for s in st.body:
            trees.extend(_stmt_trees(s))
        trees.extend(_stmt_trees(st.step))
        return trees
    raise FormatError(f"unknown statement node {type(st).__name__}")


def from_surface(sp: surface.SurfaceProgram) -> list[ExprTree]:
    """Expression trees for every statement of a surface program."""
    trees: list[ExprTree] = []
    for st in sp.statements:
        trees.extend(_stmt_trees(st))
    return trees

"""Surface language: parsing, printing, and reference interpretation.

The grammar is a small imperative notation:

    array a[3]
    m := a[0]
    for (x := 1; x < y; x := x + 1) bound 3 {
        if (m < a[x]) { m := a[x] }
    }

Statements are assignments (':=' or '='), if/else with brace blocks or
the inline 'then' form, and for loops that must carry a 'bound N'
annotation giving the maximum iteration count. Arrays are fixed size
and must be declared before use. Literals are decimal integers,
optionally negative. '#' starts a comment that runs to end of line.

The reference interpreter executes over the same prime field as the
lowered form and stops every loop after its declared bound, so it
agrees with the unrolled three-address program on all inputs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ParseError, UnboundVariableError
from .field import FIELD_PRIME, Op, apply_op, signed

_CMP_OPS = {"==": Op.EQ, "!=": Op.NEQ, "<": Op.LT, "<=": Op.LE, ">": Op.GT, ">=": Op.GE}
_ADD_OPS = {"+": Op.ADD, "-": Op.SUB}
_MUL_OPS = {"*": Op.MUL, "/": Op.DIV}
SURFACE_OPS = {**_CMP_OPS, **_ADD_OPS, **_MUL_OPS}

_KEYWORDS = {"if", "else", "then", "for", "bound", "array", "not"}

# Deepest nesting the parser accepts. Each statement, expression (so each
# parenthesis or index) and unary operator opens one level. Parsing,
# lowering and interpretation recurse a few times per level, so this
# keeps them well inside Python's stack. Operator chains do not nest:
# they parse left-deep, and every expression walker loops over a chain
# (see left_spine) instead of recursing once per operator.
MAX_NESTING = 100

# Largest array the parser accepts, in cells. Lowering names every cell,
# and an index that is not a literal scans every cell with three
# statements, so a larger array could be read that way only a few times
# before lowering's statement cap.
MAX_ARRAY_SIZE = 10_000


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Index:
    array: str
    index: "Expr"


@dataclass(frozen=True)
class Unary:
    op: str  # '-' or 'not'
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Lit | Name | Index | Unary | Binary


def left_spine(e: Expr) -> tuple[Expr, list[Binary]]:
    """e's leftmost operand that is not a Binary, and the chain above it.

    The chain lists the Binary nodes from the innermost (the leftmost
    operator) out to e itself, so a walker can fold it in evaluation
    order and recurse only into right operands.
    """
    chain: list[Binary] = []
    while isinstance(e, Binary):
        chain.append(e)
        e = e.left
    chain.reverse()
    return e, chain


@dataclass
class AssignStmt:
    target: Name | Index
    value: Expr


@dataclass
class IfStmt:
    cond: Expr
    then: list["Stmt"]
    orelse: list["Stmt"]


@dataclass
class ForStmt:
    init: AssignStmt
    cond: Expr
    step: AssignStmt
    bound: int
    body: list["Stmt"]


Stmt = AssignStmt | IfStmt | ForStmt


@dataclass
class SurfaceProgram:
    arrays: dict[str, int]
    statements: list[Stmt]


# ---------------------------------------------------------------- tokens

@dataclass(frozen=True)
class _Token:
    kind: str  # 'name', 'int', 'sym', 'eof'
    text: str
    line: int
    col: int


_SYMBOLS = (":=", "==", "!=", "<=", ">=", "<", ">", "=", "+", "-", "*", "/",
            "(", ")", "{", "}", "[", "]", ";", "!")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit() is also true for '²' and '٣'
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(_Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, col))
            col += i - start
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arrays: dict[str, int] = {}
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def int_value(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise self.fail(f"integer literal of {len(tok.text)} digits is too long", tok) from None

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise self.fail(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")

    def parse_program(self) -> SurfaceProgram:
        statements: list[Stmt] = []
        while self.peek().kind != "eof":
            if self.at("array"):
                self.parse_array_decl()
            else:
                statements.append(self.parse_statement())
        if not statements:
            raise self.fail("program has no statements")
        return SurfaceProgram(arrays=dict(self.arrays), statements=statements)

    def parse_array_decl(self) -> None:
        self.expect("array")
        name_tok = self.next()
        if name_tok.kind != "name" or name_tok.text in _KEYWORDS:
            raise self.fail("expected array name", name_tok)
        self.expect("[")
        size_tok = self.next()
        if size_tok.kind != "int":
            raise self.fail("expected array size literal", size_tok)
        self.expect("]")
        size = self.int_value(size_tok)
        if size < 1:
            raise self.fail("array size must be positive", size_tok)
        if size > MAX_ARRAY_SIZE:
            raise self.fail(f"array size above {MAX_ARRAY_SIZE} cells", size_tok)
        if name_tok.text in self.arrays:
            raise self.fail(f"array {name_tok.text!r} declared twice", name_tok)
        self.arrays[name_tok.text] = size

    def parse_statement(self) -> Stmt:
        self.enter()
        tok = self.peek()
        if tok.text == "if":
            st = self.parse_if()
        elif tok.text == "for":
            st = self.parse_for()
        else:
            st = self.parse_assign()
        self.depth -= 1
        return st

    def parse_assign(self) -> AssignStmt:
        target = self.parse_lvalue()
        op = self.next()
        if op.text not in (":=", "="):
            raise self.fail("expected ':=' in assignment", op)
        value = self.parse_expr()
        return AssignStmt(target, value)

    def parse_lvalue(self) -> Name | Index:
        tok = self.next()
        if tok.kind != "name" or tok.text in _KEYWORDS:
            raise self.fail("expected variable name", tok)
        return self.name_or_cell(tok)

    def name_or_cell(self, tok: _Token) -> Name | Index:
        """The variable tok names, or an array cell if '[' follows."""
        if self.at("["):
            if tok.text not in self.arrays:
                raise self.fail(f"array {tok.text!r} used before declaration", tok)
            self.next()
            idx = self.parse_expr()
            self.expect("]")
            return Index(tok.text, idx)
        if tok.text in self.arrays:
            raise self.fail(f"array {tok.text!r} used without an index", tok)
        return Name(tok.text)

    def parse_if(self) -> IfStmt:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        if self.at("then"):
            self.next()
            then = [self.parse_statement()]
            orelse: list[Stmt] = []
            if self.at("else"):
                self.next()
                orelse = [self.parse_statement()]
        else:
            then = self.parse_block()
            orelse = []
            if self.at("else"):
                self.next()
                orelse = self.parse_block()
        return IfStmt(cond, then, orelse)

    def parse_for(self) -> ForStmt:
        self.expect("for")
        self.expect("(")
        init = self.parse_assign()
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        step = self.parse_assign()
        self.expect(")")
        if not self.at("bound"):
            raise self.fail("for loop requires a 'bound N' annotation")
        self.next()
        bound_tok = self.next()
        if bound_tok.kind != "int":
            raise self.fail("expected loop bound literal", bound_tok)
        bound = self.int_value(bound_tok)
        if bound < 1:
            raise self.fail("loop bound must be positive", bound_tok)
        body = self.parse_block()
        return ForStmt(init, cond, step, bound, body)

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        body: list[Stmt] = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise self.fail("unterminated block")
            body.append(self.parse_statement())
        self.expect("}")
        return body

    def parse_expr(self) -> Expr:
        self.enter()
        left = self.parse_additive()
        if self.peek().text in _CMP_OPS:
            op = self.next().text
            right = self.parse_additive()
            left = Binary(op, left, right)
        self.depth -= 1
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.peek().text in _ADD_OPS:
            op = self.next().text
            right = self.parse_multiplicative()
            left = Binary(op, left, right)
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.peek().text in _MUL_OPS:
            op = self.next().text
            right = self.parse_unary()
            left = Binary(op, left, right)
        return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.text not in ("-", "!", "not"):
            return self.parse_atom()
        self.next()
        self.enter()
        operand = self.parse_unary()
        self.depth -= 1
        if tok.text != "-":
            return Unary("not", operand)
        if isinstance(operand, Lit):
            return Lit(-operand.value)
        return Unary("-", operand)

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "int":
            return Lit(self.int_value(tok))
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "name" and tok.text not in _KEYWORDS:
            return self.name_or_cell(tok)
        raise self.fail(f"unexpected token {tok.text or 'end of input'!r}", tok)


def parse_surface(text: str) -> SurfaceProgram:
    return _Parser(text).parse_program()


# ---------------------------------------------------------------- printer

def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        if e.op in _CMP_OPS:
            return 1
        if e.op in _ADD_OPS:
            return 2
        return 3
    if isinstance(e, Unary):
        return 4
    return 5


def render_expr(e: Expr) -> str:
    e, chain = left_spine(e)
    if isinstance(e, Lit):
        text = str(e.value)
    elif isinstance(e, Name):
        text = e.ident
    elif isinstance(e, Index):
        text = f"{e.array}[{render_expr(e.index)}]"
    else:
        inner = render_expr(e.operand)
        if _prec(e.operand) < 4:
            inner = f"({inner})"
        text = f"-{inner}" if e.op == "-" else f"not {inner}"
    for node in chain:
        right = render_expr(node.right)
        # comparisons do not chain, so a comparison child needs parens on
        # either side; arithmetic is left-associative, so only on the right
        if _prec(node.left) < _prec(node) or (_prec(node) == 1 and _prec(node.left) == 1):
            text = f"({text})"
        if _prec(node.right) <= _prec(node):
            right = f"({right})"
        text = f"{text} {node.op} {right}"
    return text


def _render_assign(st: AssignStmt) -> str:
    """An assignment's text; its target is a name or an array cell."""
    return f"{render_expr(st.target)} := {render_expr(st.value)}"


def _render_stmt(st: Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(st, AssignStmt):
        out.append(pad + _render_assign(st))
    elif isinstance(st, IfStmt):
        out.append(f"{pad}if ({render_expr(st.cond)}) {{")
        for inner in st.then:
            _render_stmt(inner, indent + 1, out)
        if st.orelse:
            out.append(f"{pad}}} else {{")
            for inner in st.orelse:
                _render_stmt(inner, indent + 1, out)
        out.append(f"{pad}}}")
    else:
        init, step = _render_assign(st.init), _render_assign(st.step)
        out.append(f"{pad}for ({init}; {render_expr(st.cond)}; {step}) bound {st.bound} {{")
        for inner in st.body:
            _render_stmt(inner, indent + 1, out)
        out.append(f"{pad}}}")


def render_surface(sp: SurfaceProgram) -> str:
    out: list[str] = [f"array {name}[{size}]" for name, size in sp.arrays.items()]
    for st in sp.statements:
        _render_stmt(st, 0, out)
    return "\n".join(out) + "\n"


# ----------------------------------------------------------- interpreter

def walk_statements(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Every statement in stmts and in their blocks, in textual order.

    An if comes before its branches, and a for before its init, step
    and body, since its header is textually before its body.
    """
    stack = list(reversed(stmts))
    while stack:
        st = stack.pop()
        yield st
        if isinstance(st, IfStmt):
            stack += reversed(st.orelse)
            stack += reversed(st.then)
        elif isinstance(st, ForStmt):
            stack += reversed(st.body)
            stack += (st.step, st.init)


def result_variable(sp: SurfaceProgram) -> str:
    """Scalar assigned by the textually last assignment in the program."""
    last: str | None = None
    for st in walk_statements(sp.statements):
        if isinstance(st, AssignStmt) and isinstance(st.target, Name):
            last = st.target.ident
    if last is None:
        raise UnboundVariableError("program never assigns a scalar result")
    return last


class _Interp:
    """Direct executor used as the differential-testing reference.

    Cell variables live in the environment under their lowered names
    ('a[0]'), so the same input dictionary drives both this interpreter
    and the lowered program. Out-of-range dynamic reads produce 0 and
    out-of-range dynamic writes are dropped, matching the one-hot sum
    the lowered form computes.
    """

    def __init__(self, sp: SurfaceProgram, bindings: dict[str, int], prime: int):
        self.sp = sp
        self.prime = prime
        self.env: dict[str, int] = {}
        self.bindings = {k: v % prime for k, v in bindings.items()}

    def read(self, var: str) -> int:
        if var in self.env:
            return self.env[var]
        if var in self.bindings:
            self.env[var] = self.bindings[var]
            return self.env[var]
        raise UnboundVariableError(f"unbound variable {var!r}")

    def eval(self, e: Expr) -> int:
        e, chain = left_spine(e)
        if isinstance(e, Lit):
            v = e.value % self.prime
        elif isinstance(e, Name):
            v = self.read(e.ident)
        elif isinstance(e, Index):
            idx = signed(self.eval(e.index), self.prime)
            size = self.sp.arrays[e.array]
            v = self.read(f"{e.array}[{idx}]") if 0 <= idx < size else 0
        else:
            v = self.eval(e.operand)
            v = (-v) % self.prime if e.op == "-" else apply_op(Op.SUB, 1, v, self.prime)
        for node in chain:
            v = apply_op(SURFACE_OPS[node.op], v, self.eval(node.right), self.prime)
        return v

    def assign(self, st: AssignStmt) -> None:
        value = self.eval(st.value)
        if isinstance(st.target, Name):
            self.env[st.target.ident] = value
            return
        idx = signed(self.eval(st.target.index), self.prime)
        size = self.sp.arrays[st.target.array]
        if 0 <= idx < size:
            self.env[f"{st.target.array}[{idx}]"] = value

    def run(self, stmts: list[Stmt]) -> None:
        for st in stmts:
            if isinstance(st, AssignStmt):
                self.assign(st)
            elif isinstance(st, IfStmt):
                if signed(self.eval(st.cond), self.prime) != 0:
                    self.run(st.then)
                else:
                    self.run(st.orelse)
            else:
                self.assign(st.init)
                iterations = 0
                while iterations < st.bound and signed(self.eval(st.cond), self.prime) != 0:
                    self.run(st.body)
                    self.assign(st.step)
                    iterations += 1


def interpret(sp: SurfaceProgram, bindings: dict[str, int], prime: int = FIELD_PRIME) -> int:
    """Run the program directly and return the value of its result variable."""
    interp = _Interp(sp, bindings, prime)
    interp.run(sp.statements)
    return signed(interp.read(result_variable(sp)), prime)

"""Lowering from the surface language to three-address statements.

Control flow is compiled away so that every statement always executes:

  * if/else lowers each branch into straight-line code against a forked
    environment, then joins every variable the branches changed with
    the arithmetic select  v := c*v_then + (1-c)*v_else.
  * for loops unroll to their declared bound. A cumulative activity bit
    (AND of all condition values so far) guards each iteration, so the
    unrolled form exits exactly where the surface loop would.
  * array reads with a data-dependent index become the one-hot sum
    sum_i EQ(idx, i) * a[i]; data-dependent writes blend every cell
    against an EQ mask the same way. Out-of-range indices therefore
    read 0 and write nothing.

Integer literals are hoisted into fresh const variables, so the emitted
statements contain variables only. Scalars and array cells that are
read before ever being written become the program's inputs, in first
read order. Conditions are coerced to a 0/1 bit with NEQ against zero
unless they are already comparisons.
"""

from __future__ import annotations

from .errors import LowerError
from .field import FIELD_PRIME, Op
from .ir import Assign, Program, SimpleExpression
from .surface import (
    AssignStmt,
    Binary,
    Expr,
    ForStmt,
    IfStmt,
    Index,
    Lit,
    Name,
    Stmt,
    SurfaceProgram,
    Unary,
    _CMP_OPS,
    SURFACE_OPS,
    left_spine,
    result_variable,
    walk_statements,
)

# Largest lowered program, in statements. Unrolling stops with a
# LowerError once it passes this, so a huge loop bound fails fast instead
# of exhausting time and memory. No program in the test suite or the
# benchmark has more than about 3,700 statements.
MAX_STATEMENTS = 100_000


def _surface_identifiers(sp: SurfaceProgram) -> set[str]:
    names: set[str] = set()
    for arr, size in sp.arrays.items():
        names.add(arr)
        names.update(f"{arr}[{i}]" for i in range(size))

    exprs: list[Expr] = []
    for st in walk_statements(sp.statements):
        if isinstance(st, AssignStmt):
            if isinstance(st.target, Name):
                names.add(st.target.ident)
            else:
                exprs.append(st.target.index)
            exprs.append(st.value)
        else:
            exprs.append(st.cond)
    while exprs:
        e = exprs.pop()
        if isinstance(e, Name):
            names.add(e.ident)
        elif isinstance(e, Index):
            exprs.append(e.index)
        elif isinstance(e, Unary):
            exprs.append(e.operand)
        elif isinstance(e, Binary):
            exprs += (e.left, e.right)
    return names


class _Lowerer:
    def __init__(self, sp: SurfaceProgram, prime: int):
        self.sp = sp
        self.prime = prime
        self.reserved = _surface_identifiers(sp)
        self.stmts: list[Assign] = []
        self.env: dict[str, str] = {}
        self.inputs: list[str] = []
        self._input_set: set[str] = set()
        self.const_vars: dict[int, str] = {}
        self.const_bindings: dict[str, int] = {}
        self.temp_n = 0
        self.const_n = 0

    def fresh(self) -> str:
        while True:
            name = f"t{self.temp_n}"
            self.temp_n += 1
            if name not in self.reserved:
                return name

    def const(self, value: int) -> str:
        value %= self.prime
        if value in self.const_vars:
            return self.const_vars[value]
        while True:
            name = f"k{self.const_n}"
            self.const_n += 1
            if name not in self.reserved:
                break
        self.const_vars[value] = name
        self.const_bindings[name] = value
        return name

    def emit(self, op: Op, a: str, b: str) -> str:
        if len(self.stmts) == MAX_STATEMENTS:
            raise LowerError(f"lowered program exceeds {MAX_STATEMENTS} statements")
        t = self.fresh()
        self.stmts.append(Assign(t, SimpleExpression(op, a, b)))
        return t

    def read(self, key: str) -> str:
        if key in self.env:
            return self.env[key]
        # first read before any write: the variable is an input
        if key not in self._input_set:
            self._input_set.add(key)
            self.inputs.append(key)
        self.env[key] = key
        return key

    # -------------------------------------------------------- expressions

    def eval_expr(self, e: Expr) -> str:
        e, chain = left_spine(e)
        if isinstance(e, Lit):
            v = self.const(e.value)
        elif isinstance(e, Name):
            v = self.read(e.ident)
        elif isinstance(e, Index):
            v = self.eval_index(e)
        else:
            v = self.eval_expr(e.operand)
            v = self.emit(Op.SUB, self.const(0 if e.op == "-" else 1), v)
        for node in chain:
            v = self.emit(SURFACE_OPS[node.op], v, self.eval_expr(node.right))
        return v

    def eval_index(self, e: Index) -> str:
        size = self.sp.arrays[e.array]
        if isinstance(e.index, Lit):
            if not 0 <= e.index.value < size:
                raise LowerError(
                    f"index {e.index.value} out of range for array {e.array}[{size}]"
                )
            return self.read(f"{e.array}[{e.index.value}]")
        idx = self.eval_expr(e.index)
        acc: str | None = None
        for i in range(size):
            mask = self.emit(Op.EQ, idx, self.const(i))
            term = self.emit(Op.MUL, mask, self.read(f"{e.array}[{i}]"))
            acc = term if acc is None else self.emit(Op.ADD, acc, term)
        assert acc is not None
        return acc

    def as_bit(self, e: Expr) -> str:
        v = self.eval_expr(e)
        if isinstance(e, Binary) and e.op in _CMP_OPS:
            return v
        return self.emit(Op.NEQ, v, self.const(0))

    def blend(self, bit: str, when_true: str, when_false: str) -> str:
        t1 = self.emit(Op.MUL, bit, when_true)
        nb = self.emit(Op.SUB, self.const(1), bit)
        t2 = self.emit(Op.MUL, nb, when_false)
        return self.emit(Op.ADD, t1, t2)

    # --------------------------------------------------------- statements

    def do_assign(self, st: AssignStmt) -> None:
        value = self.eval_expr(st.value)
        if isinstance(st.target, Name):
            self.env[st.target.ident] = value
            return
        arr = st.target.array
        size = self.sp.arrays[arr]
        if isinstance(st.target.index, Lit):
            i = st.target.index.value
            if not 0 <= i < size:
                raise LowerError(f"index {i} out of range for array {arr}[{size}]")
            self.env[f"{arr}[{i}]"] = value
            return
        idx = self.eval_expr(st.target.index)
        for i in range(size):
            mask = self.emit(Op.EQ, idx, self.const(i))
            old = self.read(f"{arr}[{i}]")
            self.env[f"{arr}[{i}]"] = self.blend(mask, value, old)

    def join(self, bit: str, env_true: dict[str, str], env_false: dict[str, str],
             env_before: dict[str, str]) -> None:
        def resolve(env: dict[str, str], key: str) -> str:
            if key in env:
                return env[key]
            # branch left the variable untouched: fall back to the
            # value before the fork, registering an input if needed
            saved = self.env
            self.env = env_before
            try:
                return self.read(key)
            finally:
                self.env = saved

        for key in dict.fromkeys(list(env_true) + list(env_false)):
            tv = resolve(env_true, key)
            fv = resolve(env_false, key)
            # a first read inside one fork is not a divergence; blend
            # only when the branches really hold different values
            if tv == fv:
                self.env[key] = tv
            else:
                self.env[key] = self.blend(bit, tv, fv)

    def do_if(self, st: IfStmt) -> None:
        bit = self.as_bit(st.cond)
        before = dict(self.env)
        self.env = dict(before)
        self.do_stmts(st.then)
        env_then = self.env
        self.env = dict(before)
        self.do_stmts(st.orelse)
        env_else = self.env
        self.env = dict(before)
        self.join(bit, env_then, env_else, before)

    def do_for(self, st: ForStmt) -> None:
        self.do_assign(st.init)
        active: str | None = None
        for _ in range(st.bound):
            cond = self.as_bit(st.cond)
            active = cond if active is None else self.emit(Op.MUL, active, cond)
            before = dict(self.env)
            self.env = dict(before)
            self.do_stmts(st.body)
            self.do_assign(st.step)
            env_iter = self.env
            self.env = dict(before)
            self.join(active, env_iter, before, before)

    def do_stmts(self, stmts: list[Stmt]) -> None:
        for st in stmts:
            if isinstance(st, AssignStmt):
                self.do_assign(st)
            elif isinstance(st, IfStmt):
                self.do_if(st)
            else:
                self.do_for(st)

    def lower(self) -> Program:
        self.do_stmts(self.sp.statements)
        result = result_variable(self.sp)
        out = self.env.get(result)
        if out is None:
            raise LowerError(f"result variable {result!r} is never assigned")
        if not self.stmts or self.stmts[-1].target != out:
            # pin the program output to the last statement's target
            self.emit(Op.MUL, out, self.const(1))
        return Program(
            inputs=list(self.inputs),
            statements=list(self.stmts),
            consts=dict(self.const_bindings),
            prime=self.prime,
        )


def lower(sp: SurfaceProgram, prime: int = FIELD_PRIME) -> Program:
    """Compile a surface program to an equivalent three-address program."""
    return _Lowerer(sp, prime).lower()

"""Surface language: tokenizer, parser, renderer, reference interpreter."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from selectc.errors import ParseError, UnboundVariableError
from selectc.generate import random_surface_program
from selectc.surface import (
    MAX_ARRAY_SIZE,
    AssignStmt,
    Binary,
    ForStmt,
    IfStmt,
    Index,
    Lit,
    Name,
    Unary,
    interpret,
    parse_surface,
    render_surface,
    result_variable,
    walk_statements,
)

TASK1 = "if (y != 0) then r := x / y else r := -9999\n"
TASK2 = (
    "array a[4]\n"
    "m := a[0]\n"
    "for (x := 0; x < y; x := x + 1) bound 4 {\n"
    "    if (m >= a[x]) then m := a[x]\n"
    "}\n"
)


def test_parse_simple_assign():
    sp = parse_surface("r := x + 1\n")
    (st,) = sp.statements
    assert isinstance(st, AssignStmt)
    assert st.target == Name("r")
    assert st.value == Binary("+", Name("x"), Lit(1))


def test_equals_sign_also_assigns():
    a = parse_surface("r := x + 1\n")
    b = parse_surface("r = x + 1\n")
    assert a.statements == b.statements


def test_precedence_mul_over_add_over_cmp():
    sp = parse_surface("r := a + b * c < d\n")
    (st,) = sp.statements
    assert st.value == Binary(
        "<", Binary("+", Name("a"), Binary("*", Name("b"), Name("c"))), Name("d")
    )


def test_parens_override_precedence():
    sp = parse_surface("r := (a + b) * c\n")
    (st,) = sp.statements
    assert st.value == Binary("*", Binary("+", Name("a"), Name("b")), Name("c"))


def test_unary_minus_and_not():
    sp = parse_surface("r := -x\ns := not (x < y)\n")
    assert sp.statements[0].value == Unary("-", Name("x"))
    assert sp.statements[1].value == Unary("not", Binary("<", Name("x"), Name("y")))


def test_if_then_single_statement_form():
    sp = parse_surface(TASK1)
    (st,) = sp.statements
    assert isinstance(st, IfStmt)
    assert len(st.then) == 1 and len(st.orelse) == 1


def test_if_block_form():
    sp = parse_surface("if (x < 0) { r := 0 - x } else { r := x }\n")
    (st,) = sp.statements
    assert isinstance(st, IfStmt)


def test_for_bound_annotation_required():
    with pytest.raises(ParseError):
        parse_surface("for (i := 0; i < n; i := i + 1) { s := s + i }\n")


def test_for_parses_header_and_bound():
    sp = parse_surface(TASK2)
    loop = sp.statements[1]
    assert isinstance(loop, ForStmt)
    assert loop.bound == 4
    assert loop.init.target == Name("x")


def test_array_declaration_and_indexing():
    sp = parse_surface(TASK2)
    assert sp.arrays == {"a": 4}
    first = sp.statements[0]
    assert first.value == Index("a", Lit(0))


def test_array_size_is_capped():
    assert parse_surface(f"array a[{MAX_ARRAY_SIZE}]\nr := a[0]\n").arrays == {"a": MAX_ARRAY_SIZE}
    for size in (MAX_ARRAY_SIZE + 1, 10**20):
        with pytest.raises(ParseError, match="array size above"):
            parse_surface(f"array a[{size}]\nr := a[0]\n")


@pytest.mark.parametrize(
    "text",
    [
        "array a[{n}]\nr := a[0]\n",
        "r := {n} + x\n",
        "for (i := 0; i < x; i := i + 1) bound {n} {{ r := i }}\n",
    ],
    ids=["array", "literal", "bound"],
)
def test_integer_literal_beyond_int_conversion_is_a_parse_error(text):
    with pytest.raises(ParseError, match="5000 digits is too long"):
        parse_surface(text.format(n="9" * 5000))


def test_array_use_without_index_rejected():
    with pytest.raises(ParseError):
        parse_surface("array a[2]\nr := a\n")


def test_undeclared_array_rejected():
    with pytest.raises(ParseError):
        parse_surface("r := a[0]\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_surface("r := +\n")
    assert e.value.line == 1


CELL_COUNTER = "array a[2]\nfor (a[0] := 0; a[0] < 2; a[0] := a[0] + 1) bound 2 { r := a[0] }\n"


def test_render_parse_round_trip():
    for src in (TASK1, TASK2, "r := not x\ns := -(a + b) * c\n", CELL_COUNTER):
        sp = parse_surface(src)
        assert parse_surface(render_surface(sp)) == sp


def test_a_loop_counter_may_be_an_array_cell():
    sp = parse_surface(CELL_COUNTER)
    assert render_surface(sp) == (
        "array a[2]\n"
        "for (a[0] := 0; a[0] < 2; a[0] := a[0] + 1) bound 2 {\n"
        "    r := a[0]\n"
        "}\n"
    )
    assert interpret(sp, {"a[0]": 5, "a[1]": 0}) == 1


def _cell_counters(sp):
    """sp with each top-level loop counting in an array cell instead of its variable."""
    arrays = sp.arrays or {"c": 1}
    cell = Index(next(iter(arrays)), Lit(0))
    statements = [
        dataclasses.replace(
            st,
            init=AssignStmt(cell, st.init.value),
            cond=dataclasses.replace(st.cond, left=cell),
            step=AssignStmt(cell, dataclasses.replace(st.step.value, left=cell)),
        )
        if isinstance(st, ForStmt)
        else st
        for st in sp.statements
    ]
    return dataclasses.replace(sp, arrays=arrays, statements=statements)


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), cells=hst.booleans())
def test_render_parse_round_trips_random_programs(seed, cells):
    sp = random_surface_program(random.Random(seed), max_statements=12)
    if cells:
        sp = _cell_counters(sp)
    assert parse_surface(render_surface(sp)) == sp


def test_result_variable_is_last_textual_assign():
    assert result_variable(parse_surface("a := 1\nb := 2\n")) == "b"
    # loop body assigns after the header, so task 2's result is m
    assert result_variable(parse_surface(TASK2)) == "m"


def test_result_variable_ignores_array_targets():
    sp = parse_surface("array a[2]\nr := 1\na[0] := 2\n")
    assert result_variable(sp) == "r"


def test_interpret_task1():
    sp = parse_surface(TASK1)
    assert interpret(sp, {"x": 12, "y": 4}) == 3
    assert interpret(sp, {"x": 12, "y": 0}) == -9999


def test_interpret_task2_finds_minimum():
    sp = parse_surface(TASK2)
    env = {"a[0]": 7, "a[1]": 3, "a[2]": 9, "a[3]": 5, "y": 4}
    assert interpret(sp, env) == 3
    # y limits how much of the array is scanned
    env["y"] = 2
    assert interpret(sp, env) == 3
    env["y"] = 1
    assert interpret(sp, env) == 7


def test_interpret_missing_binding_raises():
    with pytest.raises(UnboundVariableError):
        interpret(parse_surface("r := x + 1\n"), {})


def test_comments_run_to_the_end_of_the_line():
    sp = parse_surface("# header\nr := x # trailing := ; {\n# footer")
    assert sp.statements == [AssignStmt(Name("r"), Name("x"))]


def test_walk_statements_is_textual_order():
    sp = parse_surface(
        "a := 1\n"
        "if (a) { b := 2 } else { c := 3 }\n"
        "for (i := 0; i < 2; i := i + 1) bound 2 { if (i) then d := 4 }\n"
        "e := 5\n"
    )
    names = []
    for st in walk_statements(sp.statements):
        names.append(st.target.ident if isinstance(st, AssignStmt) else type(st).__name__)
    assert names == ["a", "IfStmt", "b", "c", "ForStmt", "i", "i", "IfStmt", "d", "e"]
    assert result_variable(sp) == "e"

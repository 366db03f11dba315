"""Lowering surface programs to straight-line three-address code.

The key property is agreement with the reference interpreter on every
program the generator can produce: branches become selector blends,
loops unroll to their bound, array accesses become oblivious scans.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from selectc.errors import LowerError
from selectc.field import FIELD_PRIME, Op
from selectc.generate import random_inputs, random_surface_program
from selectc.demos import TASK1_SOURCE, TASK2_SOURCE
from selectc.ir import Assign, eval_plain, render_program
from selectc.lower import lower
from selectc.surface import interpret, parse_surface

TASK1 = "if (y != 0) then r := x / y else r := -9999\n"


def both(src, env):
    sp = parse_surface(src)
    return interpret(sp, env), eval_plain(lower(sp), env)


def test_task1_lowers_to_six_statements():
    p = lower(parse_surface(TASK1))
    assert len(p.statements) == 6
    ops = [st.expr.op for st in p.statements]
    assert ops == [Op.NEQ, Op.DIV, Op.MUL, Op.SUB, Op.MUL, Op.ADD]
    assert sorted(p.inputs) == ["x", "y"]  # first-read order is y then x
    assert len(p.consts) == 3


def test_task1_both_branch_values():
    for env, want in (({"x": 12, "y": 4}, 3), ({"x": 12, "y": 0}, -9999 % FIELD_PRIME)):
        i, l = both(TASK1, env)
        assert l == i % FIELD_PRIME == want % FIELD_PRIME


def test_straight_line_passthrough():
    p = lower(parse_surface("r := x * x + y\n"))
    assert all(isinstance(st, Assign) for st in p.statements)
    assert eval_plain(p, {"x": 3, "y": 4}) == 13


def test_if_conversion_runs_both_sides():
    # division by zero on the untaken side must not corrupt the result
    src = "if (y != 0) then r := x / y else r := 0\n"
    i, l = both(src, {"x": 10, "y": 0})
    assert l == i % FIELD_PRIME == 0


def test_if_without_else_keeps_old_value():
    src = "r := 5\nif (x > 0) then r := 1\n"
    assert both(src, {"x": 3}) == (1, 1)
    assert both(src, {"x": -3})[1] == 5


def test_nested_ifs():
    src = (
        "r := 0\n"
        "if (x > 0) {\n"
        "    if (y > 0) then r := 1 else r := 2\n"
        "} else {\n"
        "    r := 3\n"
        "}\n"
    )
    for env, want in (
        ({"x": 1, "y": 1}, 1),
        ({"x": 1, "y": -1}, 2),
        ({"x": -1, "y": 9}, 3),
    ):
        assert both(src, env) == (want, want)


def test_loop_unrolls_to_bound():
    src = "s := 0\nfor (i := 0; i < n; i := i + 1) bound 4 {\n    s := s + i\n}\n"
    for n, want in ((0, 0), (2, 1), (4, 6)):
        assert both(src, {"n": n}) == (want, want)


def test_loop_bound_caps_iterations():
    # n beyond the bound: both sides stop after 4 trips
    src = "s := 0\nfor (i := 0; i < n; i := i + 1) bound 4 {\n    s := s + 1\n}\n"
    assert both(src, {"n": 100}) == (4, 4)


def test_oblivious_array_read_dynamic_index():
    src = "array a[4]\nr := a[j]\n"
    env = {"a[0]": 10, "a[1]": 20, "a[2]": 30, "a[3]": 40, "j": 2}
    assert both(src, env) == (30, 30)


def test_oblivious_array_write_dynamic_index():
    src = "array a[3]\na[j] := 99\nr := a[0] + a[1] + a[2]\n"
    env = {"a[0]": 1, "a[1]": 2, "a[2]": 3, "j": 1}
    assert both(src, env) == (1 + 99 + 3, 1 + 99 + 3)


def test_unwritten_cells_become_inputs():
    p = lower(parse_surface("array a[2]\nr := a[0] + a[1]\n"))
    assert set(p.inputs) == {"a[0]", "a[1]"}


def test_written_cells_are_not_inputs():
    p = lower(parse_surface("array a[2]\na[0] := 5\nr := a[0] + a[1]\n"))
    assert set(p.inputs) == {"a[1]"}


def test_not_lowers_to_complement():
    src = "r := not (x < 3)\n"
    assert both(src, {"x": 1}) == (0, 0)
    assert both(src, {"x": 5}) == (1, 1)


def test_out_of_range_literal_index_rejected():
    with pytest.raises(LowerError):
        lower(parse_surface("array a[2]\nr := a[5]\n"))


def test_task2_minimum_search():
    src = (
        "array a[4]\n"
        "m := a[0]\n"
        "for (x := 0; x < y; x := x + 1) bound 4 {\n"
        "    if (m >= a[x]) then m := a[x]\n"
        "}\n"
    )
    env = {"a[0]": 7, "a[1]": 3, "a[2]": 9, "a[3]": 5, "y": 4}
    assert both(src, env) == (3, 3)


def test_differential_random_programs():
    """Interpreter and lowered code agree on 60 generated programs."""
    gen = random.Random(20260819)
    for case in range(60):
        sp = random_surface_program(gen, max_statements=8)
        p = lower(sp)
        for _ in range(5):
            env = random_inputs(p, gen, small=True)
            assert eval_plain(p, env) == interpret(sp, env) % FIELD_PRIME, (
                case,
                env,
            )


@settings(max_examples=30, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), small=hst.booleans())
def test_lowering_agrees_with_interpret(seed, small):
    """eval_plain(lower(sp), env) == interpret(sp, env) mod p, for random
    programs and inputs drawn from a narrow range or from the whole field."""
    gen = random.Random(seed)
    sp = random_surface_program(gen, max_statements=8)
    p = lower(sp)
    env = random_inputs(p, gen, small=small)
    assert eval_plain(p, env) == interpret(sp, env) % FIELD_PRIME


# conditions that are not comparisons lower through NEQ against zero
NON_COMPARISON_CONDITIONS = [
    "if (x) then r := 1 else r := 2\n",
    "if (x - y) { r := x } else { r := y }\n",
    "r := 5\nif (-x) then r := x + 1\n",
    "if (not x) then r := 3 else r := x * 2\n",
    "if (x * y + 1) then r := x else r := y - x\n",
    "array a[3]\nif (a[x]) then r := 1 else r := a[1]\n",
    "s := 0\nfor (i := 0; x - i; i := i + 1) bound 5 { s := s + i }\nr := s\n",
    "r := 0\nfor (i := 0; y - i; i := i + 1) bound 4 { if (i - x) then r := r + i }\n",
]


@pytest.mark.parametrize("src", NON_COMPARISON_CONDITIONS, ids=range(8))
def test_non_comparison_conditions_agree_with_interpret(src):
    sp = parse_surface(src)
    p = lower(sp)
    for x in range(-3, 4):
        for y in range(-3, 5):
            env = {"x": x, "y": y, "a[0]": 0, "a[1]": 7, "a[2]": -2}
            assert eval_plain(p, env) == interpret(sp, env) % FIELD_PRIME, (x, y)


# sha256 over render_program(lower(...)) of random_surface_program for
# seeds 0-399, then of the two demo tasks, each text encoded as UTF-8
LOWERED_DIGEST = "e448a59784b468c08bd2fa73074838e54e48ad8ec5ece7635e0622f97f1a78cb"


def test_lowered_text_is_pinned():
    """Lowering writes the same bytes for 400 seeded programs and both demo tasks."""
    digest = hashlib.sha256()
    sources = [random_surface_program(random.Random(seed)) for seed in range(400)]
    sources += [parse_surface(TASK1_SOURCE), parse_surface(TASK2_SOURCE)]
    for sp in sources:
        digest.update(render_program(lower(sp)).encode())
    assert digest.hexdigest() == LOWERED_DIGEST

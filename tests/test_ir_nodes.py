"""Statement nodes are values that nothing changes after they are built.

Assign, SimpleExpression and Combine are not frozen dataclasses (a frozen
one pays object.__setattr__ per field on every construction), so the
immutability that their hashing relies on is checked here, on the
package source, instead.
"""

import ast
import pathlib

import pytest

import selectc
from selectc.field import Op
from selectc.ir import Assign, Combine, SimpleExpression

NODE_FIELDS = {"target", "expr", "op", "in1", "in2", "options"}
SOURCES = sorted(pathlib.Path(selectc.__file__).parent.glob("*.py"))


def _written(targets):
    """The expressions that targets write, through tuple, list and star unpacking."""
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _written(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _written([target.value])
        else:
            yield target


def _mutations(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each write to a node field name and each setattr call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor, ast.comprehension)):
            targets = [node.target]
        elif isinstance(node, ast.withitem):
            targets = [node.optional_vars] if node.optional_vars else []
        else:
            targets = []
        for target in _written(targets):
            if isinstance(target, ast.Attribute) and target.attr in NODE_FIELDS:
                found.append((target.lineno, f"writes .{target.attr}"))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "setattr":
                found.append((node.lineno, "calls setattr"))
            elif isinstance(func, ast.Attribute) and func.attr == "__setattr__":
                found.append((node.lineno, "calls __setattr__"))
    return found


def test_the_package_source_is_found():
    assert {path.name for path in SOURCES} >= {"ir.py", "obfuscate.py", "attack.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_mutates_a_statement_node(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _mutations(tree) == []


@pytest.mark.parametrize(
    "code",
    [
        "st.target = 'r'",
        "st.expr.in1 = 'x'",
        "a, st.op = 1, 2",
        "for st.target in names: pass",
        "[0 for st.in1 in names]",
        "with lock as st.expr: pass",
        "[*st.options] = pairs",
        "st.options += (('s2', 'u'),)",
        "st.in2: str = 'y'",
        "del st.expr",
        "setattr(st, 'target', 'r')",
        "object.__setattr__(st, 'target', 'r')",
    ],
)
def test_the_check_sees_each_kind_of_write(code):
    assert len(_mutations(ast.parse(code))) == 1


def test_the_check_ignores_reads_and_other_fields():
    code = "x = st.target\nself.n = 0\nenv[st.target] = acc\nst.expr.render()\n"
    assert _mutations(ast.parse(code)) == []


def test_equal_assigns_collapse_to_one_set_element():
    a = Assign("r", SimpleExpression(Op.ADD, "x", "y"))
    b = Assign("r", SimpleExpression(Op.ADD, "x", "y"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a, Assign("r", SimpleExpression(Op.MUL, "x", "y"))} != {a}


def test_an_assign_never_equals_a_tuple():
    expr = SimpleExpression(Op.ADD, "x", "y")
    assert Assign("r", expr) != ("r", expr)
    assert expr != (Op.ADD, "x", "y")
    assert Combine("r", (("s0", "t"), ("s1", "u"))) != ("r", (("s0", "t"), ("s1", "u")))


def test_combine_checks_its_options():
    with pytest.raises(ValueError, match="at least two options"):
        Combine("r", (("s0", "t"),))
    with pytest.raises(ValueError, match="selectors must be distinct"):
        Combine("r", (("s0", "t"), ("s0", "u")))
    assert Combine("r", (("s0", "t"), ("s1", "t"))).options == (("s0", "t"), ("s1", "t"))


def test_nodes_have_slots_not_dicts():
    for node in (
        SimpleExpression(Op.ADD, "x", "y"),
        Assign("r", SimpleExpression(Op.ADD, "x", "y")),
        Combine("r", (("s0", "t"), ("s1", "u"))),
    ):
        assert not hasattr(node, "__dict__")

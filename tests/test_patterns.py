"""Pattern mining over expression trees and cross-corpus aggregation."""

import math
from collections import Counter

import pytest

from selectc.errors import ConfigError, FormatError
from selectc.patterns import (
    INT_LITERAL_KIND,
    AggregateTable,
    ExprTree,
    PatternTable,
    aggregate,
    export_table,
    from_surface,
    merge_tables,
    mine,
    parse_table,
    parse_trees,
    read_trees,
    render_table,
    render_trees,
)
from selectc.surface import parse_surface


def leaf(kind="NameE"):
    return ExprTree(kind)


def lit(v):
    return ExprTree(INT_LITERAL_KIND, value=v)


def binary(op, left, right):
    return ExprTree("BinaryE", op=op, children=(left, right))


def test_mine_counts_one_binary_node():
    tree = binary("plus", leaf(), lit(1))
    pt = mine([tree])
    assert pt.operator_counts == Counter({"plus": 1})
    assert pt.int_const_counts == Counter({"plus 1": 1})
    assert pt.structural_counts == Counter({"NameE plus IntegerLiteralE": 1})


def test_mine_walks_nested_trees():
    tree = binary("times", binary("plus", leaf(), leaf()), lit(2))
    pt = mine([tree])
    assert pt.operator_counts == Counter({"times": 1, "plus": 1})
    assert pt.int_const_counts == Counter({"times 2": 1})
    assert pt.structural_counts == Counter(
        {"BinaryE times IntegerLiteralE": 1, "NameE plus NameE": 1}
    )


def test_mine_unary_structural_key():
    tree = ExprTree("UnaryE", op="minus", children=(leaf(),))
    pt = mine([tree])
    assert pt.operator_counts == Counter({"minus": 1})
    assert pt.structural_counts == Counter({"minus NameE": 1})


def test_mine_is_order_independent():
    trees = [binary("plus", leaf(), lit(1)), binary("less", lit(3), leaf())]
    a = mine(trees)
    b = mine(list(reversed(trees)))
    assert a == b


def test_assign_nodes_use_right_child_shape():
    trees = from_surface(parse_surface("r := x + 1\n"))
    pt = mine(trees)
    assert pt.operator_counts["assign"] == 1
    assert pt.operator_counts["plus"] == 1
    assert pt.structural_counts["assign BinaryE"] == 1
    assert pt.structural_counts["NameE plus IntegerLiteralE"] == 1
    assert pt.int_const_counts == Counter({"plus 1": 1})


def test_from_surface_task1_patterns():
    sp = parse_surface("if (y != 0) then r := x / y else r := -9999\n")
    pt = mine(from_surface(sp))
    assert pt.operator_counts["assign"] == 2
    assert pt.operator_counts["notEquals"] == 1
    assert pt.operator_counts["divide"] == 1
    assert pt.int_const_counts["notEquals 0"] == 1
    assert pt.int_const_counts["assign -9999"] == 1


def test_from_surface_walks_loops_arrays_and_unary_operators():
    """A loop gives its trees in execution order: init, condition, body, step."""
    sp = parse_surface(
        "array a[2]\n"
        "for (i := 0; i < 2; i := i + 1) bound 2 { a[i] := -x + not y }\n"
        "r := a[1]\n"
    )

    def assign(target, value):
        return ExprTree("AssignE", op="assign", children=(target, value))

    def unary(op, operand):
        return ExprTree("UnaryE", op=op, children=(operand,))

    def cell(index):
        return ExprTree("ArrayAccessE", children=(leaf(), index))

    assert from_surface(sp) == [
        assign(leaf(), lit(0)),
        binary("less", leaf(), lit(2)),
        assign(cell(leaf()), binary("plus", unary("minus", leaf()), unary("not", leaf()))),
        assign(leaf(), binary("plus", leaf(), lit(1))),
        assign(leaf(), cell(lit(1))),
    ]


def test_ir_operator_counts_bridge():
    pt = PatternTable(operator_counts=Counter({"plus": 3, "divide": 1, "ADD": 2}))
    assert pt.ir_operator_counts() == Counter({"ADD": 5, "DIV": 1})


def test_merge_is_commutative_and_associative():
    a = mine([binary("plus", leaf(), lit(1))])
    b = mine([binary("times", leaf(), leaf())])
    c = mine([ExprTree("UnaryE", op="minus", children=(leaf(),))])
    assert a.merge(b) == b.merge(a)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert merge_tables([a, b, c]) == a.merge(b).merge(c)


def test_node_shape_validation():
    with pytest.raises(FormatError):
        mine([ExprTree("BinaryE", op="plus", children=(leaf(),))])
    with pytest.raises(FormatError):
        mine([ExprTree("UnaryE", children=(leaf(),))])
    with pytest.raises(FormatError):
        mine([ExprTree(INT_LITERAL_KIND)])


# ---------------------------------------------------------- aggregation

def row_table(count, total, key="posIncrement"):
    return PatternTable(
        operator_counts=Counter({key: count, "filler": total - count})
    )


def test_aggregate_mean_and_population_std():
    """Five corpora at 9, 7, 13, 10, 17 occurrences per hundred."""
    tables = [row_table(c, 100) for c in (9, 7, 13, 10, 17)]
    agg = aggregate(tables)
    row = next(r for r in agg.rows["operators"] if r.key == "posIncrement")
    assert row.counts == (9, 7, 13, 10, 17)
    assert math.isclose(row.mean, 11.2)
    assert math.isclose(row.std, math.sqrt(60.8 / 5))
    assert abs(row.std - 3.4871) < 5e-4


def test_aggregate_percentages_are_per_corpus():
    tables = [row_table(5, 10), row_table(5, 50)]
    agg = aggregate(tables)
    row = next(r for r in agg.rows["operators"] if r.key == "posIncrement")
    assert row.pcts == (50.0, 10.0)


def test_aggregate_rows_sorted_by_first_corpus():
    t1 = PatternTable(operator_counts=Counter({"plus": 9, "times": 3, "minus": 3}))
    t2 = PatternTable(operator_counts=Counter({"plus": 1, "times": 8, "minus": 1}))
    agg = aggregate([t1, t2])
    keys = [r.key for r in agg.rows["operators"]]
    assert keys == ["plus", "minus", "times"]  # 9 first, then 3-count ties by key


def test_aggregate_validation():
    with pytest.raises(ConfigError):
        aggregate([])
    with pytest.raises(ConfigError):
        aggregate([PatternTable()], names=["a", "b"])


def test_export_table_format():
    tables = [row_table(9, 100), row_table(7, 100)]
    text = export_table(aggregate(tables, names=["left", "right"]))
    lines = text.splitlines()
    assert lines[0] == "# operators"
    assert lines[1] == "pattern | left | right | mean | std"
    assert "posIncrement | 9(9) | 7(7) | 8.0 | 1.0" in lines


def test_export_matches_golden_file(datadir):
    corpora = [read_trees(str(datadir / f"corpus_{n}.trees")) for n in ("a", "b")]
    agg = aggregate([mine(c) for c in corpora], names=["corpus_a.trees", "corpus_b.trees"])
    golden = (datadir / "aggregate_golden.txt").read_text()
    assert export_table(agg) == golden


# -------------------------------------------------------- serialization

def test_table_render_parse_round_trip():
    pt = PatternTable(
        operator_counts=Counter({"plus": 4, "assign": 2}),
        int_const_counts=Counter({"plus 1": 3, "assign -9999": 1}),
        structural_counts=Counter({"NameE plus IntegerLiteralE": 4}),
    )
    assert parse_table(render_table(pt)) == pt


def test_table_parse_rejects_bad_lines():
    with pytest.raises(FormatError):
        parse_table("opera | plus | 3\n")
    with pytest.raises(FormatError):
        parse_table("operator | plus | many\n")
    with pytest.raises(FormatError):
        parse_table("operator | plus\n")


def test_trees_render_parse_round_trip():
    trees = [
        binary("plus", leaf(), lit(-3)),
        ExprTree(
            "AssignE",
            op="assign",
            children=(leaf(), ExprTree("UnaryE", op="minus", children=(lit(7),))),
        ),
        leaf("MethodCallE"),
    ]
    assert parse_trees(render_trees(trees)) == trees


def test_trees_parse_rejects_bad_indentation():
    with pytest.raises(FormatError):
        parse_trees("BinaryE op=plus\n   NameE\n")  # 3 spaces
    with pytest.raises(FormatError):
        parse_trees("    NameE\n")  # child without a parent


def test_trees_file_round_trip(tmp_path):
    trees = from_surface(parse_surface("r := x * 2 + 1\n"))
    path = tmp_path / "one.trees"
    path.write_text(render_trees(trees), encoding="utf-8")
    assert read_trees(str(path)) == trees


def test_mining_corpus_from_files_matches_direct(datadir):
    for name in ("a", "b"):
        trees = read_trees(str(datadir / f"corpus_{name}.trees"))
        assert mine(trees) == merge_tables([mine([t]) for t in trees])

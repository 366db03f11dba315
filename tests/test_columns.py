"""Programs as quadruple columns: the node view, builders that make no nodes,
and what reading a file keeps alive."""

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as hst

from selectc.attack import render_attack_report, run_attack
from selectc.crypto import dec, enc, keygen
from selectc.demos import build_l0, build_l1
from selectc.field import FIELD_PRIME, Op
from selectc.generate import random_inputs, random_linear_program, random_surface_program
from selectc.ir import (
    Assign,
    Combine,
    Program,
    SimpleExpression,
    eval_plain,
    normalize,
    parse_program,
    render_program,
)
from selectc.lower import lower
from selectc.obfuscate import (
    ObfProgram,
    ObfuscationConfig,
    deobfuscate,
    eval_encrypted,
    obfuscate_statement_level,
)
from selectc.patterns import PatternTable

from programs import program_of

P = FIELD_PRIME


def test_no_pipeline_reads_the_node_view(monkeypatch):
    """Compiling, reading back, running, deobfuscating and both attacks
    work on the columns alone: the node view raises if anything reads it."""
    source = random_linear_program(random.Random(3), n_statements=6, n_consts=1)
    cfg = ObfuscationConfig(mislead_factor=3, fake_vars=("f0", "f1"), fake_combining=2, seed=3)
    rng = random.Random(3)
    runs = [random_inputs(source, rng) for _ in range(3)]
    wants = [eval_plain(source, inputs) for inputs in runs]

    def refuse(program):
        raise AssertionError("the node view of a program was read")

    monkeypatch.setattr(Program, "statements", property(refuse))
    obf, sel_key = obfuscate_statement_level(source, cfg)
    parsed = parse_program(render_program(obf.program))
    obf = ObfProgram(program=parsed, selector_ids=parsed.selector_ids())
    key = keygen(3)
    for inputs, want in zip(runs, wants):
        ct = eval_encrypted(obf, key, sel_key, {v: enc(key, x) for v, x in inputs.items()})
        assert dec(key, ct) == want
    assert normalize(deobfuscate(obf, sel_key)) == normalize(source)
    table = PatternTable()
    table.operator_counts.update({"times": 5, "plus": 3})
    ranked = run_attack(obf, table=table, truth=[source])
    assert ranked.enumerated == ranked.class_size == 3**6
    assert ranked.min_rank is not None
    render_attack_report(ranked)
    pairs = [({**inputs, **sel_key.bindings}, want) for inputs, want in zip(runs, wants)]
    kpa = run_attack(obf, pairs=pairs, truth=[source])
    assert kpa.min_rank is not None and kpa.survivors >= 1
    render_attack_report(kpa)


def test_no_builder_makes_a_statement_node(monkeypatch):
    """Lowering and both demo builds write columns: no node constructor runs."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} node was built")

    for cls in (Assign, SimpleExpression, Combine):
        monkeypatch.setattr(cls, "__init__", refuse)
    lowered = lower(random_surface_program(random.Random(7)))
    assert len(lowered) > 0
    assert build_l0().obf.program.combines
    assert build_l1().obf.program.combines


def test_reading_a_large_obf_leaves_no_object_per_statement():
    """Reading back a 14,880-statement .obf leaves a few GC-tracked
    objects once a collection has run, not one or more per statement:
    the columns and the combining statements' entries hold strings only,
    so the collector stops tracking them."""
    source = random_linear_program(random.Random(1), n_statements=3700)
    cfg = ObfuscationConfig(mislead_factor=3, fake_vars=("f0", "f1", "f2"), fake_combining=20, seed=1)
    obf, _ = obfuscate_statement_level(source, cfg)
    text = render_program(obf.program)
    del obf, source
    gc.collect()
    before = len(gc.get_objects())
    parsed = parse_program(text)
    gc.collect()
    assert len(parsed) == 14_880
    assert len(gc.get_objects()) - before < 50


NAMES = ("x", "y", "k0", "t0", "t1", "t2", "u")
SELECTORS = ("s0", "s1", "s2", "s3", "s4")


@hst.composite
def statement_rows(draw):
    """One statement as a node and as its quadruple and combine entry."""
    target = draw(hst.sampled_from(NAMES))
    if draw(hst.booleans()):
        op = draw(hst.sampled_from(list(Op)))
        a, b = draw(hst.sampled_from(NAMES)), draw(hst.sampled_from(NAMES))
        return Assign(target, SimpleExpression(op, a, b)), (op, a, b, target), None
    sels = tuple(draw(hst.lists(hst.sampled_from(SELECTORS), min_size=2, max_size=4, unique=True)))
    srcs = tuple(draw(hst.sampled_from(NAMES)) for _ in sels)
    return Combine(target, tuple(zip(sels, srcs))), (None, None, None, target), sels + srcs


@settings(max_examples=150, deadline=None)
@given(
    hst.lists(statement_rows(), min_size=1, max_size=12),
    hst.sampled_from([P, 101]),
    hst.dictionaries(hst.sampled_from(["k0", "k1"]), hst.integers(0, 100)),
)
def test_a_program_from_nodes_equals_one_from_columns(rows, prime, consts):
    nodes = [node for node, _, _ in rows]
    ops, in1, in2, targets = zip(*[quad for _, quad, _ in rows])
    combines = {i: entry for i, (_, _, entry) in enumerate(rows) if entry is not None}
    from_nodes = program_of(["x", "y"], nodes, dict(consts), prime)
    from_columns = Program.from_columns(["x", "y"], ops, in1, in2, targets, combines, dict(consts), prime)
    assert from_nodes == from_columns
    assert render_program(from_nodes) == render_program(from_columns)
    assert from_columns.statements == nodes
    assert len(from_columns) == len(nodes)
    assert parse_program(render_program(from_columns)) == from_columns

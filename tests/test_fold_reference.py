"""Differential checks of folding, ranking and KPA against reference copies.

The reference functions below are the straightforward versions that
rebuild every piece of fold metadata for each candidate, compute
canonical keys and ranks naively, and filter on known pairs by folding
and evaluating every candidate. The library folds through a plan built
once per program, keys each distinct program once, finds ranks by
bisection and filters by walking the obfuscated program; it must agree
with these references exactly.
"""

import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from selectc import attack
from selectc.attack import (
    DEFAULT_CAP,
    extract_class,
    kpa_filter,
    realize_candidate,
    run_attack,
)
from selectc.demos import build_l0, build_l1
from selectc.errors import EnumerationCapError, UnboundVariableError
from selectc.field import Op
from selectc.generate import random_inputs, random_linear_program
from selectc.ir import (
    Assign,
    Program,
    SimpleExpression,
    canonical_key,
    eval_plain,
    fold_combines,
    render_program,
    statement_operands,
)
from selectc.obfuscate import (
    ObfuscationConfig,
    obfuscate_program_level,
    obfuscate_statement_level,
)
from selectc.patterns import PatternTable

TABLE = PatternTable(operator_counts=Counter({"MUL": 50, "ADD": 30, "SUB": 15, "DIV": 5}))


# ------------------------------------------------------------ references

def reference_fold(program, selection):
    use_count = {}
    defs = {}
    for st in program.statements:
        for v in statement_operands(st):
            use_count[v] = use_count.get(v, 0) + 1
        if isinstance(st, Assign):
            defs[st.target] = st

    subst = {}

    def resolve(v):
        return subst.get(v, v)

    stmts = []
    last = len(program.statements) - 1
    for idx, st in enumerate(program.statements):
        if isinstance(st, Assign):
            stmts.append(
                Assign(
                    st.target,
                    SimpleExpression(st.expr.op, resolve(st.expr.in1), resolve(st.expr.in2)),
                )
            )
            continue
        choice = selection.get(idx, 0)
        if not 0 <= choice < len(st.options):
            raise ValueError(f"option index {choice} out of range at statement {idx}")
        _, src = st.options[choice]
        src = resolve(src)
        definition = defs.get(src)
        if definition is not None and use_count.get(src, 0) == 1:
            stmts.append(
                Assign(
                    st.target,
                    SimpleExpression(
                        definition.expr.op,
                        resolve(definition.expr.in1),
                        resolve(definition.expr.in2),
                    ),
                )
            )
        elif idx == last:
            raise ValueError(
                "cannot fold a final combining statement whose option is a shared variable"
            )
        else:
            subst[st.target] = src
    return Program(
        inputs=list(program.inputs),
        statements=stmts,
        consts=dict(program.consts),
        prime=program.prime,
    )


def reference_dce(program):
    live = {program.output}
    keep = []
    for idx in range(len(program.statements) - 1, -1, -1):
        st = program.statements[idx]
        if st.target in live:
            keep.append(idx)
            live.update(statement_operands(st))
    keep.reverse()
    return Program(
        inputs=list(program.inputs),
        statements=[program.statements[i] for i in keep],
        consts=dict(program.consts),
        prime=program.prime,
    )


def reference_realize(cd, selection):
    choice = dict(zip(cd.combine_indices, selection))
    return reference_dce(reference_fold(cd.obf.program, choice))


def reference_ranking(members, table, truth):
    """(selection, log_score, prob) best first, and the naive min rank.

    members lists (selection, reference program) for the whole class.
    """
    counts = table.ir_operator_counts()
    universe = sorted({op.value for op in Op} | set(counts))
    total = sum(counts.values())
    denom = math.log(1 + len(universe))
    rows = []
    for selection, program in members:
        logs = sorted(
            math.log1p(counts.get(s.expr.op.value, 0) / total) - denom
            for s in program.statements
        )
        rows.append([selection, math.fsum(logs), canonical_key(program, False)])
    rows.sort(key=lambda row: (-row[1], row[2]))
    peak = max(row[1] for row in rows)
    weights = [math.exp(row[1] - peak) for row in rows]
    norm = math.fsum(weights)
    truth_key = canonical_key(truth, False)
    ranks = [
        sum(1 for other in rows if other[1] >= row[1]) for row in rows if row[2] == truth_key
    ]
    ranked = [(row[0], row[1], w / norm) for row, w in zip(rows, weights)]
    return ranked, min(ranks) if ranks else None


def reference_kpa_filter(cd, pairs, cap=DEFAULT_CAP, members=None):
    """Fold every candidate and keep those that agree with every pair.

    members, if given, is the folded class in product order, reused
    across pair sets.
    """
    if cd.class_size > cap:
        raise EnumerationCapError(cd.class_size, cap)
    if members is None:
        members = [
            (selection, realize_candidate(cd, selection))
            for selection in itertools.product(*(range(n) for n in cd.option_counts()))
        ]
    return [
        (selection, program)
        for selection, program in members
        if all(eval_plain(program, inputs) == output % program.prime for inputs, output in pairs)
    ]


# ---------------------------------------------------------------- checks

def assert_class_matches_reference(obf, truth):
    """Every member folds like the reference, and the attack ranks like it."""
    cd = extract_class(obf)
    members = []
    for selection in itertools.product(*(range(n) for n in cd.option_counts())):
        want = reference_realize(cd, selection)
        got = realize_candidate(cd, selection)
        assert render_program(got) == render_program(want), selection
        members.append((selection, want))
    report = run_attack(obf, table=TABLE, truth=[truth])
    ranked, min_rank = reference_ranking(members, TABLE, truth)
    assert [(rc.selection, rc.log_score, rc.prob) for rc in report.ranked] == ranked
    assert report.min_rank == min_rank


@pytest.mark.parametrize("build", [build_l0, build_l1], ids=["l0", "l1"])
def test_demo_class_folds_like_the_reference(build):
    demo = build()
    assert_class_matches_reference(demo.obf, demo.program)


@hst.composite
def linear_classes(draw):
    """Seeded statement- and program-level classes of at most a few hundred members."""
    seed = draw(hst.integers(0, 2**32 - 1))
    strategy = draw(
        hst.sampled_from(["uniform", "operand-only", "operation-only", "combined-temporaries"])
    )
    combined = strategy == "combined-temporaries"
    n = draw(hst.integers(1, 2 if combined else 4))
    k = 2 if combined else draw(hst.integers(2, 3))
    rng = random.Random(seed)
    if draw(hst.booleans()):
        programs = [random_linear_program(rng, n_statements=n) for _ in range(k)]
        i_star = draw(hst.integers(0, k - 1))
        obf, _ = obfuscate_program_level(programs, i_star, seed=seed)
        return obf, programs[i_star]
    program = random_linear_program(rng, n_statements=n, n_consts=draw(hst.integers(0, 2)))
    fakes = draw(hst.integers(0, 2))
    cfg = ObfuscationConfig(
        mislead_factor=k,
        strategy=strategy,
        fake_vars=("f0", "f1") if fakes else (),
        fake_combining=fakes,
        seed=seed,
    )
    obf, _ = obfuscate_statement_level(program, cfg)
    return obf, program


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linear_classes())
def test_random_class_folds_like_the_reference(case):
    obf, truth = case
    assert_class_matches_reference(obf, truth)
    # fold_combines without dead-code elimination, dead fake chains included
    program = obf.program
    for idx, comb in obf.combines():
        for choice in range(len(comb.options)):
            selection = {idx: choice}
            assert render_program(fold_combines(program, selection)) == render_program(
                reference_fold(program, selection)
            )


# ------------------------------------------------------------------- KPA

def seeded_pairs(cd, count, seed):
    """count pairs on small random inputs, all answered by one random member.

    Every obfuscated-program input is bound, consts and fakes included,
    so the walk also meets const values the key would never bind.
    """
    rng = random.Random(seed)
    member = realize_candidate(cd, tuple(rng.randrange(n) for n in cd.option_counts()))
    pairs = []
    for _ in range(count):
        inputs = random_inputs(cd.obf.program, rng, small=True)
        pairs.append((inputs, eval_plain(member, inputs)))
    return pairs


def assert_kpa_matches_reference(cd, pairs, members=None):
    want = reference_kpa_filter(cd, pairs, members=members)
    got = kpa_filter(cd, pairs)
    assert [c.selection for c in got] == [sel for sel, _ in want]
    assert [render_program(c.program) for c in got] == [render_program(p) for _, p in want]


@functools.cache
def demo_class(level):
    """The demo, its class and the folded class in product order."""
    demo = (build_l0 if level == "l0" else build_l1)()
    cd = extract_class(demo.obf)
    members = reference_kpa_filter(cd, [])
    return demo, cd, members


@pytest.mark.parametrize("level", ["l0", "l1"])
def test_demo_kpa_matches_the_reference(level):
    demo, cd, members = demo_class(level)
    for count in (1, 2, 3):
        assert_kpa_matches_reference(cd, seeded_pairs(cd, count, 100 * count), members)
    # the confidential program's own runs, as an attacker observes them
    rng = random.Random(len(members))
    pairs = []
    for _ in range(3):
        env = random_inputs(demo.program, rng, small=True)
        pairs.append(({**env, **demo.sel_key.bindings}, eval_plain(demo.program, env)))
    assert_kpa_matches_reference(cd, pairs, members)


@pytest.mark.parametrize(
    "pairs",
    [[], [({"a": 2}, 4)], [({"a": 2}, 4), ({"a": 3}, 9)], [({"a": 3}, 6), ({"a": 2}, 4)]],
    ids=["none", "non-separating", "non-separating-first", "separating-first"],
)
def test_two_option_kpa_matches_the_reference(two_option_class, pairs):
    assert_kpa_matches_reference(extract_class(two_option_class[0]), pairs)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linear_classes(), hst.integers(0, 3), hst.integers(0, 2**32 - 1))
def test_random_class_kpa_matches_the_reference(case, count, seed):
    cd = extract_class(case[0])
    assert_kpa_matches_reference(cd, seeded_pairs(cd, count, seed))


def test_kpa_checks_every_pair_before_walking(two_option_class):
    """A pair missing an input fails with the reference's message, wherever it sits."""
    cd = extract_class(two_option_class[0])
    with pytest.raises(UnboundVariableError) as want:
        reference_kpa_filter(cd, [({}, 4)])
    # no candidate survives the first pair, so the reference never reads the second
    assert reference_kpa_filter(cd, [({"a": 3}, 7), ({}, 4)]) == []
    for pairs in ([({}, 4)], [({"a": 3}, 7), ({}, 4)]):
        with pytest.raises(UnboundVariableError) as got:
            kpa_filter(cd, pairs)
        assert str(got.value) == str(want.value) == "unbound input variable(s): a"


def test_kpa_refuses_an_oversized_class_before_evaluating(monkeypatch):
    _, cd, _ = demo_class("l1")
    monkeypatch.setattr(attack, "run_statements", None)
    with pytest.raises(EnumerationCapError) as e:
        kpa_filter(cd, [({}, 0)], cap=cd.class_size - 1)
    assert (e.value.class_size, e.value.cap) == (15_625, 15_624)


def test_kpa_folds_only_the_first_pairs_survivors(monkeypatch):
    """The work-shape guard: no fold per candidate, only per first-pair survivor."""
    _, cd, _ = demo_class("l1")
    pairs = seeded_pairs(cd, 3, seed=7)
    first = len(kpa_filter(cd, pairs[:1]))
    folded = []

    def counting(cd, selection):
        folded.append(selection)
        return realize_candidate(cd, selection)

    monkeypatch.setattr(attack, "realize_candidate", counting)
    survivors = kpa_filter(cd, pairs)
    assert len(folded) == first
    assert 1 <= len(survivors) <= first < cd.class_size // 100

"""Differential checks of folding and ranking against reference copies.

The reference functions below are the straightforward versions that
rebuild every piece of fold metadata for each candidate and compute
canonical keys and ranks naively. The library folds through a plan
built once per program, keys each distinct program once and finds
ranks by bisection; it must agree with these references exactly.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from selectc.attack import extract_class, realize_candidate, run_attack
from selectc.demos import build_l0, build_l1
from selectc.field import Op
from selectc.generate import random_linear_program
from selectc.ir import (
    Assign,
    Program,
    SimpleExpression,
    canonical_key,
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

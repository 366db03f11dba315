"""Attacker harness: class extraction, KPA filtering, ranking, the game."""

import math
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

import selectc

from selectc.attack import (
    extract_class,
    game_exact,
    game_simulate,
    kpa_filter,
    rank_candidates,
    realize_candidate,
    render_attack_report,
    run_attack,
    surviving_option_counts,
)
from selectc.errors import ConfigError, EnumerationCapError, FormatError
from selectc.field import FIELD_PRIME, Op
from selectc.generate import random_inputs, random_linear_program
from selectc.ir import Assign, Combine, SimpleExpression, canonical_key, eval_plain
from selectc.obfuscate import ObfProgram, ObfuscationConfig, obfuscate_statement_level
from selectc.patterns import PatternTable

from programs import program_of

P = FIELD_PRIME


def mul_program():
    return program_of(
        inputs=["a"],
        statements=[Assign("c", SimpleExpression(Op.MUL, "a", "a"))],
        consts={},
        prime=P,
    )


# ------------------------------------------------------- class extraction

def test_extract_class_smallest_case(two_option_class):
    obf, _ = two_option_class
    cd = extract_class(obf)
    assert cd.class_size == 2
    assert [len(o) for o in cd.options] == [2]
    assert cd.combine_indices == [2]


@pytest.mark.parametrize(
    "statements, message",
    [
        (
            [
                Assign("t0", SimpleExpression(Op.ADD, "a", "a")),
                Combine("c", (("s0", "t0"), ("s1", "a"))),
                Assign("t0", SimpleExpression(Op.MUL, "a", "a")),
                Assign("r", SimpleExpression(Op.ADD, "c", "t0")),
            ],
            "statement 3 assigns 't0' again",
        ),
        (
            [Assign("a", SimpleExpression(Op.ADD, "a", "a"))],
            "statement 1 assigns 'a' again",
        ),
        (
            [
                Combine("c", (("s0", "t0"), ("s1", "a"))),
                Assign("t0", SimpleExpression(Op.MUL, "a", "a")),
            ],
            "statement 1 reads 't0' before it is assigned",
        ),
    ],
    ids=["reassigned-target", "reassigned-input", "read-before-assigned"],
)
def test_extract_class_rejects_what_folding_would_misread(statements, message):
    program = program_of(inputs=["a"], statements=statements)
    obf = ObfProgram(program=program, selector_ids=program.selector_ids())
    with pytest.raises(FormatError) as e:
        extract_class(obf)
    assert str(e.value) == message


def test_class_size_is_product_of_live_groups():
    p = random_linear_program(random.Random(0), n_statements=3)
    obf, _ = obfuscate_statement_level(p, ObfuscationConfig(mislead_factor=4))
    assert extract_class(obf).class_size == 4**3


def test_fake_combines_do_not_count():
    p = random_linear_program(random.Random(0), n_statements=2)
    cfg = ObfuscationConfig(
        mislead_factor=3, fake_vars=("f0", "f1"), fake_combining=5, seed=7
    )
    obf, _ = obfuscate_statement_level(p, cfg)
    cd = extract_class(obf)
    assert len(obf.program.combines) == 7
    assert len(cd.combine_indices) == 2
    assert cd.class_size == 9


def test_realize_candidate_folds_each_option(two_option_class):
    obf, _ = two_option_class
    cd = extract_class(obf)
    mul = realize_candidate(cd, (0,))
    add = realize_candidate(cd, (1,))
    assert [st.expr.op for st in mul.statements] == [Op.MUL]
    assert [st.expr.op for st in add.statements] == [Op.ADD]


def test_live_signatures_cover_the_class(two_option_class):
    obf, _ = two_option_class
    cd = extract_class(obf)
    assert kpa_filter(cd, []) == [((0,), 1), ((1,), 1)]
    assert sorted(m.signature for m in rank_candidates(cd)) == [(0,), (1,)]


# --------------------------------------------------------------- the KPA

def test_kpa_pair_eliminates_the_add_decoy(two_option_class):
    """One known pair (a=3 -> 9) leaves only the squaring candidate."""
    obf, _ = two_option_class
    cd = extract_class(obf)
    survivors = kpa_filter(cd, [({"a": 3}, 9)])
    assert survivors == [((0,), 1)]
    assert surviving_option_counts(cd, survivors) == [1]


def test_a_slot_dead_in_a_survivor_keeps_all_its_options():
    """c1 is dead once c2 picks o1: the pair keeps one signature, which
    stands for both choices at c1."""
    statements = [
        Combine("c1", (("s0", "x"), ("s1", "y"))),
        Assign("o0", SimpleExpression(Op.ADD, "c1", "x")),
        Assign("o1", SimpleExpression(Op.SUB, "x", "y")),
        Combine("c2", (("s2", "o0"), ("s3", "o1"))),
    ]
    program = program_of(inputs=["x", "y"], statements=statements)
    cd = extract_class(ObfProgram(program=program, selector_ids=program.selector_ids()))
    survivors = kpa_filter(cd, [({"x": 5, "y": 2}, 3)])
    assert survivors == [((-1, 1), 2)]
    assert surviving_option_counts(cd, survivors) == [2, 1]


def test_kpa_keeps_everything_without_pairs(two_option_class):
    obf, _ = two_option_class
    cd = extract_class(obf)
    assert kpa_filter(cd, []) == [((0,), 1), ((1,), 1)]


def test_kpa_pair_on_agreeing_input_keeps_both(two_option_class):
    # 2*2 == 2+2, so a=2 separates nothing
    obf, _ = two_option_class
    cd = extract_class(obf)
    assert kpa_filter(cd, [({"a": 2}, 4)]) == [((0,), 1), ((1,), 1)]


def test_kpa_accepts_signed_outputs():
    p = program_of(
        inputs=["a", "b"],
        statements=[Assign("c", SimpleExpression(Op.SUB, "a", "b"))],
        consts={},
        prime=P,
    )
    obf, _ = obfuscate_statement_level(p, ObfuscationConfig(seed=4))
    cd = extract_class(obf)
    survivors = kpa_filter(cd, [({"a": 1, "b": 5}, -4)])
    keys = {canonical_key(realize_candidate(cd, sig), False) for sig, _ in survivors}
    assert canonical_key(p, False) in keys


def test_kpa_confidential_always_survives():
    gen = random.Random(31337)
    for case in range(50):
        p = random_linear_program(gen, n_statements=gen.randint(1, 3))
        cfg = ObfuscationConfig(mislead_factor=gen.randint(2, 3), seed=case)
        obf, key = obfuscate_statement_level(p, cfg)
        cd = extract_class(obf)
        pairs = []
        for _ in range(3):
            env = random_inputs(p, gen)
            # the attacker observes runs of the obfuscated program, so
            # the captured inputs include the lifted constant bindings
            pairs.append(({**env, **key.bindings}, eval_plain(p, env)))
        survivors = kpa_filter(cd, pairs)
        keys = {canonical_key(realize_candidate(cd, sig), False) for sig, _ in survivors}
        assert canonical_key(p, False) in keys, case


def test_kpa_refuses_oversized_classes():
    p = random_linear_program(random.Random(1), n_statements=4)
    obf, _ = obfuscate_statement_level(p, ObfuscationConfig(mislead_factor=5))
    cd = extract_class(obf)
    with pytest.raises(EnumerationCapError) as e:
        kpa_filter(cd, [], cap=100)
    assert e.value.class_size == 5**4
    assert e.value.cap == 100


# ---------------------------------------------------------------- ranking

def mul_heavy_table():
    return PatternTable(operator_counts=Counter({"times": 80, "plus": 20}))


def test_rank_prefers_frequent_operations(two_option_class):
    obf, _ = two_option_class
    cd = extract_class(obf)
    ranked = list(rank_candidates(cd, table=mul_heavy_table()))
    assert ranked[0].program.statements[0].expr.op is Op.MUL
    assert ranked[0].prob > ranked[1].prob
    assert math.isclose(sum(rc.prob for rc in ranked), 1.0)


def test_rank_without_table_is_a_uniform_tie(two_option_class):
    obf, _ = two_option_class
    ranked = list(rank_candidates(extract_class(obf)))
    assert ranked[0].log_score == ranked[1].log_score
    assert ranked[0].prob == pytest.approx(0.5)
    # tie order is the canonical serialization, so it is reproducible
    keys = [canonical_key(rc.program, False) for rc in ranked]
    assert keys == sorted(keys)


def test_rank_matches_brute_force_scoring():
    """Independently recompute sum(log1p(rel) - log(1+|U|)) per candidate."""
    p = random_linear_program(random.Random(5), n_statements=3)
    obf, _ = obfuscate_statement_level(p, ObfuscationConfig(mislead_factor=3, seed=5))
    cd = extract_class(obf)
    table = mul_heavy_table()
    ranked = list(rank_candidates(cd, table=table))

    counts = table.ir_operator_counts()
    universe = sorted({op.value for op in Op} | set(counts))
    total = sum(counts.values())
    denom = math.log(1 + len(universe))
    for rc in ranked:
        logs = sorted(
            math.log1p(counts.get(st.expr.op.value, 0) / total) - denom
            for st in rc.program.statements
        )
        assert rc.log_score == math.fsum(logs)
    assert all(a.log_score >= b.log_score for a, b in zip(ranked, ranked[1:]))


def test_rank_is_invariant_under_table_rescaling(two_option_class):
    obf, _ = two_option_class
    cd = extract_class(obf)
    small = mul_heavy_table()
    big = PatternTable(
        operator_counts=Counter(
            {k: v * 37 for k, v in small.operator_counts.items()}
        )
    )
    r_small = rank_candidates(cd, table=small)
    r_big = rank_candidates(cd, table=big)
    assert [(m.key, m.count) for m in r_small] == [(m.key, m.count) for m in r_big]
    assert [rc.log_score for rc in r_small] == [rc.log_score for rc in r_big]
    assert [rc.prob for rc in r_small] == [rc.prob for rc in r_big]


def test_rank_respects_cap():
    p = random_linear_program(random.Random(1), n_statements=4)
    obf, _ = obfuscate_statement_level(p, ObfuscationConfig(mislead_factor=5))
    with pytest.raises(EnumerationCapError):
        rank_candidates(extract_class(obf), cap=10)


# ---------------------------------------------------------------- quality

def test_quality_zero_when_confidential_is_top(two_option_class):
    obf, _ = two_option_class
    assert run_attack(obf, table=mul_heavy_table(), truth=[mul_program()]).quality == 0.0


def test_quality_counts_ties_against_the_obfuscation(two_option_class):
    obf, _ = two_option_class
    assert run_attack(obf, truth=[mul_program()]).quality == 0.5  # tie


def test_quality_at_the_bottom_of_the_ranking(two_option_class):
    obf, _ = two_option_class
    # plus-heavy table pushes the squaring candidate to rank N = 2
    table = PatternTable(operator_counts=Counter({"plus": 99, "times": 1}))
    assert run_attack(obf, table=table, truth=[mul_program()]).quality == 1 - 1 / 2


def test_quality_requires_a_class_member(two_option_class):
    obf, _ = two_option_class
    other = program_of(
        inputs=["a"],
        statements=[Assign("c", SimpleExpression(Op.DIV, "a", "a"))],
        consts={},
        prime=P,
    )
    with pytest.raises(ConfigError, match="no member of the ranked class matches the truth"):
        run_attack(obf, truth=[other])


# ------------------------------------------------------------ end to end

def test_run_attack_report(two_option_class):
    obf, _ = two_option_class
    report = run_attack(
        obf,
        pairs=[({"a": 3}, 9)],
        table=mul_heavy_table(),
        truth=[mul_program()],
    )
    assert report.class_size == 2
    # with pairs given only the survivors get ranked
    assert report.enumerated == 1
    assert report.survivors == 1
    assert report.min_rank == 1
    assert report.quality == 0.0
    text = render_attack_report(report)
    assert "class_size | 2" in text
    assert "survivors | 1" in text
    assert "quality | 0" in text
    assert text.count("top | ") == 1


def test_run_attack_without_extras(two_option_class):
    obf, _ = two_option_class
    report = run_attack(obf)
    assert report.survivors is None
    assert report.min_rank is None
    assert len(report.ranked) == 2


@pytest.mark.parametrize(
    "op, pairs, message",
    [
        (Op.DIV, None, "no member of the ranked class matches the truth"),
        (Op.ADD, [({"a": 3}, 9)], "no survivor of the known pairs matches the truth"),
    ],
    ids=["rank", "kpa"],
)
def test_run_attack_refuses_a_truth_it_cannot_grade(two_option_class, op, pairs, message):
    obf, _ = two_option_class
    truth = program_of(
        inputs=["a"], statements=[Assign("c", SimpleExpression(op, "a", "a"))], consts={}, prime=P
    )
    with pytest.raises(ConfigError, match=message):
        run_attack(obf, pairs=pairs, truth=[truth])


def test_run_attack_names_the_terminals_a_truth_reads_and_the_class_lacks(two_option_class):
    obf, _ = two_option_class
    truth = program_of(
        inputs=["a"],
        statements=[Assign("c", SimpleExpression(Op.MUL, "a", "k0"))],
        consts={"k0": 2},
        prime=P,
    )
    message = "the truth reads k0, which the class lacks; terminals match by name"
    with pytest.raises(ConfigError, match=message):
        run_attack(obf, truth=[truth])


# ------------------------------------------------------- the guessing game

def test_game_exact_printed_values():
    acc = game_exact(0.5, 11)
    assert acc.exact == pytest.approx(0.725)
    assert acc.paper_form == pytest.approx(0.727273, abs=5e-7)


def test_game_exact_closed_form():
    for p_l, n in ((0.3, 5), (0.6, 21)):
        acc = game_exact(p_l, n)
        want = p_l + (1 - p_l) * (1 - 1 / (n - 1)) / 2
        assert acc.exact == pytest.approx(want)
        assert acc.paper_form == pytest.approx(p_l + (1 - p_l) * (1 - 1 / n) / 2)


def test_game_exact_validates_arguments():
    for bad in ((0.0, 5), (1.0, 5), (0.5, 1)):
        with pytest.raises(ConfigError):
            game_exact(*bad)


def test_game_simulation_matches_closed_form():
    exact = game_exact(0.5, 11).exact
    sim = game_simulate(0.5, 11, trials=200_000)
    sigma = math.sqrt(exact * (1 - exact) / 200_000)
    assert abs(sim - exact) < 4 * sigma


def test_game_simulation_is_seeded():
    a = game_simulate(0.4, 7, trials=10_000, seed=3)
    b = game_simulate(0.4, 7, trials=10_000, seed=3)
    assert a == b
    assert a != game_simulate(0.4, 7, trials=10_000, seed=4)


def test_f_as_misleading_defeats_the_f_first_attacker():
    # hiding f everywhere removes the attacker's edge beyond p_l
    sim = game_simulate(
        0.5, 11, trials=400_000, obf_strategy="f-as-misleading", att_strategy="f-first"
    )
    assert abs(sim - 0.5) < 0.005


def test_random_attacker_has_no_edge():
    sim = game_simulate(0.5, 11, trials=400_000, att_strategy="random")
    assert abs(sim - 0.5) < 0.005


def test_game_strategy_validation():
    with pytest.raises(ConfigError):
        game_simulate(0.5, 11, trials=10, obf_strategy="nope")
    with pytest.raises(ConfigError):
        game_simulate(0.5, 11, trials=10, att_strategy="nope")


def test_importing_selectc_leaves_numpy_unloaded():
    """Only the guessing-game simulation needs numpy; it imports it itself."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(selectc.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, selectc; print('numpy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"

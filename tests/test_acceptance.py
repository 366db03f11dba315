"""Release gate: ten numbered end-to-end checks at pinned tolerances.

Each test prints exactly one `criterion NN PASS|FAIL | detail` line on
the real terminal (bypassing capture) and then asserts, so a plain
pytest run shows the per-criterion verdicts inline.
"""

import math
import random
import time
from collections import Counter

import pytest

from selectc.attack import (
    extract_class,
    game_exact,
    game_simulate,
    kpa_filter,
    rank_candidates,
    realize_candidate,
    run_attack,
)
from selectc.cli import dispatch
from selectc.crypto import dec, enc, keygen
from selectc.demos import build_l0, build_l1
from selectc.field import FIELD_PRIME, Op
from selectc.generate import random_inputs, random_linear_program, random_surface_program
from selectc.ir import (
    Assign,
    Combine,
    SimpleExpression,
    canonical_key,
    eval_env,
    eval_plain,
    normalize,
    render_program,
    selectors,
)
from selectc.lower import lower
from selectc.obfuscate import (
    ObfProgram,
    ObfuscationConfig,
    deobfuscate,
    eval_encrypted,
    obfuscate_program_level,
    obfuscate_statement_level,
)
from selectc.patterns import ExprTree, PatternTable, aggregate, mine
from selectc.surface import interpret

from programs import program_of

se = SimpleExpression


@pytest.fixture
def announce(capsys):
    def go(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {num:02d} {verdict} | {detail}")
        assert ok, f"criterion {num:02d} failed: {detail}"

    return go


# 1. ------------------------------------------------------- correctness

def test_criterion_01_correctness(announce):
    """200 random programs x 100 inputs: decrypted output == plaintext."""
    start = time.perf_counter()
    gen = random.Random(2024)
    mismatches = 0
    checks = 0
    for i in range(200):
        sp = random_surface_program(gen, max_statements=8)
        program = lower(sp)
        cfg = ObfuscationConfig(mislead_factor=gen.choice((2, 3)), seed=i)
        obf, sel_key = obfuscate_statement_level(program, cfg)
        key = keygen(i, program.prime)
        for _ in range(100):
            env = random_inputs(program, gen, small=True)
            want = eval_plain(program, env)
            if interpret(sp, env) % program.prime != want:
                mismatches += 1
            ct = eval_encrypted(
                obf, key, sel_key, {v: enc(key, val) for v, val in env.items()}
            )
            if dec(key, ct) != want:
                mismatches += 1
            checks += 1
    elapsed = time.perf_counter() - start
    announce(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"{checks} runs, {mismatches} mismatches, {elapsed:.1f}s (budget 60s)",
    )


# 2. ------------------------------------------------ search-space sizes

def test_criterion_02_demo_class_sizes(announce, tmp_path, capsys):
    sizes = {}
    for level in ("l0", "l1"):
        assert dispatch(["demo", level, "--out", str(tmp_path / level)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("class_size"))
        sizes[level] = int(line.split("|")[1])
    report = run_attack(build_l0().obf)
    ok = (
        sizes["l0"] == 12500
        and sizes["l1"] == 15625
        and report.class_size == 12500
        and report.enumerated == 12500
        and extract_class(build_l1().obf).class_size == 15625
    )
    announce(2, ok, f"demo l0 {sizes['l0']} (want 12500), demo l1 {sizes['l1']} (want 15625)")


# 3. ----------------------------------------------- cost/security curve

def test_criterion_03_cost_security_tradeoff(announce):
    """Statement count stays within (k+1)n + fakes(k+1); class is k^n."""
    bad = []
    for n in range(1, 5):
        for k in (2, 3):
            p = random_linear_program(random.Random(10 * n + k), n_statements=n)
            obf, _ = obfuscate_statement_level(
                p, ObfuscationConfig(mislead_factor=k, seed=0)
            )
            cd = extract_class(obf)
            enumerated = sum(m.count for m in rank_candidates(cd).members)
            if len(obf.program.statements) > (k + 1) * n:
                bad.append((n, k, "statements"))
            if not (cd.class_size == enumerated == k**n):
                bad.append((n, k, "class"))
            fat, _ = obfuscate_statement_level(
                p,
                ObfuscationConfig(
                    mislead_factor=k, seed=0, fake_vars=("w", "z"), fake_combining=2
                ),
            )
            if len(fat.program.statements) > (k + 1) * n + 2 * (k + 1):
                bad.append((n, k, "fake statements"))
            if extract_class(fat).class_size != k**n:
                bad.append((n, k, "fake class"))
    announce(3, not bad, f"n in 1..4, k in 2..3: {'all exact' if not bad else bad}")


# 4. ------------------------------------------- program-level guessing

def test_criterion_04_program_level_guessing(announce):
    """Uniform attacker finds the real program 1/5 of the time."""
    programs = [
        random_linear_program(random.Random(7 + j), n_statements=2) for j in range(5)
    ]
    # identical skeleton for every hidden index, so guessing is blind
    for seed in range(3):
        texts = {
            render_program(obfuscate_program_level(programs, i, seed)[0].program)
            for i in range(5)
        }
        assert len(texts) == 1, "skeleton leaks the hidden index"
    gen = random.Random(99)
    hits = 0
    trials = 10_000
    for t in range(trials):
        i_star = gen.randrange(5)
        obfuscate_program_level(programs, i_star, seed=t)
        if gen.randrange(5) == i_star:
            hits += 1
    freq = hits / trials
    announce(4, abs(freq - 0.2) <= 0.02, f"guess frequency {freq:.4f} (want 0.2 +/- 0.02)")


# 5. -------------------------------------------------------------- KPA

def test_criterion_05_kpa_resilience(announce, two_option_class):
    gen = random.Random(424242)
    failures = 0
    for case in range(1000):
        p = random_linear_program(gen, n_statements=gen.randint(1, 3))
        obf, key = obfuscate_statement_level(
            p, ObfuscationConfig(mislead_factor=gen.choice((2, 3)), seed=case)
        )
        pairs = []
        for _ in range(2):
            env = random_inputs(p, gen)
            pairs.append(({**env, **key.bindings}, eval_plain(p, env)))
        cd = extract_class(obf)
        survivors = kpa_filter(cd, pairs)
        keys = {canonical_key(realize_candidate(cd, sig), False) for sig, _ in survivors}
        if canonical_key(p, False) not in keys:
            failures += 1

    # two-option class: the pair a=3 -> 9 kills the addition candidate
    obf, _ = two_option_class
    cd = extract_class(obf)
    all_ops = [rc.program.statements[0].expr.op for rc in rank_candidates(cd)]
    survivors = kpa_filter(cd, [({"a": 3}, 9)])
    left = [realize_candidate(cd, sig).statements[0].expr.op for sig, _ in survivors]
    pair_ok = sorted(all_ops, key=str) == [Op.ADD, Op.MUL] and left == [Op.MUL]
    announce(
        5,
        failures == 0 and pair_ok,
        f"{failures}/1000 survival failures, pair eliminated exactly ADD: {pair_ok}",
    )


# 6. --------------------------------------------------- quality metric

def _five_option_class(conf_op: Op, other_op: Op) -> ObfProgram:
    shapes = [(conf_op, "a", "a"), (other_op, "a", "a"), (other_op, "a", "b"),
              (other_op, "b", "a"), (other_op, "b", "b")]
    statements = [Assign(f"o{i}", se(*args)) for i, args in enumerate(shapes)]
    statements.append(Combine("c", tuple((f"s{i}", f"o{i}") for i in range(5))))
    prog = program_of(inputs=["a", "b"], statements=statements, consts={}, prime=FIELD_PRIME)
    return ObfProgram(program=prog, selector_ids=prog.selector_ids())


def test_criterion_06_quality_metric(announce):
    table = PatternTable(operator_counts=Counter({"times": 80, "plus": 20}))
    truth_mul = program_of(
        inputs=["a", "b"], statements=[Assign("r", se(Op.MUL, "a", "a"))],
        consts={}, prime=FIELD_PRIME,
    )
    truth_add = program_of(
        inputs=["a", "b"], statements=[Assign("r", se(Op.ADD, "a", "a"))],
        consts={}, prime=FIELD_PRIME,
    )
    q_top = run_attack(_five_option_class(Op.MUL, Op.ADD), table=table, truth=[truth_mul]).quality
    bottom = run_attack(_five_option_class(Op.ADD, Op.MUL), table=table, truth=[truth_add])
    q_bottom = bottom.quality

    scaled = PatternTable(operator_counts=Counter({"times": 80 * 37, "plus": 20 * 37}))
    rescaled = run_attack(_five_option_class(Op.ADD, Op.MUL), table=scaled, truth=[truth_add])
    invariant = (
        [(r.key, r.count) for r in bottom.ranked] == [(r.key, r.count) for r in rescaled.ranked]
        and [r.log_score for r in bottom.ranked] == [r.log_score for r in rescaled.ranked]
        and rescaled.quality == q_bottom
    )
    ok = q_top == 0.0 and q_bottom == 1.0 - 1.0 / 5 and invariant
    announce(
        6,
        ok,
        f"Q(rank 1)={q_top}, Q(rank 5)={q_bottom} (want 0.8), rescale-invariant: {invariant}",
    )


# 7. --------------------------------------------------- guessing game

def test_criterion_07_guessing_game(announce):
    trials = 10**6
    worst_z = 0.0
    for pl in (0.3, 0.5, 0.7):
        for n in (5, 11, 21):
            acc = game_exact(pl, n)
            sim = game_simulate(pl, n, trials=trials, seed=42)
            sigma = math.sqrt(acc.exact * (1 - acc.exact) / trials)
            worst_z = max(worst_z, abs(sim - acc.exact) / sigma)
    worst_drop = 0.0
    for pl in (0.3, 0.5, 0.7):
        sim = game_simulate(
            pl, 11, trials=trials, seed=5,
            obf_strategy="f-as-misleading", att_strategy="f-first",
        )
        worst_drop = max(worst_drop, abs(sim - pl))
    ok = worst_z <= 3.0 and worst_drop <= 0.005
    announce(
        7,
        ok,
        f"worst |z| {worst_z:.2f} (limit 3), f-as-misleading drop to p_l within {worst_drop:.4f}",
    )


# 8. ---------------------------------------------- pattern aggregation

def _pct_table(count: int, total: int) -> PatternTable:
    return PatternTable(
        operator_counts=Counter({"posIncrement": count, "filler": total - count})
    )


def _random_tree(rng: random.Random, tally: Counter, depth: int = 3) -> ExprTree:
    ops = ("plus", "minus", "times", "greater")
    if depth == 0 or rng.random() < 0.3:
        return ExprTree("NameE")
    op = rng.choice(ops)
    tally[op] += 1
    return ExprTree(
        "BinaryE",
        op=op,
        children=(
            _random_tree(rng, tally, depth - 1),
            _random_tree(rng, tally, depth - 1),
        ),
    )


def test_criterion_08_pattern_aggregation(announce, datadir):
    tables = [_pct_table(c, 100) for c in (9, 7, 13, 10, 17)]
    row = next(
        r for r in aggregate(tables).rows["operators"] if r.key == "posIncrement"
    )
    row_ok = abs(row.mean - 11.1) <= 0.2 and abs(row.std - 3.4) <= 0.2

    rng = random.Random(8)
    tally: Counter = Counter()
    trees = [_random_tree(rng, tally) for _ in range(200)]
    counts_ok = mine(trees).operator_counts == tally

    from selectc.patterns import read_trees

    corpora = [read_trees(str(datadir / f"corpus_{n}.trees")) for n in ("a", "b")]
    agg = aggregate([mine(c) for c in corpora])
    worst_sum = 0.0
    for rows in agg.rows.values():
        for corpus_idx in range(2):
            total = sum(r.pcts[corpus_idx] for r in rows)
            if total:  # family may be absent from one corpus
                worst_sum = max(worst_sum, abs(total - 100.0))
    pct_ok = worst_sum <= 0.5
    announce(
        8,
        row_ok and counts_ok and pct_ok,
        f"mean {row.mean:.1f}/std {row.std:.2f} (want 11.1/3.4 +/- 0.2), "
        f"synthetic counts exact: {counts_ok}, family pct sum off by {worst_sum:.3g}%",
    )


# 9. ------------------------------------------------------- round trip

def test_criterion_09_round_trip(announce):
    gen = random.Random(1001)
    bad = 0
    for case in range(100):
        p = random_linear_program(gen, n_statements=gen.randint(1, 5))
        k = gen.choice((2, 3))
        bare, key_b = obfuscate_statement_level(
            p, ObfuscationConfig(mislead_factor=k, seed=case, fake_vars=("w", "z"))
        )
        fat, key_f = obfuscate_statement_level(
            p,
            ObfuscationConfig(
                mislead_factor=k, seed=case, fake_vars=("w", "z"), fake_combining=2
            ),
        )
        rec = deobfuscate(bare, key_b)
        bad += render_program(normalize(rec)) != render_program(normalize(p))
        env = random_inputs(p, gen)
        bad += eval_plain(p, env) != eval_plain(rec, env)

        # same seed, fakes on/off: the real statements are bitwise equal
        bare_lines = render_program(bare.program).splitlines()
        it = iter(render_program(fat.program).splitlines())
        bad += not all(line in it for line in bare_lines)
        eb = eval_env(
            bare.program,
            {**env, **key_b.bindings},
            {s: key_b.bits[s] for s in bare.program.selector_ids()},
        )
        ef = eval_env(
            fat.program,
            {**env, **key_f.bindings},
            {s: key_f.bits[s] for s in fat.program.selector_ids()},
        )
        bad += eb[bare.program.output] != ef[fat.program.output]
        bad += eb[bare.program.output] != eval_plain(p, env)
        bad += deobfuscate(fat, key_f) != rec
    announce(9, bad == 0, f"100 round trips, {bad} violations")


# 10. --------------------------------------------- position uniformity

def test_criterion_10_position_uniformity(announce):
    """Hidden option position is uniform across 1,000 seeds (alpha=0.01)."""
    base = program_of(
        inputs=["x", "y"],
        statements=[Assign("r", se(Op.ADD, "x", "y"))],
        consts={},
        prime=FIELD_PRIME,
    )
    counts = [0] * 5
    for seed in range(1000):
        obf, sk = obfuscate_statement_level(
            base, ObfuscationConfig(mislead_factor=5, seed=seed)
        )
        sels = selectors(obf.program.combines[len(obf.program) - 1])
        for pos, s in enumerate(sels):
            if sk.bits[s] == 1:
                counts[pos] += 1
    chi2 = sum((c - 200) ** 2 / 200 for c in counts)
    critical = 13.2767  # df=4, alpha=0.01
    announce(10, chi2 < critical, f"chi2 {chi2:.3f} < {critical} over counts {counts}")

"""Combining-statement obfuscation: structure, evaluation, round trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from selectc.attack import extract_class
from selectc.crypto import SelectorKey, dec, enc, keygen
from selectc.errors import ConfigError, KeyMismatchError, PoolExhaustedError
from selectc.field import ARITH_OPS, FIELD_PRIME, Op
from selectc.generate import random_inputs, random_linear_program
from selectc.ir import (
    Assign,
    Combine,
    Program,
    SimpleExpression,
    eval_env,
    eval_plain,
    normalize,
    render_program,
)
from selectc.obfuscate import (
    STRATEGIES,
    ObfuscationConfig,
    checked_key,
    deobfuscate,
    eval_encrypted,
    gen_misleading,
    obfuscate_program_level,
    obfuscate_statement_level,
    read_config,
    read_obf_program,
    write_obf_program,
)
from selectc.patterns import PatternTable

P = FIELD_PRIME


def square_program():
    return Program(
        inputs=["a"],
        statements=[Assign("c", SimpleExpression(Op.MUL, "a", "a"))],
        consts={},
        prime=P,
    )


def two_stmt_program():
    return Program(
        inputs=["x", "y"],
        statements=[
            Assign("t", SimpleExpression(Op.MUL, "x", "x")),
            Assign("r", SimpleExpression(Op.ADD, "t", "y")),
        ],
        consts={},
        prime=P,
    )


def run_encrypted(obf, sel_key, env, seed=0):
    key = keygen(seed, obf.program.prime)
    cts = {v: enc(key, val) for v, val in env.items()}
    return dec(key, eval_encrypted(obf, key, sel_key, cts))


# ------------------------------------------------- structure and evaluation

def test_two_option_demo_decrypts_to_square(two_option_class):
    obf, sel_key = two_option_class
    assert run_encrypted(obf, sel_key, {"a": 3}) == 9
    assert run_encrypted(obf, sel_key, {"a": 5}) == 25


def test_two_option_demo_deobfuscates_to_mul(two_option_class):
    obf, sel_key = two_option_class
    p = deobfuscate(obf, sel_key)
    (st,) = p.statements
    assert st.expr.op is Op.MUL
    assert p.inputs == ["a"]


def test_flipped_key_folds_to_the_decoy(two_option_class):
    obf, _ = two_option_class
    flipped = SelectorKey(bits={"s0": 0, "s1": 1}, bindings={})
    p = deobfuscate(obf, flipped)
    (st,) = p.statements
    assert st.expr.op is Op.ADD


def test_statement_level_group_shape():
    cfg = ObfuscationConfig(mislead_factor=3)
    obf, sel_key = obfuscate_statement_level(two_stmt_program(), cfg)
    # one group of k options plus a combine per original statement
    assert len(obf.program.statements) == (3 + 1) * 2
    combines = obf.combines()
    assert len(combines) == 2
    for _, st in combines:
        assert len(st.options) == 3
    assert sorted(checked_key(obf, sel_key)) == [idx for idx, _ in combines]


def test_statement_count_is_exactly_k_plus_one_per_statement():
    for n in (1, 2, 4):
        for k in (2, 5):
            p = random_linear_program(random.Random(n * 10 + k), n_statements=n)
            cfg = ObfuscationConfig(mislead_factor=k)
            obf, _ = obfuscate_statement_level(p, cfg)
            assert len(obf.program.statements) == (k + 1) * n


def test_obfuscated_program_computes_the_same_function():
    gen = random.Random(8)
    for seed in range(5):
        p = random_linear_program(gen, n_statements=4, n_inputs=2, n_consts=1)
        cfg = ObfuscationConfig(
            mislead_factor=3, fake_vars=("f0", "f1"), fake_combining=2, seed=seed
        )
        obf, sel_key = obfuscate_statement_level(p, cfg)
        for _ in range(3):
            env = random_inputs(p, gen)
            assert run_encrypted(obf, sel_key, env, seed) == eval_plain(p, env)


def test_original_consts_become_inputs_with_key_bindings():
    p = Program(
        inputs=["x"],
        statements=[Assign("r", SimpleExpression(Op.ADD, "x", "k"))],
        consts={"k": 41},
        prime=P,
    )
    obf, sel_key = obfuscate_statement_level(p, ObfuscationConfig())
    assert "k" in obf.program.inputs
    assert obf.program.consts == {}
    assert sel_key.bindings["k"] == 41
    assert run_encrypted(obf, sel_key, {"x": 1}) == 42


def test_round_trip_exact_on_const_using_program():
    p = Program(
        inputs=["x", "y"],
        statements=[
            Assign("t", SimpleExpression(Op.DIV, "x", "k")),
            Assign("r", SimpleExpression(Op.SUB, "t", "y")),
        ],
        consts={"k": 7},
        prime=P,
    )
    cfg = ObfuscationConfig(mislead_factor=4, fake_vars=("f0",), fake_combining=1)
    obf, sel_key = obfuscate_statement_level(p, cfg)
    assert deobfuscate(obf, sel_key) == p


def test_round_trip_many_random_programs():
    gen = random.Random(123)
    for seed in range(20):
        p = random_linear_program(gen, n_statements=gen.randint(1, 5))
        cfg = ObfuscationConfig(mislead_factor=gen.randint(2, 4), seed=seed)
        obf, sel_key = obfuscate_statement_level(p, cfg)
        back = deobfuscate(obf, sel_key)
        assert normalize(back) == normalize(p), seed


def test_fakes_do_not_disturb_real_groups():
    """Same seed with and without fake chains: identical real statements."""
    p = two_stmt_program()
    plain_cfg = ObfuscationConfig(mislead_factor=3, fake_vars=("f0", "f1"), seed=5)
    fake_cfg = ObfuscationConfig(
        mislead_factor=3, fake_vars=("f0", "f1"), fake_combining=3, seed=5
    )
    bare, bare_key = obfuscate_statement_level(p, plain_cfg)
    fat, fat_key = obfuscate_statement_level(p, fake_cfg)
    assert len(fat.program.statements) > len(bare.program.statements)

    bare_lines = render_program(bare.program).splitlines()
    fat_lines = render_program(fat.program).splitlines()
    it = iter(fat_lines)
    assert all(line in it for line in bare_lines), "real groups were disturbed"

    env = {"x": 6, "y": 1}
    assert run_encrypted(bare, bare_key, env) == run_encrypted(fat, fat_key, env)
    assert deobfuscate(fat, fat_key) == deobfuscate(bare, bare_key)


def test_fake_groups_never_reach_the_output():
    p = two_stmt_program()
    cfg = ObfuscationConfig(
        mislead_factor=2, fake_vars=("f0", "f1"), fake_combining=4, seed=9
    )
    obf, _ = obfuscate_statement_level(p, cfg)
    with_fakes = extract_class(obf)
    bare, _ = obfuscate_statement_level(
        p, ObfuscationConfig(mislead_factor=2, fake_vars=("f0", "f1"), seed=9)
    )
    assert with_fakes.class_size == extract_class(bare).class_size == 2**2
    # but the fakes are visible as extra combining statements
    assert len(obf.combines()) == 2 + 4


def test_obfuscation_is_seed_deterministic():
    p = two_stmt_program()
    cfg = ObfuscationConfig(mislead_factor=5, fake_combining=1, fake_vars=("f0", "f1"))
    a, ka = obfuscate_statement_level(p, cfg)
    b, kb = obfuscate_statement_level(p, cfg)
    assert render_program(a.program) == render_program(b.program)
    assert ka == kb
    cfg2 = ObfuscationConfig(
        mislead_factor=5, fake_combining=1, fake_vars=("f0", "f1"), seed=2
    )
    c, _ = obfuscate_statement_level(p, cfg2)
    assert render_program(c.program) != render_program(a.program)


def test_eval_encrypted_frees_its_intermediates():
    cfg = ObfuscationConfig(mislead_factor=3, fake_vars=("f0",), fake_combining=1)
    obf, sel_key = obfuscate_statement_level(two_stmt_program(), cfg)
    key = keygen(0)
    cts = {"x": enc(key, 3), "y": enc(key, 4)}
    for run in (1, 2):
        before = len(key)
        out = eval_encrypted(obf, key, sel_key, cts)
        assert len(key) == before + 1, run
        assert dec(key, out) == 13
    assert [dec(key, cts[v]) for v in ("x", "y")] == [3, 4]


@hst.composite
def obfuscations(draw):
    """(source, obfuscation, key, inputs) over every strategy and program level."""
    seed = draw(hst.integers(0, 2**32 - 1))
    strategy = draw(hst.sampled_from(STRATEGIES + ("program-level",)))
    rng = random.Random(seed)
    k = draw(hst.integers(2, 3))
    if strategy == "program-level":
        programs = [
            random_linear_program(rng, n_statements=draw(hst.integers(1, 4))) for _ in range(k)
        ]
        source = programs[draw(hst.integers(0, k - 1))]
        obf, sel_key = obfuscate_program_level(programs, programs.index(source), seed=seed)
    else:
        source = random_linear_program(
            rng, n_statements=draw(hst.integers(1, 4)), n_consts=draw(hst.integers(0, 2))
        )
        cfg = ObfuscationConfig(
            mislead_factor=k,
            strategy=strategy,
            pattern_table=PatternTable(),
            fake_vars=("f0", "f1"),
            fake_combining=draw(hst.integers(0, 2)),
            seed=seed,
        )
        obf, sel_key = obfuscate_statement_level(source, cfg)
    return source, obf, sel_key, random_inputs(source, rng)


@settings(max_examples=60, deadline=None)
@given(obfuscations(), hst.data())
def test_plain_and_encrypted_runs_agree(case, data):
    source, obf, sel_key, inputs = case
    want = eval_plain(source, inputs)
    plain = eval_env(obf.program, {**inputs, **sel_key.bindings}, sel_key.bits)
    assert plain[obf.program.output] == want
    assert run_encrypted(obf, sel_key, inputs) == want
    # the key holder's run accepts only one hot selector per combining statement
    _, st = data.draw(hst.sampled_from(obf.combines()))
    hot = next(s for s, _ in st.options if sel_key.bits[s])
    cold = next(s for s, _ in st.options if not sel_key.bits[s])
    for flip in (hot, cold):
        bad = SelectorKey(bits={**sel_key.bits, flip: 1 - sel_key.bits[flip]}, bindings=sel_key.bindings)
        with pytest.raises(KeyMismatchError):
            run_encrypted(obf, bad, inputs)


# ------------------------------------------------------ misleading options

def test_gen_misleading_options_are_distinct():
    stmt = Assign("r", SimpleExpression(Op.ADD, "x", "y"))
    cfg = ObfuscationConfig(mislead_factor=6, fake_vars=("w", "z"))
    ms = gen_misleading(stmt, cfg)
    keys = {(e.op, e.in1, e.in2) for e in ms.options}
    assert len(keys) == 5
    assert (stmt.expr.op, "x", "y") not in keys
    assert ms.confidential == stmt.expr
    assert not ms.prelude


def test_operation_only_keeps_operands():
    stmt = Assign("r", SimpleExpression(Op.ADD, "x", "y"))
    cfg = ObfuscationConfig(mislead_factor=4, strategy="operation-only", op_pool=ARITH_OPS)
    ms = gen_misleading(stmt, cfg)
    assert all(e.in1 == "x" and e.in2 == "y" for e in ms.options)
    assert len({e.op for e in ms.options} | {Op.ADD}) == 4


def test_operand_only_keeps_operation():
    stmt = Assign("r", SimpleExpression(Op.MUL, "x", "y"))
    cfg = ObfuscationConfig(mislead_factor=3, strategy="operand-only", fake_vars=("w", "z"))
    ms = gen_misleading(stmt, cfg)
    assert all(e.op is Op.MUL for e in ms.options)
    assert all((e.in1, e.in2) != ("x", "y") for e in ms.options)


def test_operation_only_pool_exhaustion():
    stmt = Assign("r", SimpleExpression(Op.ADD, "x", "y"))
    cfg = ObfuscationConfig(
        mislead_factor=3, strategy="operation-only", op_pool=(Op.ADD, Op.SUB)
    )
    with pytest.raises(PoolExhaustedError):
        gen_misleading(stmt, cfg)


def test_combined_temporaries_hide_operands_and_operation():
    p = square_program()
    cfg = ObfuscationConfig(
        mislead_factor=3, strategy="combined-temporaries", fake_vars=("w", "z")
    )
    obf, sel_key = obfuscate_statement_level(p, cfg)
    # two operand-hiding combines plus the option group's combine
    assert len(obf.combines()) == 3
    assert extract_class(obf).class_size == 3**3
    assert run_encrypted(obf, sel_key, {"a": 4}) == 16
    assert normalize(deobfuscate(obf, sel_key)) == normalize(p)


def test_pattern_aware_prefers_frequent_operations():
    from selectc.patterns import PatternTable

    table = PatternTable()
    table.operator_counts.update({"times": 5000, "plus": 1})
    stmt = Assign("r", SimpleExpression(Op.DIV, "x", "y"))
    cfg = ObfuscationConfig(
        mislead_factor=2,
        strategy="pattern-aware",
        pattern_table=table,
        fake_vars=("w", "z"),
    )
    from selectc.rng import spawn

    rng = spawn(0, "bias-check")
    hits = 0
    trials = 300
    for _ in range(trials):
        ms = gen_misleading(stmt, cfg, rng=rng)
        hits += sum(e.op is Op.MUL for e in ms.options)
    assert hits / trials > 0.5, "mined frequencies should steer decoy operations"


# ------------------------------------------------------------- validation

def test_config_validation():
    p = square_program()
    with pytest.raises(ConfigError):
        obfuscate_statement_level(p, ObfuscationConfig(mislead_factor=1))
    with pytest.raises(ConfigError):
        obfuscate_statement_level(p, ObfuscationConfig(strategy="nope"))
    with pytest.raises(ConfigError):
        obfuscate_statement_level(p, ObfuscationConfig(fake_combining=2))
    with pytest.raises(ConfigError):
        obfuscate_statement_level(p, ObfuscationConfig(strategy="pattern-aware"))
    with pytest.raises(ConfigError):
        obfuscate_statement_level(p, ObfuscationConfig(fake_vars=("a",)))


def test_source_must_be_simple_assignments():
    p = Program(
        inputs=["x"],
        statements=[
            Assign("o0", SimpleExpression(Op.ADD, "x", "x")),
            Assign("o1", SimpleExpression(Op.MUL, "x", "x")),
            Combine("c", (("s0", "o0"), ("s1", "o1"))),
        ],
        consts={},
        prime=P,
    )
    with pytest.raises(ConfigError):
        obfuscate_statement_level(p, ObfuscationConfig())
    with pytest.raises(ConfigError):
        obfuscate_statement_level(
            Program(inputs=[], statements=[], consts={}, prime=P),
            ObfuscationConfig(),
        )


# ----------------------------------------------------------- program level

def five_programs():
    gen = random.Random(55)
    return [
        random_linear_program(gen, n_statements=2, n_inputs=2, n_consts=0)
        for _ in range(5)
    ]


def test_program_level_selects_the_real_output():
    progs = five_programs()
    env = {v: 7 for p in progs for v in p.inputs}
    for i_star in range(5):
        obf, sel_key = obfuscate_program_level(progs, i_star, seed=3)
        want = eval_plain(progs[i_star], {v: env[v] for v in progs[i_star].inputs})
        assert run_encrypted(obf, sel_key, env) == want


def test_program_level_skeleton_hides_the_choice():
    progs = five_programs()
    texts = set()
    bit_patterns = set()
    for i_star in range(5):
        obf, sel_key = obfuscate_program_level(progs, i_star, seed=3)
        texts.add(render_program(obf.program))
        bit_patterns.add(tuple(sorted(sel_key.bits.items())))
    assert len(texts) == 1, "obfuscated text must not depend on the secret index"
    assert len(bit_patterns) == 5


def test_program_level_validation():
    progs = five_programs()
    with pytest.raises(ConfigError):
        obfuscate_program_level(progs[:1], 0)
    with pytest.raises(ConfigError):
        obfuscate_program_level(progs, 9)
    small = Program(
        inputs=["x"],
        statements=[Assign("r", SimpleExpression(Op.ADD, "x", "x"))],
        consts={},
        prime=97,
    )
    with pytest.raises(ConfigError):
        obfuscate_program_level([progs[0], small], 0)


# ------------------------------------------------------------- file formats

def test_obf_file_round_trip(tmp_path):
    p = two_stmt_program()
    obf, _ = obfuscate_statement_level(p, ObfuscationConfig(mislead_factor=3))
    path = tmp_path / "p.obf"
    write_obf_program(str(path), obf)
    loaded = read_obf_program(str(path))
    assert loaded.program == obf.program
    assert loaded.selector_ids == obf.selector_ids


def test_read_config(tmp_path):
    path = tmp_path / "obf.cfg"
    path.write_text(
        "# demo config\n"
        "k = 4\n"
        "fake_vars = f0, f1\n"
        "ops = ADD, MUL, DIV\n"
        "fake_combining = 2\n"
        "strategy = uniform\n"
        "seed = 99\n"
    )
    cfg = read_config(str(path))
    assert cfg.mislead_factor == 4
    assert cfg.fake_vars == ("f0", "f1")
    assert cfg.op_pool == (Op.ADD, Op.MUL, Op.DIV)
    assert cfg.fake_combining == 2
    assert cfg.seed == 99


def test_read_config_rejects_unknown_key(tmp_path):
    from selectc.errors import FormatError

    path = tmp_path / "bad.cfg"
    path.write_text("mislead = 3\n")
    with pytest.raises(FormatError):
        read_config(str(path))

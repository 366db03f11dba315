"""Combining-statement obfuscation: structure, evaluation, round trips."""

import functools
import gc
import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from selectc import obfuscate
from selectc.attack import extract_class
from selectc.crypto import SelectorKey, dec, enc, keygen
from selectc.demos import build_l0, build_l1
from selectc.errors import (
    ConfigError,
    ForeignCiphertextError,
    FormatError,
    KeyMismatchError,
    PoolExhaustedError,
    SelectcError,
    UnboundVariableError,
)
from selectc.field import ALL_OPS, ARITH_OPS, FIELD_PRIME, Op
from selectc.generate import random_inputs, random_linear_program
from selectc.ir import (
    Assign,
    Combine,
    Program,
    SimpleExpression,
    eval_env,
    eval_plain,
    normalize,
    parse_program,
    render_program,
    run_statements,
    selectors,
    sources,
    unbound_inputs,
)
from selectc.obfuscate import (
    _ENUMERATE_LIMIT,
    STRATEGIES,
    ObfProgram,
    ObfuscationConfig,
    _distinct_expressions,
    checked_key,
    deobfuscate,
    eval_encrypted,
    obfuscate_program_level,
    obfuscate_statement_level,
    read_config,
    read_obf_program,
    write_obf_program,
)
from selectc.patterns import PatternTable
from selectc.rng import DEFAULT_SEED

from crypto_reference import enc_many, he_op
from programs import program_of

P = FIELD_PRIME


def square_program():
    return program_of(
        inputs=["a"],
        statements=[Assign("c", SimpleExpression(Op.MUL, "a", "a"))],
        consts={},
        prime=P,
    )


def two_stmt_program():
    return program_of(
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


def test_deobfuscate_refuses_a_reassigned_variable():
    """The fold would inline v's second definition where evaluation reads its first."""
    program = parse_program(
        "input x\ninput y\nv := ADD x y\nc := COMBINE (s0,v) (s1,x)\n"
        "v := MUL x x\nr := SUB c y\n"
    )
    obf = ObfProgram(program=program, selector_ids=program.selector_ids())
    with pytest.raises(FormatError, match="statement 3 assigns 'v' again"):
        deobfuscate(obf, SelectorKey(bits={"s0": 1, "s1": 0}))


@pytest.mark.parametrize("level", ["statement", "program"])
@pytest.mark.parametrize("target", ["#t", "input", "prime", "const"])
def test_a_target_the_obf_reader_cannot_read_back_is_refused(level, target):
    """An .obf line assigning '#t' reads back as a comment, and one
    assigning a header word as a malformed header line: either would
    lose or refuse a statement, so the source is refused first."""
    program = Program.from_columns(
        ["x"], [Op.ADD, Op.MUL], ["x", target], ["x", "x"], [target, "r"], prime=101
    )
    with pytest.raises(FormatError, match=f"target '{target}' cannot be read back"):
        if level == "statement":
            obfuscate_statement_level(program, ObfuscationConfig(mislead_factor=2))
        else:
            obfuscate_program_level([program, program], 0)


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
    assert len(obf.program) == (3 + 1) * 2
    combines = obf.program.combines
    assert len(combines) == 2
    for options in combines.values():
        assert len(selectors(options)) == len(sources(options)) == 3
    assert sorted(checked_key(obf, sel_key)) == list(combines)


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
    p = program_of(
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
    p = program_of(
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


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fakes_do_not_disturb_real_groups(strategy, k):
    """Same seed with and without fake chains: the real lines in the same
    order, the real bits in the same order with the same values and ahead
    of the fakes' bits, and the same run and fold."""
    table = PatternTable()
    table.operator_counts.update({"times": 7, "plus": 3})
    programs = [two_stmt_program()] + [
        random_linear_program(random.Random(s), n_statements=6) for s in range(3)
    ]
    for seed, p in enumerate(programs, start=5):
        plain_cfg = ObfuscationConfig(
            mislead_factor=k, strategy=strategy, pattern_table=table, fake_vars=("f0", "f1"), seed=seed
        )
        bare, bare_key = obfuscate_statement_level(p, plain_cfg)
        fat, fat_key = obfuscate_statement_level(p, replace(plain_cfg, fake_combining=3))
        assert len(fat.program) == len(bare.program) + 3 * (k + 1)

        it = iter(render_program(fat.program).splitlines())
        assert all(line in it for line in render_program(bare.program).splitlines()), (
            "real groups were disturbed"
        )
        bare_bits = list(bare_key.bits.items())
        assert list(fat_key.bits.items())[: len(bare_bits)] == bare_bits

        env = random_inputs(p, random.Random(seed))
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
    assert len(obf.program.combines) == 2 + 4


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


def late_input_program():
    """A 30-statement chain over x whose last statement alone reads the input z."""
    statements = [Assign("t0", SimpleExpression(Op.MUL, "x", "x"))]
    for i in range(1, 29):
        statements.append(Assign(f"t{i}", SimpleExpression(ALL_OPS[i % 10], f"t{i - 1}", "x")))
    statements.append(Assign("r", SimpleExpression(Op.ADD, "t28", "z")))
    return program_of(inputs=["x", "z"], statements=statements, consts={"k": 5}, prime=P)


@pytest.mark.parametrize("case", ["foreign", "unbound"])
def test_eval_encrypted_frees_its_intermediates_on_error(case):
    """Handles minted before a ForeignCiphertextError or an
    UnboundVariableError are freed as on a normal return."""
    cfg = ObfuscationConfig(mislead_factor=2, fake_vars=("f0",), fake_combining=1)
    obf, sel_key = obfuscate_statement_level(late_input_program(), cfg)
    key = keygen(0)
    cts = {"x": enc(key, 3)}
    if case == "foreign":
        cts["z"] = enc(keygen(1), 4)
        error = ForeignCiphertextError
    else:
        error = UnboundVariableError
    before = len(key)
    with pytest.raises(error):
        eval_encrypted(obf, key, sel_key, cts)
    assert len(key) == before
    assert dec(key, cts["x"]) == 3


# sha256 of the output handle and the key's store after each of three runs
# of the program below under keygen(7): the handle stream of eval_encrypted
HANDLE_STREAM_SHA256 = "ae58af651ce21a1476b5fc1978a5c1a6d4b062d01392959ab0d7ce1d1ead2802"


def test_eval_encrypted_handle_stream_is_pinned():
    """The handles eval_encrypted mints depend only on the key's seed, in
    the order bindings, selectors, then one per operation."""
    program = random_linear_program(random.Random(12), n_statements=6)
    cfg = ObfuscationConfig(mislead_factor=3, fake_vars=("f0", "f1"), fake_combining=2, seed=12)
    obf, sel_key = obfuscate_statement_level(program, cfg)
    key = keygen(7)
    digest = hashlib.sha256()
    for run in range(3):
        cts = {v: enc(key, 10 * run + i) for i, v in enumerate(program.inputs)}
        out = eval_encrypted(obf, key, sel_key, cts)
        digest.update(f"{out.handle:x}|".encode())
        digest.update(repr(list(key._store.items())).encode())
    assert len(key) == 9
    assert digest.hexdigest() == HANDLE_STREAM_SHA256


def reference_eval_encrypted(obf, key, sel_key, enc_inputs):
    """eval_encrypted as a statement walk: ir.run_statements over he_op,
    after the inputs check that ir.field_env makes for a plain run.

    Every handle the walk mints is freed again, the output's last and
    only on return: the store's newest entries are popped and the
    output goes back at its end.
    """
    checked_key(obf, sel_key)
    store = key._store
    mark = len(store)
    out = None
    try:
        bindings = sel_key.bindings
        env = dict(zip(bindings, enc_many(key, bindings.values())))
        env.update(enc_inputs)
        sel_ct = dict(zip(sel_key.bits, enc_many(key, sel_key.bits.values())))
        ops = {op: functools.partial(he_op, key, op) for op in ALL_OPS}
        program = obf.program
        missing = [v for v in program.inputs if v not in env]
        if missing:
            raise unbound_inputs(missing)
        out = run_statements(program, range(len(program)), env, sel_ct, ops)[program.output]
    finally:
        value = None if out is None else store[out.handle]
        for _ in range(len(store) - mark):
            store.popitem()
        if out is not None:
            store[out.handle] = value
    return out


def test_eval_encrypted_mints_what_the_statement_walk_mints():
    """Run after run on one key, eval_encrypted leaves the output handle
    and the key's store the statement walk leaves."""
    cases = [(d.obf, d.sel_key) for d in (build_l0(), build_l1())]
    for seed in range(4):
        program = random_linear_program(random.Random(seed), n_statements=5, n_consts=1)
        cfg = ObfuscationConfig(
            mislead_factor=3, strategy=STRATEGIES[seed], fake_vars=("f0", "f1"),
            fake_combining=seed % 2, seed=seed, pattern_table=PatternTable(),
        )
        cases.append(obfuscate_statement_level(program, cfg))
    for obf, sel_key in cases:
        inputs = [v for v in obf.program.inputs if v not in sel_key.bindings]
        keys = keygen(5), keygen(5)
        for run in range(3):
            outs = [
                fn(obf, key, sel_key, dict(zip(inputs, enc_many(key, range(run, run + len(inputs))))))
                for fn, key in zip((eval_encrypted, reference_eval_encrypted), keys)
            ]
            assert outs[0] == outs[1]
            assert list(keys[0]._store.items()) == list(keys[1]._store.items())


READ_BEFORE_ASSIGNED = """input x
t := ADD x u
u := MUL x x
c := COMBINE (s0,t) (s1,u)
"""
READ_BEFORE_ASSIGNED_IN_COMBINE = """input x
c := COMBINE (s0,x) (s1,u)
u := MUL x x
"""
REASSIGNED = """input x
input y
v := ADD x y
c := COMBINE (s0,v) (s1,x)
v := MUL x x
r := SUB c y
"""
FOREIGN_SOURCE = """input x
input y
a := ADD x x
c := COMBINE (s0,a) (s1,y)
"""


@pytest.mark.parametrize(
    "text, inputs, foreign",
    [
        (REASSIGNED, ["x"], None),
        (READ_BEFORE_ASSIGNED, ["x"], None),
        (READ_BEFORE_ASSIGNED_IN_COMBINE, ["x"], None),
        (REASSIGNED, ["x", "y"], "x"),
        (REASSIGNED, ["x", "y"], "y"),
        (FOREIGN_SOURCE, ["x", "y"], "y"),
        (REASSIGNED, ["x", "y"], None),
    ],
    ids=["unbound-input", "read-before-assigned", "read-before-assigned-in-combine",
         "foreign-first-operand", "foreign-second-operand", "foreign-in-combine", "reassigned"],
)
def test_eval_encrypted_fails_as_the_statement_walk_fails(text, inputs, foreign):
    """Same error class and message as the walk, the store as it was, and
    the same next handle; a reassigned variable reads its value at the
    time, as the walk does."""
    program = parse_program(text)
    obf = ObfProgram(program=program, selector_ids=program.selector_ids())
    sel_key = SelectorKey(bits={"s0": 1, "s1": 0})
    results = []
    for fn in (eval_encrypted, reference_eval_encrypted):
        key = keygen(3)
        cts = dict(zip(inputs, enc_many(key, [5, 7])))
        if foreign is not None:
            cts[foreign] = enc(keygen(4), 9)
        before = list(key._store.items())
        try:
            results.append(dec(key, fn(obf, key, sel_key, cts)))
        except SelectcError as exc:
            results.append((type(exc), str(exc)))
            assert list(key._store.items()) == before
        results.append(enc(key, 1).handle)
    assert results[:2] == results[2:]
    if text == REASSIGNED and len(inputs) == 2 and foreign is None:
        assert results[0] == 5
    else:
        assert issubclass(results[0][0], SelectcError)


def _with_row(program, at, op, in1, in2, inputs=None):
    """program with statement at replaced by targets[at] := op in1 in2,
    and with inputs in place of its own if given, built anew."""
    ops, col1, col2, targets = (list(column) for column in program.columns)
    ops[at], col1[at], col2[at] = op, in1, in2
    return Program.from_columns(
        program.inputs if inputs is None else inputs,
        ops, col1, col2, targets, program.combines, program.consts, program.prime,
    )


def test_eval_encrypted_notices_changes_made_in_place():
    """The cached check follows a program rebuilt with an edited
    statement or a new input, and edits made in place to the bits, their
    order and the bindings; each run equals the deobfuscated program's."""
    source = random_linear_program(random.Random(8), n_statements=4, n_consts=1)
    cfg = ObfuscationConfig(mislead_factor=3, fake_vars=("f0",), fake_combining=1, seed=8)
    obf, sel_key = obfuscate_statement_level(source, cfg)
    program = obf.program
    inputs = random_inputs(source, random.Random(8))

    def run_matches_fold(given):
        got = run_encrypted(obf, sel_key, given)
        assert got == eval_plain(deobfuscate(obf, sel_key), given)
        return got

    first = run_matches_fold(inputs)
    # swap the operation of the output combine's hot option
    options = program.combines[len(program) - 1]
    sels = selectors(options)
    hot = next(src for s, src in zip(sels, sources(options)) if sel_key.bits[s])
    at = program.columns[3].index(hot)
    old_op, old_in1, old_in2, _ = (column[at] for column in program.columns)
    new_op = Op.SUB if old_op is not Op.SUB else Op.ADD
    obf.program = _with_row(program, at, new_op, old_in1, old_in2)
    assert run_matches_fold(inputs) != first
    # a new input, read by the hot option
    obf.program = _with_row(obf.program, at, new_op, old_in1, old_in2, [*program.inputs, "w"])
    with pytest.raises(UnboundVariableError, match=r"input variable\(s\): w"):
        run_encrypted(obf, sel_key, inputs)
    obf.program = _with_row(obf.program, at, Op.MUL, old_in1, "w")
    run_matches_fold({**inputs, "w": 3})
    inputs["w"] = 3
    # move the hot selector of that combine to another option
    on = next(s for s in sels if sel_key.bits[s])
    off = next(s for s in sels if not sel_key.bits[s])
    sel_key.bits[on], sel_key.bits[off] = 0, 1
    run_matches_fold(inputs)
    # the same bits in another order: selectors are encrypted in bit order
    first = next(iter(sel_key.bits))
    sel_key.bits[first] = sel_key.bits.pop(first)
    run_matches_fold(inputs)
    # rebind a key-bound value
    bound = next(iter(sel_key.bindings))
    sel_key.bindings[bound] += 11
    run_matches_fold(inputs)
    # a second hot selector breaks the key
    sel_key.bits[on] = 1
    with pytest.raises(KeyMismatchError):
        run_encrypted(obf, sel_key, inputs)


def test_repeated_runs_check_and_compile_once(monkeypatch):
    """100 runs of one (obfuscation, selector key), a fresh key each, check
    the key once: exactly one checked_key call in all of them."""
    source = random_linear_program(random.Random(9), n_statements=3, n_consts=1)
    obf, sel_key = obfuscate_statement_level(source, ObfuscationConfig(mislead_factor=3, seed=9))
    calls = Counter()

    def counting(fn):
        def counted(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(obfuscate, "checked_key", counting(obfuscate.checked_key))
    rng = random.Random(9)
    for seed in range(100):
        inputs = random_inputs(source, rng)
        assert run_encrypted(obf, sel_key, inputs, seed) == eval_plain(source, inputs)
    assert calls["checked_key"] == 1


def test_a_cold_run_leaves_a_handful_of_objects():
    """A cold run of a 4,000-statement obfuscation leaves a few objects
    behind, not one per statement or operation: the cyclic collector has
    nothing new to walk after it. What it keeps is obf.prepared."""
    source = random_linear_program(random.Random(10), n_statements=1000)
    obf, sel_key = obfuscate_statement_level(source, ObfuscationConfig(mislead_factor=3, seed=10))
    assert len(obf.program) == 4000
    key = keygen(10)
    cts = {v: enc(key, i) for i, v in enumerate(source.inputs)}
    gc.collect()
    before = len(gc.get_objects())
    eval_encrypted(obf, key, sel_key, cts)
    gc.collect()
    assert len(gc.get_objects()) - before <= 4
    assert obf.prepared[1] == 1000 * (3 + 5)  # 3 assignments and a 3-way combine each


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
    sels = selectors(data.draw(hst.sampled_from(list(obf.program.combines.values()))))
    hot = next(s for s in sels if sel_key.bits[s])
    cold = next(s for s in sels if not sel_key.bits[s])
    for flip in (hot, cold):
        bad = SelectorKey(bits={**sel_key.bits, flip: 1 - sel_key.bits[flip]}, bindings=sel_key.bindings)
        with pytest.raises(KeyMismatchError):
            run_encrypted(obf, bad, inputs)


@settings(max_examples=60, deadline=None)
@given(obfuscations())
def test_every_emitted_key_is_one_hot(case):
    """The obfuscators build a one-hot key and do not check it
    themselves: under all five strategies and program-level
    obfuscation, checked_key accepts the key emitted, which binds
    exactly the program's selectors."""
    _, obf, sel_key, _ = case
    assert set(sel_key.bits) == set(obf.program.selector_ids())
    assert sorted(checked_key(obf, sel_key)) == list(obf.program.combines)


# ------------------------------------------------------ misleading options

def misleading_options(stmt, cfg, rng=None, var_pool=None):
    """The k - 1 options obfuscate_statement_level draws for stmt under
    cfg's strategy (not combined-temporaries). The pool defaults to the
    statement's operands plus cfg's fake variables."""
    if rng is None:
        rng = random.Random(DEFAULT_SEED if cfg.seed is None else cfg.seed)
    if var_pool is None:
        var_pool = list(dict.fromkeys([stmt.expr.in1, stmt.expr.in2, *cfg.fake_vars]))
    cfg.validate()
    draw = obfuscate._option_draw(cfg, rng, var_pool, obfuscate._op_weights(cfg))
    return [SimpleExpression(*e) for e in draw(stmt.expr.op, stmt.expr.in1, stmt.expr.in2)]


def test_misleading_options_are_distinct():
    stmt = Assign("r", SimpleExpression(Op.ADD, "x", "y"))
    cfg = ObfuscationConfig(mislead_factor=6, fake_vars=("w", "z"))
    options = misleading_options(stmt, cfg)
    keys = {(e.op, e.in1, e.in2) for e in options}
    assert len(keys) == 5
    assert (stmt.expr.op, "x", "y") not in keys


def test_operation_only_keeps_operands():
    stmt = Assign("r", SimpleExpression(Op.ADD, "x", "y"))
    cfg = ObfuscationConfig(mislead_factor=4, strategy="operation-only", op_pool=ARITH_OPS)
    options = misleading_options(stmt, cfg)
    assert all(e.in1 == "x" and e.in2 == "y" for e in options)
    assert len({e.op for e in options} | {Op.ADD}) == 4


def test_operand_only_keeps_operation():
    stmt = Assign("r", SimpleExpression(Op.MUL, "x", "y"))
    cfg = ObfuscationConfig(mislead_factor=3, strategy="operand-only", fake_vars=("w", "z"))
    options = misleading_options(stmt, cfg)
    assert all(e.op is Op.MUL for e in options)
    assert all((e.in1, e.in2) != ("x", "y") for e in options)


def test_operation_only_pool_exhaustion():
    stmt = Assign("r", SimpleExpression(Op.ADD, "x", "y"))
    cfg = ObfuscationConfig(
        mislead_factor=3, strategy="operation-only", op_pool=(Op.ADD, Op.SUB)
    )
    with pytest.raises(PoolExhaustedError):
        misleading_options(stmt, cfg)


def test_combined_temporaries_hide_operands_and_operation():
    p = square_program()
    cfg = ObfuscationConfig(
        mislead_factor=3, strategy="combined-temporaries", fake_vars=("w", "z")
    )
    obf, sel_key = obfuscate_statement_level(p, cfg)
    # two operand-hiding combines plus the option group's combine
    assert len(obf.program.combines) == 3
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
        hits += sum(e.op is Op.MUL for e in misleading_options(stmt, cfg, rng))
    assert hits / trials > 0.5, "mined frequencies should steer decoy operations"


# ------------------------------------------- misleading-statement sampler

def reference_distinct_expressions(
    rng, count, op_choices, var_choices, forbidden, op_weights=None
):
    """The sampler as it was before drawing by index: it built the whole
    expression space of up to _ENUMERATE_LIMIT expressions per draw."""
    space = len(op_choices) * len(var_choices) ** 2
    usable = space - sum(
        1
        for key in forbidden
        if any(o.value == key[0] for o in op_choices)
        and key[1] in var_choices
        and key[2] in var_choices
    )
    if usable < count:
        raise PoolExhaustedError(
            f"need {count} distinct statements but the pool only offers {usable}"
        )
    picked = []
    seen = set(forbidden)
    if space <= _ENUMERATE_LIMIT and op_weights is None:
        universe = [
            (op, a, b)
            for op in op_choices
            for a in var_choices
            for b in var_choices
            if (op.value, a, b) not in seen
        ]
        return rng.sample(universe, count)
    while len(picked) < count:
        if op_weights is None:
            op = rng.choice(op_choices)
        else:
            op = rng.choices(op_choices, weights=op_weights, k=1)[0]
        expr = (op, rng.choice(var_choices), rng.choice(var_choices))
        key = (op.value, *expr[1:])
        if key in seen:
            continue
        seen.add(key)
        picked.append(expr)
    return picked


def _draw_outcome(sampler, seed, *args, **kwargs):
    """(picks or the exception raised, RNG state afterwards)."""
    rng = random.Random(seed)
    try:
        result = sampler(rng, *args, **kwargs)
    except (SelectcError, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, rng.getstate()


@hst.composite
def sampler_cases(draw):
    """Op subsets, pools on both sides of _ENUMERATE_LIMIT, forbidden sets
    (empty, one key, keys outside the pool) and counts up to the boundary."""
    ops = draw(hst.lists(hst.sampled_from(ALL_OPS), min_size=1, max_size=10, unique=True))
    names = [f"v{i}" for i in range(draw(hst.integers(1, 80)))]
    if draw(hst.booleans()):
        names = draw(hst.permutations(names))
    outside = hst.tuples(
        hst.sampled_from([op.value for op in ALL_OPS]),
        hst.sampled_from(names + ["w0", "w1"]),
        hst.sampled_from(names + ["w0"]),
    )
    inside = hst.tuples(
        hst.sampled_from([op.value for op in ops]),
        hst.sampled_from(names),
        hst.sampled_from(names),
    )
    forbidden = draw(
        hst.one_of(
            hst.just(set()),
            inside.map(lambda key: {key}),
            hst.sets(hst.one_of(inside, outside), max_size=4),
        )
    )
    weights = draw(
        hst.one_of(hst.none(), hst.lists(hst.integers(1, 5), min_size=len(ops), max_size=len(ops)))
    )
    space = len(ops) * len(names) ** 2
    usable = space - sum(
        1
        for op, a, b in forbidden
        if op in {o.value for o in ops} and a in names and b in names
    )
    counts = hst.integers(0, min(usable + 1, 8))
    if usable <= 64:
        counts = hst.one_of(counts, hst.sampled_from([usable, usable + 1]))
    return ops, names, forbidden, weights, draw(counts)


@settings(max_examples=300, deadline=None)
@given(sampler_cases(), hst.integers(0, 2**32 - 1))
def test_sampler_draws_what_the_reference_draws(case, seed):
    """Same picks (or error) and the same RNG state afterwards."""
    ops, names, forbidden, weights, count = case
    args = (count, ops, names, forbidden, weights)
    assert _draw_outcome(_distinct_expressions, seed, *args) == _draw_outcome(
        reference_distinct_expressions, seed, *args
    )


def test_sampler_draws_from_pools_with_repeated_names():
    """A config may repeat a fake variable or an operation; the space then
    holds an expression more than once, as the built list did."""
    ops = [Op.ADD, Op.MUL, Op.ADD]
    names = ["x", "f0", "x", "f0", "y"]
    for seed in range(200):
        for forbidden in (set(), {("ADD", "x", "f0")}, {("MUL", "y", "y"), ("ADD", "x", "x")}):
            for count in (1, 4, 60):
                args = (count, ops, names, forbidden)
                assert _draw_outcome(_distinct_expressions, seed, *args) == _draw_outcome(
                    reference_distinct_expressions, seed, *args
                )


def test_sampler_draws_like_the_reference_at_samples_list_set_threshold():
    """rng.sample swaps picks out of a list up to a set's size (21 indices
    for up to 5 picks, 85 for 6 to 21) and redraws repeats above it; the
    inline draw must switch at the same size."""
    ops = [Op.ADD]
    for n, count, sizes in ((5, 3, (20, 21, 22)), (10, 6, (84, 85, 86))):
        names = [f"v{i}" for i in range(n)]
        keys = [("ADD", a, b) for a in names for b in names]
        for size in sizes:
            forbidden = set(keys[: n * n - size])
            for seed in range(30):
                args = (count, ops, names, forbidden)
                assert _draw_outcome(_distinct_expressions, seed, *args) == _draw_outcome(
                    reference_distinct_expressions, seed, *args
                )


def reference_gen_combined(expr, cfg, rng, var_pool, fresh, sel):
    """The combined-temporaries draw that copies the pool for every operand slot."""
    k = cfg.mislead_factor
    op, in1, in2 = expr
    prelude = []
    bits = {}
    temp_for = []
    for true_var in (in1, in2):
        others = [v for v in var_pool if v != true_var]
        if len(others) < k - 1:
            raise PoolExhaustedError(
                f"operand slot needs {k - 1} decoy variables but only {len(others)} exist"
            )
        candidates = [true_var] + rng.sample(others, k - 1)
        rng.shuffle(candidates)
        sels = [sel() for _ in candidates]
        bits.update({s: int(v == true_var) for s, v in zip(sels, candidates)})
        temp = fresh()
        prelude.append((temp, (*sels, *candidates)))
        temp_for.append(temp)
    others_ops = [o for o in cfg.op_pool if o is not op]
    if len(others_ops) < k - 1:
        raise PoolExhaustedError(
            f"operation slot needs {k - 1} decoy operations but only {len(others_ops)} exist"
        )
    chosen_ops = rng.sample(others_ops, k - 1)
    t1, t2 = temp_for
    return [(op, t1, t2)] + [(o, t1, t2) for o in chosen_ops], prelude, bits


def names_one_by_one(prefix, used):
    """prefix0, prefix1, ... without the names in used, one at a time, each
    with the count of candidates tried so far: the reference for
    _Namer.take."""
    for n in itertools.count(1):
        name = f"{prefix}{n - 1}"
        if name not in used:
            yield name, n


@settings(max_examples=300, deadline=None)
@given(
    hst.sets(hst.integers(0, 40)),
    hst.sets(hst.sampled_from(["x", "s0", "t", "t01", "tt3"])),
    hst.lists(hst.integers(0, 12), max_size=5),
)
def test_take_names_what_repeated_calls_name(used_numbers, other_used, counts):
    """A run of used names, scattered ones, names that only look like
    fresh ones and take(0): the names taken one at a time, in the same
    order, and the counter left just past the last of them."""
    used = {f"t{i}" for i in used_numbers} | other_used
    bulk, one_by_one = obfuscate._Namer("t", used), names_one_by_one("t", used)
    n = 0
    for count in counts:
        want = [next(one_by_one) for _ in range(count)]
        if want:
            n = want[-1][1]
        assert bulk.take(count) == tuple(name for name, _ in want)
        assert bulk.n == n


def _combined_outcome(draw, seed, expr, k, pool):
    """(the draw's expressions, prelude and bits, or the error raised; RNG
    state afterwards) for the statement r := expr."""
    cfg = ObfuscationConfig(mislead_factor=k, strategy="combined-temporaries")
    rng = random.Random(seed)
    # a draw takes two temporaries and 2k selectors, as obfuscate_statement_level hands them out
    fresh = iter(obfuscate._Namer("t", set(pool) | {"r"}).take(2)).__next__
    sel = iter(obfuscate._Namer("s", set()).take(2 * k)).__next__
    try:
        exprs, prelude, bits = draw(expr, cfg, rng, pool, fresh, sel)
        result = (exprs, prelude, list(bits.items()))
    except SelectcError as exc:
        result = (type(exc), str(exc))
    return result, rng.getstate()


@settings(max_examples=150, deadline=None)
@given(
    hst.lists(hst.sampled_from(["x", "y", "z", "f0", "f1", "t0"]), min_size=1, max_size=12),
    hst.sampled_from(["x", "y", "w"]),
    hst.sampled_from(["x", "z", "w"]),
    hst.integers(2, 7),
    hst.integers(0, 2**32 - 1),
)
def test_combined_draws_what_the_reference_draws(pool, in1, in2, k, seed):
    """Pools with repeated names, operands in the pool (once or more) or
    not, and k up to past the PoolExhaustedError boundary: same parts,
    same error and the same RNG state afterwards."""
    expr = (Op.MUL, in1, in2)

    def library(expr, cfg, rng, pool, fresh, sel):
        return obfuscate._gen_combined(expr, cfg, rng, pool, obfuscate._positions(pool), fresh, sel)

    assert _combined_outcome(library, seed, expr, k, pool) == _combined_outcome(
        reference_gen_combined, seed, expr, k, pool
    )


def test_combined_statement_level_matches_the_reference(monkeypatch):
    """Over a growing pool with the positions map kept beside it."""
    program = random_linear_program(random.Random(5), n_statements=40, n_consts=2)
    for k in (2, 3):
        cfg = ObfuscationConfig(
            mislead_factor=k, strategy="combined-temporaries", fake_vars=("f0", "f1"), seed=k
        )
        got = obfuscate_statement_level(program, cfg)
        with monkeypatch.context() as m:
            m.setattr(
                obfuscate,
                "_gen_combined",
                lambda expr, cfg, rng, pool, positions, fresh, sel: reference_gen_combined(
                    expr, cfg, rng, pool, fresh, sel
                ),
            )
            want = obfuscate_statement_level(program, cfg)
        assert render_program(got[0].program) == render_program(want[0].program)
        assert list(got[1].bits.items()) == list(want[1].bits.items())
        assert got[1].bindings == want[1].bindings


def test_pattern_aware_reads_the_table_once(monkeypatch):
    calls = []
    table = PatternTable()
    table.operator_counts.update({"times": 7, "plus": 3})
    real = PatternTable.ir_operator_counts

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PatternTable, "ir_operator_counts", counting)
    program = random_linear_program(random.Random(6), n_statements=30)
    cfg = ObfuscationConfig(mislead_factor=3, strategy="pattern-aware", pattern_table=table)
    obfuscate_statement_level(program, cfg)
    assert calls == [table]


@pytest.mark.parametrize(
    "fake_vars, fake_combining, labels",
    [
        ((), 0, ["options"]),
        (("f0", "f1"), 0, ["options", "fake-values"]),
        (("f0", "f1"), 2, ["options", "fake-chains", "fake-values"]),
    ],
    ids=["no-fakes", "fake-vars", "both"],
)
def test_only_the_streams_a_config_reads_are_spawned(monkeypatch, fake_vars, fake_combining, labels):
    """A stream is spawned only for a config that draws from it; each is
    independent, so spawning fewer changes no output (GOLDEN_DIGEST)."""
    spawned = []
    real = obfuscate.spawn

    def recording(seed, label):
        spawned.append(label)
        return real(seed, label)

    monkeypatch.setattr(obfuscate, "spawn", recording)
    program = random_linear_program(random.Random(3), n_statements=5)
    cfg = ObfuscationConfig(
        mislead_factor=3, fake_vars=fake_vars, fake_combining=fake_combining, seed=4
    )
    obfuscate_statement_level(program, cfg)
    assert spawned == labels


# Digest of _golden_obfuscations, captured with the universe-building
# sampler (reference_distinct_expressions above) before drawing by index.
GOLDEN_DIGEST = "09e06100f861c3f2ee1bae3396f2932eebf91f4ba5e5334d12ec3d751daffb79"


def _golden_obfuscations():
    """Rendered obfuscations plus key bits and bindings (or the error) for
    seeded configs in all five strategies, with and without fake combining
    statements, k = 2..4, then build_l0/build_l1 at two seeds."""
    table = PatternTable()
    table.operator_counts.update({"times": 7, "plus": 3, "minus": 2})
    h = hashlib.sha256()

    def put(obf, sel_key):
        h.update(render_program(obf.program).encode())
        h.update(repr(list(sel_key.bits.items())).encode())
        h.update(repr(list(sel_key.bindings.items())).encode())

    for seed in range(48):
        rng = random.Random(seed)
        # every eighth program outgrows _ENUMERATE_LIMIT as its pool grows
        n = 70 if seed % 8 == 7 else 1 + seed % 6
        program = random_linear_program(
            rng, n_statements=n, n_inputs=1 + seed % 3, n_consts=seed % 2
        )
        for strategy in STRATEGIES:
            for fakes in (0, 2):
                cfg = ObfuscationConfig(
                    mislead_factor=2 + seed % 3,
                    strategy=strategy,
                    pattern_table=table,
                    fake_vars=("f0", "f1")[: seed % 3],
                    fake_combining=fakes if seed % 3 else 0,
                    seed=seed,
                )
                try:
                    put(*obfuscate_statement_level(program, cfg))
                except SelectcError as exc:
                    h.update(f"{type(exc).__name__}: {exc}".encode())
    for seed_args in ((), (7,)):
        for build in (build_l0, build_l1):
            demo = build(*seed_args)
            put(demo.obf, demo.sel_key)
    return h.hexdigest()


def test_obfuscation_output_matches_the_golden_digest():
    assert _golden_obfuscations() == GOLDEN_DIGEST


class _CountingPool(list):
    """A pool that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_index_path_builds_only_the_picked_expressions():
    """Each pick reads its operation and its two operands by index, and
    nothing else is read that way: the expression space is not built."""
    names = _CountingPool(f"v{i}" for i in range(32))
    ops = _CountingPool(ARITH_OPS)
    assert len(ops) * len(names) ** 2 == _ENUMERATE_LIMIT
    picks = _distinct_expressions(random.Random(1), 5, ops, names, {("ADD", "v0", "v1")})
    assert (ops.reads, names.reads) == (5, 10)
    assert len(set(picks)) == 5


class _UnscannablePool(list):
    """A pool that may be indexed and measured, but not walked or searched."""

    def __iter__(self):
        raise AssertionError("the sampler iterated the pool")

    def __contains__(self, item):
        raise AssertionError("the sampler searched the pool")


@pytest.mark.parametrize("weights", [None, [1, 2, 3, 4]], ids=["uniform", "weighted"])
def test_large_pool_is_never_scanned(weights):
    pool = _UnscannablePool(f"v{i}" for i in range(65))
    ops = list(ARITH_OPS) if weights else [Op.MUL]
    assert len(ops) * len(pool) ** 2 > _ENUMERATE_LIMIT
    picks = _distinct_expressions(random.Random(3), 4, ops, pool, {("MUL", "v0", "v1")}, weights)
    assert len(set(picks)) == 4


def test_statement_level_passes_one_pool_without_copying(monkeypatch):
    pools = []
    real = obfuscate._distinct_expressions

    def spy(rng, count, op_choices, var_pool, *rest, **kw):
        pools.append((var_pool, len(var_pool)))
        return real(rng, count, op_choices, var_pool, *rest, **kw)

    monkeypatch.setattr(obfuscate, "_distinct_expressions", spy)
    program = random_linear_program(random.Random(4), n_statements=5)
    obfuscate_statement_level(program, ObfuscationConfig(fake_vars=("f0",)))
    assert len({id(pool) for pool, _ in pools}) == 1
    # the pool grows by each statement's target after its draw
    assert [size for _, size in pools] == list(range(4, 9))


def test_statement_level_validates_the_config_once(monkeypatch):
    calls = []
    real = ObfuscationConfig.validate

    def counting(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(ObfuscationConfig, "validate", counting)
    program = random_linear_program(random.Random(8), n_statements=25)
    table = PatternTable()
    for strategy in STRATEGIES:
        cfg = ObfuscationConfig(
            mislead_factor=3, strategy=strategy, pattern_table=table, fake_vars=("f0", "f1")
        )
        calls.clear()
        obfuscate_statement_level(program, cfg)
        assert calls == [cfg], strategy


@hst.composite
def statement_level_cases(draw):
    """(source, obfuscation, key): a random linear program under any of the
    five strategies, k = 2..4, with or without fake combining statements."""
    seed = draw(hst.integers(0, 2**32 - 1))
    source = random_linear_program(
        random.Random(seed),
        n_statements=draw(hst.integers(1, 6)),
        n_inputs=draw(hst.integers(1, 3)),
        n_consts=draw(hst.integers(0, 2)),
    )
    table = PatternTable()
    table.operator_counts.update({"times": 7, "plus": 3, "minus": 2})
    cfg = ObfuscationConfig(
        mislead_factor=draw(hst.integers(2, 4)),
        strategy=draw(hst.sampled_from(STRATEGIES)),
        pattern_table=table,
        fake_vars=("f0", "f1", "f2"),
        fake_combining=draw(hst.sampled_from([0, 1, 3])),
        seed=seed,
    )
    return (source, *obfuscate_statement_level(source, cfg))


@settings(max_examples=40, deadline=None)
@given(statement_level_cases())
def test_deobfuscate_inverts_statement_level_obfuscation(case):
    source, obf, sel_key = case
    assert normalize(deobfuscate(obf, sel_key)) == normalize(source)


@settings(max_examples=40, deadline=None)
@given(statement_level_cases())
def test_obfuscated_program_text_reads_back_to_the_program(case):
    _, obf, _ = case
    assert parse_program(render_program(obf.program)) == obf.program


@pytest.mark.parametrize("strategy", ["uniform", "operand-only", "pattern-aware"])
def test_pool_exhausted_exactly_when_usable_falls_below_count(strategy):
    """One op and two names make four expressions, three usable."""
    stmt = Assign("r", SimpleExpression(Op.MUL, "x", "y"))
    table = PatternTable()

    def options(k):
        cfg = ObfuscationConfig(
            mislead_factor=k, strategy=strategy, op_pool=(Op.MUL,), pattern_table=table
        )
        return misleading_options(stmt, cfg, random.Random(0), ["x", "y"])

    assert {(e.in1, e.in2) for e in options(4)} == {("x", "x"), ("y", "x"), ("y", "y")}
    with pytest.raises(PoolExhaustedError, match="need 4 distinct statements but the pool only offers 3"):
        options(5)


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
    with pytest.raises(ConfigError, match="operation 'ADD' is given twice"):
        obfuscate_statement_level(p, ObfuscationConfig(op_pool=(Op.ADD, Op.SUB, Op.ADD)))
    with pytest.raises(ConfigError, match="fake variable 'f0' is given twice"):
        obfuscate_statement_level(p, ObfuscationConfig(fake_vars=("f0", "f1", "f0")))


def test_an_impossible_mislead_factor_is_refused_before_any_name():
    """k - 1 misleading statements past |op_pool| * |variables|**2 cannot
    be drawn for the first statement, so k = 10**5 is refused before the
    obfuscator takes its k names per statement, which took about 42 MiB."""
    p = two_stmt_program()
    tracemalloc.start()
    try:
        with pytest.raises(PoolExhaustedError, match="mislead factor 100000 needs 99999 "):
            obfuscate_statement_level(p, ObfuscationConfig(mislead_factor=10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("fake_combining", [0, 1])
def test_the_fake_draw_fails_before_the_real_one(fake_combining):
    """Fake groups are drawn before the first real group, so where both
    draws run out the fake one's error is raised; alone, each raises its
    own."""
    p = parse_program("prime 101\ninput x\nr := ADD x x\n")
    cfg = ObfuscationConfig(
        mislead_factor=5, op_pool=(Op.ADD,), fake_vars=("f0",), fake_combining=fake_combining
    )
    want = (
        "need 5 distinct statements but the pool only offers 1"
        if fake_combining
        else "need 4 distinct statements but the pool only offers 3"
    )
    with pytest.raises(PoolExhaustedError, match=want):
        obfuscate_statement_level(p, cfg)


def test_source_must_be_simple_assignments():
    p = program_of(
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
            program_of(inputs=[], statements=[], consts={}, prime=P),
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


# Digest of _golden_program_level, captured while the namers still named
# one variable per call
PROGRAM_LEVEL_DIGEST = "082c46387aff14c7c0171f42723a24a9fd5898e7c00277da05dd1955d296abe4"


def _golden_program_level():
    """Rendered program-level obfuscations plus key bits and bindings, for
    seeded sets of two to five programs with up to two consts each, at
    every i_star; every fourth set adds a program whose inputs, t1 and
    k0, are names the fresh target and const names skip."""
    clash = parse_program("input t1\ninput k0\nconst k1 = 5\nt0 := ADD t1 k0\nt2 := MUL t0 k1\n")
    h = hashlib.sha256()
    for seed in range(16):
        rng = random.Random(seed)
        programs = [
            random_linear_program(
                rng, n_statements=1 + (seed + j) % 5, n_inputs=1 + j % 3, n_consts=(seed + j) % 3
            )
            for j in range(2 + seed % 4)
        ]
        if seed % 4 == 3:
            programs.append(clash)
        for i_star in range(len(programs)):
            obf, sel_key = obfuscate_program_level(programs, i_star, seed=seed)
            h.update(render_program(obf.program).encode())
            h.update(repr(list(sel_key.bits.items())).encode())
            h.update(repr(list(sel_key.bindings.items())).encode())
    return h.hexdigest()


def test_program_level_output_matches_the_golden_digest():
    assert _golden_program_level() == PROGRAM_LEVEL_DIGEST


def test_program_level_validation():
    progs = five_programs()
    with pytest.raises(ConfigError):
        obfuscate_program_level(progs[:1], 0)
    with pytest.raises(ConfigError):
        obfuscate_program_level(progs, 9)
    small = program_of(
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

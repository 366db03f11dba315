"""Mock homomorphic backend and selector keys."""

import itertools
import tracemalloc

import pytest

from selectc.crypto import (
    Ciphertext,
    SelectorKey,
    dec,
    enc,
    keygen,
    read_key_file,
    run_program,
    write_key_file,
)
from selectc.errors import ForeignCiphertextError, FormatError, KeyMismatchError
from selectc.field import ALL_OPS, FIELD_PRIME, Op, apply_op
from selectc.ir import Assign, Combine, SimpleExpression
from selectc.obfuscate import ObfProgram, checked_key

from crypto_reference import enc_many, he_op
from programs import program_of

P = FIELD_PRIME


def test_enc_dec_round_trip():
    key = keygen(0)
    for v in (0, 1, 12345, P - 1):
        assert dec(key, enc(key, v)) == v


def test_enc_normalizes_mod_p():
    key = keygen(0)
    assert dec(key, enc(key, -1)) == P - 1
    assert dec(key, enc(key, P + 3)) == 3


def test_same_plaintext_fresh_handles():
    key = keygen(0)
    a, b = enc(key, 42), enc(key, 42)
    assert a.handle != b.handle
    assert dec(key, a) == dec(key, b) == 42


def test_handle_stream_is_seed_deterministic():
    h1 = [enc(keygen(7), v).handle for v in range(5)]
    k = keygen(7)
    h2 = [enc(k, v).handle for v in range(5)]
    assert h1 == [enc(keygen(7), v).handle for v in range(5)]
    assert h1[0] == h2[0]


def test_foreign_handle_rejected():
    a, b = keygen(1), keygen(2)
    ct = enc(a, 5)
    with pytest.raises(ForeignCiphertextError):
        dec(b, ct)


def one_op_program(op):
    return program_of(inputs=["x", "y"], statements=[Assign("r", SimpleExpression(op, "x", "y"))])


def test_foreign_handle_rejected_by_every_op():
    """he_op and run_program reject a foreign operand of every
    operation in either position, name its handle and mint nothing."""
    a, b = keygen(1), keygen(2)
    foreign, own = enc(a, 5), enc(b, 6)
    for op in ALL_OPS:
        program = one_op_program(op)
        for c1, c2 in ((foreign, own), (own, foreign)):
            with pytest.raises(ForeignCiphertextError, match=f"{foreign.handle:#x}"):
                he_op(b, op, c1, c2)
            with pytest.raises(ForeignCiphertextError, match=f"{foreign.handle:#x}"):
                run_program(b, program, {"x": c1, "y": c2}, {}, {})
    assert len(b) == 1
    untouched = keygen(2)
    enc(untouched, 6)
    assert enc(b, 0).handle == enc(untouched, 0).handle


def test_foreign_handle_rejected_inside_a_combine():
    """A foreign source of a combining statement's later option is named
    after the run drew the selector bits' and the earlier options'
    handles, none of which stays in the store."""
    a, b = keygen(1), keygen(2)
    program = program_of(inputs=["x", "y"], statements=[Combine("c", (("s0", "x"), ("s1", "y")))])
    foreign = enc(a, 5)
    x = enc(b, 6)
    with pytest.raises(ForeignCiphertextError, match=f"{foreign.handle:#x}"):
        run_program(b, program, {"x": x, "y": foreign}, {}, {"s0": 1, "s1": 0})
    assert list(b._store.items()) == [(x.handle, 6)]
    # x, the two bits and MUL s0 x were drawn
    drawn = keygen(2)
    enc_many(drawn, [6, 1, 0, 6])
    assert enc(b, 0).handle == enc(drawn, 0).handle


def test_handles_never_collide():
    key = keygen(3)
    handles = {enc(key, i).handle for i in range(100_000)}
    assert len(handles) == 100_000


HALF = (P - 1) // 2
GRID = [0, 1, 2, 3, 7, 10, HALF, HALF + 1, P - 2, P - 1,
        -3 % P, -10 % P, 99991, 2**32, 2**60]


def test_homomorphism_grid():
    """dec(he_op(op, enc a, enc b)) == apply_op(op, a, b) across a value grid."""
    key = keygen(11)
    cts = {v: enc(key, v) for v in GRID}
    for a, b in itertools.product(GRID, repeat=2):
        for op in ALL_OPS:
            got = dec(key, he_op(key, op, cts[a], cts[b]))
            assert got == apply_op(op, a, b), (op, a, b)


def test_runner_agrees_with_he_op():
    """run_program mints the handles and values he_op mints in turn, after
    the selector bits: one per assignment, and MUL, MUL, ADD, MUL, ADD
    for a 3-way combine. Once the walk frees what it minted after the
    inputs, both keys hold the inputs and the output and draw the same
    next handle."""
    names = [f"v{i}" for i in range(len(GRID))]
    statements = [
        Assign(f"r{n}", SimpleExpression(op, names[i], names[j]))
        for n, (i, j, op) in enumerate(itertools.product(range(len(GRID)), range(len(GRID)), ALL_OPS))
    ]
    statements.append(Combine("c", (("s0", "r0"), ("s1", "v3"), ("s2", "r5"))))
    bits = {"s0": 0, "s1": 1, "s2": 0}
    program = program_of(inputs=names, statements=statements)
    keys = keygen(11), keygen(11)
    inputs = [dict(zip(names, enc_many(key, GRID))) for key in keys]
    sels = enc_many(keys[0], bits.values())
    env, want = inputs[0], None
    for st in statements[:-1]:
        env[st.target] = want = he_op(keys[0], st.expr.op, env[st.expr.in1], env[st.expr.in2])
    for n, (_, src) in enumerate(statements[-1].options):
        term = he_op(keys[0], Op.MUL, sels[n], env[src])
        want = term if n == 0 else he_op(keys[0], Op.ADD, want, term)
    got = run_program(keys[1], program, inputs[1], {}, bits)
    assert got == want and dec(keys[1], got) == dec(keys[0], want) == GRID[3]
    walked = keys[0]._store
    assert len(walked) == len(GRID) + 3 + len(statements) - 1 + 5
    kept = list(walked.items())[: len(GRID)] + [(want.handle, walked[want.handle])]
    assert list(keys[1]._store.items()) == kept
    assert enc(keys[1], 0).handle == enc(keys[0], 0).handle


def test_enc_many_matches_enc_in_turn():
    values = [5, -1, P + 3, 0]
    one_by_one = keygen(4)
    singles = [enc(one_by_one, v) for v in values]
    batch_key = keygen(4)
    batch = enc_many(batch_key, values)
    assert batch == singles
    assert [dec(batch_key, ct) for ct in batch] == [5, P - 1, 3, 0]


def test_ciphertext_equality_and_hash_follow_the_handle():
    a, b, c = Ciphertext(5), Ciphertext(5), Ciphertext(6)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    assert a != 5 and a != (5,)
    key = keygen(0)
    ct = enc(key, 9)
    assert Ciphertext(ct.handle) == ct and dec(key, Ciphertext(ct.handle)) == 9


def checked(bits, groups):
    """checked_key over a program with one combining statement per group."""
    program = program_of(
        inputs=["x"],
        statements=[Combine(f"c{i}", tuple((s, "x") for s in g)) for i, g in enumerate(groups)],
    )
    return checked_key(ObfProgram(program=program), SelectorKey(bits=bits))


def test_selector_key_accepts_one_hot():
    bits = {"s0": 1, "s1": 0, "s2": 0, "s3": 1}
    assert checked(bits, [("s0", "s1"), ("s2", "s3")]) == {0: 0, 1: 1}


def test_selector_key_rejects_non_binary():
    with pytest.raises(KeyMismatchError):
        checked({"s0": 2, "s1": 0}, [("s0", "s1")])


def test_selector_key_rejects_two_hot():
    with pytest.raises(KeyMismatchError):
        checked({"s0": 1, "s1": 1}, [("s0", "s1")])


def test_selector_key_rejects_cold_group():
    with pytest.raises(KeyMismatchError):
        checked({"s0": 0, "s1": 0}, [("s0", "s1")])


def test_selector_key_rejects_missing_bit():
    with pytest.raises(KeyMismatchError):
        checked({"s0": 1}, [("s0", "s1")])


def test_key_file_round_trip(tmp_path):
    sk = SelectorKey(bits={"s0": 1, "s1": 0}, bindings={"k0": 7, "k1": -9999 % P})
    path = tmp_path / "demo.key"
    write_key_file(str(path), 1729, sk)
    seed, loaded = read_key_file(str(path))
    assert seed == 1729
    assert loaded.bits == sk.bits
    assert loaded.bindings == sk.bindings


def test_key_file_writes_signed_consts(tmp_path):
    sk = SelectorKey(bits={"s0": 1}, bindings={"v": -9999 % P})
    path = tmp_path / "k"
    write_key_file(str(path), 0, sk)
    assert "const v = -9999" in path.read_text()


def test_key_file_rejects_bad_lines(tmp_path):
    cases = [
        "sel s0 = 1\n",                    # no seed
        "seed 0\nsel s0 = 7\n",            # non-binary bit
        "seed 0\nwhat is this\n",          # unknown line
        "seed nope\n",                      # malformed seed
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.key"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_key_file(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed 0\nsel s0 = 1\nsel s0 = 0\n", "line 3: sel 's0' is given twice (first on line 2)"),
        (
            "seed 0\nconst k = 1\nconst k = 1\n",
            "line 3: const 'k' is given twice (first on line 2)",
        ),
        ("seed 0\nsel s0 = 1\nseed 0\n", "line 3: second seed line"),
    ],
    ids=["sel", "const", "seed"],
)
def test_key_file_rejects_a_repeated_line(tmp_path, text, message):
    path = tmp_path / "twice.key"
    path.write_text(text)
    with pytest.raises(FormatError) as e:
        read_key_file(str(path))
    assert str(e.value) == message


def test_key_file_ignores_comments(tmp_path):
    path = tmp_path / "c.key"
    path.write_text("# header\nseed 5\n\nsel s0 = 1\n")
    seed, sk = read_key_file(str(path))
    assert seed == 5 and sk.bits == {"s0": 1}


@pytest.mark.parametrize("older", [3, 100_000], ids=["few-older", "many-older"])
def test_a_run_costs_nothing_per_older_handle(older):
    """A run leaves the key's older handles and its output, however many
    older handles the key holds, and allocates no more for many.

    Copying the 100,000-entry store, as a run that minted into it and
    then freed its handles could, would allocate megabytes; the run's
    own table for a few operations needs about a kilobyte. (The store,
    at 100,002 entries, has room for the output without a resize.)
    """
    program = program_of(
        inputs=["x", "y"],
        statements=[
            Assign("a", SimpleExpression(Op.MUL, "x", "y")),
            Assign("b", SimpleExpression(Op.SUB, "x", "y")),
            Combine("c", (("s0", "a"), ("s1", "b"))),
        ],
    )
    bits = {"s0": 0, "s1": 1}
    key = keygen(9)
    enc_many(key, range(older))
    env = dict(zip(["x", "y"], enc_many(key, [7, 3])))
    before = list(key._store.items())
    tracemalloc.start()
    try:
        out = run_program(key, program, env, {}, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(key._store.items()) == before + [(out.handle, 4)]
    assert peak < 10_000

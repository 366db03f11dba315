"""Mock homomorphic backend and selector keys."""

import itertools

import pytest

from selectc.crypto import (
    SelectorKey,
    dec,
    enc,
    he_op,
    keygen,
    read_key_file,
    write_key_file,
)
from selectc.errors import ForeignCiphertextError, FormatError, KeyMismatchError
from selectc.field import ALL_OPS, FIELD_PRIME, apply_op, norm
from selectc.ir import Combine, Program
from selectc.obfuscate import ObfProgram, checked_key

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


def test_handles_never_collide():
    key = keygen(3)
    handles = {enc(key, i).handle for i in range(100_000)}
    assert len(handles) == 100_000


def test_homomorphism_grid():
    """dec(he_op(op, enc a, enc b)) == apply_op(op, a, b) across a value grid."""
    key = keygen(11)
    half = (P - 1) // 2
    values = [0, 1, 2, 3, 7, 10, half, half + 1, P - 2, P - 1,
              norm(-3), norm(-10), 99991, 2**32, 2**60]
    cts = {v: enc(key, v) for v in values}
    for a, b in itertools.product(values, repeat=2):
        for op in ALL_OPS:
            got = dec(key, he_op(key, op, cts[a], cts[b]))
            assert got == apply_op(op, a, b), (op, a, b)


def checked(bits, groups):
    """checked_key over a program with one combining statement per group."""
    program = Program(
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
    sk = SelectorKey(bits={"s0": 1, "s1": 0}, bindings={"k0": 7, "k1": norm(-9999)})
    path = tmp_path / "demo.key"
    write_key_file(str(path), 1729, sk)
    seed, loaded = read_key_file(str(path))
    assert seed == 1729
    assert loaded.bits == sk.bits
    assert loaded.bindings == sk.bindings


def test_key_file_writes_signed_consts(tmp_path):
    sk = SelectorKey(bits={"s0": 1}, bindings={"v": norm(-9999)})
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


def test_key_file_ignores_comments(tmp_path):
    path = tmp_path / "c.key"
    path.write_text("# header\nseed 5\n\nsel s0 = 1\n")
    seed, sk = read_key_file(str(path))
    assert seed == 5 and sk.bits == {"s0": 1}

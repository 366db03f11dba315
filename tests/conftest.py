import builtins
import pathlib
import random

import pytest

from selectc import field
from selectc.crypto import SelectorKey
from selectc.field import FIELD_PRIME, Op
from selectc.generate import random_linear_program
from selectc.ir import Assign, Combine, SimpleExpression
from selectc.lower import lower
from selectc.obfuscate import ObfProgram, checked_key
from selectc.surface import parse_surface

from programs import program_of

TASK1_SOURCE = "if (y != 0) then r := x / y else r := -9999\n"


@pytest.fixture
def datadir():
    return pathlib.Path(__file__).parent / "data"


@pytest.fixture
def inverses(monkeypatch):
    """The (divisor, prime) of every inverse DIV computes from here on.

    The DIV memo lives in its prime's field_ops table and outlives a
    test, so the tables are cleared first.
    """
    field.field_ops.cache_clear()
    seen = []

    def recording_pow(base, exp, mod=None):
        if exp == -1:
            seen.append((base, mod))
        return builtins.pow(base, exp, mod)

    monkeypatch.setattr(field, "pow", recording_pow, raising=False)
    return seen


@pytest.fixture
def task1_program():
    return lower(parse_surface(TASK1_SOURCE))


@pytest.fixture
def two_option_class():
    """Single combining statement over c := a * a and the decoy a + a.

    The smallest interesting program class: two candidates that agree
    nowhere except a in {0, 2}, so one known pair tells them apart.
    """
    program = program_of(
        inputs=["a"],
        statements=[
            Assign("o0", SimpleExpression(Op.MUL, "a", "a")),
            Assign("o1", SimpleExpression(Op.ADD, "a", "a")),
            Combine("c", (("s0", "o0"), ("s1", "o1"))),
        ],
        consts={},
        prime=FIELD_PRIME,
    )
    obf = ObfProgram(program=program, selector_ids=program.selector_ids())
    sel_key = SelectorKey(bits={"s0": 1, "s1": 0}, bindings={})
    checked_key(obf, sel_key)
    return obf, sel_key


@pytest.fixture
def linear_program():
    def make(seed, n=3, inputs=2, consts=1):
        return random_linear_program(
            random.Random(seed), n_statements=n, n_inputs=inputs, n_consts=consts
        )

    return make

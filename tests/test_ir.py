"""Three-address IR: evaluation, serialization, folding, normalization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from selectc.errors import FormatError, UnboundVariableError
from selectc.field import FIELD_PRIME, Op
from selectc.generate import random_linear_program
from selectc.ir import (
    Assign,
    Combine,
    Program,
    SimpleExpression,
    canonical_key,
    eval_env,
    eval_plain,
    fold_selection,
    live_statement_indices,
    normalize,
    parse_program,
    render_program,
)
from selectc.obfuscate import ObfuscationConfig, obfuscate_statement_level
from test_fold_reference import reference_dce, reference_fold
from programs import program_of

P = FIELD_PRIME


def prog(statements, inputs=("x", "y"), consts=None):
    return program_of(
        inputs=list(inputs),
        statements=statements,
        consts=dict(consts or {}),
        prime=P,
    )


def test_eval_plain_straight_line():
    p = prog(
        [
            Assign("t0", SimpleExpression(Op.MUL, "x", "x")),
            Assign("t1", SimpleExpression(Op.ADD, "t0", "y")),
        ]
    )
    assert eval_plain(p, {"x": 3, "y": 4}) == 13


def test_output_is_last_target():
    p = prog([Assign("a", SimpleExpression(Op.ADD, "x", "y")),
              Assign("b", SimpleExpression(Op.SUB, "x", "y"))])
    assert p.output == "b"


def test_consts_preload_environment():
    p = prog([Assign("r", SimpleExpression(Op.MUL, "x", "k"))],
             inputs=["x"], consts={"k": 7})
    assert eval_plain(p, {"x": 6}) == 42


def test_missing_input_raises():
    p = prog([Assign("r", SimpleExpression(Op.ADD, "x", "y"))])
    with pytest.raises(UnboundVariableError):
        eval_plain(p, {"x": 1})


def test_combine_is_selector_weighted_sum():
    p = prog(
        [
            Assign("o0", SimpleExpression(Op.ADD, "x", "y")),
            Assign("o1", SimpleExpression(Op.MUL, "x", "y")),
            Combine("c", (("s0", "o0"), ("s1", "o1"))),
        ]
    )
    env = {"x": 3, "y": 5}
    assert eval_plain(p, env, selectors={"s0": 1, "s1": 0}) == 8
    assert eval_plain(p, env, selectors={"s0": 0, "s1": 1}) == 15
    # non-one-hot weights still evaluate; the sum is plain arithmetic
    assert eval_plain(p, env, selectors={"s0": 1, "s1": 1}) == 23


def test_combine_missing_selector_raises():
    p = prog(
        [
            Assign("o0", SimpleExpression(Op.ADD, "x", "y")),
            Assign("o1", SimpleExpression(Op.MUL, "x", "y")),
            Combine("c", (("s0", "o0"), ("s1", "o1"))),
        ]
    )
    with pytest.raises(UnboundVariableError):
        eval_plain(p, {"x": 1, "y": 2}, selectors={"s0": 1})


def test_combine_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        Combine("c", (("s0", "o0"),))
    with pytest.raises(ValueError):
        Combine("c", (("s0", "o0"), ("s0", "o1")))


def test_eval_env_returns_all_targets():
    p = prog([Assign("a", SimpleExpression(Op.ADD, "x", "y")),
              Assign("b", SimpleExpression(Op.MUL, "a", "a"))])
    env = eval_env(p, {"x": 1, "y": 2})
    assert env["a"] == 3 and env["b"] == 9


def test_selector_ids_keep_first_use_order():
    cfg = ObfuscationConfig(mislead_factor=3, fake_vars=("f0",), fake_combining=2, seed=3)
    obf, _ = obfuscate_statement_level(random_linear_program(random.Random(3), 6), cfg)
    program = obf.program
    ops, in1, in2, targets = program.columns
    again = (*program.selector_ids()[:2], program.output, program.output)
    program = Program.from_columns(
        program.inputs, ops + (None,), in1 + (None,), in2 + (None,), targets + ("again",),
        {**program.combines, len(program): again}, program.consts, program.prime,
    )
    seen = []
    for st in program.statements:
        if isinstance(st, Combine):
            for sel, _ in st.options:
                if sel not in seen:
                    seen.append(sel)
    assert program.selector_ids() == seen
    assert len(seen) == 3 * (6 + 2)  # six real and two fake groups of k = 3


@settings(max_examples=60, deadline=None)
@given(
    prime=hst.sampled_from([P, 101]),
    values=hst.lists(hst.integers(-(2**70), 2**70), min_size=1, max_size=3),
    shuffle=hst.randoms(use_true_random=False),
)
def test_render_parse_round_trip(prime, values, shuffle):
    """parse_program inverts render_program whatever the header order."""
    consts = {f"k{i}": v % prime for i, v in enumerate(values)}
    statements = [Assign("t0", SimpleExpression(Op.DIV, "x", "k0"))]
    for i in range(1, len(consts)):
        statements.append(Assign(f"t{i}", SimpleExpression(Op.SUB, f"t{i - 1}", f"k{i}")))
    statements.append(Combine("c", (("s0", f"t{len(consts) - 1}"), ("s1", "y"))))
    p = program_of(inputs=["x", "y"], statements=statements, consts=consts, prime=prime)
    lines = render_program(p).splitlines()
    n_header = 1 + len(p.inputs) + len(consts)
    header = lines[:n_header]
    shuffle.shuffle(header)
    # input order is part of the program; permute only how the lines interleave
    inputs = iter(line for line in lines[:n_header] if line.startswith("input "))
    header = [next(inputs) if line.startswith("input ") else line for line in header]
    assert parse_program("\n".join(header + lines[n_header:])) == p


def test_const_before_the_prime_line_is_reduced_by_that_prime():
    p = parse_program("input x\nconst k = -1\nprime 101\nr := ADD x k\n")
    assert p.consts == {"k": 100}
    assert eval_plain(p, {"x": 5}) == 4
    assert "const k = -1" in render_program(p)


def test_parse_rejects_a_second_prime_line():
    with pytest.raises(FormatError, match="line 2: second prime line"):
        parse_program("prime 101\nprime 101\ninput x\nr := ADD x x\n")


@pytest.mark.parametrize(
    "header, message",
    [
        ("input x\nconst k = 1\nconst k = 5\n", "line 4: 'k' is declared twice (first on line 3)"),
        ("input x\ninput x\n", "line 3: 'x' is declared twice (first on line 2)"),
        ("input x\nconst x = 4\n", "line 3: 'x' is declared twice (first on line 2)"),
        ("const x = 4\ninput x\n", "line 3: 'x' is declared twice (first on line 2)"),
    ],
    ids=["const-twice", "input-twice", "input-then-const", "const-then-input"],
)
def test_parse_rejects_a_name_declared_twice(header, message):
    """Neither declaration may silently win: the last const, a doubled
    input, or an input shadowing a const would each change the program."""
    with pytest.raises(FormatError) as e:
        parse_program(f"prime 101\n{header}r := ADD x x\n")
    assert str(e.value) == message


def test_render_uses_signed_const_values():
    p = prog([Assign("r", SimpleExpression(Op.ADD, "x", "k"))],
             inputs=["x"], consts={"k": -9999 % P})
    assert "const k = -9999" in render_program(p)


def test_parse_rejects_garbage():
    with pytest.raises(FormatError):
        parse_program("prime 7\ninput x\nr := BOGUS x x\n")
    with pytest.raises(FormatError):
        parse_program("prime 7\ninput x\nr ADD x x\n")


@pytest.mark.parametrize("modulus", ["0", "1", "4", "91", "4294967297"])
def test_parse_rejects_composite_prime_line(modulus):
    with pytest.raises(FormatError, match="not prime"):
        parse_program(f"prime {modulus}\ninput x\nr := ADD x x\n")


def test_parse_defaults_field_prime():
    p = parse_program("input x\nr := ADD x x\n")
    assert p.prime == P


def test_parse_ignores_comments_and_blanks():
    text = "# header\nprime 7\n\ninput x\n# body\nr := ADD x x\n"
    p = parse_program(text)
    assert p.prime == 7 and p.inputs == ["x"]


def test_parse_reads_padding_comments_and_line_ends():
    """Blank and whitespace-only lines, indented comments, padded lines and
    CRLF ends; a comment shaped like an assignment stays a comment."""
    text = (
        "  \t\r\n"
        "   # indented comment\r\n"
        "\tprime 101  \r\n"
        "\n"
        "  input x\t\r\n"
        " const k = 3 \r\n"
        "#t := ADD x k\r\n"
        "    # r := MUL x x\n"
        "\u00a0 t := ADD x k \u00a0\r\n"
        "\r\n"
        "r := COMBINE (s0,t) (s1,x)\r\n"
    )
    assert parse_program(text) == program_of(
        inputs=["x"],
        statements=[
            Assign("t", SimpleExpression(Op.ADD, "x", "k")),
            Combine("r", (("s0", "t"), ("s1", "x"))),
        ],
        consts={"k": 3},
        prime=101,
    )


_COMBINE_HEAD = "input x\ninput y\n"


@pytest.mark.parametrize(
    "options",
    ["(s0,x)  (s1,y) (s2,x)", "(s0,x)\t(s1,y)\t (s2,x)", "  (s0,x) (s1,y)\t\t(s2,x)\t"],
    ids=["two-spaces", "tabs", "padded"],
)
def test_combine_options_read_the_same_however_they_are_spaced(options):
    single = parse_program(_COMBINE_HEAD + "r := COMBINE (s0,x) (s1,y) (s2,x)\n")
    assert parse_program(_COMBINE_HEAD + f"r := COMBINE {options}\n") == single
    assert single.combines == {0: ("s0", "s1", "s2", "x", "y", "x")}


@pytest.mark.parametrize(
    "line, message",
    [
        ("r := COMBINE (s0,x)(s1,y)", "line 3: malformed combine option '(s0,x)(s1,y)'"),
        ("r := COMBINE (s0,x) (s1,y", "line 3: malformed combine option '(s1,y'"),
        ("r := COMBINE (s0,x) (s1,y) s2", "line 3: malformed combine option 's2'"),
        ("r := COMBINE (s0,x)", "line 3: combining statement needs two options"),
        ("r := COMBINE", "line 3: combining statement needs two options"),
        ("r := COMBINE (s0,x) (s1,y) (s0,x)", "line 3: combining statement selectors must be distinct"),
        # a malformed option is reported before a missing or repeated one
        ("r := COMBINE (s0,x", "line 3: malformed combine option '(s0,x'"),
        ("r := COMBINE (s0,x) (s0,y", "line 3: malformed combine option '(s0,y'"),
        # a header word as the target makes a malformed header line
        ("prime := COMBINE (s0,x) (s1,y)", "line 3: malformed prime line"),
        ("input := COMBINE (s0,x) (s1,y)", "line 3: malformed input line"),
        ("const := COMBINE (s0,x) (s1,y)", "line 3: malformed const line"),
    ],
    ids=[
        "unspaced", "unclosed", "bare-selector", "one-option", "no-option", "repeated-selector",
        "lone-unclosed", "unclosed-repeat", "prime-target", "input-target", "const-target",
    ],
)
def test_combine_line_errors(line, message):
    with pytest.raises(FormatError) as e:
        parse_program(_COMBINE_HEAD + line + "\nt := ADD x y\n")
    assert str(e.value) == message


def test_a_combine_line_behind_a_hash_is_a_comment():
    text = _COMBINE_HEAD + "#t := COMBINE (s0,x) (s1,y)\n#u := COMBINE (s0,x)(s1\nt := ADD x y\n"
    program = parse_program(text)
    assert program.columns == ((Op.ADD,), ("x",), ("y",), ("t",))
    assert program.combines == {}


@pytest.mark.parametrize(
    "line, message",
    [
        ("prime := ADD x x", "line 4: malformed prime line"),
        ("input := ADD x x", "line 4: malformed input line"),
        ("const := ADD x x", "line 4: malformed const line"),
        ("  r := BOGUS x x  ", "line 4: unknown operation 'BOGUS'"),
        ("r := ADD x", "line 4: expected '<target> := OP v1 v2'"),
        ("r ADD x x y", "line 4: expected '<target> := ...'"),
    ],
    ids=["prime-target", "input-target", "const-target", "unknown-op", "four-words", "no-assign"],
)
def test_parse_errors_keep_their_line_numbers_across_crlf(line, message):
    """A line shaped like an assignment whose first word is a header keyword
    is a malformed header, as it was before assignments were read first."""
    with pytest.raises(FormatError) as e:
        parse_program(f"# no prime line\r\n\r\n  input x \r\n{line}\r\nt := ADD x x\r\n")
    assert str(e.value) == message


def test_live_statement_indices_drops_dead_code():
    p = prog(
        [
            Assign("dead", SimpleExpression(Op.MUL, "x", "x")),
            Assign("a", SimpleExpression(Op.ADD, "x", "y")),
            Assign("r", SimpleExpression(Op.MUL, "a", "a")),
        ]
    )
    assert live_statement_indices(p) == [1, 2]


def folded(p, selection):
    """fold_selection as a program, checked against the reference fold and dead-code pass."""
    columns = fold_selection(p, selection)
    want = reference_dce(reference_fold(p, selection))
    got = Program.from_columns(p.inputs, *columns, consts=p.consts, prime=p.prime)
    assert got.statements == want.statements
    return got


def test_dead_code_eliminate_keeps_semantics():
    p = prog(
        [
            Assign("junk", SimpleExpression(Op.SUB, "x", "y")),
            Assign("r", SimpleExpression(Op.ADD, "x", "y")),
        ]
    )
    d = folded(p, {})
    assert len(d.statements) == 1
    assert eval_plain(d, {"x": 2, "y": 3}) == eval_plain(p, {"x": 2, "y": 3})


def test_fold_combines_picks_one_option():
    p = prog(
        [
            Assign("o0", SimpleExpression(Op.ADD, "x", "y")),
            Assign("o1", SimpleExpression(Op.MUL, "x", "y")),
            Combine("c", (("s0", "o0"), ("s1", "o1"))),
        ]
    )
    f = folded(p, {2: 1})
    assert [st.expr.op for st in f.statements] == [Op.MUL]
    assert eval_plain(f, {"x": 3, "y": 5}) == 15


def test_fold_inlines_single_use_option_targets():
    # after folding, the chosen option lands in the combine target
    p = prog(
        [
            Assign("o0", SimpleExpression(Op.ADD, "x", "y")),
            Assign("o1", SimpleExpression(Op.MUL, "x", "y")),
            Combine("c", (("s0", "o0"), ("s1", "o1"))),
            Assign("r", SimpleExpression(Op.SUB, "c", "x")),
        ]
    )
    f = folded(p, {2: 0})
    assert f.statements[0].target == "c"
    assert eval_plain(f, {"x": 3, "y": 5}) == 5


def test_fold_shared_source_substitutes_instead():
    # option source also feeds another statement, so it must survive
    p = prog(
        [
            Assign("o0", SimpleExpression(Op.ADD, "x", "y")),
            Assign("keep", SimpleExpression(Op.MUL, "o0", "o0")),
            Combine("c", (("s0", "o0"), ("s1", "keep"))),
            Assign("r", SimpleExpression(Op.ADD, "c", "keep")),
        ]
    )
    f = folded(p, {2: 0})
    want = (3 + 5) + (3 + 5) ** 2
    assert eval_plain(f, {"x": 3, "y": 5}) == want


def test_normalize_renames_temporaries():
    a = prog([Assign("weird", SimpleExpression(Op.ADD, "x", "y")),
              Assign("q", SimpleExpression(Op.MUL, "weird", "weird"))])
    b = prog([Assign("t0", SimpleExpression(Op.ADD, "x", "y")),
              Assign("t1", SimpleExpression(Op.MUL, "t0", "t0"))])
    assert normalize(a) == normalize(b)


def test_normalize_drops_unused_consts():
    p = prog([Assign("r", SimpleExpression(Op.ADD, "x", "y"))],
             consts={"k": 5})
    assert normalize(p).consts == {}


def test_canonical_key_distinguishes_const_values():
    a = prog([Assign("r", SimpleExpression(Op.ADD, "x", "k"))],
             inputs=["x"], consts={"k": 1})
    b = prog([Assign("r", SimpleExpression(Op.ADD, "x", "k"))],
             inputs=["x"], consts={"k": 2})
    assert canonical_key(a) != canonical_key(b)
    assert canonical_key(a, False) == canonical_key(b, False)


def test_canonical_key_ignores_temp_names():
    a = prog([Assign("foo", SimpleExpression(Op.ADD, "x", "y"))])
    b = prog([Assign("bar", SimpleExpression(Op.ADD, "x", "y"))])
    assert canonical_key(a) == canonical_key(b)


def test_statement_nodes_have_no_instance_dict():
    expr = SimpleExpression(Op.ADD, "x", "y")
    for node in (expr, Assign("r", expr), Combine("r", (("s0", "x"), ("s1", "y")))):
        assert not hasattr(node, "__dict__")

"""Malformed input files, driven through the command line.

Each case writes one bad file next to good ones and runs a command that
reads it. Every case must exit 2 with nothing on stdout and one stderr
line: the reader's message, then the path of the file it came from.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from selectc.cli import dispatch
from selectc.obfuscate import read_config

GOOD = {
    "obf": "prime 101\ninput x\nt := ADD x x\nu := MUL x x\nr := COMBINE (s0,t) (s1,u)\n",
    "key": "seed 1\nsel s0 = 1\nsel s1 = 0\n",
    "src": "r := x * x\n",
    "table": "operator | times | 80\noperator | plus | 20\n",
}

# file kind -> a command that reads a file of that kind from {bad}
COMMANDS = {
    "obf": ["deobfuscate", "{bad}", "--key", "{key}"],
    "key": ["run", "{obf}", "--key", "{bad}", "--inputs", "x=1"],
    "src": ["obfuscate", "{bad}", "-o", "{out}.obf", "--key", "{out}.key"],
    "config": ["obfuscate", "{src}", "--config", "{bad}", "-o", "{out}.obf", "--key", "{out}.key"],
    "table": ["attack", "{obf}", "--table", "{bad}"],
    "truth": ["attack", "{obf}", "--truth", "{bad}"],
    "pairs": ["attack", "{obf}", "--pairs", "{bad}"],
    "trees": ["mine", "{bad}"],
    "metrics-src": ["metrics", "{bad}", "{obf}", "--samples", "1"],
    "metrics-obf": ["metrics", "{src}", "{bad}", "--samples", "1"],
}

CASES = {
    # ir.parse_program
    "obf-prime-word": ("obf", "prime x\ninput x\nr := ADD x x\n", "line 1: malformed prime line"),
    "obf-prime-extra": ("obf", "prime 101 7\nr := ADD x x\n", "line 1: malformed prime line"),
    "obf-input": ("obf", "input\nr := ADD x x\n", "line 1: malformed input line"),
    "obf-const": ("obf", "input x\nconst k 1\nr := ADD x k\n", "line 2: malformed const line"),
    "obf-const-value": (
        "obf", "input x\nconst k = one\nr := ADD x k\n", "line 2: const value is not an integer"
    ),
    "obf-combine-option": (
        "obf",
        "input x\nt := ADD x x\nr := COMBINE (s0,t) s1\n",
        "line 3: malformed combine option 's1'",
    ),
    "obf-lone-option": (
        "obf",
        "input x\nt := ADD x x\nr := COMBINE (s0,t)\n",
        "line 3: combining statement needs two options",
    ),
    "obf-duplicate-selector": (
        "obf",
        "input x\nt := ADD x x\nu := MUL x x\nr := COMBINE (s0,t) (s0,u)\n",
        "line 4: combining statement selectors must be distinct",
    ),
    "obf-short-assignment": (
        "obf", "input x\nr := ADD x\n", "line 2: expected '<target> := OP v1 v2'"
    ),
    "obf-no-arrow": ("obf", "input x\nr ADD x x\n", "line 2: expected '<target> := ...'"),
    "obf-empty": ("obf", "prime 101\ninput x\n", "program has no statements"),
    "metrics-obf": (
        "metrics-obf", "input x\nr := ADD x\n", "line 2: expected '<target> := OP v1 v2'"
    ),
    # crypto.read_key_file
    "key-const-value": ("key", "seed 1\nconst k = one\n", "line 2: malformed const value"),
    "key-no-seed": ("key", "sel s0 = 1\nsel s1 = 0\n", "key file has no seed line"),
    "key-sel-twice": (
        "key",
        "seed 1\nsel s0 = 1\nsel s1 = 0\nsel s0 = 0\n",
        "line 4: sel 's0' is given twice (first on line 2)",
    ),
    # obfuscate.read_config, and the ObfuscationConfig.validate it ends with
    "config-no-equals": ("config", "k 4\n", "line 1: expected key = value"),
    "config-unknown-key": ("config", "colour = red\n", "line 1: unknown config key 'colour'"),
    "config-empty-op-pool": ("config", "ops =\n", "operation pool is empty"),
    "config-negative-fakes": (
        "config", "fake_combining = -1\n", "fake combining count must be non-negative"
    ),
    "config-key-twice": (
        "config", "k = 3\n# k = 4\nk = 2\n", "line 3: 'k' is given twice (first on line 1)"
    ),
    "config-fake-var-twice": ("config", "fake_vars = f0, f1, f0\n", "fake variable 'f0' is given twice"),
    "config-op-twice": ("config", "ops = ADD, ADD, SUB\n", "operation 'ADD' is given twice"),
    # patterns.parse_table
    "table-two-fields": ("table", "operator | plus\n", "line 1: expected `family | key | count`"),
    "table-family": ("table", "colour | plus | 3\n", "line 1: unknown pattern family 'colour'"),
    "table-count": ("table", "operator | plus | many\n", "line 1: count 'many' is not an integer"),
    "table-negative": ("table", "operator | plus | -1\n", "line 1: bad pattern row"),
    # patterns.parse_trees, and the node check mine makes
    "trees-indent": ("trees", " NameE\n", "line 1: indentation must be a multiple of 2"),
    "trees-literal": ("trees", "IntLiteralE value=x\n", "line 1: bad literal value"),
    "trees-token": ("trees", "NameE extra\n", "line 1: unexpected token 'extra'"),
    "trees-kind": ("trees", "op=plus\n", "line 1: node kind missing"),
    "trees-orphan": ("trees", "    NameE\n", "line 1: node at depth 2 has no parent"),
    "trees-shape": (
        "trees",
        "BinaryE op=plus\n  NameE\n",
        "BinaryE nodes need an operator and exactly 2 children",
    ),
    # surface._tokenize and surface._Parser
    "src-character": ("src", "r := x $ y\n", "line 1, col 8: unexpected character '$'"),
    "src-array-name": ("src", "array 1[2]\nr := 1\n", "line 1, col 7: expected array name"),
    "src-array-size": ("src", "array a[n]\nr := 1\n", "line 1, col 9: expected array size literal"),
    "src-array-zero": ("src", "array a[0]\nr := 1\n", "line 1, col 9: array size must be positive"),
    "src-array-twice": (
        "src", "array a[2]\narray a[2]\nr := 1\n", "line 2, col 7: array 'a' declared twice"
    ),
    "src-no-bound": (
        "src",
        "for (i := 0; i < 3; i := i + 1) { r := i }\n",
        "line 1, col 33: for loop requires a 'bound N' annotation",
    ),
    "src-bound-word": (
        "src",
        "for (i := 0; i < 3; i := i + 1) bound n { r := i }\n",
        "line 1, col 39: expected loop bound literal",
    ),
    "src-bound-zero": (
        "src",
        "for (i := 0; i < 3; i := i + 1) bound 0 { r := i }\n",
        "line 1, col 39: loop bound must be positive",
    ),
    "src-unterminated": ("src", "if (x) { r := 1\n", "line 2, col 1: unterminated block"),
    "src-only-comment": ("src", "# r := 1\n", "line 2, col 1: program has no statements"),
    "src-and": ("src", "r := x and y\n", "line 1, col 12: expected ':=' in assignment"),
    # lower
    "src-literal-write": (
        "src", "array a[2]\na[5] := 1\nr := a[0]\n", "index 5 out of range for array a[2]"
    ),
    "metrics-src": (
        "metrics-src", "r := (x\n", "line 2, col 1: expected ')', found 'end of input'"
    ),
    "truth-truncated": ("truth", "if (x) { r := 1\n", "line 2, col 1: unterminated block"),
    # cli._read_pairs
    "pairs-output": ("pairs", "x=3 => nine\n", "line 1: output is not an integer"),
    # integer fields take an optional sign and ASCII digits only (field.parse_int)
    "obf-prime-superscript": ("obf", "prime \u00b2\ninput x\nr := ADD x x\n", "line 1: malformed prime line"),
    "obf-prime-arabic-indic": ("obf", "prime \u0663\ninput x\nr := ADD x x\n", "line 1: malformed prime line"),
    "src-prime-superscript": ("src", "prime \u00b2\ninput x\nr := ADD x x\n", "line 1: malformed prime line"),
    "obf-const-fullwidth": (
        "obf", "input x\nconst k = \uff15\nr := ADD x k\n", "line 2: const value is not an integer"
    ),
    "key-seed-fullwidth": ("key", "seed \uff15\nsel s0 = 1\nsel s1 = 0\n", "line 1: malformed seed"),
    "key-const-underscore": ("key", "seed 1\nconst k = 1_0\n", "line 2: malformed const value"),
    "config-k-fullwidth": ("config", "k = \uff15\n", "line 1: invalid literal for int() with base 10: '\uff15'"),
    "table-count-underscore": ("table", "operator | plus | 1_0\n", "line 1: count '1_0' is not an integer"),
    "trees-literal-arabic-indic": ("trees", "IntLiteralE value=\u0663\n", "line 1: bad literal value"),
    "pairs-input-underscore": ("pairs", "x=1_0 => 3\n", "line 1: value for 'x' is not an integer"),
    "pairs-output-superscript": ("pairs", "x=3 => \u00b2\n", "line 1: output is not an integer"),
    "src-digit-superscript": ("src", "r := x * \u00b2\n", "line 1, col 10: unexpected character '\u00b2'"),
}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_kind(tmp_path, capsys, kind, text):
    """Run the command for kind on a file holding text; (exit code, captured, its path)."""
    paths = {name: write(tmp_path / f"good.{name}", body) for name, body in GOOD.items()}
    bad = write(tmp_path / f"bad.{kind}", text)
    argv = [a.format(bad=bad, out=tmp_path / "out", **paths) for a in COMMANDS[kind]]
    rc = dispatch(argv)
    return rc, capsys.readouterr(), bad


@pytest.mark.parametrize("kind, text, message", CASES.values(), ids=CASES.keys())
def test_malformed_file_exits_2_naming_the_file(tmp_path, capsys, kind, text, message):
    rc, captured, bad = run_kind(tmp_path, capsys, kind, text)
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}, in {bad}\n"


@pytest.mark.parametrize("kind", COMMANDS)
def test_a_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys, kind):
    paths = {name: write(tmp_path / f"good.{name}", body) for name, body in GOOD.items()}
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(b"# caf\xe9\n")
    argv = [a.format(bad=bad, out=tmp_path / "out", **paths) for a in COMMANDS[kind]]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not UTF-8 text, in {bad}\n"


def test_a_table_a_config_names_is_named_itself(tmp_path, capsys):
    table = write(tmp_path / "bad.table", "operator | plus\n")
    rc, captured, _ = run_kind(tmp_path, capsys, "config", f"pattern_table = {table}\n")
    assert rc == 2
    assert captured.err == f"error: line 1: expected `family | key | count`, in {table}\n"


def test_the_pattern_table_key_loads_the_table(tmp_path, capsys):
    table = write(tmp_path / "ops.table", GOOD["table"])
    config = f"strategy = pattern-aware\npattern_table = {table}\n"
    cfg = read_config(write(tmp_path / "pa.cfg", config))
    assert cfg.pattern_table.operator_counts == {"times": 80, "plus": 20}
    rc, captured, _ = run_kind(tmp_path, capsys, "config", config)
    assert rc == 0
    assert "class_size | 2" in captured.out


def test_a_source_that_assigns_twice_is_refused(tmp_path, capsys):
    """Single assignment is checked after reading, when obfuscation starts."""
    src = "prime 101\ninput x\nr := ADD x x\nr := MUL x x\n"
    rc, captured, _ = run_kind(tmp_path, capsys, "src", src)
    assert rc == 2
    assert captured.err == "error: statement 2 assigns 'r' again\n"


def test_a_source_that_reads_before_assigning_writes_no_file(tmp_path, capsys):
    """The source is checked before the .obf and .key are written, not after."""
    src = "prime 101\ninput x\nt0 := ADD t1 x\nt1 := ADD x x\n"
    rc, captured, _ = run_kind(tmp_path, capsys, "src", src)
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: statement 1 reads 't1' before it is assigned\n"
    assert not (tmp_path / "out.obf").exists()
    assert not (tmp_path / "out.key").exists()


UNREADABLE = (
    "cannot be read back from a program file: "
    "a name is not empty and holds no whitespace, '(', ')' or ','"
)


@pytest.mark.parametrize(
    "source, config, message",
    [
        ("r := x * x\n", "fake_vars = a b\n", f"fake variable 'a b' {UNREADABLE}, in {{config}}"),
        (
            "r := x * x\n",
            "strategy = combined-temporaries\nfake_vars = (f, g\n",
            f"fake variable '(f' {UNREADABLE}, in {{config}}",
        ),
        (
            "prime 101\ninput (x\nr := MUL (x (x\n",
            "strategy = combined-temporaries\n",
            f"variable '(x' {UNREADABLE}",
        ),
    ],
    ids=["fake-var-space", "fake-var-paren", "tac-input-paren"],
)
def test_a_name_the_obf_reader_cannot_read_back_writes_no_file(
    tmp_path, capsys, source, config, message
):
    """Each of these once wrote an .obf that `selectc run` refused."""
    src = write(tmp_path / "names.src", source)
    cfg = write(tmp_path / "names.cfg", config)
    out = tmp_path / "out"
    rc = dispatch(["obfuscate", src, "--config", cfg, "-o", f"{out}.obf", "--key", f"{out}.key"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message.format(config=cfg)}\n"
    assert not (tmp_path / "out.obf").exists()
    assert not (tmp_path / "out.key").exists()


@pytest.mark.parametrize(
    "inputs, message",
    [("x=3,y=1_0", "value for 'y' is not an integer"), ("x=\u0663", "value for 'x' is not an integer")],
    ids=["underscore", "arabic-indic"],
)
def test_an_inputs_flag_takes_ascii_integers_only(tmp_path, capsys, inputs, message):
    """--inputs reads no file, so its one stderr line names none."""
    obf = write(tmp_path / "good.obf", GOOD["obf"])
    key = write(tmp_path / "good.key", GOOD["key"])
    rc = dispatch(["run", obf, "--key", key, "--inputs", inputs])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "n, rc", [(2**63, 0), (2**63 + 1, 2), (10**30, 2)], ids=["2^63", "2^63+1", "10^30"]
)
def test_a_game_too_large_to_simulate_exits_2(capsys, n, rc):
    """The simulation draws statements as 64-bit integers: a larger --n is refused, not a traceback."""
    assert dispatch(["game", "--pl", "0.5", "--n", str(n), "--trials", "10"]) == rc
    captured = capsys.readouterr()
    if rc == 2:
        assert captured.out == ""
        assert captured.err == (
            "error: the simulation draws statements as 64-bit integers, so n must be at most 2**63\n"
        )
    else:
        assert captured.err == "" and "simulated = " in captured.out


# an obfuscated program with an input bound by its key, as a pairs file must bind it
KEYED_OBF = "input x\ninput k0\nt := ADD x k0\nu := MUL x x\nr := COMBINE (s0,t) (s1,u)\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("x=3,k0=1,typo=5 => 4\n", "line 1: 'typo' is not an input of {obf}"),
        ("x=3,k0=1 => 4\n# the key-bound input left out\nx=3 => 9\n",
         "line 3: unbound input variable(s): k0"),
    ],
    ids=["unknown-name", "unbound-input"],
)
def test_a_pair_binds_exactly_the_inputs_of_the_attacked_program(tmp_path, capsys, text, message):
    """attack --pairs checks names as run --inputs does, naming the pairs file and line."""
    obf = write(tmp_path / "keyed.obf", KEYED_OBF)
    pairs = write(tmp_path / "runs.pairs", text)
    assert dispatch(["attack", obf, "--pairs", pairs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(obf=obf)}, in {pairs}\n"


# ------------------------------------------------- mutated valid files

VALID_SOURCE = "if (y != 0) then r := x * y + 3 else r := x - 1\n"
VALID_CONFIG = "k = 2\nstrategy = uniform\nfake_vars = f0, f1\nfake_combining = 1\nseed = 5\n"

# file kind -> the commands that read a file of that kind from {bad}
READERS = {
    "src": [
        ["obfuscate", "{bad}", "-o", "{out}.obf", "--key", "{out}.key"],
        ["metrics", "{bad}", "{obf}", "--samples", "1"],
        ["attack", "{obf}", "--truth", "{bad}"],
    ],
    "obf": [
        ["run", "{bad}", "--key", "{key}", "--inputs", "x=3,y=1"],
        ["deobfuscate", "{bad}", "--key", "{key}"],
        ["attack", "{bad}"],
        ["metrics", "{src}", "{bad}", "--samples", "1"],
    ],
    "key": [
        ["run", "{obf}", "--key", "{bad}", "--inputs", "x=3,y=1"],
        ["deobfuscate", "{obf}", "--key", "{bad}"],
    ],
    "config": [
        ["obfuscate", "{src}", "--config", "{bad}", "-o", "{out}.obf", "--key", "{out}.key"],
    ],
}
READ_CASES = [(kind, argv) for kind, commands in READERS.items() for argv in commands]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A surface source, a config, and the .obf and .key obfuscating it makes."""
    root = tmp_path_factory.mktemp("valid")
    paths = {
        "src": write(root / "good.src", VALID_SOURCE),
        "config": write(root / "good.cfg", VALID_CONFIG),
        "obf": str(root / "good.obf"),
        "key": str(root / "good.key"),
        "out": str(root / "out"),
    }
    with redirect_stdout(io.StringIO()):
        rc = dispatch(
            ["obfuscate", paths["src"], "--config", paths["config"], "-o", paths["obf"], "--key", paths["key"]]
        )
    assert rc == 0
    return root, paths


@hst.composite
def mutations(draw):
    """1 to 3 byte edits, each (where as a fraction of the length, edit, byte)."""
    edit = hst.tuples(
        hst.floats(0, 1, exclude_max=True),
        hst.sampled_from(["replace", "insert", "delete"]),
        hst.one_of(hst.sampled_from(b"0123456789 \n=:(),-#x"), hst.integers(0, 255)),
    )
    return draw(hst.lists(edit, min_size=1, max_size=3))


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for where, edit, byte in edits:
        i = int(where * len(buf))
        if edit == "insert":
            buf.insert(i, byte)
        elif not buf:
            continue
        elif edit == "replace":
            buf[i] = byte
        else:
            del buf[i]
    return bytes(buf)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hst.sampled_from(READ_CASES), mutations())
def test_a_mutated_input_file_exits_0_or_2(valid_files, case, edits):
    """Every command that reads a source, .obf, .key or config file ends
    with exit 0, or with exit 2 and one error line, whatever few bytes
    of a valid file change: no traceback and no usage error."""
    root, paths = valid_files
    kind, template = case
    with open(paths[kind], "rb") as fh:
        data = mutate(fh.read(), edits)
    bad = root / f"bad.{kind}"
    bad.write_bytes(data)
    argv = [a.format(bad=bad, **paths) for a in template]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dispatch(argv)
    assert rc in (0, 2), (rc, err.getvalue())
    if rc == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1

"""End-to-end command-line tests driven through dispatch()."""

import hashlib
import pathlib
import time

import pytest

from selectc.cli import dispatch
from selectc.crypto import read_key_file, write_key_file
from selectc.errors import format_count
from selectc.ir import eval_plain, parse_program, render_program
from selectc.lower import lower
from selectc.obfuscate import read_obf_program
from selectc.patterns import read_table
from selectc.rng import DEFAULT_SEED
from selectc.surface import parse_surface

TASK1 = "if (y != 0) then r := x / y else r := -9999\n"
SQUARE = "r := x * x\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def obfuscate(tmp_path, src_text, *extra):
    src = write(tmp_path / "prog.src", src_text)
    obf = str(tmp_path / "prog.obf")
    key = str(tmp_path / "prog.key")
    rc = dispatch(["obfuscate", src, "-o", obf, "--key", key, *extra])
    assert rc == 0
    return src, obf, key


# ------------------------------------------------------------ exit codes

def test_missing_command_is_usage_error(capsys):
    assert dispatch([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["obfuscate", "x", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_is_domain_error(tmp_path, capsys):
    rc = dispatch(
        [
            "obfuscate",
            str(tmp_path / "absent.src"),
            "-o",
            str(tmp_path / "o"),
            "--key",
            str(tmp_path / "k"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_env_seed_is_domain_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SELECTC_SEED", "not-a-number")
    src = write(tmp_path / "p.src", SQUARE)
    rc = dispatch(
        ["obfuscate", src, "-o", str(tmp_path / "o"), "--key", str(tmp_path / "k")]
    )
    assert rc == 2
    assert "SELECTC_SEED" in capsys.readouterr().err


def test_bad_game_probability_is_domain_error(capsys):
    assert dispatch(["game", "--pl", "1.5", "--n", "5", "--trials", "10"]) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------- main pipeline

def test_obfuscate_run_deobfuscate_flow(tmp_path, capsys):
    src, obf, key = obfuscate(tmp_path, TASK1)
    out = capsys.readouterr().out
    assert "statements | " in out
    assert "class_size | " in out
    assert out.count("wrote | ") == 2

    assert dispatch(["run", obf, "--key", key, "--inputs", "x=12,y=4"]) == 0
    assert capsys.readouterr().out.strip() == "3"

    assert dispatch(["run", obf, "--key", key, "--inputs", "x=12,y=0"]) == 0
    assert capsys.readouterr().out.strip() == "-9999"

    rec = str(tmp_path / "rec.tac")
    assert dispatch(["deobfuscate", obf, "--key", key, "-o", rec]) == 0
    capsys.readouterr()
    with open(rec, encoding="utf-8") as fh:
        assert fh.read() == render_program(lower(parse_surface(TASK1)))


@pytest.mark.parametrize("hot", [0, 2])
def test_run_rejects_a_key_that_is_not_one_hot(tmp_path, capsys, hot):
    _, obf, key = obfuscate(tmp_path, TASK1, "--seed", "7")
    seed, sel_key = read_key_file(key)
    _, last = read_obf_program(obf).combines()[-1]
    for i, (sel, _) in enumerate(last.options):
        sel_key.bits[sel] = int(i < hot)
    write_key_file(key, seed, sel_key)
    capsys.readouterr()
    assert dispatch(["run", obf, "--key", key, "--inputs", "x=12,y=4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"has {hot} hot selectors" in captured.err
    assert dispatch(["deobfuscate", obf, "--key", key]) == 2


@pytest.mark.parametrize(
    "text",
    ["r := " + "(" * 400 + "x" + ")" * 400 + "\n", "r := " + "-" * 1000 + "x\n"],
    ids=["parentheses", "unary"],
)
def test_deep_nesting_is_domain_error(tmp_path, capsys, text):
    src = write(tmp_path / "deep.src", text)
    argv = ["obfuscate", src, "-o", str(tmp_path / "o.obf"), "--key", str(tmp_path / "o.key")]
    assert dispatch(argv) == 2
    assert "nesting deeper than" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["99999999999999999999", "9" * 5000])
def test_oversized_array_is_domain_error(tmp_path, capsys, size):
    """Refused by the parser, before lowering names a single cell."""
    src = write(tmp_path / "big.src", f"array a[{size}]\nr := a[0] + x\n")
    argv = ["obfuscate", src, "-o", str(tmp_path / "o.obf"), "--key", str(tmp_path / "o.key")]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1, col 9:")


def chain(terms):
    return "r := " + " + ".join(["x"] * terms) + "\n"


@pytest.mark.parametrize("terms", [1000, 2000, 20000])
def test_long_flat_operator_chain_obfuscates(tmp_path, capsys, terms):
    """A chain parses left-deep; the expression walkers loop over it.

    At 20,000 terms the class size 2^19,999 has more digits than CPython
    converts to text, so it prints in an approximate form.
    """
    _, obf, key = obfuscate(tmp_path, chain(terms))
    class_size = capsys.readouterr().out.splitlines()[1]
    if terms < 10000:
        assert class_size == f"class_size | {2 ** (terms - 1)}"
    else:
        assert class_size == "class_size | ~1.990138e6020"
    assert dispatch(["run", obf, "--key", key, "--inputs", "x=3"]) == 0
    assert capsys.readouterr().out == f"{3 * terms}\n"


def test_format_count_is_exact_up_to_the_digit_limit():
    assert format_count(12500) == "12500"
    assert format_count(10**4000 + 7) == str(10**4000 + 7)
    assert format_count(3 * 10**6000 + 1) == "~3.000000e6000"
    # rounds up into the next power of ten
    assert format_count(10**5000 - 1) == "~1.000000e5000"


def test_attack_on_a_class_too_large_to_print_is_a_cap_refusal(tmp_path, capsys):
    _, obf, _ = obfuscate(tmp_path, chain(20000))
    capsys.readouterr()
    assert dispatch(["attack", obf]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: program class has ~1.990138e6020 members, enumeration cap is 1000000\n"
    )


def test_deep_tree_file_is_domain_error(tmp_path, capsys):
    lines = ["  " * i + "UnaryE op=minus" for i in range(1500)]
    trees = write(tmp_path / "deep.trees", "\n".join(lines) + "\n")
    assert dispatch(["mine", trees]) == 2
    assert "tree deeper than" in capsys.readouterr().err


def test_huge_loop_bound_stops_early(tmp_path, capsys):
    src = write(
        tmp_path / "loop.src",
        "s := 0\nfor (i := 0; i < n; i := i + 1) bound 100000 {\n  s := s + i\n}\n",
    )
    argv = ["obfuscate", src, "-o", str(tmp_path / "o.obf"), "--key", str(tmp_path / "o.key")]
    start = time.perf_counter()
    assert dispatch(argv) == 2
    # the unrolled loop would take minutes; the statement cap stops it in about a second
    assert time.perf_counter() - start < 10
    assert "exceeds 100000 statements" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["obfuscate", "run", "attack"])
def test_composite_prime_is_domain_error(tmp_path, capsys, command):
    bad = write(tmp_path / "bad.tac", "prime 4\ninput x\nr := ADD x x\n")
    key = str(tmp_path / "bad.key")
    write(tmp_path / "bad.key", "seed 1\n")
    argv = {
        "obfuscate": ["obfuscate", bad, "-o", str(tmp_path / "o.obf"), "--key", key],
        "run": ["run", bad, "--key", key, "--inputs", "x=1"],
        "attack": ["attack", bad],
    }[command]
    assert dispatch(argv) == 2
    assert "not prime" in capsys.readouterr().err


def test_deobfuscate_prints_without_output_flag(tmp_path, capsys):
    _, obf, key = obfuscate(tmp_path, SQUARE)
    capsys.readouterr()
    assert dispatch(["deobfuscate", obf, "--key", key]) == 0
    text = capsys.readouterr().out
    p = parse_program(text)
    assert len(p.statements) == 1


def test_config_file_sets_mislead_factor(tmp_path, capsys):
    cfg = write(tmp_path / "obf.cfg", "k = 4\nseed = 11\n")
    obfuscate(tmp_path, SQUARE, "--config", cfg)
    out = capsys.readouterr().out
    # one statement at k=4: four options plus the combining statement
    assert "statements | 5" in out
    assert "class_size | 4" in out


# ------------------------------------------------------------- seeding

def test_seeded_rerun_is_byte_identical(tmp_path, capsys):
    src = write(tmp_path / "p.src", TASK1)
    blobs = []
    for tag in ("one", "two"):
        obf = tmp_path / f"{tag}.obf"
        key = tmp_path / f"{tag}.key"
        rc = dispatch(
            ["obfuscate", src, "-o", str(obf), "--key", str(key), "--seed", "7"]
        )
        assert rc == 0
        blobs.append((obf.read_bytes(), key.read_bytes()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_seed_precedence_flag_config_env(tmp_path, capsys, monkeypatch):
    src = write(tmp_path / "p.src", TASK1)

    def run(tag, *extra):
        obf = tmp_path / f"{tag}.obf"
        rc = dispatch(
            ["obfuscate", src, "-o", str(obf), "--key", str(tmp_path / f"{tag}.key"), *extra]
        )
        assert rc == 0
        return obf.read_bytes()

    monkeypatch.delenv("SELECTC_SEED", raising=False)
    seed4 = run("seed4", "--seed", "4")
    seed5 = run("seed5", "--seed", "5")
    seed9 = run("seed9", "--seed", "9")
    assert seed4 != seed5

    monkeypatch.setenv("SELECTC_SEED", "5")
    assert run("env", ) == seed5
    assert run("envflag", "--seed", "9") == seed9

    cfg = write(tmp_path / "c.cfg", "seed = 4\n")
    assert run("envcfg", "--config", cfg) == seed4
    capsys.readouterr()


def test_configured_default_seed_beats_env(tmp_path, capsys, monkeypatch):
    src = write(tmp_path / "p.src", TASK1)
    monkeypatch.delenv("SELECTC_SEED", raising=False)
    _, default_obf, _ = obfuscate(tmp_path, TASK1, "--seed", str(DEFAULT_SEED))
    with open(default_obf, "rb") as fh:
        want = fh.read()

    monkeypatch.setenv("SELECTC_SEED", "5")
    cfg = write(tmp_path / "c.cfg", f"seed = {DEFAULT_SEED}\n")
    obf = tmp_path / "cfg.obf"
    rc = dispatch(["obfuscate", src, "-o", str(obf), "--key", str(tmp_path / "cfg.key"),
                   "--config", cfg])
    assert rc == 0
    assert obf.read_bytes() == want
    capsys.readouterr()


# ----------------------------------------------------- mining commands

def test_mine_writes_readable_table(tmp_path, datadir, capsys):
    out = str(tmp_path / "table.txt")
    rc = dispatch(["mine", str(datadir / "corpus_a.trees"), "-o", out])
    assert rc == 0
    assert "wrote | " in capsys.readouterr().out
    table = read_table(out)
    assert table.operator_counts["plus"] >= 1


def test_mine_aggregate_matches_golden(datadir, capsys):
    rc = dispatch(
        [
            "mine",
            str(datadir / "corpus_a.trees"),
            str(datadir / "corpus_b.trees"),
            "--aggregate",
        ]
    )
    assert rc == 0
    golden = (datadir / "aggregate_golden.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


# ----------------------------------------------------- attack and game

def test_attack_command_reports_ranked_class(tmp_path, capsys):
    src, obf, _ = obfuscate(tmp_path, SQUARE, "--seed", "3")
    pairs = write(tmp_path / "pairs.txt", "# observed runs\nx=3 => 9\nx=5 => 25\n")
    table = write(
        tmp_path / "table.txt", "operator | times | 80\noperator | plus | 20\n"
    )
    capsys.readouterr()
    rc = dispatch(["attack", obf, "--pairs", pairs, "--table", table, "--truth", src])
    assert rc == 0
    out = capsys.readouterr().out
    assert "class_size | 2" in out
    assert "survivors | 1" in out
    assert "min_rank | 1" in out
    assert "quality | 0" in out
    assert out.count("top | ") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("x=3,x=4 => 9\n", "line 1: 'x' is bound twice"),
        ("# observed\n=3 => 9\n", "line 2: binding '=3' has no name"),
        ("# observed runs, none recorded\n\n", "no input/output pairs"),
    ],
    ids=["duplicate-name", "empty-name", "no-pairs"],
)
def test_attack_rejects_a_malformed_pairs_file(tmp_path, capsys, text, message):
    _, obf, _ = obfuscate(tmp_path, SQUARE, "--seed", "3")
    pairs = write(tmp_path / "pairs.txt", text)
    capsys.readouterr()
    assert dispatch(["attack", obf, "--pairs", pairs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "inputs, message",
    [("x=3,x=4", "'x' is bound twice"), ("x=3,=4", "binding '=4' has no name")],
    ids=["duplicate-name", "empty-name"],
)
def test_run_rejects_malformed_inputs(tmp_path, capsys, inputs, message):
    _, obf, key = obfuscate(tmp_path, SQUARE)
    capsys.readouterr()
    assert dispatch(["run", obf, "--key", key, "--inputs", inputs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_run_rejects_inputs_the_key_binds_or_the_program_lacks(tmp_path, capsys):
    """A name the key binds would override the key's value, and an unknown
    name would be ignored; both exit 2 and name the binding."""
    _, obf, key = obfuscate(tmp_path, TASK1)
    bound = next(iter(read_key_file(key)[1].bindings))
    capsys.readouterr()
    for extra, message in ((f"{bound}=7", f"{bound!r} is bound by the key"),
                           ("bogus=1", "'bogus' is not an input of")):
        assert dispatch(["run", obf, "--key", key, "--inputs", f"x=12,y=4,{extra}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    assert dispatch(["run", obf, "--key", key, "--inputs", "x=12,y=4"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_attack_cap_refusal_is_domain_error(tmp_path, capsys):
    _, obf, _ = obfuscate(tmp_path, SQUARE)
    capsys.readouterr()
    assert dispatch(["attack", obf, "--cap", "1"]) == 2
    assert "error:" in capsys.readouterr().err


REASSIGNED = """input a
t0 := ADD a a
c := COMBINE (s0,t0) (s1,a)
t0 := MUL a a
r := ADD c t0
"""


@pytest.mark.parametrize("pairs", [None, "a=3 => 15\n"], ids=["rank", "kpa"])
def test_attack_rejects_a_reassigned_variable(tmp_path, capsys, pairs):
    """Folding reads c as t0's later value, evaluation as its earlier one."""
    obf = tmp_path / "re.obf"
    obf.write_text(REASSIGNED)
    argv = ["attack", str(obf)]
    if pairs is not None:
        (tmp_path / "runs.txt").write_text(pairs)
        argv += ["--pairs", str(tmp_path / "runs.txt")]
    assert dispatch(argv) == 2
    assert "statement 3 assigns 't0' again" in capsys.readouterr().err


# run reads v = x + y at c, so r = x + y - y = x; inlining v's last
# definition would give x * x - y instead
REASSIGNED_OPTION = """input x
input y
v := ADD x y
c := COMBINE (s0,v) (s1,x)
v := MUL x x
r := SUB c y
"""


def test_deobfuscate_rejects_a_reassigned_variable_that_run_reads(tmp_path, capsys):
    obf = write(tmp_path / "re.obf", REASSIGNED_OPTION)
    key = write(tmp_path / "re.key", "seed 1\nsel s0 = 1\nsel s1 = 0\n")
    assert dispatch(["run", obf, "--key", key, "--inputs", "x=5,y=7"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert dispatch(["deobfuscate", obf, "--key", key]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "statement 3 assigns 'v' again" in captured.err


UNFOLDABLE = """input a
input b
t0 := MUL a b
c := COMBINE (s0,t0) (s1,a)
"""


@pytest.mark.parametrize(
    "pairs",
    [None, "a=2,b=3 => 6\n", "a=2,b=3 => 2\n", "a=2,b=3 => 7\n"],
    ids=["rank", "kpa-t0-survives", "kpa-a-survives", "kpa-none-survive"],
)
def test_attack_rejects_an_unfoldable_output(tmp_path, capsys, pairs):
    """Folding c to the input a would leave no statement for the output."""
    obf = write(tmp_path / "unf.obf", UNFOLDABLE)
    argv = ["attack", obf]
    if pairs is not None:
        argv += ["--pairs", write(tmp_path / "runs.txt", pairs)]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "statement 2 `c := COMBINE (s0,t0) (s1,a)` cannot be folded" in captured.err


@pytest.mark.parametrize("hot", ["s0", "s1"])
def test_deobfuscate_rejects_an_unfoldable_output(tmp_path, capsys, hot):
    obf = write(tmp_path / "unf.obf", UNFOLDABLE)
    key = write(tmp_path / "unf.key", f"seed 1\nsel s0 = {int(hot == 's0')}\nsel s1 = {int(hot == 's1')}\n")
    assert dispatch(["deobfuscate", obf, "--key", key]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "option must be an assignment only it reads, and 'a' is not" in captured.err


def test_game_command_prints_exact_and_simulated(capsys):
    rc = dispatch(
        ["game", "--pl", "0.5", "--n", "11", "--trials", "20000", "--seed", "2"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exact = 0.725"
    assert lines[1] == "paper_form = 0.727273"
    assert lines[2].startswith("simulated = 0.7")


# --------------------------------------------------- metrics and demos

def test_metrics_command_reports_overheads(tmp_path, capsys):
    src, obf, _ = obfuscate(tmp_path, TASK1)
    capsys.readouterr()
    rc = dispatch(["metrics", src, obf, "--samples", "5", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in (
        "mislead_factor_mean",
        "overhead_static",
        "overhead_dynamic",
        "combine_ratio",
        "stealth_distance",
    ):
        assert f"{name} = " in out


@pytest.mark.parametrize("level,size", [("l0", 12500), ("l1", 15625)])
def test_demo_emits_artifacts(tmp_path, capsys, level, size):
    out_dir = tmp_path / level
    rc = dispatch(["demo", level, "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"demo | {level}" in out
    assert f"class_size | {size}" in out
    for name in (
        "task1.src",
        "task1.tac",
        "task2.src",
        "task2.tac",
        f"task1.{level}.tac",
        f"task1.{level}.obf",
        f"task1.{level}.key",
    ):
        assert (out_dir / name).exists(), name


def test_demo_l0_deobfuscates_to_shipped_truth(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    assert dispatch(["demo", "l0", "--out", str(out_dir)]) == 0
    rec = str(tmp_path / "rec.tac")
    rc = dispatch(
        [
            "deobfuscate",
            str(out_dir / "task1.l0.obf"),
            "--key",
            str(out_dir / "task1.l0.key"),
            "-o",
            rec,
        ]
    )
    assert rc == 0
    capsys.readouterr()
    with open(rec, encoding="utf-8") as fh:
        recovered = fh.read()
    assert recovered == (out_dir / "task1.l0.tac").read_text(encoding="utf-8")


# ----------------------------------------------- golden attack output

# sha256 of `selectc attack` stdout on the default-seed demo artifacts
ATTACK_GOLDEN = {
    ("l0", "rank"): "8ca2dfd15c765c29a907fa690cfae82d6313ab3785e713d36119cbc1ab8640bd",
    ("l0", "pairs"): "14ee91374cc8f1cb19ddb73b5d3861cd262b5c1a4a1e76085d33070268816a16",
    ("l0", "truth"): "70f8ccd98f99d34c9d98bed44e1d95f68e9b1f058c77b19b9a9c244a2f117cff",
    ("l1", "rank"): "4e7509f78946b3021ae96f9b372d1b6856cca750b5bf1b368b09d86c2feb658d",
    ("l1", "pairs"): "24fad983c7bd2a6d1ae60b64d8dcee70a67f7b689c662e6b80c461b8617089b3",
    ("l1", "truth"): "64109a74519e66de283619b2e9d896189131ee18296ee88bcc6c2de739ebf86f",
}


@pytest.fixture(scope="module")
def demo_dirs(tmp_path_factory):
    """The default-seed demo artifacts per level, with a table mined
    from the test corpora and a pairs file of one known run, x = y = 1,
    which thousands of l0 members also pass."""
    root = tmp_path_factory.mktemp("demos")
    data = pathlib.Path(__file__).parent / "data"
    table = str(root / "table.txt")
    trees = sorted(str(path) for path in data.glob("corpus_*.trees"))
    assert dispatch(["mine", *trees, "-o", table]) == 0
    dirs = {}
    for level in ("l0", "l1"):
        out = root / level
        assert dispatch(["demo", level, "--out", str(out)]) == 0
        truth = parse_program((out / f"task1.{level}.tac").read_text(encoding="utf-8"))
        _, key = read_key_file(str(out / f"task1.{level}.key"))
        inputs = {"x": 1, "y": 1}
        lhs = ",".join(f"{name}={value}" for name, value in {**key.bindings, **inputs}.items())
        write(out / "pairs.txt", f"{lhs} => {eval_plain(truth, inputs)}\n")
        dirs[level] = out
    return dirs, table


def attack_argv(out, level, table, form):
    argv = ["attack", str(out / f"task1.{level}.obf"), "--table", table]
    if form == "pairs":
        argv += ["--pairs", str(out / "pairs.txt")]
    elif form == "truth":
        truth = "task1.l0.tac" if level == "l0" else "task1.src"
        argv += ["--truth", str(out / truth)]
    return argv


@pytest.mark.parametrize("form", ["rank", "pairs", "truth"])
@pytest.mark.parametrize("level", ["l0", "l1"])
def test_attack_output_on_the_demos_is_pinned(demo_dirs, capsys, level, form):
    dirs, table = demo_dirs
    capsys.readouterr()
    assert dispatch(attack_argv(dirs[level], level, table, form)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ATTACK_GOLDEN[level, form], out


def test_attack_truth_graded_by_the_names_the_class_uses(demo_dirs, capsys):
    dirs, _ = demo_dirs
    obf = str(dirs["l0"] / "task1.l0.obf")
    capsys.readouterr()
    assert dispatch(["attack", obf, "--truth", str(dirs["l0"] / "task1.l0.tac")]) == 0
    assert "min_rank | 12500\n" in capsys.readouterr().out


def test_attack_truth_that_grades_nothing_is_domain_error(demo_dirs, capsys):
    """task1.src lowers its constants to k0, k1, k2; the l0 class names them one, u, v."""
    dirs, _ = demo_dirs
    obf = str(dirs["l0"] / "task1.l0.obf")
    capsys.readouterr()
    assert dispatch(["attack", obf, "--truth", str(dirs["l0"] / "task1.src")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lacks = "the truth reads k0, k1, k2, which the class lacks (it has one, u, v, w, z instead)"
    assert lacks in captured.err

"""End-to-end command-line tests driven through dispatch()."""

import time

import pytest

from selectc.cli import dispatch
from selectc.crypto import read_key_file, write_key_file
from selectc.ir import parse_program, render_program
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


def test_attack_cap_refusal_is_domain_error(tmp_path, capsys):
    _, obf, _ = obfuscate(tmp_path, SQUARE)
    capsys.readouterr()
    assert dispatch(["attack", obf, "--cap", "1"]) == 2
    assert "error:" in capsys.readouterr().err


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

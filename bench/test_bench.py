"""The benchmark's own test: every workload at its smallest size.

    python3 -m pytest -q bench/test_bench.py

Runs bench/run.py in smoke mode, on a seed that was not used while the
benchmark was written, with and without tracing, and checks the result
line against BENCHMARK.json and every correctness check passing.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 90210

sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace):
    done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    # the readable report names all eight end-to-end metrics
    if not trace:
        for name in [m["name"] for m in spec] + ["fail_share"]:
            assert f"metric | {name} |" in done.stdout


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    sel = run.load_selectc()
    real_dec = sel.crypto.dec
    monkeypatch.setattr(sel.crypto, "dec", lambda key, ct: real_dec(key, ct) + 1)
    code = run.main(["--workload", "small-mix", "--seed", str(SEED), "--seconds", "0",
                     "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_same_seed_same_inputs():
    sel = run.load_selectc()
    for cls in WORKLOADS.values():
        a, b = cls(sel, SEED, smoke=True), cls(sel, SEED, smoke=True)
        c = cls(sel, SEED + 1, smoke=True)
        if cls.name == "demo-attack":
            # the demo classes are fixed; the seed draws pairs and compile seeds
            same = lambda x, y: (x.pairs, x.compile_seeds) == (y.pairs, y.compile_seeds)  # noqa: E731
        elif cls.name == "small-mix":
            same = lambda x, y: [i[0] for i in x.items] == [i[0] for i in y.items]  # noqa: E731
        else:
            same = lambda x, y: [r[1] for r in x.rungs] == [r[1] for r in y.rungs]  # noqa: E731
        assert same(a, b) and not same(a, c), cls.name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "small-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

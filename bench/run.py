"""selectc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload small-mix --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src of
that checkout and nowhere else. With --trace 0 the run measures the
end-to-end metrics: the workload's set-up (several times, median), then
a closed loop of requests for --seconds seconds, one at a time on one
thread. With --trace 1 it sets up once with the layer functions
wrapped, serves one round of the workload untraced and the same round
again traced, and reports per-layer metrics from the spans; the
difference between the two rounds is the tracing overhead.

Every output is checked. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report. The full result (environment, sample
distributions, Baseline figures) and, when tracing, all spans are
written under .bench_out/. The exit code is 1 when any check failed
and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# harness steps: their self time is time no layer span accounts for
STEPS = ("compile", "ir.selector_ids", "key_holder.keygen", "key_holder.run",
         "key_holder.deobfuscate", "attack.rank_only", "attack.kpa")

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import selectc\n"
    "print(time.perf_counter() - t)\n"
)


def fail_to_start(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_selectc():
    if not os.path.isfile(os.path.join(SRC, "selectc", "__init__.py")):
        fail_to_start(f"no selectc package under {SRC}; run from a checkout of the repository")
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import selectc

    if os.path.dirname(os.path.dirname(os.path.abspath(selectc.__file__))) != SRC:
        fail_to_start(f"imported selectc from {selectc.__file__}, not from {SRC}")
    # submodules by import path: the package re-exports a function named lower
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"selectc.{name}")
        for name in ("attack", "crypto", "field", "generate", "ir", "lower",
                     "obfuscate", "patterns", "surface")
    })


# ----------------------------------------------------------- statistics

def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and, from 20 samples on, the
    highest percentile that has at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out["q1"], out["q3"] = q1, q3
    if n >= 20:
        pct = 100.0 * (1.0 - 10.0 / n)
        out[f"p{pct:g}"] = vals[max(0, math.ceil(pct / 100.0 * n) - 1)]
    return out


def loglog_slope(points: list[tuple[int, float]]) -> float:
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return float("nan")
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    load = os.getloadavg()
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in load],
        "platform": platform.platform(),
    }


def git_sha() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------- runs

def import_seconds() -> float:
    """Time `import selectc` in a fresh interpreter (no bytecode cache)."""
    done = subprocess.run(
        [sys.executable, "-B", "-c", _IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def e2e_distributions(samples: list, times: list, setup_s: list[float]) -> dict[str, list[float]]:
    """Per-sample end-to-end values: work from `samples`, step times
    from `times` (the same samples, or their reference-speed twins)."""
    pairs = list(zip(samples, times))
    return {
        "setup_s": setup_s,
        "compile_stmts_per_s": [s.compile_stmts / t.compile_s for s, t in pairs],
        "enc_stmts_per_s": [s.enc_stmts / t.enc_s for s, t in pairs],
        "deobf_stmts_per_s": [s.deobf_stmts / t.deobf_s for s, t in pairs],
        "attack_rank_s": [t.rank_s for t in times],
        "attack_kpa_s": [t.kpa_s for t in times],
        "peak_rss_mb": [peak_rss_mb()],
    }


def run_e2e(sel, workload_cls, seed: int, seconds: float, smoke: bool, end_to_end: list[dict]) -> dict:
    from spans import Tracer
    from speed import RefClock
    from workloads import Checks, Ctx, Sample

    clock = RefClock()
    repeats = 1 if smoke else 5
    imports, setups, setup_s = [], [], []
    for _ in range(repeats):
        before = clock.tick()
        imports.append(import_seconds())
        start = time.perf_counter()
        workload = workload_cls(sel, seed, smoke)
        setups.append(time.perf_counter() - start)
        setup_s.append((imports[-1] + setups[-1]) * clock.scale(before, clock.tick()))

    tracer = Tracer(workload.name)
    checks = Checks()
    ctx = Ctx(sel, tracer, checks, clock)
    samples, raw_samples, walls = [], [], []
    start = time.perf_counter()
    while True:
        ctx.sample, ctx.scaled = Sample(), Sample()
        t0 = time.perf_counter()
        for request in workload.requests(len(samples)):
            request(ctx)()
        walls.append(time.perf_counter() - t0)
        samples.append(ctx.scaled)
        raw_samples.append(ctx.sample)
        if time.perf_counter() - start >= seconds and len(samples) >= workload.round_samples:
            break
    elapsed = time.perf_counter() - start

    dist = e2e_distributions(raw_samples, samples, setup_s)
    raw_dist = e2e_distributions(raw_samples, raw_samples, [i + s for i, s in zip(imports, setups)])
    units = {m["name"]: m["unit"] for m in end_to_end}
    if set(units) != set(dist):
        raise RuntimeError(f"end-to-end metrics out of step with BENCHMARK.json: {sorted(set(units) ^ set(dist))}")
    requests = {}
    for name in STEPS:
        durs = [rec[4] - rec[3] for rec in tracer.spans if rec[2] == name]
        if durs:
            requests[name] = summary(durs)
    probes = {}
    for s in raw_samples:
        for name, vals in s.probes.items():
            probes.setdefault(name, []).extend(vals)
    baseline = {name: statistics.median(vals) for name, vals in sorted(probes.items())}
    if workload.name == "small-mix" and len(samples) >= workload.round_samples:
        first = raw_samples[: workload.round_samples]
        baseline["criterion01_sized_steps_s"] = sum(s.compile_s + s.enc_s for s in first)
        baseline["criterion01_sized_wall_s"] = sum(walls[: workload.round_samples])
    return {
        "checks": checks,
        "metrics": {k: {"value": statistics.median(dist[k]), "unit": units[k]} for k in units},
        "distributions": {k: summary(v) for k, v in dist.items()},
        "raw_distributions": {k: summary(v) for k, v in raw_dist.items()},
        "reference_ticks": summary(clock.ticks),
        "requests": requests,
        "baseline": baseline,
        "samples": len(samples),
        "measured_s": elapsed,
        "setup_import_s": imports,
        "setup_inputs_s": setups,
    }


def run_traced(sel, workload_cls, seed: int, smoke: bool, per_layer: list[dict]) -> dict:
    import spans as sp
    from workloads import Checks, Ctx, Sample

    tracer = sp.Tracer(workload_cls.name)
    modules = vars(sel)
    tracer.phase = "setup"
    with tracer.layers(modules):
        workload = workload_cls(sel, seed, smoke)

    # each request runs untraced, then again traced, so that drift in
    # machine speed falls on both sides of the overhead alike
    checks = Checks()
    rounds = {"untraced": Sample(), "traced": Sample()}
    ctx = Ctx(sel, tracer, checks)
    for i in range(workload.round_samples):
        for request in workload.requests(i):
            for phase, sample in rounds.items():
                tracer.phase = phase
                ctx.sample, ctx.scaled = sample, Sample()
                ctx.count_distinct = phase == "untraced"
                if phase == "traced":
                    with tracer.layers(modules):
                        checks_of_request = request(ctx)
                else:
                    checks_of_request = request(ctx)
                checks_of_request()

    spans = tracer.spans
    own = sp.self_times(spans, "traced")
    counted = rounds["untraced"]
    sizes = counted.sizes

    def fit(span_name: str, which: int) -> float:
        return loglog_slope(
            [(sizes.get(rep, (0, 0))[which], d) for rep, d in sp.durations(spans, span_name, "traced")]
        )

    realize = sp.durations(spans, "attack.realize_candidate", "traced")
    realize_s = sum(d for _, d in realize)
    eval_incl = sum(d for _, d in sp.durations(spans, "obfuscate.eval_encrypted", "traced"))
    he_ops = counted.he_ops
    min_ranks = counted.min_ranks
    untraced = sp.top_level_wall(spans, "untraced")
    traced = sp.top_level_wall(spans, "traced")
    values = {
        "surface.parse_s": own.get("surface.parse_surface", 0.0),
        "lower.lower_s": own.get("lower.lower", 0.0),
        "lower.stmts_out": counted.lowered_stmts,
        "obfuscate.obfuscate_s": own.get("obfuscate.obfuscate_statement_level", 0.0),
        "obfuscate.eval_encrypted_s": own.get("obfuscate.eval_encrypted", 0.0),
        "obfuscate.deobfuscate_s": own.get("obfuscate.deobfuscate", 0.0),
        "obfuscate.obf_exp": fit("obfuscate.obfuscate_statement_level", 0),
        "obfuscate.eval_exp": fit("obfuscate.eval_encrypted", 1),
        "obfuscate.deobf_exp": fit("obfuscate.deobfuscate", 1),
        "obfuscate.size_ratio": counted.obf_stmts / counted.src_stmts,
        "obfuscate.class_log2": counted.class_log2,
        "crypto.enc_s": own.get("crypto.enc", 0.0),
        "crypto.dec_s": own.get("crypto.dec", 0.0),
        "crypto.he_ops": he_ops,
        "crypto.he_ops_per_s": he_ops / eval_incl if eval_incl else 0.0,
        "ir.selector_ids_s": own.get("ir.selector_ids", 0.0),
        "ir.render_s": own.get("ir.render_program", 0.0),
        "ir.parse_program_s": own.get("ir.parse_program", 0.0),
        "ir.eval_plain_s": own.get("ir.eval_plain", 0.0),
        "ir.canonical_key_s": own.get("ir.canonical_key", 0.0),
        "attack.extract_class_s": own.get("attack.extract_class", 0.0),
        "attack.realize_s": realize_s,
        "attack.realize_per_s": len(realize) / realize_s if realize_s else 0.0,
        "attack.kpa_eval_s": sp.inclusive_minus(
            spans, "attack.kpa_filter", "attack.realize_candidate", "traced"
        ),
        "attack.rank_s": own.get("attack.rank_candidates", 0.0),
        "attack.quality_s": own.get("attack.run_attack", 0.0),
        "attack.candidates": counted.candidates,
        "attack.kpa_survival": counted.survivors / counted.kpa_candidates,
        "attack.distinct_programs": counted.distinct_programs,
        "attack.min_rank": statistics.median(min_ranks) if min_ranks else 0,
        "patterns.mine_s": sp.self_times(spans, "setup").get("patterns.mine", 0.0),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.self_sum_s": sum(own.values()),
        "trace.harness_s": sum(own.get(name, 0.0) for name in STEPS if name != "ir.selector_ids"),
    }
    units = {m["name"]: m["unit"] for m in per_layer}
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with BENCHMARK.json: {sorted(missing)}")
    return {
        "checks": checks,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "self_times": dict(sorted(own.items(), key=lambda kv: -kv[1])),
        "tracer": tracer,
    }


# --------------------------------------------------------------- report

def report_lines(args, env: dict, result: dict) -> list[str]:
    checks = result["checks"]
    lines = [
        f"bench | workload {args.workload} | seed {args.seed} | seconds {args.seconds:g} "
        f"| trace {args.trace}" + (" | smoke" if args.smoke else ""),
        "env | " + " | ".join(f"{k} {v}" for k, v in env.items()),
    ]
    for name, m in result["metrics"].items():
        line = f"metric | {name} | {m['value']:.6g} {m['unit']}"
        d = result.get("distributions", {}).get(name)
        if d:
            spread = f" | q1 {d['q1']:.6g} | q3 {d['q3']:.6g}" if "q1" in d else ""
            line += f" | median of {d['n']} samples{spread}"
            raw = result["raw_distributions"][name]["median"]
            if raw != m["value"]:
                line += f" | unscaled {raw:.6g}"
        lines.append(line)
    share = checks.failed / checks.attempted if checks.attempted else 0.0
    lines.append(f"metric | fail_share | {share:g} ratio | {checks.failed} of {checks.attempted} checks failed")
    for name, d in result.get("requests", {}).items():
        extra = " | ".join(f"{k} {v:.6g}" for k, v in d.items() if k.startswith("p"))
        lines.append(f"request | {name} | median {d['median']:.6g} s | n {d['n']}" + (f" | {extra}" if extra else ""))
    for name, v in result.get("baseline", {}).items():
        lines.append(f"baseline | {name} | {v:.6g} s")
    for name, v in list(result.get("self_times", {}).items()):
        lines.append(f"self | {name} | {v:.6g} s")
    for message in checks.messages:
        lines.append(f"FAILED | {message}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail_to_start(f"cannot read BENCHMARK.json: {exc}")
    sel = load_selectc()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail_to_start(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    env = environment()
    if args.trace:
        result = run_traced(sel, workload_cls, args.seed, args.smoke, spec["per_layer"])
    else:
        result = run_e2e(sel, workload_cls, args.seed, args.seconds, args.smoke, spec["end_to_end"])

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    checks = result["checks"]
    saved = {k: v for k, v in result.items() if k not in ("checks", "tracer")}
    saved.update(env=env, args=vars(args), attempted=checks.attempted, failed=checks.failed,
                 failures=checks.messages)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(saved, fh, indent=1)
    if "tracer" in result:
        result["tracer"].write(stem + "-spans.json")

    for line in report_lines(args, env, result):
        print(line)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result["metrics"],
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

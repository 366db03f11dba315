"""Obfuscation metrics over (program, obfuscated program) pairs.

The primary figures are static: statement-count overhead and the
mislead factor (options per combining statement). Dynamic overhead is
measured against the mock encrypted backend and only means anything
relative to that backend; combining statements always evaluate every
option, so the timing does not depend on which key is used and a
surrogate all-zeros selection works for measurement.

Stealth has no agreed formula. As an informational proxy the report
includes the total-variation distance between the operation
distribution of the original statements and that of the option
expressions the obfuscated program exposes.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError
from .ir import Assign, Combine, Program, eval_plain, referenced_vars
from .obfuscate import ObfProgram, eval_encrypted
from .attack import ClassDescriptor
from .crypto import SelectorKey, enc, keygen
from .rng import DEFAULT_SEED, spawn


@dataclass
class MetricsReport:
    mislead_min: int
    mislead_mean: float
    mislead_max: int
    overhead_static: float
    overhead_dynamic: float
    original_statements: int
    obfuscated_statements: int
    original_operators: int
    obfuscated_operators: int
    original_variables: int
    obfuscated_variables: int
    combine_ratio: float
    stealth_distance: float


def _variable_count(p: Program) -> int:
    return len(referenced_vars(p) | {st.target for st in p.statements})


def _op_distribution(ops: Counter) -> dict[str, float]:
    total = sum(ops.values())
    return {name: count / total for name, count in ops.items()} if total else {}


def _tv_distance(a: Counter, b: Counter) -> float:
    pa = _op_distribution(a)
    pb = _op_distribution(b)
    keys = set(pa) | set(pb)
    return 0.5 * sum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)


def measure(
    p: Program,
    obf: ObfProgram,
    eval_samples: int = 50,
    seed: int = DEFAULT_SEED,
) -> MetricsReport:
    """Static and dynamic metrics for an obfuscation of p.

    Dynamic overhead runs both versions eval_samples times on one set
    of seeded random inputs and reports the time ratio. Every option of
    a combining statement is evaluated regardless of the key, so the
    surrogate selection used here times the same work as the real one.
    """
    if eval_samples <= 0:
        raise ConfigError("eval_samples must be positive")

    combines = [st for st in obf.program.statements if isinstance(st, Combine)]
    option_counts = [len(st.options) for st in combines]
    mislead_min = min(option_counts) if option_counts else 0
    mislead_max = max(option_counts) if option_counts else 0
    mislead_mean = (
        sum(option_counts) / len(option_counts) if option_counts else 0.0
    )

    n_orig = len(p.statements)
    n_obf = len(obf.program.statements)
    orig_ops = Counter(st.expr.op.value for st in p.statements if isinstance(st, Assign))
    obf_ops = Counter(
        st.expr.op.value for st in obf.program.statements if isinstance(st, Assign)
    )

    rng = spawn(seed, "metrics-inputs")
    inputs = {v: rng.randrange(p.prime) for v in p.inputs}
    bound_names = [v for v in obf.program.inputs if v not in inputs]
    bindings = {
        v: p.consts[v] if v in p.consts else rng.randrange(1, p.prime)
        for v in bound_names
    }
    sel_key = SelectorKey(
        bits={s: int(i == 0) for _, st in obf.combines() for i, (s, _) in enumerate(st.options)},
        bindings=bindings,
    )
    key = keygen(seed, p.prime)
    enc_inputs = {v: enc(key, val) for v, val in inputs.items()}

    start = time.perf_counter()
    for _ in range(eval_samples):
        eval_plain(p, inputs)
    plain_time = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(eval_samples):
        eval_encrypted(obf, key, sel_key, dict(enc_inputs))
    enc_time = time.perf_counter() - start

    return MetricsReport(
        mislead_min=mislead_min,
        mislead_mean=mislead_mean,
        mislead_max=mislead_max,
        overhead_static=n_obf / n_orig if n_orig else float("inf"),
        overhead_dynamic=enc_time / max(plain_time, 1e-12),
        original_statements=n_orig,
        obfuscated_statements=n_obf,
        original_operators=sum(orig_ops.values()),
        obfuscated_operators=sum(obf_ops.values()),
        original_variables=_variable_count(p),
        obfuscated_variables=_variable_count(obf.program),
        combine_ratio=len(combines) / n_obf if n_obf else 0.0,
        stealth_distance=_tv_distance(orig_ops, obf_ops),
    )


def potency_reduction(cd: ClassDescriptor, eliminated: list[int]) -> float:
    """Fraction of misleading options a de-obfuscator ruled out.

    eliminated gives, per live combining statement, how many options
    the de-obfuscator proved wrong; the confidential option can never
    be ruled out, so each statement contributes eliminated/(options-1).
    """
    if len(eliminated) != len(cd.options):
        raise ConfigError("one eliminated count per combining statement required")
    ratios = []
    for count, options in zip(eliminated, cd.options):
        if len(options) < 2:
            raise ConfigError("combining statements need at least two options")
        if not 0 <= count <= len(options) - 1:
            raise ConfigError(
                f"cannot eliminate {count} of {len(options) - 1} misleading options"
            )
        ratios.append(count / (len(options) - 1))
    return sum(ratios) / len(ratios) if ratios else 0.0


def render_metrics(report: MetricsReport) -> str:
    lines = [
        f"mislead_factor_min = {report.mislead_min}",
        f"mislead_factor_mean = {report.mislead_mean:.6g}",
        f"mislead_factor_max = {report.mislead_max}",
        f"overhead_static = {report.overhead_static:.6g}",
        f"overhead_dynamic = {report.overhead_dynamic:.6g}",
        f"original_statements = {report.original_statements}",
        f"obfuscated_statements = {report.obfuscated_statements}",
        f"original_operators = {report.original_operators}",
        f"obfuscated_operators = {report.obfuscated_operators}",
        f"original_variables = {report.original_variables}",
        f"obfuscated_variables = {report.obfuscated_variables}",
        f"combine_ratio = {report.combine_ratio:.6g}",
        f"stealth_distance = {report.stealth_distance:.6g}",
    ]
    return "\n".join(lines) + "\n"

"""Overhead, potency, and stealth measurements."""

import random

import pytest

from selectc.attack import extract_class, kpa_filter
from selectc.errors import ConfigError
from selectc.generate import random_linear_program
from selectc.metrics import measure, potency_reduction, render_metrics
from selectc.obfuscate import ObfuscationConfig, obfuscate_statement_level


def obfuscated(n=2, k=3, fakes=0, seed=0):
    p = random_linear_program(random.Random(41), n_statements=n)
    cfg = ObfuscationConfig(
        mislead_factor=k,
        fake_vars=("f0", "f1") if fakes else (),
        fake_combining=fakes,
        seed=seed,
    )
    obf, _ = obfuscate_statement_level(p, cfg)
    return p, obf


def test_static_overhead_is_k_plus_one_without_fakes():
    p, obf = obfuscated(n=3, k=4)
    report = measure(p, obf, eval_samples=1)
    assert report.original_statements == 3
    assert report.obfuscated_statements == (4 + 1) * 3
    assert report.overhead_static == 5.0


def test_fake_chains_add_k_plus_one_each():
    p, obf = obfuscated(n=2, k=3, fakes=2)
    report = measure(p, obf, eval_samples=1)
    assert report.obfuscated_statements == (3 + 1) * 2 + 2 * (3 + 1)


def test_mislead_factor_summary():
    p, obf = obfuscated(n=3, k=5)
    report = measure(p, obf, eval_samples=1)
    assert (report.mislead_min, report.mislead_mean, report.mislead_max) == (5, 5.0, 5)


def test_combine_ratio():
    p, obf = obfuscated(n=2, k=3)
    report = measure(p, obf, eval_samples=1)
    assert report.combine_ratio == pytest.approx(2 / 8)


def test_dynamic_overhead_is_positive():
    p, obf = obfuscated()
    report = measure(p, obf, eval_samples=5)
    assert report.overhead_dynamic > 0


def test_stealth_distance_bounds():
    p, obf = obfuscated(n=4, k=2, seed=9)
    report = measure(p, obf, eval_samples=1)
    assert 0.0 <= report.stealth_distance <= 1.0


def test_variable_counts_grow():
    p, obf = obfuscated(n=3, k=3)
    report = measure(p, obf, eval_samples=1)
    assert report.obfuscated_variables > report.original_variables


def test_measure_rejects_nonpositive_samples():
    p, obf = obfuscated()
    with pytest.raises(ConfigError):
        measure(p, obf, eval_samples=0)


def test_render_metrics_lines():
    p, obf = obfuscated()
    text = render_metrics(measure(p, obf, eval_samples=1))
    for name in (
        "mislead_factor_mean",
        "overhead_static",
        "overhead_dynamic",
        "combine_ratio",
        "stealth_distance",
    ):
        assert any(line.startswith(f"{name} = ") for line in text.splitlines())


def test_potency_reduction_fraction():
    """Per slot, the options no survivor uses, out of its misleading
    ones; a slot dead in a survivor (-1) uses all of its options."""
    _, obf = obfuscated(n=2, k=3)
    cd = extract_class(obf)
    assert [len(options) for options in cd.options] == [3, 3]
    assert potency_reduction(cd, [((0, 1), 1)]) == 1.0
    assert potency_reduction(cd, [((0, 0), 1), ((1, 1), 1), ((2, 2), 1)]) == 0.0
    assert potency_reduction(cd, [((-1, 0), 3)]) == 0.5
    assert potency_reduction(cd, [((0, 0), 1), ((0, 1), 1), ((0, 2), 1)]) == 0.5
    assert potency_reduction(cd, [((0, 2), 1), ((1, 2), 1)]) == pytest.approx(0.75)
    # pairs no member agrees with rule every misleading option out
    assert potency_reduction(cd, []) == 1.0


def test_potency_from_kpa_survivors(two_option_class):
    obf, _ = two_option_class
    cd = extract_class(obf)
    survivors = kpa_filter(cd, [({"a": 3}, 9)])
    assert potency_reduction(cd, survivors) == 1.0

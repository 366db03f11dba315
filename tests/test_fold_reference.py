"""Differential checks of folding, ranking and KPA against reference copies.

The reference functions below are the straightforward versions that
rebuild every piece of fold metadata for each candidate, fold the whole
program and then drop its dead code, compute canonical keys by building
the normalized program and rendering it, rank every selection on its
own, and filter on known pairs by folding and evaluating every
candidate. The library has one fold rule (ir.inline_map and
ir.emit_fold) and never folds a dead statement: deobfuscate folds one
selection with one backward liveness walk (ir.fold_selection), and the
attack folds each member to columns from cones built once per class,
keys and scores each live signature in one pass that builds nothing,
keys members without a liveness pass and, where many signatures share
a union of cones, through that union's key template, sorts and weights
each distinct member once, folds a member only when the ranking is
read, finds ranks by bisection and filters by walking the obfuscated
program once per pair, sharing prefixes between leaves, keeping the
survivors as live signatures that it keys once each; it must agree
with these references exactly.
"""

import functools
import itertools
import math
import random
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from selectc import attack, ir
from selectc.attack import (
    DEFAULT_CAP,
    extract_class,
    kpa_filter,
    rank_candidates,
    realize_candidate,
    render_attack_report,
    run_attack,
)
from selectc.crypto import SelectorKey
from selectc.demos import build_l0, build_l1
from selectc.errors import ConfigError, EnumerationCapError, UnboundVariableError
from selectc.field import FIELD_PRIME, Op, signed
from selectc.generate import random_inputs, random_linear_program
from selectc.ir import (
    Assign,
    Combine,
    Program,
    SimpleExpression,
    canonical_key,
    eval_plain,
    fold_selection,
    normalize,
    render_program,
    selectors,
    sources,
)
from selectc.obfuscate import (
    ObfProgram,
    ObfuscationConfig,
    deobfuscate,
    obfuscate_program_level,
    obfuscate_statement_level,
)
from selectc.patterns import PatternTable

from programs import program_of, render_statement

TABLE = PatternTable(operator_counts=Counter({"MUL": 50, "ADD": 30, "SUB": 15, "DIV": 5}))

# the rank path's one key pass per live signature, and the fold a read of the
# ranking makes per signature, which the work-shape guards count
real_key_score = attack._MemberCones.key_score
real_fold = attack._MemberCones.fold


def count_passes(monkeypatch):
    """Record the signatures key_score and fold are called on, under "key" and "fold"."""
    calls = {"key": [], "fold": []}

    def keying(cones, sig, op_scores, memo):
        calls["key"].append(sig)
        return real_key_score(cones, sig, op_scores, memo)

    def folding(cones, sig):
        calls["fold"].append(sig)
        return real_fold(cones, sig)

    monkeypatch.setattr(attack._MemberCones, "key_score", keying)
    monkeypatch.setattr(attack._MemberCones, "fold", folding)
    return calls


# ------------------------------------------------------------ references

def statement_operands(st):
    """The variables a statement node reads, in order."""
    if isinstance(st, Assign):
        return (st.expr.in1, st.expr.in2)
    return tuple(src for _, src in st.options)


def reference_fold(program, selection):
    use_count = {}
    defs = {}
    for st in program.statements:
        for v in statement_operands(st):
            use_count[v] = use_count.get(v, 0) + 1
        if isinstance(st, Assign):
            defs[st.target] = st

    subst = {}

    def resolve(v):
        return subst.get(v, v)

    stmts = []
    last = len(program.statements) - 1
    for idx, st in enumerate(program.statements):
        if isinstance(st, Assign):
            stmts.append(
                Assign(
                    st.target,
                    SimpleExpression(st.expr.op, resolve(st.expr.in1), resolve(st.expr.in2)),
                )
            )
            continue
        choice = selection.get(idx, 0)
        if not 0 <= choice < len(st.options):
            raise ValueError(f"option index {choice} out of range at statement {idx}")
        _, src = st.options[choice]
        src = resolve(src)
        definition = defs.get(src)
        if definition is not None and use_count.get(src, 0) == 1:
            stmts.append(
                Assign(
                    st.target,
                    SimpleExpression(
                        definition.expr.op,
                        resolve(definition.expr.in1),
                        resolve(definition.expr.in2),
                    ),
                )
            )
        elif idx == last:
            raise ValueError(
                "cannot fold a final combining statement whose option is a shared variable"
            )
        else:
            subst[st.target] = src
    return program_of(
        inputs=list(program.inputs),
        statements=stmts,
        consts=dict(program.consts),
        prime=program.prime,
    )


def reference_dce(program):
    live = {program.output}
    keep = []
    statements = program.statements  # the node view is built on each read
    for idx in range(len(statements) - 1, -1, -1):
        st = statements[idx]
        if st.target in live:
            keep.append(idx)
            live.update(statement_operands(st))
    keep.reverse()
    return program_of(
        inputs=list(program.inputs),
        statements=[statements[i] for i in keep],
        consts=dict(program.consts),
        prime=program.prime,
    )


def reference_realize(cd, selection):
    choice = dict(zip(cd.combine_indices, selection))
    return reference_dce(reference_fold(cd.obf.program, choice))


def reference_normalize(program):
    p = reference_dce(program)
    fixed = set(p.inputs) | set(p.consts)
    rename = {}
    counter = 0
    for st in p.statements:
        if st.target not in fixed and st.target not in rename:
            while f"t{counter}" in fixed:
                counter += 1
            rename[st.target] = f"t{counter}"
            counter += 1

    def rn(v):
        return rename.get(v, v)

    stmts = []
    for st in p.statements:
        if isinstance(st, Assign):
            stmts.append(
                Assign(rn(st.target), SimpleExpression(st.expr.op, rn(st.expr.in1), rn(st.expr.in2)))
            )
        else:
            stmts.append(Combine(rn(st.target), tuple((s, rn(v)) for s, v in st.options)))
    refs = {v for st in stmts for v in statement_operands(st)}
    consts = {v: val for v, val in p.consts.items() if v in refs}
    return program_of(inputs=list(p.inputs), statements=stmts, consts=consts, prime=p.prime)


def reference_canonical_key(program, with_const_values=True):
    """Normalize, then render the referenced terminals and the statements."""
    p = reference_normalize(program)
    refs = {v for st in p.statements for v in statement_operands(st)}
    if with_const_values:
        parts = ["in " + ",".join(sorted(v for v in p.inputs if v in refs))]
        parts.extend(f"const {v}={signed(p.consts[v], p.prime)}" for v in sorted(p.consts))
    else:
        parts = ["in " + ",".join(sorted((set(p.inputs) | set(p.consts)) & refs))]
    parts.extend(map(render_statement, p.statements))
    return " ; ".join(parts)


def reference_ranking(members, table, truth=None):
    """(selection, log_score, prob, key, rendered program) best first, and
    the naive min rank of truth.

    members lists (selection, reference program) for the whole class.
    """
    counts = table.ir_operator_counts()
    universe = sorted({op.value for op in Op} | set(counts))
    total = sum(counts.values())
    denom = math.log(1 + len(universe))
    rows = []
    for selection, program in members:
        logs = sorted(
            math.log1p(counts.get(s.expr.op.value, 0) / total) - denom
            for s in program.statements
        )
        rows.append([selection, math.fsum(logs), reference_canonical_key(program, False), program])
    rows.sort(key=lambda row: (-row[1], row[2]))
    peak = max(row[1] for row in rows)
    weights = [math.exp(row[1] - peak) for row in rows]
    norm = math.fsum(weights)
    truth_key = reference_canonical_key(truth, False) if truth is not None else None
    ranks = [
        sum(1 for other in rows if other[1] >= row[1]) for row in rows if row[2] == truth_key
    ]
    ranked = [
        (row[0], row[1], w / norm, row[2], render_program(row[3])) for row, w in zip(rows, weights)
    ]
    return ranked, min(ranks) if ranks else None


def reference_members(ranked):
    """reference_ranking's rows grouped by key, as a Ranking lists its
    members: (key, log_score, prob, selection count), best first."""
    members = []
    for key, group in itertools.groupby(ranked, key=itemgetter(3)):
        rows = list(group)
        assert len({row[1:3] for row in rows}) == 1, key  # one score and prob per program
        members.append((key, rows[0][1], rows[0][2], len(rows)))
    return members


def member_rows(ranking):
    return [(m.key, m.log_score, m.prob, m.count) for m in ranking]


def top_lines(report, top):
    """The top lines render_attack_report prints for report."""
    text = render_attack_report(report, top)
    return [line for line in text.splitlines() if line.startswith("top | ")]


def reference_kpa_filter(cd, pairs, cap=DEFAULT_CAP, members=None):
    """Fold every candidate and keep those that agree with every pair.

    members, if given, is the folded class in product order, reused
    across pair sets.
    """
    if cd.class_size > cap:
        raise EnumerationCapError(cd.class_size, cap)
    if members is None:
        members = [
            (selection, realize_candidate(cd, selection))
            for selection in itertools.product(*(range(n) for n in map(len, cd.options)))
        ]
    return [
        (selection, program)
        for selection, program in members
        if all(eval_plain(program, inputs) == output % program.prime for inputs, output in pairs)
    ]


# ---------------------------------------------------------------- checks

def assert_class_matches_reference(obf, truth):
    """Every member folds like the reference, and the attack ranks like it."""
    cd = extract_class(obf)
    members = []
    for selection in itertools.product(*(range(n) for n in map(len, cd.options))):
        want = reference_realize(cd, selection)
        got = realize_candidate(cd, selection)
        assert render_program(got) == render_program(want), selection
        members.append((selection, want))
    ranked, min_rank = reference_ranking(members, TABLE, truth)
    if min_rank is None:
        # program-level obfuscation renames consts, so a truth may match no member by name
        with pytest.raises(ConfigError, match="matches the truth"):
            run_attack(obf, table=TABLE, truth=[truth])
        report = run_attack(obf, table=TABLE)
    else:
        report = run_attack(obf, table=TABLE, truth=[truth])
    assert member_rows(report.ranked) == reference_members(ranked)
    assert report.enumerated == len(ranked)
    assert report.min_rank == min_rank
    # a member's program is one of its key's reference folds
    folds = {(row[3], row[4]) for row in ranked}
    assert all((m.key, render_program(m.program)) in folds for m in report.ranked)
    # a top line per selection, so the lines run on across member boundaries
    for top in (1, 10, cd.class_size + 1):
        assert top_lines(report, top) == [
            f"top | {i} | {row[2]:.6g} | {row[3]}" for i, row in enumerate(ranked[:top], start=1)
        ]


@pytest.mark.parametrize("build", [build_l0, build_l1], ids=["l0", "l1"])
def test_demo_class_folds_like_the_reference(build):
    demo = build()
    assert_class_matches_reference(demo.obf, demo.program)


@hst.composite
def linear_classes(draw):
    """Seeded statement- and program-level classes of at most a few hundred members."""
    seed = draw(hst.integers(0, 2**32 - 1))
    strategy = draw(
        hst.sampled_from(["uniform", "operand-only", "operation-only", "combined-temporaries"])
    )
    combined = strategy == "combined-temporaries"
    n = draw(hst.integers(1, 2 if combined else 4))
    k = 2 if combined else draw(hst.integers(2, 3))
    rng = random.Random(seed)
    if draw(hst.booleans()):
        programs = [random_linear_program(rng, n_statements=n) for _ in range(k)]
        i_star = draw(hst.integers(0, k - 1))
        obf, _ = obfuscate_program_level(programs, i_star, seed=seed)
        return obf, programs[i_star]
    program = random_linear_program(rng, n_statements=n, n_consts=draw(hst.integers(0, 2)))
    fakes = draw(hst.integers(0, 2))
    cfg = ObfuscationConfig(
        mislead_factor=k,
        strategy=strategy,
        fake_vars=("f0", "f1") if fakes else (),
        fake_combining=fakes,
        seed=seed,
    )
    obf, _ = obfuscate_statement_level(program, cfg)
    return obf, program


def assert_members_are_live_folds(obf):
    """Each selection folds to the reference fold without its dead code,
    whether the attack or fold_selection folds it, and each ranked
    member's key is the canonical key that a liveness pass would give
    its program, the fold of its signature."""
    cd = extract_class(obf)
    for selection in itertools.product(*(range(n) for n in map(len, cd.options))):
        want = reference_realize(cd, selection)
        assert realize_candidate(cd, selection) == want
        choice = dict(zip(cd.combine_indices, selection))
        assert fold_columns(obf.program, choice) == want.columns
    for m in rank_candidates(cd, table=TABLE):
        assert m.program == realize_candidate(cd, m.signature)
        assert m.key == canonical_key(m.program, False)


def fold_columns(program, selection):
    """fold_selection's columns, as a Program holds them."""
    return tuple(map(tuple, fold_selection(program, selection)))


def hand_built(statements, inputs=("x", "y")):
    program = program_of(inputs=list(inputs), statements=statements)
    return ObfProgram(program=program, selector_ids=program.selector_ids())


def mul(a, b):
    return SimpleExpression(Op.MUL, a, b)


def add(a, b):
    return SimpleExpression(Op.ADD, a, b)


def sub(a, b):
    return SimpleExpression(Op.SUB, a, b)


OVERLAPPING_CONES = {
    # a is read by the output and by option 0, which substitutes it
    "output-and-option": [
        Assign("a", mul("x", "y")),
        Assign("o1", sub("x", "y")),
        Combine("c", (("s0", "a"), ("s1", "o1"))),
        Assign("r", add("c", "a")),
    ],
    # a is read by inlined options of two live slots
    "two-slots": [
        Assign("a", mul("x", "y")),
        Assign("o0", add("a", "x")),
        Assign("o1", sub("x", "y")),
        Combine("c0", (("s0", "o0"), ("s1", "o1"))),
        Assign("p0", mul("a", "y")),
        Assign("p1", add("y", "y")),
        Combine("c1", (("s2", "p0"), ("s3", "p1"), ("s4", "a"))),
        Assign("r", add("c0", "c1")),
    ],
    # the inlined options' definitions read other slots' targets, one
    # substituted (c0 picks an input) and one inlined (c1)
    "inlined-reads-slot": [
        Combine("c0", (("s0", "x"), ("s1", "y"))),
        Assign("q0", mul("x", "x")),
        Assign("q1", sub("y", "x")),
        Combine("c1", (("s2", "q0"), ("s3", "q1"))),
        Assign("o0", mul("c0", "c1")),
        Assign("o1", add("x", "y")),
        Combine("c2", (("s4", "o0"), ("s5", "o1"))),
        Assign("m", sub("c2", "y")),
        Assign("n0", add("m", "c0")),
        Assign("n1", mul("m", "m")),
        Combine("r", (("s6", "n0"), ("s7", "n1"))),
    ],
    # c1 may pick c0's target, so its substitute is whatever c0 picked
    "slot-reads-slot": [
        Combine("c0", (("s0", "x"), ("s1", "y"))),
        Assign("o1", mul("x", "y")),
        Combine("c1", (("s2", "c0"), ("s3", "x"), ("s4", "o1"))),
        Assign("r", mul("c1", "y")),
    ],
    # all 36 signatures keep one union, so ranking keys the last 5 from a
    # key template: m's line is decided by c2, which may substitute c1,
    # which may substitute c0; r's by its own choice and c1 and c0
    "chained-substitutes": [
        Combine("c0", (("s0", "x"), ("s1", "y"), ("s2", "x"))),
        Combine("c1", (("s3", "c0"), ("s4", "x"), ("s5", "y"))),
        Combine("c2", (("s6", "c1"), ("s7", "y"))),
        Assign("m", mul("c2", "c0")),
        Assign("n0", add("m", "c1")),
        Assign("n1", sub("m", "c1")),
        Combine("r", (("s8", "n0"), ("s9", "n1"))),
    ],
    # c2's line is decided by c0 and c1, but c2 picking o0 leaves c1
    # dead and c1 picking x or y leaves c0 dead, so a template's table is
    # read with -1 at a dead slot; its three unions have 45, 45 and 36
    # signatures
    "dead-slots-in-a-mask": [
        Combine("c0", (("s0", "x"), ("s1", "y"), ("s2", "x"), ("s3", "y"), ("s4", "x"))),
        Combine("c1", (("s5", "y"), ("s6", "x"), ("s7", "c0"), ("s8", "x"), ("s9", "y"))),
        Assign("o0", mul("c0", "y")),
        Assign("o1", add("c1", "x")),
        Combine("c2", (("s10", "o0"), ("s11", "o1"))),
        Combine("c3", (("s12", "x"), ("s13", "y"), ("s14", "x"))),
        Combine("c4", (("s15", "y"), ("s16", "x"), ("s17", "y"))),
        Assign("q", mul("c3", "c4")),
        Assign("r", sub("c2", "q")),
    ],
}


@pytest.mark.parametrize("name", sorted(OVERLAPPING_CONES))
def test_overlapping_cones_fold_like_the_reference(name):
    obf = hand_built(OVERLAPPING_CONES[name])
    cd = extract_class(obf)
    truth = reference_realize(cd, (0,) * len(cd.options))
    assert_class_matches_reference(obf, truth)
    assert_members_are_live_folds(obf)


# seeded classes, each with a union of cones shared by more than
# TEMPLATE_AFTER signatures: (strategy, k, statements, seed)
TEMPLATE_CLASSES = {
    "uniform": ("uniform", 2, 8, 2),  # 72 of its 132 signatures in one union
    "operand-only": ("operand-only", 2, 6, 2),  # 48 of 56
    "operation-only": ("operation-only", 3, 4, 1),  # all 81
    # operand slots substitute inputs and consts into the temporaries that
    # the option expressions read: 320 of its 344 signatures in one union
    "combined-temporaries": ("combined-temporaries", 2, 3, 0),
}


def template_class(name):
    """The hand-built or seeded class of a template case, and its truth."""
    if name in OVERLAPPING_CONES:
        obf = hand_built(OVERLAPPING_CONES[name])
        cd = extract_class(obf)
        return obf, reference_realize(cd, (0,) * len(cd.options))
    strategy, k, n, seed = TEMPLATE_CLASSES[name]
    program = random_linear_program(random.Random(seed), n_statements=n, n_consts=1)
    cfg = ObfuscationConfig(
        mislead_factor=k, strategy=strategy, fake_vars=("f0", "f1"), fake_combining=1, seed=seed
    )
    return obfuscate_statement_level(program, cfg)[0], program


@pytest.mark.parametrize("build_at", [None, 2], ids=["default", "second"])
@pytest.mark.parametrize(
    "name", ["chained-substitutes", "dead-slots-in-a-mask", *sorted(TEMPLATE_CLASSES)]
)
def test_shared_unions_rank_from_a_key_template_like_the_reference(monkeypatch, name, build_at):
    """Classes whose rankings key signatures from a key template, with
    decided lines read through chains of substituted options and with
    -1 at dead slots, rank and print like the reference, whether the
    template is built at TEMPLATE_AFTER signatures or at the second."""
    obf, truth = template_class(name)
    if build_at is not None:
        monkeypatch.setattr(attack, "TEMPLATE_AFTER", build_at)
    memos = capture_memos(monkeypatch)
    assert_class_matches_reference(obf, truth)
    assert_members_are_live_folds(obf)
    # each built template served lookups, which fill its tables
    templates = [union.template for memo in memos for union in memo.values() if union.template]
    assert templates and all(decided for *_, decided in templates)
    assert all(len(table) for *_, decided in templates for *_, table in decided)


@pytest.mark.parametrize("choice", [-1, 5])
def test_out_of_range_choice_at_a_live_slot_is_refused_like_the_full_fold(choice):
    _, cd, _ = demo_class("l0")
    selection = (0,) * (len(cd.options) - 1) + (choice,)
    by_index = dict(zip(cd.combine_indices, selection))
    with pytest.raises(ValueError) as want:
        reference_fold(cd.obf.program, by_index)
    with pytest.raises(ValueError) as got:
        realize_candidate(cd, selection)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as got:
        fold_selection(cd.obf.program, by_index)
    assert str(got.value) == str(want.value)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linear_classes())
def test_random_class_members_are_live_folds(case):
    assert_members_are_live_folds(case[0])


def random_selection(obf, rng):
    """One option index per combining statement, dead ones included."""
    combines = obf.program.combines
    return {idx: rng.randrange(len(sources(options))) for idx, options in combines.items()}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linear_classes(), hst.randoms(use_true_random=False))
def test_random_class_folds_like_the_reference(case, rng):
    obf, truth = case
    assert_class_matches_reference(obf, truth)
    # fold_selection on random selections, dead combining statements included
    program = obf.program
    for _ in range(5):
        selection = random_selection(obf, rng)
        want = reference_dce(reference_fold(program, selection))
        assert fold_columns(program, selection) == want.columns


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linear_classes())
def test_random_class_ranks_from_early_templates_like_the_reference(case):
    """With each union's key template built at its second signature, a
    random class keys nearly every signature from a template, and still
    ranks and prints like the reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attack, "TEMPLATE_AFTER", 2)
        assert_class_matches_reference(*case)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linear_classes(), hst.randoms(use_true_random=False))
def test_any_one_hot_key_deobfuscates_to_what_the_obfuscated_program_computes(case, rng):
    """Not only the authentic key: deobfuscate under any one-hot key is the
    member that key selects, so it computes what the obfuscated program
    computes under that key, on every input."""
    obf = case[0]
    prime = obf.program.prime
    bindings = {v: rng.randrange(prime) for v in obf.program.inputs if rng.random() < 0.5}
    bits = {}
    for idx, hot in random_selection(obf, rng).items():
        for i, sel in enumerate(selectors(obf.program.combines[idx])):
            bits[sel] = int(i == hot)
    key = SelectorKey(bits=bits, bindings=bindings)
    program = deobfuscate(obf, key)
    for _ in range(3):
        inputs = random_inputs(program, rng, small=rng.random() < 0.5)
        want = eval_plain(obf.program, {**inputs, **key.bindings}, key.bits)
        assert eval_plain(program, inputs) == want


# ------------------------------------------------------- canonical keys

NAMES = ("x", "y", "k0", "t0", "t1", "t2", "u", "v")


@hst.composite
def loose_programs(draw):
    """Programs over a small name pool, checked by no one.

    Inputs, consts and targets may be named t0, t1, ...; consts may be
    unused or also listed as inputs; targets may repeat or shadow an
    input; statements may be dead or combining.
    """
    name = hst.sampled_from(NAMES)
    prime = draw(hst.sampled_from([FIELD_PRIME, 7]))
    inputs = draw(hst.lists(name, max_size=4))
    consts = draw(hst.dictionaries(name, hst.integers(0, prime - 1), max_size=3))
    statements = []
    for _ in range(draw(hst.integers(1, 8))):
        target = draw(name)
        if draw(hst.integers(0, 3)) == 0:
            sources = draw(hst.lists(name, min_size=2, max_size=3))
            statements.append(
                Combine(target, tuple((f"s{i}", v) for i, v in enumerate(sources)))
            )
        else:
            op = draw(hst.sampled_from(list(Op)))
            statements.append(Assign(target, SimpleExpression(op, draw(name), draw(name))))
    return program_of(inputs=inputs, statements=statements, consts=consts, prime=prime)


@settings(max_examples=300, deadline=None)
@given(loose_programs())
def test_canonical_key_renders_what_the_reference_renders(program):
    assert normalize(program) == reference_normalize(program)
    for with_const_values in (True, False):
        assert canonical_key(program, with_const_values) == reference_canonical_key(
            program, with_const_values
        )


# ------------------------------------------------------------------- KPA

def seeded_pairs(cd, count, seed):
    """count pairs on small random inputs, all answered by one random member.

    Every obfuscated-program input is bound, consts and fakes included,
    so the walk also meets const values the key would never bind.
    """
    rng = random.Random(seed)
    member = realize_candidate(cd, tuple(rng.randrange(n) for n in map(len, cd.options)))
    pairs = []
    for _ in range(count):
        inputs = random_inputs(cd.obf.program, rng, small=True)
        pairs.append((inputs, eval_plain(member, inputs)))
    return pairs


def mixed_pairs(cd, count, seed):
    """count pairs on small random inputs, each answered by its own random member.

    Later pairs then disagree with the first pair's survivors at
    different slots, so the walk rejects them at different depths.
    """
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        member = realize_candidate(cd, tuple(rng.randrange(n) for n in map(len, cd.options)))
        inputs = random_inputs(cd.obf.program, rng, small=True)
        pairs.append((inputs, eval_plain(member, inputs)))
    return pairs


def assert_kpa_matches_reference(cd, pairs, members=None):
    """The surviving signatures expand to the reference's survivors, and
    rank like them. A signature counts the selections it expands to over
    its dead slots."""
    want = reference_kpa_filter(cd, pairs, members=members)
    got = kpa_filter(cd, pairs)
    counts = [len(o) for o in cd.options]
    rows = []
    for sig, count in got:
        assert count == math.prod(n for choice, n in zip(sig, counts) if choice < 0), sig
        program = render_program(realize_candidate(cd, sig))
        expanded = itertools.product(*[(c,) if c >= 0 else range(n) for c, n in zip(sig, counts)])
        rows += [(selection, program) for selection in expanded]
    assert sorted(rows) == [(sel, render_program(program)) for sel, program in want]
    ranked = rank_candidates(cd, table=TABLE, survivors=got)
    assert member_rows(ranked) == (reference_members(reference_ranking(want, TABLE)[0]) if want else [])


@functools.cache
def demo_class(level):
    """The demo, its class and the folded class in product order."""
    demo = (build_l0 if level == "l0" else build_l1)()
    cd = extract_class(demo.obf)
    members = reference_kpa_filter(cd, [])
    return demo, cd, members


@pytest.mark.parametrize("level", ["l0", "l1"])
def test_demo_kpa_matches_the_reference(level):
    demo, cd, members = demo_class(level)
    for count in (1, 2, 3):
        assert_kpa_matches_reference(cd, seeded_pairs(cd, count, 100 * count), members)
    for count in (2, 3, 4):
        assert_kpa_matches_reference(cd, mixed_pairs(cd, count, 100 * count + 1), members)
    # the confidential program's own runs, as an attacker observes them
    rng = random.Random(len(members))
    pairs = []
    for _ in range(3):
        env = random_inputs(demo.program, rng, small=True)
        pairs.append(({**env, **demo.sel_key.bindings}, eval_plain(demo.program, env)))
    assert_kpa_matches_reference(cd, pairs, members)


@pytest.mark.parametrize(
    "pairs",
    [
        [],
        [({"a": 2}, 4)],
        [({"a": 2}, 4), ({"a": 3}, 9)],
        [({"a": 3}, 6), ({"a": 2}, 4)],
        [({"a": 2}, 4), ({"a": 3}, 6), ({"a": 3}, 9)],
    ],
    ids=["none", "non-separating", "non-separating-first", "separating-first", "contradictory"],
)
def test_two_option_kpa_matches_the_reference(two_option_class, pairs):
    assert_kpa_matches_reference(extract_class(two_option_class[0]), pairs)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linear_classes(), hst.integers(0, 4), hst.booleans(), hst.integers(0, 2**32 - 1))
def test_random_class_kpa_matches_the_reference(case, count, mixed, seed):
    cd = extract_class(case[0])
    pairs = (mixed_pairs if mixed else seeded_pairs)(cd, count, seed)
    assert_kpa_matches_reference(cd, pairs)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    linear_classes(),
    hst.sampled_from(["member", "source", "unrelated"]),
    hst.sampled_from([None, 1, 2]),
    hst.integers(0, 2**32 - 1),
)
def test_truth_is_graded_or_refused(case, kind, count, seed):
    """run_attack with a truth either sets min_rank and quality or raises
    ConfigError; it never returns a class left ungraded. A member is
    always graded when no pairs filter the class."""
    obf, source = case
    cd = extract_class(obf)
    rng = random.Random(seed)
    if kind == "member":
        truth = realize_candidate(cd, tuple(rng.randrange(n) for n in map(len, cd.options)))
    elif kind == "source":
        truth = source
    else:
        truth = random_linear_program(rng, n_statements=rng.randint(1, 3))
    pairs = None if count is None else seeded_pairs(cd, count, seed)
    try:
        report = run_attack(obf, pairs=pairs, table=TABLE, truth=[truth])
    except ConfigError as exc:
        assert "matches the truth" in str(exc) or "the class lacks" in str(exc)
        assert not (kind == "member" and pairs is None)
        return
    assert report.min_rank is not None and report.quality is not None
    assert 1 <= report.min_rank <= cd.class_size


def test_kpa_checks_every_pair_before_walking(two_option_class):
    """A pair missing an input fails with the reference's message, wherever it sits."""
    cd = extract_class(two_option_class[0])
    with pytest.raises(UnboundVariableError) as want:
        reference_kpa_filter(cd, [({}, 4)])
    # no candidate survives the first pair, so the reference never reads the second
    assert reference_kpa_filter(cd, [({"a": 3}, 7), ({}, 4)]) == []
    for pairs in ([({}, 4)], [({"a": 3}, 7), ({}, 4)]):
        with pytest.raises(UnboundVariableError) as got:
            kpa_filter(cd, pairs)
        assert str(got.value) == str(want.value) == "unbound input variable(s): a"


def test_kpa_reports_the_first_pair_that_misses_an_input():
    """Pairs are checked in order, as the reference evaluates them."""
    _, cd, members = demo_class("l0")
    bound = {v: 1 for v in cd.obf.program.inputs}
    no_y = {v: val for v, val in bound.items() if v != "y"}
    no_x = {v: val for v, val in bound.items() if v != "x"}
    pairs = [(no_y, 0), (no_x, 0)]
    with pytest.raises(UnboundVariableError) as want:
        reference_kpa_filter(cd, pairs, members=members)
    with pytest.raises(UnboundVariableError) as got:
        kpa_filter(cd, pairs)
    assert str(got.value) == str(want.value) == "unbound input variable(s): y"


def test_kpa_refuses_an_oversized_class_before_evaluating(monkeypatch):
    _, cd, _ = demo_class("l1")
    monkeypatch.setattr(attack, "run_statements", None)
    with pytest.raises(EnumerationCapError) as e:
        kpa_filter(cd, [({}, 0)], cap=cd.class_size - 1)
    assert (e.value.class_size, e.value.cap) == (15_625, 15_624)


def test_rank_refuses_an_oversized_class_before_folding(monkeypatch):
    _, cd, _ = demo_class("l1")
    monkeypatch.setattr(attack._MemberCones, "key_score", None)
    with pytest.raises(EnumerationCapError):
        rank_candidates(cd, cap=cd.class_size - 1)


def test_kpa_folds_only_the_first_pairs_survivors(monkeypatch):
    """The work-shape guard: the walk checks every pair and keys nothing,
    so ranking keys only the final surviving signatures, once each and
    in the order kpa_filter keeps them, and folds none of them.

    On l1, three pairs from one member. On l0, three small-input runs of
    the confidential program with x = 0, 1, 2: thousands of selections
    pass the first pair and about a hundred pass all three.
    """
    _, l1, _ = demo_class("l1")
    l1_pairs = seeded_pairs(l1, 3, seed=7)
    demo, l0, _ = demo_class("l0")
    rng = random.Random(11)
    l0_pairs = []
    for x in (0, 1, 2):
        env = {**random_inputs(demo.program, rng, small=True), "x": x}
        l0_pairs.append(({**env, **demo.sel_key.bindings}, eval_plain(demo.program, env)))
    firsts = [
        sum(n for _, n in kpa_filter(cd, pairs[:1]))
        for cd, pairs in ((l1, l1_pairs), (l0, l0_pairs))
    ]
    calls = count_passes(monkeypatch)
    survivors = kpa_filter(l1, l1_pairs)
    assert calls == {"key": [], "fold": []}
    rank_candidates(l1, table=TABLE, survivors=survivors)
    assert calls == {"key": [sig for sig, _ in survivors], "fold": []}
    assert 1 <= sum(n for _, n in survivors) <= firsts[0] < l1.class_size // 100

    calls["key"].clear()
    survivors = kpa_filter(l0, l0_pairs)
    ranked = rank_candidates(l0, table=TABLE, survivors=survivors)
    assert calls == {"key": [sig for sig, _ in survivors], "fold": []}
    assert 50 <= len(ranked) <= 300 and firsts[1] >= 1_000
    assert canonical_key(demo.program, False) in {m.key for m in ranked.members}


def test_kpa_attack_folds_each_surviving_signature_once(monkeypatch):
    """The work-shape guard: on l1, the 25 selections that pass one pair
    share one live signature, so the KPA attack keys once, not 25 times,
    and folds only when its ranking is read: once, however often."""
    demo, cd, _ = demo_class("l1")
    pairs = seeded_pairs(cd, 1, seed=7)
    calls = count_passes(monkeypatch)
    report = run_attack(demo.obf, pairs=pairs, table=TABLE)
    assert len(calls["key"]) == 1 and calls["fold"] == []
    assert report.survivors == report.enumerated == 25
    assert [m.count for m in report.ranked.members] == [25]
    assert len(list(report.ranked)) == len(list(report.ranked)) == 1
    assert calls["fold"] == calls["key"]


@pytest.mark.parametrize("level, folds", [("l0", 12_500), ("l1", 1_861)])
def test_rank_only_folds_each_live_signature_once(monkeypatch, level, folds):
    """The work-shape guard: one key pass per live signature, not per
    selection, and no fold until the ranking is read, then one per
    signature, however often it is read.

    In l1 a choice in a slot that later choices leave dead changes
    nothing, so its 15,625 selections have 1,861 live signatures; in l0
    every selection has its own. On both, signatures and distinct
    programs coincide.
    """
    demo, cd, _ = demo_class(level)
    calls = count_passes(monkeypatch)
    report = run_attack(demo.obf, table=TABLE, truth=[demo.program])
    assert len(calls["key"]) == folds and calls["fold"] == []
    assert report.enumerated == cd.class_size
    assert report.distinct_programs == folds
    assert len({m.key for m in report.ranked}) == folds
    assert len({id(m.program) for m in report.ranked}) == folds
    assert sorted(calls["fold"]) == sorted(calls["key"])


def test_rank_only_builds_nothing_per_selection(monkeypatch):
    """The work-shape guard: rank-only ranking walks live signatures, so
    l1's 15,625 selections cost 1,861 key passes, one member each, and
    no fold until the ranking is read. Printing the top lines reads
    members' keys and probabilities only, so it folds nothing."""
    demo, cd, _ = demo_class("l1")
    calls = count_passes(monkeypatch)
    report = run_attack(demo.obf, table=TABLE, truth=[demo.program])
    assert len(calls["key"]) == len(report.ranked) == 1_861
    assert sum(m.count for m in report.ranked.members) == report.enumerated == 15_625
    assert len(top_lines(report, 10)) == 10
    assert calls["fold"] == []
    assert all(m.program is None for m in report.ranked.members)


def test_rank_only_runs_no_liveness_pass_per_member(monkeypatch):
    """The work-shape guard: liveness runs for extract_class and the truth
    key only; members are folded to live statements and keyed as they are."""
    demo, cd, _ = demo_class("l0")
    passes = []
    real = ir.live_statement_indices

    def counting(program):
        passes.append(len(program))
        return real(program)

    monkeypatch.setattr(ir, "live_statement_indices", counting)
    monkeypatch.setattr(attack, "live_statement_indices", counting)
    report = run_attack(demo.obf, table=TABLE, truth=[demo.program])
    assert report.enumerated == cd.class_size == 12_500
    assert passes == [len(demo.obf.program), len(demo.program)]


def test_rank_only_builds_no_statement_and_one_program_per_member_read(monkeypatch):
    """The work-shape guard: ranking builds no statement node and no
    Program; a member is folded when the ranking is read, to columns
    that its one Program holds, so reading a rank-only l0 ranking builds
    12,500 Programs and not one statement node."""
    demo, _, _ = demo_class("l0")
    cd = extract_class(demo.obf)
    cd.cones  # its KPA segments are Programs, built once per class
    built = Counter()

    def counting(cls):
        real = cls.__init__

        def init(self, *args, **kwargs):
            built[cls] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    for cls in (Assign, SimpleExpression, Combine):
        counting(cls)
    real_from_columns = Program.from_columns.__func__

    def from_columns(cls, *args, **kwargs):
        built[Program] += 1
        return real_from_columns(cls, *args, **kwargs)

    monkeypatch.setattr(Program, "from_columns", classmethod(from_columns))
    ranked = rank_candidates(cd, table=TABLE)
    assert len(ranked) == cd.class_size == 12_500
    assert built == {}
    assert len({m.key for m in ranked}) == 12_500
    assert built == {Program: 12_500}


def capture_memos(monkeypatch):
    """Record the ranking memo that each key_score call is given, once each."""
    memos = []

    def keying(cones, sig, op_scores, memo):
        if not any(m is memo for m in memos):
            memos.append(memo)
        return real_key_score(cones, sig, op_scores, memo)

    monkeypatch.setattr(attack._MemberCones, "key_score", keying)
    return memos


def template_entries(memo):
    """How many lines the key templates in a ranking memo hold in their tables."""
    return sum(
        len(table)
        for union in memo.values()
        if union.template
        for *_, table in union.template[3]
    )


def test_rank_only_formats_each_key_line_once(monkeypatch):
    """The work-shape guard: the 12,500 members of l0 keep one union of
    cones, so they share one rename map, and from the TEMPLATE_AFTER-th
    (32nd) member on their key lines come from one key template. Of its
    6 lines, 3 (t2, t3, t5) no choice changes, so they are formatted
    once; t0 is decided by slots 0 to 2 (5 * 5 * 2 choices), t1 by slots
    3 to 5 (50 more) and t4 by slot 6 (5), so their tables hold 105
    lines, each formatted on its first miss. The 31 members before the
    template format their 6 lines each: 186 + 3 + 105 = 294 in all, not
    75,000. Formatting a line looks its operation up in ir.OP_NAMES,
    once per line formatted. The rename map and the template belong to
    the ranking: the class keeps only the union's indices."""
    demo, _, _ = demo_class("l0")
    cd = extract_class(demo.obf)
    formatted = []

    class Counting(dict):
        def __getitem__(self, op):
            formatted.append(op)
            return super().__getitem__(op)

    monkeypatch.setattr(ir, "OP_NAMES", Counting(ir.OP_NAMES))
    memos = capture_memos(monkeypatch)
    ranked = rank_candidates(cd, table=TABLE)
    assert len(ranked) == 12_500
    [indices] = cd.cones.kept.values()
    assert len(indices) * len(ranked.members) == 75_000
    [memo] = memos
    assert template_entries(memo) == 105
    assert len(formatted) == (attack.TEMPLATE_AFTER - 1) * 6 + 3 + 105 == 294


def test_rank_only_builds_fold_maps_only_before_the_template_and_on_a_miss(monkeypatch):
    """The work-shape guard: a member whose decided lines all hit their
    tables needs no fold maps, so ranking l0 builds them for the members
    before the template, for the template's fixed lines and on a table
    miss: at most TEMPLATE_AFTER + 105 times, not 12,500."""
    demo, _, _ = demo_class("l0")
    cd = extract_class(demo.obf)
    built = []
    real = attack.fold_maps

    def counting(targets, chosen):
        built.append(1)
        return real(targets, chosen)

    monkeypatch.setattr(attack, "fold_maps", counting)
    memos = capture_memos(monkeypatch)
    ranked = rank_candidates(cd, table=TABLE)
    assert len(ranked) == 12_500
    [memo] = memos
    assert len(built) <= attack.TEMPLATE_AFTER + template_entries(memo) == 137


def test_kpa_walk_runs_slot_independent_statements_once_per_pair(monkeypatch):
    """The work-shape guard: a live assignment that reads no slot target,
    directly or through other assignments, runs once per pair, before the
    first slot, not again on every path prefix.

    On l1, 4,832 of the 19,530 statement runs of a one-pair walk would
    repeat such a value.
    """
    _, cd, _ = demo_class("l1")
    ran = []
    real = attack.run_statements

    def counting(program, env, selectors, ops):
        ran.append(len(program))
        return real(program, env, selectors, ops)

    monkeypatch.setattr(attack, "run_statements", counting)
    for count, runs in ((1, 14_698), (3, 15_134)):
        ran.clear()
        survivors = kpa_filter(cd, seeded_pairs(cd, count, seed=7))
        assert sum(n for _, n in survivors) == 25
        assert sum(ran) == runs


# a slot whose two options are one shared variable: its choice changes
# the live signature but not the program, so two signatures share a
# key. Slot 0 is live only when slot 1 picks o0.
SHARED_SOURCE = [
    Combine("c1", (("s0", "x"), ("s1", "y"))),
    Assign("o0", add("c1", "x")),
    Assign("o1", sub("x", "y")),
    Combine("c2", (("s2", "o0"), ("s3", "o1"))),
    Assign("a", mul("x", "y")),
    Combine("c0", (("s4", "a"), ("s5", "a"))),
    Assign("r", mul("c2", "c0")),
]


def test_signatures_that_fold_to_one_program_form_one_member():
    obf = hand_built(SHARED_SOURCE)
    cd = extract_class(obf)
    truth = reference_realize(cd, (0, 0, 0))
    assert_class_matches_reference(obf, truth)
    ranked = rank_candidates(cd, table=TABLE)
    # slot 1 picking o1 leaves slot 0 dead: signatures (-1, 1, 0) and (-1, 1, 1), 4 selections
    assert sorted((m.count, m.signature) for m in ranked) == [
        (2, (0, 0, 0)), (2, (1, 0, 0)), (4, (-1, 1, 0))
    ]
    assert len({m.key for m in ranked}) == 3
    assert run_attack(obf).distinct_programs == 3


# two copies of one program under other temporaries: both options fold
# to one key, and each keeps its own statements
TWIN_PROGRAMS = [
    Assign("t0", add("x", "y")),
    Assign("t1", mul("t0", "x")),
    Assign("t2", add("x", "y")),
    Assign("t3", mul("t2", "x")),
    Combine("c", (("s0", "t1"), ("s1", "t3"))),
]


def test_twin_programs_form_one_member_with_the_first_fold():
    obf = hand_built(TWIN_PROGRAMS)
    cd = extract_class(obf)
    assert_class_matches_reference(obf, reference_realize(cd, (1,)))
    ranked = rank_candidates(cd, table=TABLE)
    [member] = ranked.members
    assert (member.count, member.signature) == (2, (0,))
    folds = [realize_candidate(cd, (i,)) for i in (0, 1)]
    assert folds[0] != folds[1]
    assert [m.program for m in ranked] == folds[:1]


@pytest.mark.parametrize("name", ["shared-source", "l1-kpa", "l1"])
def test_ranking_indexes_and_slices_like_its_list(name):
    """A Ranking has the length of its members, and every read of it,
    whole or cut short, yields them."""
    if name == "shared-source":
        ranking = rank_candidates(extract_class(hand_built(SHARED_SOURCE)), table=TABLE)
    else:
        _, cd, _ = demo_class("l1")
        survivors = kpa_filter(cd, seeded_pairs(cd, 1, seed=7)) if name == "l1-kpa" else None
        ranking = rank_candidates(cd, table=TABLE, survivors=survivors)
    rows = list(ranking)
    assert len(ranking) == len(rows) and rows == ranking.members
    assert list(ranking) == rows
    for stop in (1, 10, len(rows) + 5):
        assert list(itertools.islice(ranking, stop)) == rows[:stop]

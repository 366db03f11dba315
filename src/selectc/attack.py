"""De-obfuscation attacks against combining-statement programs.

The attacker sees the obfuscated statement stream but no key. Combining
statements and their option lists are public structure, so the program
class is enumerable: choose one option per live combining statement and
fold. Dead combining statements (fake chains that never reach the
output) are excluded, since an attacker discards them the same way.

Three attacks are modeled:

  * known-plaintext filtering: keep the candidates that agree with
    observed input/output pairs. Every pair is checked by walking the
    obfuscated program over the selection space, so only the final
    survivors are folded. The confidential program always survives;
    the attack refuses classes larger than an enumeration cap rather
    than silently truncating.
  * likelihood ranking: score candidates by how typical their
    statements look against a mined pattern table (smoothed relative
    operator frequencies), and rank the class by that score.
  * the selection guessing game, exact and simulated, for the
    two-statement combining setting with one conspicuous statement.

Class quality summarizes resilience: Q = 1 - 1/r where r is the best
rank the attacker assigns to any confidential program, counting ties
pessimistically. Q = 0 means the attacker's first pick is right.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import ConfigError, EnumerationCapError
from .field import OP_NAMES, Op, field_ops
from .ir import (
    Assign,
    Combine,
    FoldPlan,
    Program,
    SimpleExpression,
    Statement,
    canonical_key,
    check_single_assignment,
    eval_plain,  # not called here; bench/spans.py wraps attack.eval_plain in traced runs
    field_env,
    live_statement_indices,
    render_key,
    run_statements,
)
from .obfuscate import ObfProgram
from .rng import DEFAULT_SEED, derive_seed

DEFAULT_CAP = 10**6


@dataclass
class ClassDescriptor:
    """Public structure of an obfuscated program's class."""

    obf: ObfProgram
    combine_indices: list[int]
    options: list[tuple[tuple[str, str], ...]]
    class_size: int
    live_indices: list[int]
    fold_plan: FoldPlan  # fold metadata shared by every candidate

    def option_counts(self) -> list[int]:
        return [len(opts) for opts in self.options]

    @cached_property
    def cones(self) -> "_MemberCones":
        """Built on the first fold or signature, after any cap check."""
        return _MemberCones(self)


@dataclass(slots=True)
class Candidate:
    selection: tuple[int, ...]
    program: Program


@dataclass(slots=True)
class RankedCandidate(Candidate):
    log_score: float = 0.0
    prob: float = 0.0
    key: str = ""  # canonical_key(program, False)


@dataclass
class AttackReport:
    class_size: int
    enumerated: int
    ranked: list[RankedCandidate]
    survivors: int | None = None
    min_rank: int | None = None
    quality: float | None = None
    elapsed: float = 0.0


def extract_class(obf: ObfProgram) -> ClassDescriptor:
    """Read the program class from combining-statement structure alone.

    The class size is the product of the option counts of all live
    combining statements; it is exact and may be astronomically large.
    Raises FormatError unless every variable is assigned once, after
    what it reads: folding (target := chosen source by substitution)
    and evaluation agree only on such programs. Also raises it when a
    member cannot be folded (see FoldPlan), whichever members an
    attack goes on to fold.
    """
    check_single_assignment(obf.program)
    live_indices = live_statement_indices(obf.program)
    live = set(live_indices)
    combine_indices: list[int] = []
    options: list[tuple[tuple[str, str], ...]] = []
    for idx, st in obf.combines():
        if idx in live:
            combine_indices.append(idx)
            options.append(st.options)
    size = 1
    for opts in options:
        size *= len(opts)
    return ClassDescriptor(
        obf=obf,
        combine_indices=combine_indices,
        options=options,
        class_size=size,
        live_indices=live_indices,
        fold_plan=FoldPlan(obf.program),
    )


def realize_candidate(cd: ClassDescriptor, selection: tuple[int, ...]) -> Program:
    """Fold the obfuscated program to one member of its class.

    Emits the member's live statements only (see _MemberCones.fold), so
    the result equals dead_code_eliminate of the full fold under the
    same choices, without building that fold.
    """
    program = cd.obf.program
    return Program(
        inputs=list(program.inputs),
        statements=cd.cones.fold(selection),
        consts=dict(program.consts),
        prime=program.prime,
    )


class _MemberCones:
    """What each choice keeps live, built once per class on first use.

    A slot is a live combining statement. For the output, and for every
    option of every slot, it records two things:

      * reach: the slots read through assignments alone, as a bit mask
        over slot positions;
      * cone: the indices of the statements that stay live, found by
        walking definitions from the option and stopping at slot targets
        and terminals. An option fold inlines keeps its slot's position
        (there it becomes target := definition) and its definition's
        operand cones; the definition, which only the slot reads, goes.

    extract_class has checked single assignment, so a variable's
    definition comes before its readers and the masks of a slot's
    options name earlier slots only. Each walk costs its cone, and there
    are no more options than class members, so building never costs
    more than enumerating the class.
    """

    def __init__(self, cd: ClassDescriptor):
        program = cd.obf.program
        stmts = self.statements = program.statements
        defs: dict[str, int] = {}  # assignment target -> its index
        reach: dict[str, int] = {}  # variable -> slots it reads through assignments
        slots: list[int] = []
        self.reach: list[list[int]] = []  # slot -> option -> slots its source reads
        for idx in cd.live_indices:
            st = stmts[idx]
            if isinstance(st, Combine):
                self.reach.append([reach.get(src, 0) for _, src in st.options])
                reach[st.target] = 1 << len(slots)
                slots.append(idx)
            else:
                defs[st.target] = idx
                reach[st.target] = reach.get(st.expr.in1, 0) | reach.get(st.expr.in2, 0)

        def cone(*roots: str) -> set[int]:
            keep: set[int] = set()
            stack = list(roots)
            while stack:
                idx = defs.get(stack.pop())
                if idx is not None and idx not in keep:
                    keep.add(idx)
                    expr = stmts[idx].expr
                    stack += (expr.in1, expr.in2)
            return keep

        self.out = reach.get(program.output, 0)
        self.out_cone = cone(program.output)
        # slot -> option -> (cone, slot index, source, inlined definition)
        self.options: list[list[tuple[set[int], int, str, Assign | None]]] = []
        for idx in slots:
            row = []
            for _, src in stmts[idx].options:
                definition = cd.fold_plan.inlined(src)
                if definition is None:
                    row.append((cone(src), idx, src, None))
                else:
                    expr = definition.expr
                    row.append((cone(expr.in1, expr.in2) | {idx}, idx, src, definition))
            self.options.append(row)
        # (target, op, in1, in2) -> the one Assign fold emits for it
        self.resolved: dict[tuple[str, Op, str, str], Assign] = {}

    def signature(self, selection: tuple[int, ...]) -> tuple[int, ...]:
        """The selection's live signature.

        A slot is live under a selection if the output reads it through
        assignments alone, or the chosen option of a later live slot
        does. The signature keeps the choices at live slots and puts -1
        at dead ones: selections with one signature fold to the same
        program, since a choice at a dead slot keeps nothing live,
        whatever it substitutes or inlines.
        """
        live = self.out
        reach = self.reach
        sig = [-1] * len(reach)
        for j in range(len(reach) - 1, -1, -1):
            if live >> j & 1:
                choice = sig[j] = selection[j]
                live |= reach[j][choice]
        return tuple(sig)

    def fold(self, selection: tuple[int, ...]) -> list[Statement]:
        """The member's live statements, in program order.

        The union of the output's cone and the chosen options' cones at
        live slots, walked from the last slot to the first as signature
        does. A slot whose option is inlined becomes target := its
        definition; any other chosen source substitutes for the slot's
        target in the statements that read it. Untouched assignments
        are the obfuscated program's own statement objects. A resolved
        one is interned per class by (target, op, operands), so each
        distinct resolved statement is built once, whichever members
        share it.
        """
        live = self.out
        keep = set(self.out_cone)
        chosen = []
        reach = self.reach
        options = self.options
        for j in range(len(reach) - 1, -1, -1):
            if live >> j & 1:
                choice = selection[j]
                if not 0 <= choice < len(reach[j]):
                    idx = options[j][0][1]
                    raise ValueError(f"option index {choice} out of range at statement {idx}")
                live |= reach[j][choice]
                option = options[j][choice]
                keep.update(option[0])
                chosen.append(option)
        stmts = self.statements
        subst: dict[str, str] = {}
        inlined: dict[int, Assign] = {}
        for _, idx, src, definition in reversed(chosen):  # in program order, as fold resolves
            if definition is None:
                subst[stmts[idx].target] = subst.get(src, src)
            else:
                inlined[idx] = definition
        get = subst.get
        resolved = self.resolved
        out: list[Statement] = []
        for idx in sorted(keep):
            st = stmts[idx]
            definition = inlined.get(idx)
            expr = st.expr if definition is None else definition.expr
            in1, in2 = expr.in1, expr.in2
            new1, new2 = get(in1, in1), get(in2, in2)
            if definition is None and new1 is in1 and new2 is in2:
                out.append(st)
                continue
            key = (st.target, expr.op, new1, new2)
            assign = resolved.get(key)
            if assign is None:
                assign = resolved[key] = Assign(st.target, SimpleExpression(expr.op, new1, new2))
            out.append(assign)
        return out


def _members(
    cd: ClassDescriptor, candidates: Iterable[Candidate] | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Program]]:
    """(selection, live signature, program) for each candidate, in order.

    Without candidates, the whole class in product order. A program is
    folded once per live signature: the first candidate's program, or a
    fresh fold of its selection, serves every later one with the same
    signature.
    """
    if candidates is None:
        given = zip(itertools.product(*map(range, cd.option_counts())), itertools.repeat(None))
    else:
        given = ((c.selection, c.program) for c in candidates)
    signature = cd.cones.signature
    programs: dict[tuple[int, ...], Program] = {}
    for selection, program in given:
        sig = signature(selection)
        shared = programs.get(sig)
        if shared is None:
            if program is None:
                program = realize_candidate(cd, selection)
            shared = programs[sig] = program
        yield selection, sig, shared


def enumerate_candidates(cd: ClassDescriptor) -> Iterator[Candidate]:
    """Every member in product order; members with one live signature share a Program."""
    for selection, _, program in _members(cd):
        yield Candidate(selection=selection, program=program)


def kpa_filter(
    cd: ClassDescriptor,
    pairs: list[tuple[dict[str, int], int]],
    cap: int = DEFAULT_CAP,
) -> list[Candidate]:
    """Keep the candidates consistent with known input/output pairs.

    Each pair binds every input variable of the obfuscated program
    (candidates may read any of them) and gives the observed output.
    Raises EnumerationCapError instead of enumerating a class larger
    than cap. Survivors come in product order, as enumerate_candidates
    yields them. Every pair is checked by walking the obfuscated
    program itself (see _consistent_selections), so only the final
    survivors are folded.
    """
    if cd.class_size > cap:
        raise EnumerationCapError(cd.class_size, cap)
    # every pair's inputs are checked here, so a missing one fails before any evaluation
    envs = [field_env(cd.obf.program, inputs) for inputs, _ in pairs]
    if not pairs:
        return list(enumerate_candidates(cd))
    return [
        Candidate(selection=selection, program=realize_candidate(cd, selection))
        for selection in _consistent_selections(cd, envs, [output for _, output in pairs])
    ]


def _consistent_selections(
    cd: ClassDescriptor, envs: list[dict[str, int]], outputs: list[int]
) -> Iterator[tuple[int, ...]]:
    """Yield the selections whose program maps each envs[j] to outputs[j], in product order.

    A depth-first walk over the live combining statements (slots) of
    the obfuscated program, in envs[0] itself: choosing an option is a
    gather, target := source, after which the live statements up to the
    next slot that read a slot target, directly or through other
    assignments, run through run_statements (a segment). Every other
    live assignment computes the same value on every path, so it runs
    once per env, in segment 0, before the first slot. extract_class
    has checked that every variable is assigned once, after what it
    reads, so a path overwrites everything it reads that an earlier
    path set.

    A leaf that passes the first pair is checked on the later pairs in
    turn, each in its own env. A later env holds the current choices at
    the slots before its depth. The walk notes the first slot it changes
    between two leaves that pass the first pair, and the second leaf
    lowers every depth to it. Catching a pair up gathers and runs from
    its depth to the last slot, after running segment 0 the first time
    a leaf reaches that pair. Consecutive leaves share long prefixes,
    so a later pair never costs more than the walk itself.
    """
    program = cd.obf.program
    targets: list[str] = []
    sources: list[list[str]] = []  # slot -> option -> source variable
    segments: list[list] = [[]]
    moving: set[str] = set()  # slot targets, and what reads them
    for idx in cd.live_indices:
        st = program.statements[idx]
        if isinstance(st, Combine):
            targets.append(st.target)
            sources.append([src for _, src in st.options])
            segments.append([])
            moving.add(st.target)
        elif st.expr.in1 in moving or st.expr.in2 in moving:
            moving.add(st.target)
            segments[-1].append(st)
        else:
            segments[0].append(st)
    # None for an empty segment, which the walk skips
    runs = [
        Program(inputs=[], statements=seg, prime=program.prime) if seg else None
        for seg in segments
    ]
    ops = field_ops(program.prime)
    out = program.output
    last = len(targets)
    env, *later = envs
    want, *later_wants = (output % program.prime for output in outputs)
    depth = [-1] * len(later)  # -1: segment 0 has not run in that env yet
    low = last  # the first slot changed since a leaf last passed the first pair
    choice = [-1] * last

    def agrees(j: int) -> bool:
        """Catch pair j + 1 up to the current choices and check its output."""
        later_env = later[j]
        d = depth[j]
        if d < 0:
            if runs[0]:
                run_statements(runs[0], later_env, {}, ops)
            d = 0
        for k in range(d, last):
            later_env[targets[k]] = later_env[sources[k][choice[k]]]
            if runs[k + 1]:
                run_statements(runs[k + 1], later_env, {}, ops)
        depth[j] = last
        return later_env[out] == later_wants[j]

    if runs[0]:
        run_statements(runs[0], env, {}, ops)
    i = 0  # the slot whose next option the walk takes
    while i >= 0:
        if i == last:
            if env[out] == want:
                for j, d in enumerate(depth):
                    if d > low:
                        depth[j] = low
                low = last
                if all(map(agrees, range(len(later)))):
                    yield tuple(choice)
            i -= 1
            continue
        choice[i] += 1
        if choice[i] == len(sources[i]):
            choice[i] = -1
            i -= 1
            continue
        if i < low:
            low = i
        env[targets[i]] = env[sources[i][choice[i]]]
        if runs[i + 1]:
            run_statements(runs[i + 1], env, {}, ops)
        i += 1


def _statement_log_scores(table) -> tuple[dict[str, float], float]:
    """Smoothed per-operation log likelihoods from a pattern table.

    Counts are normalized to relative frequencies first and add-one
    smoothed over the operation universe, so any positive rescaling of
    the table yields identical scores.
    """
    counts = dict(table.ir_operator_counts()) if table is not None else {}
    universe = sorted({op.value for op in Op} | set(counts))
    total = sum(counts.values())
    denom = math.log(1.0 + len(universe))
    scores = {}
    for name in universe:
        rel = counts.get(name, 0) / total if total else 0.0
        scores[name] = math.log1p(rel) - denom
    return scores, denom


def rank_candidates(
    cd: ClassDescriptor,
    table=None,
    cap: int = DEFAULT_CAP,
    candidates: list[Candidate] | None = None,
) -> list[RankedCandidate]:
    """Order the class by statement-pattern likelihood, best first.

    p(candidate) is proportional to the product of smoothed relative
    frequencies of its statement operations; probabilities are
    normalized over the enumerated candidates. Ties are broken by
    canonical serialization, then by the given order (product order
    without candidates), so the order is reproducible.

    The unit of work is the distinct member, not the selection. Each
    live signature (see _MemberCones.signature) is folded, scored and
    keyed once, for its first selection; the selections that share it
    share its Program. A member holds its live statements only, so its
    key is rendered without a liveness pass, and members with one
    target order share one rename map. The score is an fsum, which is
    correctly rounded, so it depends on the member's operations only;
    signatures that fold to one key therefore tie on (score, key) and
    form one group, whose selections stay in the given order. Groups
    are sorted, and each one's weight is computed once and counted
    once per selection in the normalizing sum.
    """
    if candidates is None and cd.class_size > cap:
        raise EnumerationCapError(cd.class_size, cap)
    scores, _ = _statement_log_scores(table)
    op_scores = {op: scores[name] for op, name in OP_NAMES.items()}
    renames: dict[tuple[str, ...], dict[str, str]] = {}  # target order -> rename map
    groups: dict[str, tuple[float, str, list]] = {}  # key -> (score, key, [(selection, program)])
    graded: dict[tuple[int, ...], list] = {}  # live signature -> its group's members
    for selection, sig, program in _members(cd, candidates):
        members = graded.get(sig)
        if members is None:
            stmts = program.statements
            key = render_key(program, stmts, False, renames)
            group = groups.get(key)
            if group is None:
                score = math.fsum([op_scores[st.expr.op] for st in stmts])
                group = groups[key] = (score, key, [])
            members = graded[sig] = group[2]
        members.append((selection, program))
    # keys are unique, so by key, then stably by descending score, is by (-score, key)
    order = sorted(groups.values(), key=itemgetter(1))
    order.sort(key=itemgetter(0), reverse=True)
    if not order:
        return []
    peak = order[0][0]
    weights = [math.exp(score - peak) for score, _, _ in order]
    # one term per selection, the multiset a per-selection sum adds, so the same fsum
    total = math.fsum([w for (_, _, members), w in zip(order, weights) for _ in members])
    return [
        RankedCandidate(selection, program, score, w / total, key)
        for (score, key, members), w in zip(order, weights)
        for selection, program in members
    ]


def _grade(ranked: list[RankedCandidate], truth: list[Program]) -> tuple[int, float] | None:
    """(r, Q) for the best-ranked truth program, or None if none is ranked.

    ranked is best first, as rank_candidates returns it. r counts every
    candidate scoring at least as high, ties included; Q = 1 - 1/r.
    """
    wanted = {canonical_key(p, False) for p in truth}
    best = max((rc.log_score for rc in ranked if rc.key in wanted), default=None)
    if best is None:
        return None
    rank = bisect.bisect_right(ranked, -best, key=lambda rc: -rc.log_score)
    return rank, 1.0 - 1.0 / rank


def class_quality(ranked: list[RankedCandidate], confidential: list[Program]) -> float:
    """Q = 1 - 1/r for the best-ranked confidential program.

    r counts every candidate scoring at least as high, ties included,
    so equal scores never flatter the obfuscation. Q = 0 when some
    confidential program is the attacker's unique top pick.
    """
    graded = _grade(ranked, confidential)
    if graded is None:
        raise ConfigError("no confidential program appears in the ranked class")
    return graded[1]


def run_attack(
    obf: ObfProgram,
    pairs: list[tuple[dict[str, int], int]] | None = None,
    table=None,
    truth: list[Program] | None = None,
    cap: int = DEFAULT_CAP,
) -> AttackReport:
    """Full pipeline: extract, optionally filter, rank, and grade."""
    start = time.perf_counter()
    cd = extract_class(obf)
    survivors = None
    candidates = None
    if pairs is not None:
        candidates = kpa_filter(cd, pairs, cap=cap)
        survivors = len(candidates)
    ranked = rank_candidates(cd, table=table, cap=cap, candidates=candidates)
    graded = _grade(ranked, truth) if truth else None
    min_rank, quality = graded or (None, None)
    return AttackReport(
        class_size=cd.class_size,
        enumerated=len(ranked),
        ranked=ranked,
        survivors=survivors,
        min_rank=min_rank,
        quality=quality,
        elapsed=time.perf_counter() - start,
    )


def render_attack_report(report: AttackReport, top: int = 10) -> str:
    lines = [f"class_size | {report.class_size}", f"enumerated | {report.enumerated}"]
    if report.survivors is not None:
        lines.append(f"survivors | {report.survivors}")
    if report.min_rank is not None:
        lines.append(f"min_rank | {report.min_rank}")
    if report.quality is not None:
        lines.append(f"quality | {report.quality:.6g}")
    for i, rc in enumerate(report.ranked[:top], start=1):
        lines.append(f"top | {i} | {rc.prob:.6g} | {rc.key}")
    return "\n".join(lines) + "\n"


def surviving_option_counts(cd: ClassDescriptor, survivors: list[Candidate]) -> list[int]:
    """How many options of each combining statement some survivor uses."""
    counts = []
    for slot in range(len(cd.options)):
        counts.append(len({cand.selection[slot] for cand in survivors}))
    return counts


# ------------------------------------------------------- guessing game

@dataclass(frozen=True)
class GameAccuracy:
    exact: float
    paper_form: float


OBF_STRATEGIES = ("uniform", "f-as-misleading")
ATT_STRATEGIES = ("f-first", "random")


def game_exact(p_l: float, n: int) -> GameAccuracy:
    """Closed-form attacker accuracy for the two-option guessing game.

    One conspicuous statement F occurs with likelihood p_l; the other
    n - 1 statements share the rest uniformly. The obfuscator draws the
    misleading statement uniformly from the n - 1 non-confidential
    statements, and the attacker picks F whenever it appears, guessing
    otherwise. The derived accuracy is

        p_l + (1 - p_l) * (1 - 1/(n-1)) * 1/2

    paper_form is the commonly printed variant with a 1 - 1/n factor,
    which counts the confidential statement itself among the misleading
    draws; both are reported.
    """
    if not 0.0 < p_l < 1.0:
        raise ConfigError("frequent-statement likelihood must be strictly between 0 and 1")
    if n < 2:
        raise ConfigError("the game needs at least two statements")
    exact = p_l + (1.0 - p_l) * (1.0 - 1.0 / (n - 1)) * 0.5
    paper = p_l + (1.0 - p_l) * (1.0 - 1.0 / n) * 0.5
    return GameAccuracy(exact=exact, paper_form=paper)


def game_simulate(
    p_l: float,
    n: int,
    trials: int = 10**6,
    seed: int = DEFAULT_SEED,
    obf_strategy: str = "uniform",
    att_strategy: str = "f-first",
) -> float:
    """Monte-Carlo attacker accuracy under selectable strategies.

    The f-as-misleading obfuscator plants F as the misleading statement
    whenever the confidential one differs, which empties the attacker's
    F-first signal down to plain p_l accuracy.
    """
    game_exact(p_l, n)  # validate p_l and n
    if trials < 1:
        raise ConfigError("trial count must be positive")
    if obf_strategy not in OBF_STRATEGIES:
        raise ConfigError(f"unknown obfuscator strategy {obf_strategy!r}")
    if att_strategy not in ATT_STRATEGIES:
        raise ConfigError(f"unknown attacker strategy {att_strategy!r}")
    import numpy as np  # only the simulation needs it; keep it off `import selectc`

    rng = np.random.default_rng(derive_seed(seed, "guessing-game"))
    is_f = rng.random(trials) < p_l
    confidential = np.where(is_f, 0, rng.integers(1, n, size=trials))
    if obf_strategy == "uniform":
        draw = rng.integers(0, n - 1, size=trials)
        misleading = draw + (draw >= confidential)
    else:
        misleading = np.where(confidential != 0, 0, rng.integers(1, n, size=trials))
    coin = rng.random(trials) < 0.5
    if att_strategy == "f-first":
        f_present = (confidential == 0) | (misleading == 0)
        correct = np.where(f_present, confidential == 0, coin)
    else:
        correct = coin
    return float(np.mean(correct))

"""De-obfuscation attacks against combining-statement programs.

The attacker sees the obfuscated statement stream but no key. Combining
statements and their option lists are public structure, so the program
class is enumerable: choose one option per live combining statement and
fold. Dead combining statements (fake chains that never reach the
output) are excluded, since an attacker discards them the same way.

Three attacks are modeled:

  * known-plaintext filtering: keep the candidates that agree with
    observed input/output pairs. Each pair prunes the selection space
    that the pairs before it left, by walking the obfuscated program
    over it, and the survivors are
    kept as live signatures, so each surviving signature is keyed once,
    when it is ranked. The confidential program always survives; the
    attack refuses classes larger than an enumeration cap rather than
    silently truncating.
  * likelihood ranking: score candidates by how typical their
    statements look against a mined pattern table (smoothed relative
    operator frequencies), and rank the class by that score. The
    result is a list with one RankedMember per distinct program, best
    first, each folded when its program is first read.
  * the selection guessing game, exact and simulated, for the
    two-statement combining setting with one conspicuous statement.

Class quality summarizes resilience: Q = 1 - 1/r where r is the best
rank the attacker assigns to any confidential program, counting ties
pessimistically. Q = 0 means the attacker's first pick is right.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterator

from .errors import ConfigError, EnumerationCapError
from .field import OP_BY_NAME, OP_NAMES, Op, field_ops
from .ir import (
    Chosen,
    Program,
    canonical_key,
    check_single_assignment,
    emit_fold,
    eval_plain,  # not called here; bench/spans.py wraps attack.eval_plain in traced runs
    field_env,
    fold_maps,
    inline_map,
    key_line,
    key_text,
    live_statement_indices,
    run_statements,
    sources,
    temporary_names,
)
from .obfuscate import ObfProgram
from .rng import DEFAULT_SEED, derive_seed

DEFAULT_CAP = 10**6
# the signature of a union of cones at which ranking builds its key template
# (see _MemberCones.key_score): a union with fewer, as every union of a
# program-level class or of a small statement-level class, gains nothing from one
TEMPLATE_AFTER = 32
# the selections below a depth of the KPA walk from which that depth memoises
# (see _consistent_selections)
MEMO_FROM = 16


@dataclass
class ClassDescriptor:
    """Public structure of an obfuscated program's class."""

    obf: ObfProgram
    combine_indices: list[int]
    options: list[tuple[str, ...]]  # each live combining statement's sources, in option order
    class_size: int
    live_indices: list[int]
    inline: dict[str, int]  # ir.inline_map of the obfuscated program

    @cached_property
    def cones(self) -> "_MemberCones":
        """Built on the first fold or signature, after any cap check."""
        return _MemberCones(self)


# a live signature (see _MemberCones.signature) and how many selections share it
CountedSignature = tuple[tuple[int, ...], int]


@dataclass(slots=True)
class RankedMember:
    """One distinct program of a ranked class and how many selections fold to it."""

    key: str  # canonical_key(its program, False)
    log_score: float
    count: int  # selections
    signature: tuple[int, ...]  # the first live signature (_MemberCones.signature) that reached it
    # its class's cones, then its program once read: one slot, as a 7th slowed ranking 3 %
    _folded: "_MemberCones | Program" = field(repr=False, compare=False)
    prob: float = 0.0  # per selection

    @property
    def program(self) -> Program:
        folded = self._folded
        if not isinstance(folded, Program):
            folded = self._folded = folded.member(folded.fold(self.signature))
        return folded


@dataclass
class AttackReport:
    class_size: int
    enumerated: int  # selections ranked
    ranked: list[RankedMember]  # best first
    survivors: int | None = None
    min_rank: int | None = None
    quality: float | None = None
    distinct_programs: int = 0  # members ranked


def extract_class(obf: ObfProgram) -> ClassDescriptor:
    """Read the program class from combining-statement structure alone.

    The class size is the product of the option counts of all live
    combining statements; it is exact and may be astronomically large.
    Raises FormatError unless every variable is assigned once, after
    what it reads: folding (target := chosen source by substitution)
    and evaluation agree only on such programs. Also raises it when a
    member cannot be folded (see ir.inline_map), whichever members an
    attack goes on to fold.
    """
    program = obf.program
    check_single_assignment(program)
    inline = inline_map(program)
    live_indices = live_statement_indices(program)
    live = set(live_indices)
    combine_indices: list[int] = []
    options: list[tuple[str, ...]] = []
    for idx, entry in program.combines.items():
        if idx in live:
            combine_indices.append(idx)
            options.append(sources(entry))
    size = 1
    for opts in options:
        size *= len(opts)
    return ClassDescriptor(
        obf=obf,
        combine_indices=combine_indices,
        options=options,
        class_size=size,
        live_indices=live_indices,
        inline=inline,
    )


def realize_candidate(cd: ClassDescriptor, selection: tuple[int, ...]) -> Program:
    """Fold the obfuscated program to one member of its class.

    Emits the live statements ir.fold_selection emits for the same
    choices (see _MemberCones.fold). Dead slots are never read, so
    selection may be a live signature (see _MemberCones.signature). The
    members of a class share one inputs list and one consts dict; copy
    them before changing them.
    """
    cones = cd.cones
    return cones.member(cones.fold(cones.signature(selection)))


class _Union:
    """A union of cones while a class is ranked (see _MemberCones.key_score)."""

    __slots__ = ("indices", "rename", "seen", "template")

    def __init__(self, indices: list[int], rename):
        self.indices = indices  # its live statements, in program order
        self.rename = rename  # the get of the rename map of their targets
        self.seen = 0  # the signatures keyed so far
        self.template: tuple | None = None  # its key template, once built (_template)


class _MemberCones:
    """What each choice keeps live, built once per class on first use.

    A slot is a live combining statement. For the output, and for every
    option of every slot, it records two things:

      * reach: the slots read through assignments alone, as a bit mask
        over slot positions;
      * cone: the indices of the statements that stay live, found by
        walking definitions from the option and stopping at slot targets
        and terminals. An option in the class's inline map (ir.inline_map)
        keeps its slot's position (there it becomes target := definition)
        and its definition's operand cones; the definition, which only
        the slot reads, goes.

    Options with equal cones share one cone id. The members whose
    signatures name one tuple of cone ids (-1 at dead slots) keep one
    union of cones, so they share its statement indices (kept), and
    while a class is ranked, the rename map of their targets and, once
    enough of them share it, a key template (see key_score).

    The same pass splits the live assignments into the segments that
    the KPA walk (_consistent_selections) runs: segments[0], then one
    per slot, each a list of statement indices of the obfuscated
    program in program order, which the walk runs there in place. An
    assignment with reach 0 reads no slot target, so it goes to segment
    0; any other goes to the segment of the latest slot before it.

    extract_class has checked single assignment, so a variable's
    definition comes before its readers and the masks of a slot's
    options name earlier slots only. Each walk costs its cone, and there
    are no more options than class members, so building never costs
    more than enumerating the class.
    """

    def __init__(self, cd: ClassDescriptor):
        program = self.program = cd.obf.program
        ops, in1, in2, targets = self.columns = program.columns
        self.slots = cd.combine_indices  # slot -> its statement index
        self.live_indices = cd.live_indices
        # the interface every member shares, apart from the obfuscated program's own
        self.inputs = list(program.inputs)
        self.consts = dict(program.consts)
        self.fixed = {*program.inputs, *program.consts}  # the terminals, which keep their names
        defs: dict[str, int] = {}  # assignment target -> its index
        reach: dict[str, int] = {}  # variable -> slots it reads through assignments
        self.reach: list[list[int]] = []  # slot -> option -> slots its source reads
        # the KPA walk's segments, as statement indices (see _consistent_selections)
        self.segments: list[list[int]] = [[]]
        for idx in cd.live_indices:
            target = targets[idx]
            if ops[idx] is None:
                j = len(self.reach)
                self.reach.append([reach.get(src, 0) for src in cd.options[j]])
                reach[target] = 1 << j
                self.segments.append([])
            else:
                defs[target] = idx
                mask = reach[target] = reach.get(in1[idx], 0) | reach.get(in2[idx], 0)
                self.segments[-1 if mask else 0].append(idx)

        def cone(*roots: str) -> set[int]:
            keep: set[int] = set()
            stack = list(roots)
            while stack:
                idx = defs.get(stack.pop())
                if idx is not None and idx not in keep:
                    keep.add(idx)
                    stack += (in1[idx], in2[idx])
            return keep

        self.out = reach.get(program.output, 0)
        self.out_cone = cone(program.output)
        cone_ids: dict[frozenset[int], int] = {}  # cone -> its id, the order of first sight
        # slot -> option -> its cone id, then -1, which a dead slot's -1 reads
        self.cone_rows: list[list[int]] = []
        # slot -> option -> its fold choice, then None, which a dead slot's -1 reads
        self.choices: list[list[Chosen | None]] = []
        for idx, srcs in zip(cd.combine_indices, cd.options):
            ids: list[int] = []
            row: list[Chosen | None] = []
            for src in srcs:
                definition = cd.inline.get(src)
                if definition is None:
                    keep = cone(src)
                else:
                    keep = cone(in1[definition], in2[definition])
                    keep.add(idx)
                ids.append(cone_ids.setdefault(frozenset(keep), len(cone_ids)))
                row.append((idx, src, definition))
            ids.append(-1)
            row.append(None)
            self.cone_rows.append(ids)
            self.choices.append(row)
        self.cones = list(cone_ids)  # cone id -> cone
        # a union of cones (the cone ids of a signature's choices, -1 at dead
        # slots) -> its live statements, in program order
        self.kept: dict[tuple[int, ...], list[int]] = {}

    def signature(self, selection: tuple[int, ...]) -> tuple[int, ...]:
        """The selection's live signature.

        A slot is live under a selection if the output reads it through
        assignments alone, or the chosen option of a later live slot
        does. The signature keeps the choices at live slots and puts -1
        at dead ones: selections with one signature fold to the same
        program, since a choice at a dead slot keeps nothing live,
        whatever it substitutes or inlines. Raises ValueError for a
        choice out of range at a live slot.
        """
        live = self.out
        reach = self.reach
        sig = [-1] * len(reach)
        for j in range(len(reach) - 1, -1, -1):
            if live >> j & 1:
                choice = sig[j] = selection[j]
                if not 0 <= choice < len(reach[j]):
                    raise ValueError(
                        f"option index {choice} out of range at statement {self.slots[j]}"
                    )
                live |= reach[j][choice]
        return tuple(sig)

    def signatures(self) -> Iterator[CountedSignature]:
        """Every live signature of the class, with how many selections share it.

        A depth-first walk from the last slot: a live slot takes each of
        its options in turn, adding the slots that option reads, and a
        dead one takes -1 and multiplies the count by its option count.
        So the class is covered without visiting one selection.
        """
        reach = self.reach
        last = len(reach)
        sig = [-1] * last
        live = [0] * last + [self.out]  # live[j + 1]: the slots live above slot j
        count = [1] * (last + 1)  # count[j + 1]: the selections per choice above slot j
        j = last - 1
        while True:
            while j >= 0:  # descend, taking the first option at live slots
                above = live[j + 1]
                if above >> j & 1:
                    sig[j] = 0
                    live[j] = above | reach[j][0]
                    count[j] = count[j + 1]
                else:
                    sig[j] = -1
                    live[j] = above
                    count[j] = count[j + 1] * len(reach[j])
                j -= 1
            yield tuple(sig), count[0]
            j = 0  # back up to the first live slot with an option left
            while j < last and (sig[j] < 0 or sig[j] + 1 == len(reach[j])):
                j += 1
            if j == last:
                return
            choice = sig[j] = sig[j] + 1
            live[j] = live[j + 1] | reach[j][choice]
            j -= 1

    def key_score(
        self, sig: tuple[int, ...], op_scores: dict[Op, float], memo: dict[tuple[int, ...], _Union]
    ) -> tuple[str, float]:
        """canonical_key(member, False) and the score of the live signature's member.

        memo is the ranking's, so it goes when the ranking returns. It
        holds a _Union per union of cones (its cone ids, -1 at dead
        slots), whose key template is built at its TEMPLATE_AFTER-th
        signature (see _template). Before that, each signature takes
        one walk over the kept indices that resolves operands as
        ir.emit_fold does and builds nothing. With the template, the
        fixed lines are copied and each decided line is looked up by the
        choices of the slots that decide it, so a signature whose lookups
        all hit builds no fold maps and resolves no operand; a miss
        builds the maps once and formats the missing line only. A class
        with few signatures per union never builds a template: a
        program-level class has one per union and a small
        statement-level class a few, and building one at a union's
        second signature made such ranking slower.
        """
        key = tuple(map(list.__getitem__, self.cone_rows, sig))
        union = memo.get(key)
        if union is not None and union.template is not None:
            return self._look_up(sig, union, op_scores)
        ops, in1, in2, targets = self.columns
        maps = fold_maps(targets, self._chosen(sig))
        if union is None:
            indices = self._kept(key)
            rename = temporary_names(map(targets.__getitem__, indices), self.fixed).get
            union = memo[key] = _Union(indices, rename)
        else:
            indices = union.indices
            rename = union.rename
        union.seen += 1
        if union.seen == TEMPLATE_AFTER:
            union.template = self._template(indices, maps, rename, op_scores)
            return self._look_up(sig, union, op_scores, maps)
        get = maps[0].get
        inlined = maps[1]
        refs: set[str] = set()
        add = refs.add
        body: list[str] = []
        scores: list[float] = []
        for idx in indices:
            source = inlined.get(idx, idx)
            op = ops[source]
            a = get(in1[source], in1[source])
            b = get(in2[source], in2[source])
            add(a)
            add(b)
            scores.append(op_scores[op])
            body.append(key_line(rename, targets[idx], op, a, b))
        return key_text(self.fixed & refs, body), math.fsum(scores)

    def _look_up(
        self, sig: tuple[int, ...], union: _Union, op_scores, maps=None
    ) -> tuple[str, float]:
        """key_score from the union's key template: its fixed lines, and
        each decided line from its table, formatted on a miss under the
        signature's fold maps, which are built on the first miss unless
        given."""
        indices = union.indices
        rename = union.rename
        lines, terminals, scores, decided = union.template
        body = lines.copy()
        terminals = set(terminals)
        scores = scores.copy()
        for at, choices, table in decided:
            line = table.get(choices(sig))
            if line is None:
                if maps is None:
                    maps = fold_maps(self.columns[3], self._chosen(sig))
                line = table[choices(sig)] = self._line(indices[at], maps, rename, op_scores)
            body[at], score, reads = line
            scores.append(score)
            terminals.update(reads)
        return key_text(terminals, body), math.fsum(scores)

    def _template(
        self, indices: list[int], maps: tuple[dict[str, str], dict[int, int]], rename, op_scores
    ) -> tuple[list, frozenset[str], list[float], list[tuple]]:
        """A union's key template, from the fold maps of one of its signatures.

        A kept line that no slot choice changes (line_masks 0) is fixed:
        its line, op score and terminals read are computed here, once.
        Every other line is decided: it gets a table from the choices of
        the slots that decide it (read from a signature by an
        itemgetter) to its (line, op score, terminals read), filled on
        each miss. Returns the body with the fixed lines in place (None
        at decided ones), their terminals, their scores, and per decided
        line (its position, its itemgetter, its table).
        """
        masks = self.line_masks
        body: list[str | None] = []
        terminals: set[str] = set()
        scores: list[float] = []
        decided = []
        for at, idx in enumerate(indices):
            mask = masks[idx]
            if mask:
                slots = [j for j in range(mask.bit_length()) if mask >> j & 1]
                decided.append((at, itemgetter(*slots), {}))
                body.append(None)
            else:
                line, score, reads = self._line(idx, maps, rename, op_scores)
                body.append(line)
                scores.append(score)
                terminals.update(reads)
        return body, frozenset(terminals), scores, decided

    def _line(
        self, idx: int, maps: tuple[dict[str, str], dict[int, int]], rename, op_scores
    ) -> tuple[str, float, set[str]]:
        """The key line at a kept index under fold_maps maps, its op score
        and the terminals it reads."""
        ops, in1, in2, targets = self.columns
        get = maps[0].get
        source = maps[1].get(idx, idx)
        op = ops[source]
        a = get(in1[source], in1[source])
        b = get(in2[source], in2[source])
        return key_line(rename, targets[idx], op, a, b), op_scores[op], self.fixed & {a, b}

    @cached_property
    def line_masks(self) -> dict[int, int]:
        """Live statement index -> the slots whose choices decide its key
        line in a member that keeps it, as a bit mask; built with the
        first key template.

        A slot target read as an operand resolves to itself when its
        slot inlines (the slot keeps it as target := definition), so it
        brings the slot in only if the slot has a substituted option, and
        then also the slots that decide those sources. An assignment is
        decided by the slots that decide its operands; a kept slot by
        itself and by the slots that decide its inlinable definitions'
        operands.
        """
        ops, in1, in2, targets = self.columns
        resolves: dict[str, int] = {}  # slot target -> the slots that decide what it resolves to
        masks: dict[int, int] = {}
        j = 0
        for idx in self.live_indices:
            if ops[idx] is None:
                bit = 1 << j
                mask = resolved = 0
                for _, src, definition in self.choices[j][:-1]:
                    if definition is None:
                        resolved |= bit | resolves.get(src, 0)
                    else:
                        mask |= masks[definition]
                resolves[targets[idx]] = resolved
                masks[idx] = bit | mask
                j += 1
            else:
                masks[idx] = resolves.get(in1[idx], 0) | resolves.get(in2[idx], 0)
        return masks

    def fold(self, sig: tuple[int, ...]) -> tuple[list[Op], list[str], list[str], list[str]]:
        """The columns of the live signature's member, in program order (ir.emit_fold)."""
        key = tuple(map(list.__getitem__, self.cone_rows, sig))
        return emit_fold(self.program, self._kept(key), self._chosen(sig))

    def _kept(self, key: tuple[int, ...]) -> list[int]:
        """The live statements of a union of cones, made once per union."""
        indices = self.kept.get(key)
        if indices is None:
            cones = [self.cones[i] for i in key if i >= 0]
            indices = self.kept[key] = sorted(self.out_cone.union(*cones))
        return indices

    def _chosen(self, sig: tuple[int, ...]) -> Iterator[Chosen]:
        """The fold choices of the live signature's chosen options, in slot order."""
        return filter(None, map(list.__getitem__, self.choices, sig))

    def member(self, columns: tuple[list, list, list, list]) -> Program:
        """The class member with these columns and the class's shared interface."""
        return Program.from_columns(
            self.inputs, *columns, consts=self.consts, prime=self.program.prime
        )


def kpa_filter(
    cd: ClassDescriptor,
    pairs: list[tuple[dict[str, int], int]],
    cap: int = DEFAULT_CAP,
) -> list[CountedSignature]:
    """Keep the live signatures consistent with known input/output pairs.

    Each pair binds every input variable of the obfuscated program
    (candidates may read any of them) and gives the observed output.
    Raises EnumerationCapError instead of enumerating a class larger
    than cap. Every pair is checked by walking the obfuscated program
    itself (see _consistent_selections), and nothing is folded. Each
    surviving signature comes once, with the number of surviving
    selections that share it, in the shape _MemberCones.signatures
    yields: a choice at a dead slot cannot change the output, so a
    signature survives with all its selections or with none. Each pair
    prunes what the pairs before it left, and runs each large enough
    subtree once per distinct set of values live into it (see
    _consistent_selections); the survivors come in product order, and
    with no pairs they are the whole class.
    """
    if cd.class_size > cap:
        raise EnumerationCapError(cd.class_size, cap)
    # every pair's inputs are checked here, so a missing one fails before any evaluation
    envs = [field_env(cd.obf.program, inputs) for inputs, _ in pairs]
    selections = _consistent_selections(cd, envs, [output for _, output in pairs])
    return list(Counter(map(cd.cones.signature, selections)).items())


def _consistent_selections(
    cd: ClassDescriptor, envs: list[dict[str, int]], outputs: list[int]
) -> Iterator[tuple[int, ...]]:
    """Yield the selections whose program maps each envs[j] to outputs[j], in product order.

    The class is a DAG over the live combining statements (slots): a
    node is a tuple of (option, child) pairs, () where nothing is left,
    True past the last slot. It starts as the full product, one node
    per depth (True if there is no slot), and each pair prunes it in
    turn, walking the branches the pairs before it left, depth first,
    in its own env. Choosing an option is a gather, target := source;
    then the slot's segment (see _MemberCones), the live statements up
    to the next slot that read a slot target, runs in place through
    run_statements. Every other live assignment has one value on every
    path, so it runs once per pair, in segment 0. extract_class has
    checked that every variable is assigned once, after what it reads,
    so a path overwrites everything it reads that an earlier path set.

    What a pair keeps below a depth depends only on the node it prunes
    there and the values live into it (_memos): those the steps before
    it write (segment 0's are the same on every path) and its slot or a
    later step reads. A depth i >= 1 with at least MEMO_FROM selections
    below it in the full product memoises pruned nodes by both. Depth i
    has at most class_size / (selections below i) distinct prefixes, so
    the deepest memo depth has at most class_size / MEMO_FROM entries,
    each one above it at most half as many (parse_program and the
    obfuscators give a slot at least two options), and the table at
    most 2 * class_size / MEMO_FROM = class_size / 8; it is cleared
    after each pair. A class with no such depth, as every program-level
    one and every small statement-level one, computes no live values.
    """
    program = cd.obf.program
    runs = cd.cones.segments
    targets = [program.columns[3][idx] for idx in cd.combine_indices]  # slot -> its target
    sources = cd.options
    ops = field_ops(program.prime)
    out = program.output
    last = len(targets)
    memos = _memos(program, runs, targets, sources)
    dag = True
    for options in reversed(sources):
        dag = tuple(enumerate(itertools.repeat(dag, len(options))))

    def prune(i: int, node):
        memo = memos[i]
        if memo is not None:
            live, table = memo
            # node is part of the DAG this pair prunes, which stays alive
            # until the prune returns, so no other node can take its id
            key = (id(node), live(env))
            found = table.get(key)
            if found is not None:
                return found
        target = targets[i]
        options = sources[i]
        segment = runs[i + 1]
        deeper = i + 1 < last
        kept = []
        for c, child in node:
            env[target] = env[options[c]]
            if segment:
                run_statements(program, segment, env, _NO_BITS, ops)
            if deeper:
                child = prune(i + 1, child)
                if child:
                    kept.append((c, child))
            elif env[out] == want:
                kept.append((c, True))
        kept = tuple(kept)
        if memo is not None:
            table[key] = kept
        return kept

    for env, output in zip(envs, outputs):
        if runs[0]:
            run_statements(program, runs[0], env, _NO_BITS, ops)
        want = output % program.prime
        dag = prune(0, dag) if last else env[out] == want
        if not dag:
            return
        for memo in filter(None, memos):
            memo[1].clear()
    yield from _dag_leaves(dag, last)


_NO_BITS: dict[str, int] = {}  # the KPA walk's segments hold no combining statement


def _memos(program, runs, targets, sources) -> list:
    """Each depth's memo, or None: the getter of the values live into it
    and a table of pruned nodes keyed by (input node id, those values),
    at depths 1 to the deepest with MEMO_FROM selections below it. The
    output is written after every slot (each is live), so no depth that
    memoises has it live."""
    last = len(targets)
    memos = [None] * last
    memo_to = 0
    below = 1
    for i in range(last - 1, 0, -1):
        below *= len(sources[i])
        if below >= MEMO_FROM:
            memo_to = i
            break
    if not memo_to:
        return memos
    _, in1, in2, written_by = program.columns
    written: dict[str, int] = {}  # variable -> the first depth it is live into
    read: dict[str, int] = {}  # variable -> the last depth whose steps read it
    for k in range(last):
        for src in sources[k]:
            read[src] = k
        written[targets[k]] = k + 1
        for idx in runs[k + 1]:
            read[in1[idx]] = read[in2[idx]] = k
            written[written_by[idx]] = k + 1
    # a depth that memoises -> the variables live into it, never none since
    # the slot before it is live
    live: dict[int, list[str]] = {i: [] for i in range(1, memo_to + 1)}
    for v, first in written.items():
        for i in range(first, min(read.get(v, 0), memo_to) + 1):
            live[i].append(v)
    for i, names in live.items():
        memos[i] = (itemgetter(*names), {})
    return memos


def _dag_leaves(root, last: int) -> Iterator[tuple[int, ...]]:
    """Yield each leaf of a KPA DAG (see _consistent_selections) as a
    selection, in product order."""
    if root is True:  # no slot
        yield ()
        return
    choice = [0] * last
    branches = [iter(root)] * last  # depth -> the pairs of its node not yet taken
    i = 0
    while i >= 0:
        step = next(branches[i], None)
        if step is None:
            i -= 1
            continue
        choice[i], child = step
        if child is True:
            yield tuple(choice)
        else:
            i += 1
            branches[i] = iter(child)


def _statement_log_scores(table) -> dict[Op, float]:
    """Smoothed per-operation log likelihoods from a pattern table.

    Counts are normalized to relative frequencies first and add-one
    smoothed over the operation universe (every Op and every name the
    table counts), so any positive rescaling of the table yields
    identical scores.
    """
    counts = dict(table.ir_operator_counts()) if table is not None else {}
    total = sum(counts.values())
    denom = math.log(1.0 + len(OP_BY_NAME.keys() | counts.keys()))
    return {
        op: math.log1p(counts.get(name, 0) / total if total else 0.0) - denom
        for op, name in OP_NAMES.items()
    }


def rank_candidates(
    cd: ClassDescriptor,
    table=None,
    cap: int = DEFAULT_CAP,
    survivors: list[CountedSignature] | None = None,
) -> list[RankedMember]:
    """Order the class, or the survivors kpa_filter kept, by
    statement-pattern likelihood, best first.

    p(candidate) is proportional to the product of smoothed relative
    frequencies of its statement operations; probabilities are
    normalized over the ranked selections. Ties are broken by canonical
    serialization, so the order is reproducible.

    The unit of work is the distinct member, not the selection. Each
    live signature, the class's (_MemberCones.signatures) or the
    survivors', is keyed and scored once, building nothing
    (_MemberCones.key_score); a member folds when its program is first
    read. Signatures that share a union of cones share its rename map,
    and from the TEMPLATE_AFTER-th of them on, its key template: fixed
    lines made once and the other lines looked up by the choices of
    the slots that decide them. A program-level class (one signature
    per union) and a small statement-level class (a few) never build
    one, since a template costs more than it saves on so few. The
    score is an fsum, which is correctly rounded whatever the order of
    its terms, so signatures that fold to one key tie on (score, key)
    and form one member, which keeps the first of them. Each member's
    weight is computed once and counted once per selection in the
    normalizing sum.
    """
    if survivors is None:
        if cd.class_size > cap:
            raise EnumerationCapError(cd.class_size, cap)
        survivors = cd.cones.signatures()
    cones = cd.cones
    op_scores = _statement_log_scores(table)
    members: dict[str, RankedMember] = {}  # key -> member
    memo: dict[tuple[int, ...], _Union] = {}  # see _MemberCones.key_score
    for sig, count in survivors:
        key, score = cones.key_score(sig, op_scores, memo)
        member = members.get(key)
        if member is None:
            members[key] = RankedMember(key, score, count, sig, cones)
        else:
            member.count += count
    # keys are unique, so by key, then stably by descending score, is by (-score, key)
    order = sorted(members.values(), key=attrgetter("key"))
    order.sort(key=attrgetter("log_score"), reverse=True)
    if order:
        peak = order[0].log_score
        weights = [math.exp(m.log_score - peak) for m in order]
        # one term per selection, the multiset a per-selection sum adds, so the same fsum
        total = math.fsum(
            itertools.chain.from_iterable(map(itertools.repeat, weights, [m.count for m in order]))
        )
        for m, w in zip(order, weights):
            m.prob = w / total
    return order


def _grade(ranked: list[RankedMember], truth: list[Program]) -> tuple[int, float] | None:
    """(r, Q) for the best-ranked truth program, or None if none is ranked.

    r counts every selection scoring at least as high, ties included:
    the selections of every member that does. Q = 1 - 1/r.
    """
    wanted = {canonical_key(p, False) for p in truth}
    members = iter(ranked)
    rank = 0
    for m in members:  # up to the first truth member, the best one since ranked is best first
        rank += m.count
        if m.key in wanted:
            break
    else:
        return None
    rank += sum(t.count for t in itertools.takewhile(lambda t: t.log_score >= m.log_score, members))
    return rank, 1.0 - 1.0 / rank


def _unmatched_truth(cd: ClassDescriptor, truth: list[Program], filtered: bool) -> str:
    """Why no ranked member is a truth program, as run_attack reports it.

    Terminals (inputs and consts) match by name: a truth that reads one
    the class lacks matches no member, even up to renaming.
    """
    program = cd.obf.program
    have = {*program.inputs, *program.consts}
    reads: set[str] = set()
    for p in truth:
        terminals = {*p.inputs, *p.consts}
        for idx in live_statement_indices(p):
            reads.update(v for v in p.operands(idx) if v in terminals)
    missing = sorted(reads - have)
    if missing:
        extra = sorted(have - reads)
        instead = f" (it has {', '.join(extra)} instead)" if extra else ""
        return (
            f"the truth reads {', '.join(missing)}, which the class lacks{instead}; "
            "terminals match by name, not up to renaming"
        )
    if filtered:
        return "no survivor of the known pairs matches the truth"
    return "no member of the ranked class matches the truth"


def run_attack(
    obf: ObfProgram,
    pairs: list[tuple[dict[str, int], int]] | None = None,
    table=None,
    truth: list[Program] | None = None,
    cap: int = DEFAULT_CAP,
) -> AttackReport:
    """Full pipeline: extract, optionally filter, rank, and grade.

    Raises ConfigError when truth is given but no ranked member is one
    of its programs, rather than leaving the class ungraded.
    """
    cd = extract_class(obf)
    survivors = None if pairs is None else kpa_filter(cd, pairs, cap=cap)
    ranked = rank_candidates(cd, table=table, cap=cap, survivors=survivors)
    min_rank = quality = None
    if truth:
        graded = _grade(ranked, truth)
        if graded is None:
            raise ConfigError(_unmatched_truth(cd, truth, pairs is not None))
        min_rank, quality = graded
    selections = sum(m.count for m in ranked)
    return AttackReport(
        class_size=cd.class_size,
        enumerated=selections,
        ranked=ranked,
        survivors=None if pairs is None else selections,
        min_rank=min_rank,
        quality=quality,
        distinct_programs=len(ranked),
    )


def render_attack_report(report: AttackReport, top: int = 10) -> str:
    lines = [f"class_size | {report.class_size}", f"enumerated | {report.enumerated}"]
    if report.survivors is not None:
        lines.append(f"survivors | {report.survivors}")
    if report.min_rank is not None:
        lines.append(f"min_rank | {report.min_rank}")
    if report.quality is not None:
        lines.append(f"quality | {report.quality:.6g}")
    # one line per selection: each member's, repeated count times
    selections = itertools.chain.from_iterable(
        itertools.repeat(f"{m.prob:.6g} | {m.key}", m.count) for m in report.ranked
    )
    for i, line in enumerate(itertools.islice(selections, top), start=1):
        lines.append(f"top | {i} | {line}")
    return "\n".join(lines) + "\n"


def surviving_option_counts(
    cd: ClassDescriptor, survivors: list[CountedSignature]
) -> list[int]:
    """How many options of each combining statement some surviving selection uses.

    survivors are live signatures, as kpa_filter returns them. A slot
    that is dead (-1) in one of them counts all of its options.
    """
    counts = []
    for slot, opts in enumerate(cd.options):
        used = {sig[slot] for sig, _ in survivors}
        counts.append(len(opts) if -1 in used else len(used))
    return counts


# ------------------------------------------------------- guessing game

@dataclass(frozen=True)
class GameAccuracy:
    exact: float
    paper_form: float


OBF_STRATEGIES = ("uniform", "f-as-misleading")
ATT_STRATEGIES = ("f-first", "random")
GAME_MAX_TRIALS = 10**9
# trials drawn per batch: up to this many draw what one batch of all of
# them draws, and the arrays of a batch stay within tens of MiB
_GAME_CHUNK = 1 << 20


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
    F-first signal down to plain p_l accuracy. At most GAME_MAX_TRIALS
    trials, drawn in batches of _GAME_CHUNK.
    """
    game_exact(p_l, n)  # validate p_l and n
    if n > 2**63:
        raise ConfigError(
            "the simulation draws statements as 64-bit integers, so n must be at most 2**63"
        )
    if not 1 <= trials <= GAME_MAX_TRIALS:
        raise ConfigError(f"trial count must be between 1 and {GAME_MAX_TRIALS:,}")
    if obf_strategy not in OBF_STRATEGIES:
        raise ConfigError(f"unknown obfuscator strategy {obf_strategy!r}")
    if att_strategy not in ATT_STRATEGIES:
        raise ConfigError(f"unknown attacker strategy {att_strategy!r}")
    import numpy as np  # only the simulation needs it; keep it off `import selectc`

    rng = np.random.default_rng(derive_seed(seed, "guessing-game"))
    hits = 0
    for start in range(0, trials, _GAME_CHUNK):
        size = min(_GAME_CHUNK, trials - start)
        is_f = rng.random(size) < p_l
        confidential = np.where(is_f, 0, rng.integers(1, n, size=size))
        if obf_strategy == "uniform":
            draw = rng.integers(0, n - 1, size=size)
            misleading = draw + (draw >= confidential)
        else:
            misleading = np.where(confidential != 0, 0, rng.integers(1, n, size=size))
        coin = rng.random(size) < 0.5
        if att_strategy == "f-first":
            f_present = (confidential == 0) | (misleading == 0)
            correct = np.where(f_present, confidential == 0, coin)
        else:
            correct = coin
        hits += int(np.count_nonzero(correct))
    return hits / trials

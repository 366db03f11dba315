"""Combining-statement obfuscation.

Statement level: every assignment in the source program is hidden among
k - 1 generated misleading assignments. The k candidate statements are
emitted in random order into fresh targets, then one combining
statement selects the real result through encrypted selector bits:

    t7 := MUL x y          (confidential)
    t8 := ADD x w          (misleading)
    t5 := COMBINE (s0,t8) (s1,t7)

All k statements execute on every run; only the selector key says which
result flows on. n statements obfuscated this way cost about (k+1) * n
executed statements while the space of plausible source programs grows
to k^n. Fake combining statements (every option misleading, reading and
writing only fresh variables) can be sprinkled in; they never touch the
output. Hoisted constants and fake variables appear as plain inputs of
the obfuscated program and their values move into the selector key.

Program level: several equivalent-cost programs run back to back in a
seeded random order and one final combining statement selects the real
result, so the attacker faces a 1-in-k guess at linear cost.
"""

from __future__ import annotations

import itertools
import math
import typing
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from .crypto import Ciphertext, SecretKey, SelectorKey, operation_count, run_program
from .errors import ConfigError, FormatError, PoolExhaustedError, in_file
from .field import ARITH_OPS, OP_BY_NAME, OP_NAMES, Op, op_from_name, parse_int
from .ir import (
    Options,
    Program,
    check_bits,
    check_names,
    check_single_assignment,
    check_targets,
    fold_selection,
    hot_option,
    selectors,
)
from .rng import DEFAULT_SEED, spawn

if typing.TYPE_CHECKING:
    from .patterns import PatternTable

STRATEGIES = (
    "uniform",
    "pattern-aware",
    "operand-only",
    "operation-only",
    "combined-temporaries",
)

_ENUMERATE_LIMIT = 4096


@dataclass
class ObfuscationConfig:
    mislead_factor: int = 2
    fake_vars: tuple[str, ...] = ()
    op_pool: tuple[Op, ...] = ARITH_OPS
    fake_combining: int = 0
    strategy: str = "uniform"
    pattern_table: "PatternTable | None" = None
    # None draws as DEFAULT_SEED; a config file's seed, even the default's
    # value, ranks above SELECTC_SEED in the CLI
    seed: int | None = None

    def validate(self) -> None:
        if self.mislead_factor < 2:
            raise ConfigError("mislead factor must be at least 2")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if not self.op_pool:
            raise ConfigError("operation pool is empty")
        for what, names in (
            ("operation", [op.value for op in self.op_pool]),
            ("fake variable", self.fake_vars),
        ):
            repeated = [name for name, count in Counter(names).items() if count > 1]
            if repeated:
                raise ConfigError(f"{what} {repeated[0]!r} is given twice")
        check_names(self.fake_vars, "fake variable", ConfigError)
        if self.fake_combining < 0:
            raise ConfigError("fake combining count must be non-negative")
        if self.fake_combining > 0 and not self.fake_vars:
            raise ConfigError("fake combining statements need fake variables")
        if self.strategy == "pattern-aware" and self.pattern_table is None:
            raise ConfigError("pattern-aware strategy requires a pattern table")


@dataclass
class ObfProgram:
    """An obfuscated program plus the public structure of its class.

    prepared is eval_encrypted's cache: a snapshot of the last program
    and selector bits that passed checked_key, and the program's
    operation count (crypto.operation_count).
    """

    program: Program
    selector_ids: list[str] = field(default_factory=list)
    prepared: tuple[tuple, int] | None = field(default=None, init=False, repr=False, compare=False)


# an expression as the obfuscator draws it: (operation, operand, operand)
Expr = tuple[Op, str, str]
# a combining statement's row in the obfuscator's row buffer
_COMBINE_ROW = (None, None, None)


class _Namer:
    """Fresh names prefix0, prefix1, ... that skip the names in used.

    The counter only grows, so no name comes twice, and used need hold
    only the names that existed before the namer.
    """

    def __init__(self, prefix: str, used: set[str]):
        self.prefix = prefix
        self.used = used
        self.n = 0

    def take(self, count: int) -> tuple[str, ...]:
        """The next count names, counting on from the last one taken.

        Each pass names as many candidates as are still missing and drops
        the used ones, so the last pass drops none and leaves the counter
        just past the last name.
        """
        prefix = self.prefix
        names: list[str] = []
        n = self.n
        while len(names) < count:
            end = n + count - len(names)
            names += itertools.filterfalse(
                self.used.__contains__, [f"{prefix}{i}" for i in range(n, end)]
            )
            n = end
        self.n = n
        return tuple(names)


def _indices(items: list, item) -> list[int]:
    """item's indices in items, ascending, found by list.count and list.index."""
    found: list[int] = []
    i = -1
    for _ in range(items.count(item)):
        i = items.index(item, i + 1)
        found.append(i)
    return found


def _distinct_expressions(
    rng,
    count: int,
    op_choices: list[Op],
    var_choices: list[str],
    forbidden: set[tuple[str, str, str]],
    op_weights: list[int] | None = None,
) -> list[Expr]:
    """Draw `count` pairwise-distinct expressions avoiding `forbidden`.

    Works in O(count) whatever the pool size: the expression space is
    never built, and the pool is scanned, for the indices of the
    forbidden keys' names, only where the whole space has at most
    _ENUMERATE_LIMIT expressions.
    """
    n = len(var_choices)
    space = len(op_choices) * n * n
    # each forbidden key removes at most one expression, so the exact count
    # (a scan of the pool) is needed only where the space is this small
    if space - len(forbidden) < count:
        usable = space - sum(
            1
            for key in forbidden
            if any(OP_NAMES[o] == key[0] for o in op_choices)
            and key[1] in var_choices
            and key[2] in var_choices
        )
        if usable < count:
            raise PoolExhaustedError(
                f"need {count} distinct statements but the pool only offers {usable}"
            )
    picked: list[Expr] = []
    if space <= _ENUMERATE_LIMIT and op_weights is None:
        # the space in (op, in1, in2) product order without the forbidden
        # keys, each at every index where a repeated name puts it
        skip = sorted(
            (o * n + a) * n + b
            for op_name, x, y in forbidden
            for o in _indices(op_choices, OP_BY_NAME.get(op_name))
            for a in _indices(var_choices, x)
            for b in _indices(var_choices, y)
        )
        size = space - len(skip)
        # rng.sample(range(size), count) as CPython 3.10 to 3.13 draws it,
        # which draws what sampling the built list would: below a set's
        # size it swaps the picks out of a list of the indices, above it
        # redraws a pick already taken; each draw is by rejection on
        # getrandbits of the bound's bit count
        if not 0 <= count <= size:
            raise ValueError("Sample larger than population or is negative")
        getrandbits = rng.getrandbits
        picks: list[int] = []
        setsize = 21
        if count > 5:
            setsize += 4 ** math.ceil(math.log(count * 3, 4))
        if size <= setsize:
            pool = list(range(size))
            for left in range(size, size - count, -1):
                width = left.bit_length()
                j = getrandbits(width)
                while j >= left:
                    j = getrandbits(width)
                picks.append(pool[j])
                pool[j] = pool[left - 1]
        else:
            width = size.bit_length()
            taken: set[int] = set()
            for _ in range(count):
                j = getrandbits(width)
                while j >= size or j in taken:
                    j = getrandbits(width)
                taken.add(j)
                picks.append(j)
        for i in picks:
            for s in skip:
                if s > i:
                    break
                i += 1
            o, ab = divmod(i, n * n)
            a, b = divmod(ab, n)
            picked.append((op_choices[o], var_choices[a], var_choices[b]))
        return picked
    seen = set(forbidden)
    # each unweighted index is drawn as random.Random.choice draws it in
    # CPython 3.10 to 3.13: getrandbits of the length's bit count until
    # the value is below the length
    getrandbits = rng.getrandbits
    n_ops = len(op_choices)
    op_bits, var_bits = n_ops.bit_length(), n.bit_length()
    # choices accumulates weights on every call; handing it the sums draws the same
    cum_weights = None if op_weights is None else list(itertools.accumulate(op_weights))
    while len(picked) < count:
        if cum_weights is None:
            o = getrandbits(op_bits)
            while o >= n_ops:
                o = getrandbits(op_bits)
            op = op_choices[o]
        else:
            op = rng.choices(op_choices, cum_weights=cum_weights, k=1)[0]
        a = getrandbits(var_bits)
        while a >= n:
            a = getrandbits(var_bits)
        b = getrandbits(var_bits)
        while b >= n:
            b = getrandbits(var_bits)
        in1, in2 = var_choices[a], var_choices[b]
        key = (OP_NAMES[op], in1, in2)
        if key in seen:
            continue
        seen.add(key)
        picked.append((op, in1, in2))
    return picked


def _option_draw(
    cfg: ObfuscationConfig, rng, var_pool: list[str], op_weights: list[int] | None
) -> Callable[[Op, str, str], list[Expr]] | None:
    """cfg's draw of k - 1 misleading options for a confidential expression,
    called with its operation and operands.

    None under combined-temporaries, whose draw (_gen_combined) also
    defines temporaries. The draw reads var_pool as it is at each call,
    so a caller may grow the pool between statements. op_weights is
    _op_weights(cfg).
    """
    if cfg.strategy == "combined-temporaries":
        return None
    count = cfg.mislead_factor - 1
    ops = list(cfg.op_pool)

    if cfg.strategy == "operation-only":

        def draw(op: Op, in1: str, in2: str) -> list[Expr]:
            others = [o for o in ops if o is not op]
            if len(others) < count:
                raise PoolExhaustedError(
                    f"need {count} alternative operations but the pool offers {len(others)}"
                )
            return [(o, in1, in2) for o in rng.sample(others, count)]

    elif cfg.strategy == "operand-only":

        def draw(op: Op, in1: str, in2: str) -> list[Expr]:
            return _distinct_expressions(rng, count, [op], var_pool, {(OP_NAMES[op], in1, in2)})

    else:

        def draw(op: Op, in1: str, in2: str) -> list[Expr]:
            forbidden = {(OP_NAMES[op], in1, in2)}
            return _distinct_expressions(rng, count, ops, var_pool, forbidden, op_weights)

    return draw


def _op_weights(cfg: ObfuscationConfig) -> list[int] | None:
    """Add-one smoothed table counts for cfg.op_pool under pattern-aware, else None."""
    if cfg.strategy != "pattern-aware":
        return None
    counts = cfg.pattern_table.ir_operator_counts()
    return [counts.get(op.value, 0) + 1 for op in cfg.op_pool]


def _positions(var_pool: list[str]) -> dict[str, list[int]]:
    """Each name's indices in var_pool, ascending."""
    positions: dict[str, list[int]] = {}
    for i, v in enumerate(var_pool):
        positions.setdefault(v, []).append(i)
    return positions


def _gen_combined(
    expr: Expr,
    cfg: ObfuscationConfig,
    rng,
    var_pool: list[str],
    positions: dict[str, list[int]],
    fresh: Callable[[], str],
    sel: Callable[[], str],
) -> tuple[list[Expr], list[tuple[str, Options]], dict[str, int]]:
    """Hide operands and operation separately behind fresh temporaries.

    Each operand slot becomes t := COMBINE over k candidate variables
    (the true operand among them), and the option statements apply k
    different operations to the temporaries. The statement's share of
    the program class is k * k * k this way.

    Returns the k option expressions, the confidential one first; the
    prelude, the combining statements that define their operands, each
    a (target, ir.Options) pair; and the prelude's selector bits.

    The decoys are k - 1 draws from the pool without the true operand,
    taken by index in O(k) whatever the pool size: rng.sample reads only
    its population's length and items, so sampling the range of that
    length and stepping each index past the true operand's positions
    draws what sampling the pool's copy without it would.
    """
    k = cfg.mislead_factor
    op, in1, in2 = expr
    prelude = []
    bits: dict[str, int] = {}
    temp_for: list[str] = []
    for true_var in (in1, in2):
        skip = positions.get(true_var, ())
        others = len(var_pool) - len(skip)
        if others < k - 1:
            raise PoolExhaustedError(
                f"operand slot needs {k - 1} decoy variables but only {others} exist"
            )
        candidates = [true_var]
        for i in rng.sample(range(others), k - 1):
            for s in skip:
                if s > i:
                    break
                i += 1
            candidates.append(var_pool[i])
        rng.shuffle(candidates)
        sels = [sel() for _ in candidates]
        # exactly one candidate equals true_var, so this stays one-hot
        bits.update({s: int(v == true_var) for s, v in zip(sels, candidates)})
        temp = fresh()
        prelude.append((temp, (*sels, *candidates)))
        temp_for.append(temp)
    others_ops = [o for o in cfg.op_pool if o is not op]
    if len(others_ops) < k - 1:
        raise PoolExhaustedError(
            f"operation slot needs {k - 1} decoy operations but only {len(others_ops)} exist"
        )
    chosen_ops = rng.sample(others_ops, k - 1)
    t1, t2 = temp_for
    return [(o, t1, t2) for o in (op, *chosen_ops)], prelude, bits


def _validate_source(program: Program) -> None:
    """Refuse a source before anything is built from it: ConfigError for an
    empty one or one with combining statements, FormatError unless it is in
    single assignment (check_single_assignment) and every input, const and
    target name is one the .obf reader reads back (ir.check_names and
    ir.check_targets)."""
    targets = program.columns[3]
    if not targets:
        raise ConfigError("cannot obfuscate an empty program")
    if program.combines:
        raise ConfigError("source program must contain only simple assignments")
    check_single_assignment(program)
    check_names([*program.inputs, *program.consts, *targets], "variable", FormatError)
    check_targets(targets, FormatError)


def obfuscate_statement_level(
    program: Program, cfg: ObfuscationConfig
) -> tuple[ObfProgram, SelectorKey]:
    """Replace every assignment with a combining-statement group.

    Randomness is split into independent streams per concern, so
    enabling fake combining statements does not change how the real
    groups come out for the same seed; the fake-chains and fake-values
    streams are spawned only for a config that reads them. The key is
    one-hot by construction, and checked where it is read, not here. The
    program is built in one pass that writes each row once: every name is
    taken and every fake group drawn before the first row, and each fake
    group is written just before the real group its draw placed it in
    front of. Rows are buffered as (op, in1, in2) tuples and transposed
    into columns once.
    """
    cfg.validate()
    _validate_source(program)
    src_ops, src_in1, src_in2, src_targets = program.columns
    overlap = set(cfg.fake_vars) & (set(program.inputs) | set(program.consts) | set(src_targets))
    if overlap:
        raise ConfigError(f"fake variables collide with program variables: {sorted(overlap)}")

    seed = DEFAULT_SEED if cfg.seed is None else cfg.seed
    rng_opts = spawn(seed, "options")

    inputs = list(program.inputs) + list(program.consts) + list(cfg.fake_vars)
    k = cfg.mislead_factor
    # the first statement and every fake group draw from at most this many
    # expressions, so a k past it fails; refuse it before taking k names
    space = len(cfg.op_pool) * len(inputs) ** 2
    if k - 1 > space:
        raise PoolExhaustedError(
            f"mislead factor {k} needs {k - 1} misleading statements, but {len(cfg.op_pool)} "
            f"operations over {len(inputs)} variables make only {space} distinct statements"
        )
    fresh = _Namer("t", {*inputs, *src_targets})
    sel = _Namer("s", set())
    n = len(src_targets)

    defined = list(inputs)
    # the draw only reads the pool, so it needs no copy
    draw = _option_draw(cfg, rng_opts, defined, _op_weights(cfg))
    positions = _positions(defined) if draw is None else None
    # each statement's names in one run per namer; a combined-temporaries
    # prelude takes 2 temporaries and 2k selectors ahead of its group's k
    temp_step, sel_step = (k, k) if draw is not None else (k + 2, 3 * k)
    all_temps = fresh.take(temp_step * n)
    all_sels = sel.take(sel_step * n)
    bits = dict.fromkeys(all_sels, 0)

    # a fake group reads only rng_fake, so all are drawn up front, each
    # with k temporaries, its target and k selectors; their bits follow
    # the real ones, whose values alone the loop sets
    fakes_before: dict[int, list] = {}  # real group index -> its fake groups, in draw order
    if cfg.fake_combining:
        rng_fake = spawn(seed, "fake-chains")
    for _ in range(cfg.fake_combining):
        exprs = _distinct_expressions(rng_fake, k, list(cfg.op_pool), list(cfg.fake_vars), set())
        names, sels = fresh.take(k + 1), sel.take(k)
        hot = rng_fake.randrange(k)
        bits.update({s: int(i == hot) for i, s in enumerate(sels)})
        # before some real group, so the program output stays last
        fakes_before.setdefault(rng_fake.randrange(n), []).append(
            (exprs, names[:k], sels, names[k])
        )

    # rng_opts.shuffle(order) as CPython 3.10 to 3.13 draws it: from the
    # last index down to 1, swap index i with one below i + 1, drawn by
    # rejection on getrandbits of (i + 1)'s bit count
    getrandbits = rng_opts.getrandbits
    swaps = [(i, (i + 1).bit_length()) for i in range(k - 1, 0, -1)]
    # each statement's (op, in1, in2), a combining statement's all None;
    # transposed into columns once, at the end
    rows: list[tuple] = []
    targets: list[str] = []
    combines: dict[int, Options] = {}

    def put_group(
        exprs: list[Expr], temps: tuple[str, ...], sels: tuple[str, ...], target: str
    ) -> None:
        """Write k assignments into temps, then target := COMBINE over them."""
        rows.extend(exprs)
        rows.append(_COMBINE_ROW)
        targets.extend(temps)
        combines[len(targets)] = sels + temps
        targets.append(target)

    for at, (expr, target) in enumerate(zip(zip(src_ops, src_in1, src_in2), src_targets)):
        for fake in fakes_before.get(at, ()):
            put_group(*fake)
        temps = all_temps[at * temp_step : (at + 1) * temp_step]
        sels = all_sels[at * sel_step : (at + 1) * sel_step]
        if draw is None:
            exprs, prelude, prelude_bits = _gen_combined(
                expr, cfg, rng_opts, defined, positions, iter(temps).__next__, iter(sels).__next__
            )
            bits.update(prelude_bits)
            for temp, prelude_options in prelude:
                rows.append(_COMBINE_ROW)
                combines[len(targets)] = prelude_options
                targets.append(temp)
            positions.setdefault(target, []).append(len(defined))
            temps, sels = temps[2:], sels[2 * k :]
        else:
            exprs = [expr, *draw(*expr)]
        order = list(range(k))
        for i, width in swaps:
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            order[i], order[j] = order[j], order[i]
        bits[sels[order.index(0)]] = 1
        put_group([exprs[i] for i in order], temps, sels, target)
        defined.append(target)

    bindings = dict(program.consts)
    if cfg.fake_vars:
        rng_vals = spawn(seed, "fake-values")
        bindings.update({v: rng_vals.randrange(1, program.prime) for v in cfg.fake_vars})

    ops, in1, in2 = zip(*rows)
    obf_program = Program.from_columns(
        inputs, ops, in1, in2, targets, combines, prime=program.prime
    )
    obf = ObfProgram(program=obf_program, selector_ids=obf_program.selector_ids())
    return obf, SelectorKey(bits=bits, bindings=bindings)


def obfuscate_program_level(
    programs: list[Program], i_star: int, seed: int = DEFAULT_SEED
) -> tuple[ObfProgram, SelectorKey]:
    """Run equivalent-cost programs in seeded random order and combine
    their results; the selector key marks program i_star as the one
    whose output is real.

    Each program's consts are renamed to fresh k names (their values
    move into the key's bindings), so two programs may both use k0.
    The class therefore need not contain program i_star under its own
    const names, and run_attack(obf, truth=[programs[i_star]]) can
    raise ConfigError. Grade against deobfuscate(obf, sel_key), which
    is program i_star under the renamed consts.
    """
    if len(programs) < 2:
        raise ConfigError("program-level obfuscation needs at least two programs")
    if not 0 <= i_star < len(programs):
        raise ConfigError(f"confidential index {i_star} out of range")
    primes = {p.prime for p in programs}
    if len(primes) != 1:
        raise ConfigError("programs must share one prime")
    for p in programs:
        _validate_source(p)

    order = list(range(len(programs)))
    spawn(seed, "program-permutation").shuffle(order)

    shared_inputs: list[str] = []
    for idx in order:
        for v in programs[idx].inputs:
            if v not in shared_inputs:
                shared_inputs.append(v)

    # the namers' used set never grows, so each takes all its names at once
    used = set(shared_inputs)
    fresh = iter(_Namer("t", used).take(sum(map(len, programs)) + 1)).__next__
    const_fresh = iter(_Namer("k", used).take(sum(len(p.consts) for p in programs))).__next__
    sels = _Namer("s", set()).take(len(programs))

    ops, in1, in2, targets = [], [], [], []
    bindings: dict[str, int] = {}
    results: list[str] = []
    for idx in order:
        p = programs[idx]
        rename: dict[str, str] = {}
        for v, val in p.consts.items():
            rename[v] = const_fresh()
            bindings[rename[v]] = val
        p_ops, p_in1, p_in2, p_targets = p.columns
        ops += p_ops
        # a target is renamed before its statement's operands, as they are read
        for a, b, target in zip(p_in1, p_in2, p_targets):
            rename[target] = new = fresh()
            in1.append(rename.get(a, a))
            in2.append(rename.get(b, b))
            targets.append(new)
        results.append(new)

    bits = {s: int(idx == i_star) for s, idx in zip(sels, order)}
    combines = {len(targets): (*sels, *results)}
    ops.append(None)
    in1.append(None)
    in2.append(None)
    targets.append(fresh())

    obf_program = Program.from_columns(
        shared_inputs + list(bindings), ops, in1, in2, targets, combines, prime=programs[0].prime
    )
    obf = ObfProgram(program=obf_program, selector_ids=obf_program.selector_ids())
    return obf, SelectorKey(bits=bits, bindings=bindings)


def _prepared(obf: ObfProgram, sel_key: SelectorKey) -> int:
    """obf's operation count, once sel_key's bits passed checked_key for it.

    The key is checked once per change: obf.prepared keeps a snapshot of
    what the check read, the program's columns and combining statements
    and the bit names and values, with the operation count. Each call
    takes the snapshot again and reuses the count if the two compare
    equal, which CPython does in C, element by element, identity first:
    a program is never edited in place, so its columns compare by
    identity and cost nothing per run.
    """
    program, bits = obf.program, sel_key.bits
    snapshot = (program.columns, program.combines, list(bits), list(bits.values()))
    if obf.prepared is not None and obf.prepared[0] == snapshot:
        return obf.prepared[1]
    checked_key(obf, sel_key)
    n_ops = operation_count(program)
    obf.prepared = (snapshot, n_ops)
    return n_ops


def eval_encrypted(
    obf: ObfProgram,
    key: SecretKey,
    sel_key: SelectorKey,
    enc_inputs: dict[str, Ciphertext],
) -> Ciphertext:
    """Execute the obfuscated program over ciphertexts.

    Every statement runs; combining statements compute the full
    selector-weighted sum homomorphically. The key must pass
    checked_key, which runs once while neither the statements nor the
    selector bits change (see _prepared). crypto.run_program encrypts
    the bound variables, then the selector bits, runs the statements and
    mints one handle per operation; callers supply ciphertexts for the
    true inputs. Only the output handle stays in the key's store, on
    return; on an error none does. The program's consts are bound as
    ir.field_env binds them: key bindings and inputs override them.
    """
    n_ops = _prepared(obf, sel_key)
    bound = {**obf.program.consts, **sel_key.bindings}
    return run_program(key, obf.program, enc_inputs, bound, sel_key.bits, n_ops)


def checked_key(obf: ObfProgram, sel_key: SelectorKey) -> dict[int, int]:
    """The fold selection sel_key makes: {statement index: option index}.

    Raises KeyMismatchError unless every bit is 0 or 1, every selector
    of obf has a bit, and each combining statement has exactly one hot
    selector (ir.check_bits and ir.hot_option).
    """
    bits = sel_key.bits
    check_bits(bits)
    combines = obf.program.combines
    return {idx: hot_option(selectors(options), bits) for idx, options in combines.items()}


def deobfuscate(obf: ObfProgram, sel_key: SelectorKey) -> Program:
    """Recover the source program using the selector key.

    Each live combining statement folds to the option its hot selector
    marks (ir.fold_selection), so fake chains and other dead code never
    appear, and bound variables return to const bindings. With the
    authentic key the result is the pre-obfuscation program up to
    normalization; a different one-hot key folds to some other member
    of the program class. The program's own consts stay, a key binding
    of the same name overriding one. Raises FormatError, as the attack
    does, unless every variable is assigned once, after what it reads.
    """
    program = obf.program
    ops, in1, in2, targets = fold_selection(program, checked_key(obf, sel_key))
    refs = {*in1, *in2}  # a fold has no combining statement
    bound = {**program.consts, **sel_key.bindings}
    consts = {v: val for v, val in bound.items() if v in refs}
    inputs = [v for v in program.inputs if v not in sel_key.bindings]
    return Program.from_columns(inputs, ops, in1, in2, targets, consts=consts, prime=program.prime)


# ------------------------------------------------------------- file I/O

def write_obf_program(path: str, obf: ObfProgram) -> None:
    from .ir import render_program

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_program(obf.program))


def read_obf_program(path: str) -> ObfProgram:
    from .ir import parse_program

    with open(path, encoding="utf-8") as fh:
        program = parse_program(fh.read())
    return ObfProgram(program=program, selector_ids=program.selector_ids())


def read_config(path: str) -> ObfuscationConfig:
    """Parse a key = value obfuscation config.

    Recognized keys: k, fake_vars, ops, fake_combining, strategy,
    pattern_table (path to a mined counts table), seed; each at most once.
    """
    cfg = ObfuscationConfig()
    seen: dict[str, int] = {}  # key -> the line it was first given on
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            first = seen.setdefault(key, lineno)
            if first != lineno:
                raise FormatError(f"line {lineno}: {key!r} is given twice (first on line {first})")
            try:
                if key == "k":
                    cfg.mislead_factor = parse_int(value)
                elif key == "fake_vars":
                    cfg.fake_vars = tuple(
                        v.strip() for v in value.split(",") if v.strip()
                    )
                elif key == "ops":
                    cfg.op_pool = tuple(
                        op_from_name(v.strip()) for v in value.split(",") if v.strip()
                    )
                elif key == "fake_combining":
                    cfg.fake_combining = parse_int(value)
                elif key == "strategy":
                    cfg.strategy = value
                elif key == "pattern_table":
                    from .patterns import read_table

                    with in_file(value):
                        cfg.pattern_table = read_table(value)
                elif key == "seed":
                    cfg.seed = parse_int(value)
                else:
                    raise FormatError(f"line {lineno}: unknown config key {key!r}")
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
    cfg.validate()
    return cfg

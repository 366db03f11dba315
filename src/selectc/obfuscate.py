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
import typing
from collections.abc import Callable
from dataclasses import dataclass, field

from .crypto import Ciphertext, SecretKey, SelectorKey, run_plan
from .errors import ConfigError, FormatError, PoolExhaustedError, in_file
from .field import ARITH_OPS, OP_NAMES, Op, op_from_name, parse_int
from .ir import (
    Options,
    Program,
    SlotPlan,
    check_bits,
    check_single_assignment,
    compile_plan,
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
        if self.fake_combining < 0:
            raise ConfigError("fake combining count must be non-negative")
        if self.fake_combining > 0 and not self.fake_vars:
            raise ConfigError("fake combining statements need fake variables")
        if self.strategy == "pattern-aware" and self.pattern_table is None:
            raise ConfigError("pattern-aware strategy requires a pattern table")


@dataclass
class ObfProgram:
    """An obfuscated program plus the public structure of its class.

    prepared is eval_encrypted's cache: the compiled plan of the last
    (program, selector key) it checked, with a snapshot of both.
    """

    program: Program
    selector_ids: list[str] = field(default_factory=list)
    prepared: tuple[tuple, SlotPlan] | None = field(default=None, init=False, repr=False, compare=False)


# an expression as the obfuscator draws it: (operation, operand, operand)
Expr = tuple[Op, str, str]


class _Namer:
    """Fresh names prefix0, prefix1, ... that skip the names in used.

    The counter only grows, so no name comes twice, and used need hold
    only the names that existed before the namer.
    """

    def __init__(self, prefix: str, used: set[str]):
        self.prefix = prefix
        self.used = used
        self.n = 0

    def __call__(self) -> str:
        while True:
            name = f"{self.prefix}{self.n}"
            self.n += 1
            if name not in self.used:
                return name

    def take(self, count: int) -> tuple[str, ...]:
        """The next count names, as count calls would give them.

        Each pass names as many candidates as are still missing and drops
        the used ones, so the last pass drops none and leaves the counter
        just past the last name, where count calls leave it.
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
    never built, and the pool is scanned only where the whole space has
    at most _ENUMERATE_LIMIT expressions.
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
        # keys; rng.sample reads only its population's length and items,
        # so sampling indices draws what sampling the built list would
        skip = sorted(
            (o * n + a) * n + b
            for op_name, x, y in forbidden
            for o, op in enumerate(op_choices)
            if OP_NAMES[op] == op_name
            for a, v in enumerate(var_choices)
            if v == x
            for b, w in enumerate(var_choices)
            if w == y
        )
        for i in rng.sample(range(space - len(skip)), count):
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
    fresh: _Namer,
    sel: _Namer,
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
    single assignment (check_single_assignment)."""
    if not program.columns[3]:
        raise ConfigError("cannot obfuscate an empty program")
    if program.combines:
        raise ConfigError("source program must contain only simple assignments")
    check_single_assignment(program)


def obfuscate_statement_level(
    program: Program, cfg: ObfuscationConfig
) -> tuple[ObfProgram, SelectorKey]:
    """Replace every assignment with a combining-statement group.

    Randomness is split into independent streams per concern, so
    enabling fake combining statements does not change how the real
    groups come out for the same seed. The key is one-hot by
    construction, and checked where it is read, not here. The program
    is built as five columns, Program's four and each statement's
    options (None for an assignment), so splicing in fake groups is
    slicing.
    """
    cfg.validate()
    _validate_source(program)
    src_ops, src_in1, src_in2, src_targets = program.columns
    overlap = set(cfg.fake_vars) & (set(program.inputs) | set(program.consts) | set(src_targets))
    if overlap:
        raise ConfigError(f"fake variables collide with program variables: {sorted(overlap)}")

    seed = DEFAULT_SEED if cfg.seed is None else cfg.seed
    rng_opts = spawn(seed, "options")
    rng_fake = spawn(seed, "fake-chains")
    rng_vals = spawn(seed, "fake-values")

    used = set(program.inputs) | set(program.consts) | set(src_targets) | set(cfg.fake_vars)
    fresh = _Namer("t", used)
    sel = _Namer("s", set())
    k = cfg.mislead_factor
    assigns = [None] * k  # the options column of a group's k assignments

    defined = list(program.inputs) + list(program.consts) + list(cfg.fake_vars)
    # the draw only reads the pool, so it needs no copy
    draw = _option_draw(cfg, rng_opts, defined, _op_weights(cfg))
    positions = _positions(defined) if draw is None else None
    # rng_opts.shuffle(order) as CPython 3.10 to 3.13 draws it: from the
    # last index down to 1, swap index i with one below i + 1, drawn by
    # rejection on getrandbits of (i + 1)'s bit count
    getrandbits = rng_opts.getrandbits
    swaps = [(i, (i + 1).bit_length()) for i in range(k - 1, 0, -1)]
    columns = ops, in1, in2, targets, options = [], [], [], [], []
    starts: list[int] = []  # each real group's first row
    bits: dict[str, int] = {}
    if draw is not None:
        # nothing else is named in the loop, so its names come in two runs
        all_temps = fresh.take(k * len(src_targets))
        all_sels = sel.take(k * len(src_targets))
        bits = dict.fromkeys(all_sels, 0)

    for expr, target in zip(zip(src_ops, src_in1, src_in2), src_targets):
        at = len(starts) * k
        starts.append(len(targets))
        if draw is None:
            exprs, prelude, prelude_bits = _gen_combined(
                expr, cfg, rng_opts, defined, positions, fresh, sel
            )
            bits.update(prelude_bits)
            for temp, prelude_options in prelude:
                ops.append(None)
                in1.append(None)
                in2.append(None)
                targets.append(temp)
                options.append(prelude_options)
            positions.setdefault(target, []).append(len(defined))
            temps, sels = fresh.take(k), sel.take(k)
            bits.update(dict.fromkeys(sels, 0))
        else:
            exprs = [expr, *draw(*expr)]
            temps, sels = all_temps[at : at + k], all_sels[at : at + k]
        order = list(range(k))
        for i, width in swaps:
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            order[i], order[j] = order[j], order[i]
        bits[sels[order.index(0)]] = 1
        group_ops, group_in1, group_in2 = zip(*map(exprs.__getitem__, order))
        ops += group_ops
        ops.append(None)
        in1 += group_in1
        in1.append(None)
        in2 += group_in2
        in2.append(None)
        targets += temps
        targets.append(target)
        options += assigns
        options.append(sels + temps)
        defined.append(target)

    fakes = []
    for _ in range(cfg.fake_combining):
        fake_pool = list(cfg.fake_vars)
        exprs = _distinct_expressions(rng_fake, k, list(cfg.op_pool), fake_pool, forbidden=set())
        temps = fresh.take(k)
        sels = sel.take(k)
        hot = rng_fake.randrange(k)
        for i, s in enumerate(sels):
            bits[s] = int(i == hot)
        group_ops, group_in1, group_in2 = zip(*exprs)
        group = (
            [*group_ops, None],
            [*group_in1, None],
            [*group_in2, None],
            [*temps, fresh()],
            [*assigns, sels + temps],
        )
        # insert before some real group so the program output stays last
        fakes.append((starts[rng_fake.randrange(len(starts))], group))

    if fakes:
        # stable: fakes before one group keep the order they were drawn in
        fakes.sort(key=lambda fake: fake[0])
        spliced = ([], [], [], [], [])
        done = 0
        for start, group in fakes:
            for out, column, rows in zip(spliced, columns, group):
                out += column[done:start]
                out += rows
            done = start
        for out, column in zip(spliced, columns):
            out += column[done:]
        columns = spliced

    bindings = dict(program.consts)
    bindings.update({v: rng_vals.randrange(1, program.prime) for v in cfg.fake_vars})

    *quads, options = columns
    obf_program = Program.from_columns(
        list(program.inputs) + list(program.consts) + list(cfg.fake_vars),
        *quads,
        {i: entry for i, entry in enumerate(options) if entry is not None},
        prime=program.prime,
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

    used = set(shared_inputs)
    fresh = _Namer("t", used)
    const_fresh = _Namer("k", used)
    sel = _Namer("s", set())

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

    sels = tuple(sel() for _ in order)
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


def _prepared_plan(obf: ObfProgram, sel_key: SelectorKey) -> SlotPlan:
    """obf's plan for sel_key's bits, checked and compiled once per change.

    compile_plan checks the key as it compiles, so a changed key or
    program costs one pass over the statements. obf.prepared keeps the
    plan with a snapshot of what it was built from: the inputs (the plan
    holds their registers), the program's columns and combining
    statements, and the bit names (the plan's selector registers follow
    their order) and values. Each call takes the snapshot again and
    reuses the plan if the two compare equal, which CPython does in C,
    element by element, identity first: a program is never edited in
    place, so its columns compare by identity and cost nothing per run.
    The prime is not part of it: run_plan computes at the key's prime.
    """
    program, bits = obf.program, sel_key.bits
    snapshot = (
        list(program.inputs), program.columns, program.combines, list(bits), list(bits.values())
    )
    if obf.prepared is not None and obf.prepared[0] == snapshot:
        return obf.prepared[1]
    plan = compile_plan(program, bits)
    obf.prepared = (snapshot, plan)
    return plan


def eval_encrypted(
    obf: ObfProgram,
    key: SecretKey,
    sel_key: SelectorKey,
    enc_inputs: dict[str, Ciphertext],
) -> Ciphertext:
    """Execute the obfuscated program over ciphertexts.

    Every statement runs; combining statements compute the full
    selector-weighted sum homomorphically. The key must pass
    checked_key. The check and the program's SlotPlan are made in one
    pass and kept in obf.prepared while neither the inputs, the
    statements nor the selector bits change (see _prepared_plan); a
    one-off run pays for that pass. Per run, crypto.run_plan encrypts
    the bound variables, then the selector bits, into a table of the
    run's own, and mints one handle per operation there; callers supply
    ciphertexts for the true inputs. Only the output handle stays in the
    key's store, on return; on an error none does. The program's consts
    are bound as ir.field_env binds them: key bindings and inputs
    override them.
    """
    plan = _prepared_plan(obf, sel_key)
    bound = {**obf.program.consts, **sel_key.bindings}
    return run_plan(key, plan, enc_inputs, bound, sel_key.bits.values())


def checked_key(obf: ObfProgram, sel_key: SelectorKey) -> dict[int, int]:
    """The fold selection sel_key makes: {statement index: option index}.

    Raises KeyMismatchError unless every bit is 0 or 1, every selector
    of obf has a bit, and each combining statement has exactly one hot
    selector (ir.check_bits and ir.hot_option, which compile_plan also
    applies).
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
    pattern_table (path to a mined counts table), seed.
    """
    cfg = ObfuscationConfig()
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

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
from dataclasses import dataclass, field

from .crypto import Ciphertext, SecretKey, SelectorKey, enc_many, run_plan
from .errors import ConfigError, FormatError, KeyMismatchError, PoolExhaustedError
from .field import ARITH_OPS, Op, op_from_name
from .ir import (
    Assign,
    Combine,
    Program,
    SimpleExpression,
    SlotPlan,
    Statement,
    compile_plan,
    fold_selection,
    referenced_vars,
    require_inputs,
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
    seed: int = DEFAULT_SEED
    # set when a config file gives the seed, so the CLI can rank it above
    # SELECTC_SEED even when it equals the default
    seed_configured: bool = False

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

    def combines(self) -> list[tuple[int, Combine]]:
        return [
            (i, st)
            for i, st in enumerate(self.program.statements)
            if isinstance(st, Combine)
        ]


@dataclass
class MisleadingSet:
    """Output of gen_misleading for one confidential statement.

    options is the list of k - 1 misleading expressions. Under the
    combined-temporaries strategy the operands of every option are
    fresh temporaries defined by the combining statements in prelude,
    and confidential is the rewritten expression the real option must
    use; otherwise prelude is empty and confidential is the original
    expression.
    """

    options: list[SimpleExpression]
    confidential: SimpleExpression
    prelude: list[Statement] = field(default_factory=list)
    prelude_bits: dict[str, int] = field(default_factory=dict)


class _Namer:
    def __init__(self, prefix: str, used: set[str]):
        self.prefix = prefix
        self.used = used
        self.n = 0

    def __call__(self) -> str:
        while True:
            name = f"{self.prefix}{self.n}"
            self.n += 1
            if name not in self.used:
                self.used.add(name)
                return name


def _expr_key(e: SimpleExpression) -> tuple[str, str, str]:
    return (e.op.value, e.in1, e.in2)


def _distinct_expressions(
    rng,
    count: int,
    op_choices: list[Op],
    var_choices: list[str],
    forbidden: set[tuple[str, str, str]],
    op_weights: list[int] | None = None,
) -> list[SimpleExpression]:
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
            if any(o.value == key[0] for o in op_choices)
            and key[1] in var_choices
            and key[2] in var_choices
        )
        if usable < count:
            raise PoolExhaustedError(
                f"need {count} distinct statements but the pool only offers {usable}"
            )
    picked: list[SimpleExpression] = []
    if space <= _ENUMERATE_LIMIT and op_weights is None:
        # the space in (op, in1, in2) product order without the forbidden
        # keys; rng.sample reads only its population's length and items,
        # so sampling indices draws what sampling the built list would
        skip = sorted(
            (o * n + a) * n + b
            for op_name, x, y in forbidden
            for o, op in enumerate(op_choices)
            if op.value == op_name
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
            picked.append(SimpleExpression(op_choices[o], var_choices[a], var_choices[b]))
        return picked
    seen = set(forbidden)
    # choices accumulates weights on every call; handing it the sums draws the same
    cum_weights = None if op_weights is None else list(itertools.accumulate(op_weights))
    while len(picked) < count:
        if cum_weights is None:
            op = rng.choice(op_choices)
        else:
            op = rng.choices(op_choices, cum_weights=cum_weights, k=1)[0]
        expr = SimpleExpression(op, rng.choice(var_choices), rng.choice(var_choices))
        key = _expr_key(expr)
        if key in seen:
            continue
        seen.add(key)
        picked.append(expr)
    return picked


def gen_misleading(
    stmt: Assign,
    cfg: ObfuscationConfig,
    rng=None,
    var_pool: list[str] | None = None,
    fresh: "_Namer | None" = None,
    sel: "_Namer | None" = None,
    positions: dict[str, list[int]] | None = None,
    op_weights: list[int] | None = None,
) -> MisleadingSet:
    """Generate the k - 1 misleading expressions for one statement.

    Every result is type-correct and executable, distinct from the
    confidential statement and from its siblings. The variable pool
    defaults to the statement's own operands plus the configured fake
    variables. A caller that draws for many statements passes what does
    not change between them: positions, each pool name's indices in
    var_pool (see _positions), and op_weights, _op_weights(cfg).
    """
    cfg.validate()
    if rng is None:
        rng = spawn(cfg.seed, "options")
    if var_pool is None:
        var_pool = list(dict.fromkeys([stmt.expr.in1, stmt.expr.in2, *cfg.fake_vars]))
    if fresh is None:
        fresh = _Namer("t", set(var_pool) | {stmt.target})
    if sel is None:
        sel = _Namer("s", set())
    k = cfg.mislead_factor
    ops = list(cfg.op_pool)
    true_key = _expr_key(stmt.expr)

    if cfg.strategy == "operation-only":
        others = [op for op in ops if op is not stmt.expr.op]
        if len(others) < k - 1:
            raise PoolExhaustedError(
                f"need {k - 1} alternative operations but the pool offers {len(others)}"
            )
        chosen = rng.sample(others, k - 1)
        return MisleadingSet(
            options=[SimpleExpression(op, stmt.expr.in1, stmt.expr.in2) for op in chosen],
            confidential=stmt.expr,
        )

    if cfg.strategy == "operand-only":
        exprs = _distinct_expressions(
            rng, k - 1, [stmt.expr.op], var_pool, forbidden={true_key}
        )
        return MisleadingSet(options=exprs, confidential=stmt.expr)

    if cfg.strategy == "combined-temporaries":
        if positions is None:
            positions = _positions(var_pool)
        return _gen_combined(stmt, cfg, rng, var_pool, positions, fresh, sel)

    if op_weights is None:
        op_weights = _op_weights(cfg)
    exprs = _distinct_expressions(
        rng, k - 1, ops, var_pool, forbidden={true_key}, op_weights=op_weights
    )
    return MisleadingSet(options=exprs, confidential=stmt.expr)


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
    stmt: Assign,
    cfg: ObfuscationConfig,
    rng,
    var_pool: list[str],
    positions: dict[str, list[int]],
    fresh: _Namer,
    sel: _Namer,
) -> MisleadingSet:
    """Hide operands and operation separately behind fresh temporaries.

    Each operand slot becomes t := COMBINE over k candidate variables
    (the true operand among them), and the option statements apply k
    different operations to the temporaries. The statement's share of
    the program class is k * k * k this way.

    The decoys are k - 1 draws from the pool without the true operand,
    taken by index in O(k) whatever the pool size: rng.sample reads only
    its population's length and items, so sampling the range of that
    length and stepping each index past the true operand's positions
    draws what sampling the pool's copy without it would.
    """
    k = cfg.mislead_factor
    prelude: list[Statement] = []
    bits: dict[str, int] = {}
    temp_for: list[str] = []
    for true_var in (stmt.expr.in1, stmt.expr.in2):
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
        prelude.append(Combine(temp, tuple(zip(sels, candidates))))
        temp_for.append(temp)
    others_ops = [op for op in cfg.op_pool if op is not stmt.expr.op]
    if len(others_ops) < k - 1:
        raise PoolExhaustedError(
            f"operation slot needs {k - 1} decoy operations but only {len(others_ops)} exist"
        )
    chosen_ops = rng.sample(others_ops, k - 1)
    t1, t2 = temp_for
    return MisleadingSet(
        options=[SimpleExpression(op, t1, t2) for op in chosen_ops],
        confidential=SimpleExpression(stmt.expr.op, t1, t2),
        prelude=prelude,
        prelude_bits=bits,
    )


def _validate_source(program: Program) -> None:
    if not program.statements:
        raise ConfigError("cannot obfuscate an empty program")
    targets = set()
    for st in program.statements:
        if not isinstance(st, Assign):
            raise ConfigError("source program must contain only simple assignments")
        if st.target in targets:
            raise ConfigError(f"duplicate assignment target {st.target!r}")
        targets.add(st.target)


def obfuscate_statement_level(
    program: Program, cfg: ObfuscationConfig
) -> tuple[ObfProgram, SelectorKey]:
    """Replace every assignment with a combining-statement group.

    Randomness is split into independent streams per concern, so
    enabling fake combining statements does not change how the real
    groups come out for the same seed.
    """
    cfg.validate()
    _validate_source(program)
    overlap = set(cfg.fake_vars) & (
        set(program.inputs) | set(program.consts) | {s.target for s in program.statements}
    )
    if overlap:
        raise ConfigError(f"fake variables collide with program variables: {sorted(overlap)}")

    rng_opts = spawn(cfg.seed, "options")
    rng_fake = spawn(cfg.seed, "fake-chains")
    rng_vals = spawn(cfg.seed, "fake-values")

    used = (
        set(program.inputs)
        | set(program.consts)
        | {s.target for s in program.statements}
        | set(cfg.fake_vars)
    )
    fresh = _Namer("t", used)
    sel = _Namer("s", set())
    k = cfg.mislead_factor

    bits: dict[str, int] = {}
    defined = list(program.inputs) + list(program.consts) + list(cfg.fake_vars)
    positions = _positions(defined)
    weights = _op_weights(cfg)
    real_groups: list[list[Statement]] = []

    for st in program.statements:
        # the draw only reads the pool, so it needs no copy
        ms = gen_misleading(st, cfg, rng_opts, defined, fresh, sel, positions, weights)
        bits.update(ms.prelude_bits)
        exprs = [ms.confidential] + ms.options
        order = list(range(k))
        rng_opts.shuffle(order)
        assigns = [Assign(fresh(), exprs[which]) for which in order]
        sels = [sel() for _ in range(k)]
        for s, which in zip(sels, order):
            bits[s] = int(which == 0)
        combine = Combine(st.target, tuple(zip(sels, (a.target for a in assigns))))
        real_groups.append(list(ms.prelude) + assigns + [combine])
        positions.setdefault(st.target, []).append(len(defined))
        defined.append(st.target)

    fakes: list[tuple[int, list[Statement]]] = []
    for _ in range(cfg.fake_combining):
        fake_pool = list(cfg.fake_vars)
        exprs = _distinct_expressions(rng_fake, k, list(cfg.op_pool), fake_pool, forbidden=set())
        assigns = [Assign(fresh(), e) for e in exprs]
        sels = [sel() for _ in range(k)]
        hot = rng_fake.randrange(k)
        for i, s in enumerate(sels):
            bits[s] = int(i == hot)
        combine = Combine(fresh(), tuple(zip(sels, (a.target for a in assigns))))
        # insert before some real group so the program output stays last
        fakes.append((rng_fake.randrange(len(real_groups)), assigns + [combine]))

    statements: list[Statement] = []
    for i, group in enumerate(real_groups):
        for pos, fake_group in fakes:
            if pos == i:
                statements.extend(fake_group)
        statements.extend(group)

    bindings = dict(program.consts)
    bindings.update({v: rng_vals.randrange(1, program.prime) for v in cfg.fake_vars})

    obf_program = Program(
        inputs=list(program.inputs) + list(program.consts) + list(cfg.fake_vars),
        statements=statements,
        consts={},
        prime=program.prime,
    )
    obf = ObfProgram(program=obf_program, selector_ids=obf_program.selector_ids())
    sel_key = SelectorKey(bits=bits, bindings=bindings)
    checked_key(obf, sel_key)
    return obf, sel_key


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

    statements: list[Statement] = []
    bindings: dict[str, int] = {}
    results: list[str] = []
    for idx in order:
        p = programs[idx]
        rename: dict[str, str] = {}
        for v, val in p.consts.items():
            rename[v] = const_fresh()
            bindings[rename[v]] = val
        for st in p.statements:
            assert isinstance(st, Assign)
            rename[st.target] = fresh()
            statements.append(
                Assign(
                    rename[st.target],
                    SimpleExpression(
                        st.expr.op,
                        rename.get(st.expr.in1, st.expr.in1),
                        rename.get(st.expr.in2, st.expr.in2),
                    ),
                )
            )
        results.append(rename[p.statements[-1].target])

    sels = [sel() for _ in order]
    bits = {s: int(idx == i_star) for s, idx in zip(sels, order)}
    statements.append(Combine(fresh(), tuple(zip(sels, results))))

    obf_program = Program(
        inputs=shared_inputs + list(bindings),
        statements=statements,
        consts={},
        prime=programs[0].prime,
    )
    obf = ObfProgram(program=obf_program, selector_ids=obf_program.selector_ids())
    sel_key = SelectorKey(bits=bits, bindings=bindings)
    checked_key(obf, sel_key)
    return obf, sel_key


def _prepared_plan(obf: ObfProgram, sel_key: SelectorKey) -> SlotPlan:
    """obf's plan for sel_key's bits, checked and compiled once per change.

    obf.prepared keeps the plan with a snapshot of what it was built
    from: the statements, and the bit names (the plan's selector
    registers follow their order) and values. Each call takes the
    snapshot again and reuses the plan if the two compare equal, which
    CPython does in C, element by element, identity first. Neither the
    inputs nor the prime are part of it: every run checks the inputs
    (require_inputs) and fills registers by name, and run_plan computes
    at the key's prime.
    """
    program, bits = obf.program, sel_key.bits
    snapshot = (list(program.statements), list(bits), list(bits.values()))
    if obf.prepared is not None and obf.prepared[0] == snapshot:
        return obf.prepared[1]
    checked_key(obf, sel_key)
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
    checked_key. Both the check and the program's SlotPlan are made
    once and kept in obf.prepared while neither the statements nor the
    selector bits change (see _prepared_plan); a one-off run pays for
    both. Per run, the bound variables, then the selector bits, are
    encrypted under key in one batch each; callers supply ciphertexts
    for the true inputs. crypto.run_plan then mints exactly one handle
    per operation. Every handle minted here except the output is freed
    on every exit path, a raised error included.
    """
    plan = _prepared_plan(obf, sel_key)
    mark = len(key)
    out = None
    try:
        bindings = sel_key.bindings
        env = dict(zip(bindings, enc_many(key, bindings.values())))
        env.update(enc_inputs)
        selectors = enc_many(key, sel_key.bits.values())
        require_inputs(obf.program, env)
        out = run_plan(key, plan, env, selectors)
    finally:
        key.release_since(mark, out)
    return out


def checked_key(obf: ObfProgram, sel_key: SelectorKey) -> dict[int, int]:
    """The fold selection sel_key makes: {statement index: option index}.

    Raises KeyMismatchError unless every bit is 0 or 1, every selector
    of obf has a bit, and each combining statement has exactly one hot
    selector.
    """
    bits = sel_key.bits
    values = list(bits.values())
    if values.count(0) + values.count(1) != len(values):
        sel, bit = next((s, b) for s, b in bits.items() if b not in (0, 1))
        raise KeyMismatchError(f"selector {sel} has non-binary value {bit}")
    selection: dict[int, int] = {}
    for idx, st in enumerate(obf.program.statements):
        if isinstance(st, Assign):
            continue
        try:
            picks = [bits[sel] for sel, _ in st.options]
        except KeyError:
            missing = [s for s, _ in st.options if s not in bits]
            raise KeyMismatchError(f"selectors without bits: {', '.join(missing)}") from None
        # every bit is 0 or 1, so the 1s are the hot selectors
        hot = picks.count(1)
        if hot != 1:
            group = ", ".join(s for s, _ in st.options)
            raise KeyMismatchError(f"combining statement over ({group}) has {hot} hot selectors")
        selection[idx] = picks.index(1)
    return selection


def deobfuscate(obf: ObfProgram, sel_key: SelectorKey) -> Program:
    """Recover the source program using the selector key.

    Each live combining statement folds to the option its hot selector
    marks (ir.fold_selection), so fake chains and other dead code never
    appear, and bound variables return to const bindings. With the
    authentic key the result is the pre-obfuscation program up to
    normalization; a different one-hot key folds to some other member
    of the program class. Raises FormatError, as the attack does, unless
    every variable is assigned once, after what it reads.
    """
    program = obf.program
    statements = fold_selection(program, checked_key(obf, sel_key))
    refs = referenced_vars(statements)
    consts = {v: val for v, val in sel_key.bindings.items() if v in refs}
    inputs = [v for v in program.inputs if v not in sel_key.bindings]
    return Program(
        inputs=inputs,
        statements=statements,
        consts=consts,
        prime=program.prime,
    )


# ------------------------------------------------------------- file I/O

def write_obf_program(path: str, obf: ObfProgram) -> None:
    from .ir import render_program

    with open(path, "w") as fh:
        fh.write(render_program(obf.program))


def read_obf_program(path: str) -> ObfProgram:
    from .ir import parse_program

    with open(path) as fh:
        program = parse_program(fh.read())
    return ObfProgram(program=program, selector_ids=program.selector_ids())


def read_config(path: str) -> ObfuscationConfig:
    """Parse a key = value obfuscation config.

    Recognized keys: k, fake_vars, ops, fake_combining, strategy,
    pattern_table (path to a mined counts table), seed.
    """
    cfg = ObfuscationConfig()
    with open(path) as fh:
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
                    cfg.mislead_factor = int(value)
                elif key == "fake_vars":
                    cfg.fake_vars = tuple(
                        v.strip() for v in value.split(",") if v.strip()
                    )
                elif key == "ops":
                    cfg.op_pool = tuple(
                        op_from_name(v.strip()) for v in value.split(",") if v.strip()
                    )
                elif key == "fake_combining":
                    cfg.fake_combining = int(value)
                elif key == "strategy":
                    cfg.strategy = value
                elif key == "pattern_table":
                    from .patterns import read_table

                    cfg.pattern_table = read_table(value)
                elif key == "seed":
                    cfg.seed = int(value)
                    cfg.seed_configured = True
                else:
                    raise FormatError(f"line {lineno}: unknown config key {key!r}")
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
    cfg.validate()
    return cfg

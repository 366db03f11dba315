"""The benchmark's three workloads over selectc's public API.

Each workload builds its inputs from one seed (that is its set-up) and
then serves requests one at a time, in a closed loop, through the three
user-facing pipelines of the `selectc` commands:

  * compile: source text -> parse -> lower -> obfuscate -> render ->
    parse (`selectc obfuscate`, then reading the .obf file back);
  * key holder: keygen, enc inputs -> eval_encrypted -> dec, then
    deobfuscate (`selectc run`, `selectc deobfuscate`);
  * attack: run_attack rank-only and run_attack with known pairs
    (`selectc attack`).

The workloads differ in what dominates: many tiny programs (small-mix),
few large programs (large-ladder), or the paper's demo classes, whose
attack dwarfs everything else (demo-attack).

A request runs its timed steps and returns a function that checks
their outputs, so the checks run after the request, outside any span.
"""

from __future__ import annotations

import math
import random
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field

# The l1 demo's configuration (selectc.demos.build_l1); the demo-attack
# workload compiles the task sources through the CLI path with it.
_L1_FAKES = ("w", "z", "f0")
_LADDER_FAKES = ("f0", "f1", "f2")


class Checks:
    """Correctness oracle tally; every failure counts toward fail_share."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


@dataclass
class Sample:
    """Work and step time of one sample (a batch, a ladder pass, a round)."""

    compile_stmts: int = 0
    compile_s: float = 0.0
    enc_stmts: int = 0
    enc_s: float = 0.0
    deobf_stmts: int = 0
    deobf_s: float = 0.0
    rank_s: float = 0.0
    kpa_s: float = 0.0
    # per-layer counts
    src_stmts: int = 0
    lowered_stmts: int = 0
    obf_stmts: int = 0
    class_log2: float = 0.0
    he_ops: int = 0
    candidates: int = 0
    kpa_candidates: int = 0
    survivors: int = 0
    distinct_programs: int = 0
    min_ranks: list[int] = field(default_factory=list)
    # rep -> (source statements, obfuscated statements), for log-log fits
    sizes: dict[str, tuple[int, int]] = field(default_factory=dict)
    # named timings reported next to the ROADMAP Baseline
    probes: dict[str, list[float]] = field(default_factory=dict)


class Ctx:
    """What a workload needs while it serves requests.

    With a reference clock (see speed.py) each step's time is also added
    at reference speed to `scaled`; `sample` gets the measured times.
    """

    def __init__(self, sel, tracer, checks: Checks, clock=None):
        self.sel = sel
        self.tracer = tracer
        self.checks = checks
        self.clock = clock
        self.count_distinct = False
        self.sample = Sample()
        self.scaled = Sample()
        self.last_seconds = 0.0

    @contextmanager
    def step(self, name: str, attr: str | None = None):
        """Time one pipeline step; add its duration to sample.<attr>."""
        before = self.clock.recent() if self.clock else None
        with self.tracer.span(name) as rec:
            yield
        self.last_seconds = seconds = rec[4] - rec[3]
        if attr is None:
            return
        setattr(self.sample, attr, getattr(self.sample, attr) + seconds)
        if self.clock:
            seconds *= self.clock.scale(before, self.clock.recent())
        setattr(self.scaled, attr, getattr(self.scaled, attr) + seconds)

    def probe(self, name: str) -> None:
        """Record the last step's time under a Baseline name."""
        self.sample.probes.setdefault(name, []).append(self.last_seconds)


def _mix_seed(*parts) -> int:
    return random.Random(":".join(str(p) for p in parts)).getrandbits(32)


# ------------------------------------------------------------ pipelines

def compile_source(ctx: Ctx, text: str, cfg, rep: str, probe: str | None = None):
    """One `selectc obfuscate` request plus reading the .obf back.

    Returns (surface program or None, source program, ObfProgram as
    read back, selector key).
    """
    sel = ctx.sel
    ctx.tracer.rep = rep
    sp = None
    with ctx.step("compile", "compile_s"):
        if text.startswith("prime"):
            program = sel.ir.parse_program(text)
        else:
            sp = sel.surface.parse_surface(text)
            program = sel.lower.lower(sp)
        obf, sel_key = sel.obfuscate.obfuscate_statement_level(program, cfg)
        parsed = sel.ir.parse_program(sel.ir.render_program(obf.program))
    # read_obf_program's selector_ids() call, timed as its own step
    with ctx.step("ir.selector_ids"):
        sids = parsed.selector_ids()
    if probe is not None:
        ctx.probe(f"selector_ids_s@{probe}")
    read_back = sel.obfuscate.ObfProgram(program=parsed, selector_ids=sids)
    s = ctx.sample
    n_src = len(program.statements)
    n_obf = len(parsed.statements)
    s.compile_stmts += n_src
    s.src_stmts += n_src
    s.lowered_stmts += n_src if sp is not None else 0
    s.obf_stmts += n_obf
    s.sizes[rep] = (n_src, n_obf)
    return sp, program, read_back, sel_key


def keygen(ctx: Ctx, seed: int, rep: str):
    ctx.tracer.rep = rep
    with ctx.step("key_holder.keygen", "enc_s"):
        return ctx.sel.crypto.keygen(seed)


def run_key_holder(ctx: Ctx, obf, sel_key, key_for, envs: list[dict], rep: str,
                   probe: str | None = None) -> tuple[list[int], object]:
    """enc -> eval_encrypted -> dec per input under key_for(run index);
    then deobfuscate.

    Each run is its own step; the median run time is a Baseline figure.
    """
    sel = ctx.sel
    ctx.tracer.rep = rep
    outs: list[int] = []
    per_run: list[float] = []
    for j, env in enumerate(envs):
        with ctx.step("key_holder.run", "enc_s"):
            key = key_for(j)
            cts = {v: sel.crypto.enc(key, val) for v, val in env.items()}
            ct = sel.obfuscate.eval_encrypted(obf, key, sel_key, cts)
            outs.append(sel.crypto.dec(key, ct))
        per_run.append(ctx.last_seconds)
    with ctx.step("key_holder.deobfuscate", "deobf_s"):
        recovered = sel.obfuscate.deobfuscate(obf, sel_key)
    s = ctx.sample
    n_obf = len(obf.program.statements)
    s.enc_stmts += n_obf * len(envs)
    s.deobf_stmts += n_obf
    s.he_ops += he_ops(sel, obf.program) * len(envs)
    s.sizes.setdefault(rep, (0, n_obf))
    if probe is not None:
        ctx.sample.probes.setdefault(f"eval_encrypted_s@{probe}", []).append(statistics.median(per_run))
    return outs, recovered


def run_attacks(ctx: Ctx, obf, truth, table, pairs, rep: str, probe: str | None = None):
    """`selectc attack --table --truth`, then `selectc attack --pairs --truth`."""
    sel = ctx.sel
    ctx.tracer.rep = rep
    with ctx.step("attack.rank_only", "rank_s"):
        ranked = sel.attack.run_attack(obf, table=table, truth=[truth])
    if probe is not None:
        ctx.probe(f"rank_only_s@{probe}")
    with ctx.step("attack.kpa", "kpa_s"):
        kpa = sel.attack.run_attack(obf, pairs=pairs, truth=[truth])
    if probe is not None:
        ctx.probe(f"kpa_s@{probe}")
    s = ctx.sample
    s.candidates += ranked.enumerated + kpa.class_size
    s.kpa_candidates += kpa.class_size
    s.survivors += kpa.survivors or 0
    if ranked.min_rank is not None:
        s.min_ranks.append(ranked.min_rank)
    return ranked, kpa


def he_ops(sel, program) -> int:
    """Homomorphic operations per run: 1 per assignment, 2k - 1 per k-way combine."""
    n = 0
    for st in program.statements:
        n += 2 * len(st.options) - 1 if isinstance(st, sel.ir.Combine) else 1
    return n


# -------------------------------------------------------------- oracles

def live_class_size(sel, program) -> int:
    """Product of option counts over combines that reach the output."""
    live = {program.statements[-1].target}
    size = 1
    for st in reversed(program.statements):
        if st.target not in live:
            continue
        if isinstance(st, sel.ir.Combine):
            size *= len(st.options)
            live.update(src for _, src in st.options)
        else:
            live.update((st.expr.in1, st.expr.in2))
    return size


def check_compiled(ctx: Ctx, obf, expected_class: int | None, what: str) -> None:
    sel = ctx.sel
    with ctx.tracer.paused():
        size = sel.attack.extract_class(obf).class_size
    product = live_class_size(sel, obf.program)
    ctx.checks.check(size == product, f"{what}: class_size {size} != option product {product}")
    if expected_class is not None:
        ctx.checks.check(size == expected_class, f"{what}: class_size {size} != {expected_class}")
    ctx.sample.class_log2 += math.log2(size)


def check_key_holder(ctx: Ctx, sp, program, envs, outs, recovered, what: str) -> None:
    sel = ctx.sel
    prime = program.prime
    with ctx.tracer.paused():
        for env, got in zip(envs, outs):
            want = sel.ir.eval_plain(program, env)
            ok = got == want
            if sp is not None:
                ok = ok and sel.surface.interpret(sp, env, prime) % prime == want
            ctx.checks.check(ok, f"{what}: decrypted {got} != plaintext {want} on {env}")
        same = sel.ir.render_program(sel.ir.normalize(recovered)) == sel.ir.render_program(
            sel.ir.normalize(program)
        )
    ctx.checks.check(same, f"{what}: deobfuscate does not recover the source")


def check_attacks(ctx: Ctx, ranked, kpa, expected_class: int, what: str) -> None:
    if ctx.count_distinct:
        with ctx.tracer.paused():
            ctx.sample.distinct_programs += len(
                {ctx.sel.ir.canonical_key(rc.program, False) for rc in ranked.ranked}
            )
    c = ctx.checks
    c.check(ranked.class_size == expected_class,
            f"{what}: rank-only class {ranked.class_size} != {expected_class}")
    c.check(kpa.class_size == expected_class,
            f"{what}: KPA class {kpa.class_size} != {expected_class}")
    c.check(ranked.min_rank is not None, f"{what}: truth missing from the ranked class")
    c.check(kpa.min_rank is not None and (kpa.survivors or 0) >= 1,
            f"{what}: truth did not survive the KPA")


def make_pairs(sel, program, bindings, rng, count: int, small: bool):
    pairs = []
    for _ in range(count):
        env = sel.generate.random_inputs(program, rng, small=small)
        pairs.append(({**env, **bindings}, sel.ir.eval_plain(program, env)))
    return pairs


# ------------------------------------------------------------ small-mix

class SmallMix:
    """The criterion-01 mix: 200 tiny surface programs, 100 runs each.

    A request is one program: compile, 100 encrypted runs, deobfuscate,
    and both attacks on one criterion-05-sized class (a 1-3 statement
    linear program), so per-class constants of the attack layer are
    measured too. k alternates between 2 and 3 and the class length
    cycles through 1, 2, 3, the criterion mixes in equal shares rather
    than drawn, which keeps the content of a batch from swinging its
    totals. One sample is a batch of 40 requests; five batches make a
    round of 200, the size of acceptance criterion 01.
    """

    name = "small-mix"

    def __init__(self, sel, seed: int, smoke: bool = False):
        self.sel = sel
        self.per_batch = 3 if smoke else 40
        self.round_samples = 2 if smoke else 5
        self.runs = 5 if smoke else 100
        count = self.per_batch * self.round_samples
        gen = random.Random(_mix_seed(seed, "small-mix"))
        ObfuscationConfig = sel.obfuscate.ObfuscationConfig
        self.items = []
        trees = []
        for i in range(count):
            sp = sel.generate.random_surface_program(gen, max_statements=8)
            trees.extend(sel.patterns.from_surface(sp))
            cfg = ObfuscationConfig(mislead_factor=2 + i % 2, seed=_mix_seed(seed, i))
            self.items.append((sel.surface.render_surface(sp), cfg, _mix_seed(seed, "inputs", i)))
        self.table = sel.patterns.mine(trees)
        self.classes = []
        for i in range(count):
            p = sel.generate.random_linear_program(gen, n_statements=1 + i % 3)
            k = 2 + (i // 3) % 2
            obf, key = sel.obfuscate.obfuscate_statement_level(
                p, ObfuscationConfig(mislead_factor=k, seed=_mix_seed(seed, "class", i))
            )
            pairs = make_pairs(sel, p, key.bindings, gen, 2, small=False)
            self.classes.append((p, obf, pairs, k ** len(p.statements)))

    def requests(self, index: int):
        first = (index % self.round_samples) * self.per_batch
        for i in range(first, first + self.per_batch):
            yield lambda ctx, i=i: self._program(ctx, i, f"{index}/{i}")

    def _program(self, ctx: Ctx, i: int, rep: str):
        sel = self.sel
        text, cfg, input_seed = self.items[i]
        sp, program, obf, sel_key = compile_source(ctx, text, cfg, rep)
        rng = random.Random(input_seed)
        envs = [sel.generate.random_inputs(program, rng, small=True) for _ in range(self.runs)]
        # a fresh key per run, as each `selectc run` makes one; a key kept
        # for all 100 runs would tie peak memory to the largest program
        outs, recovered = run_key_holder(
            ctx, obf, sel_key, lambda j: sel.crypto.keygen(input_seed + j), envs, rep
        )
        truth, cobf, pairs, size = self.classes[i]
        ranked, kpa = run_attacks(ctx, cobf, truth, self.table, pairs, rep)

        def checks():
            check_compiled(ctx, obf, None, f"program {i}")
            check_key_holder(ctx, sp, program, envs, outs, recovered, f"program {i}")
            check_attacks(ctx, ranked, kpa, size, f"class {i}")

        return checks


# --------------------------------------------------------- large-ladder

def ladder_surface(sel, rng: random.Random, loops: int, bound: int, cells: int):
    """Surface program whose loops unroll and whose array reads and
    writes use dynamic indices, so lowering emits oblivious scans.

    Bodies only reassign scalars defined before the loop and loop trip
    counts depend on the input y, which stays within the bound, so the
    direct interpreter and the lowered program agree on every input.
    """
    S = sel.surface
    name, lit = S.Name, S.Lit

    def binop(a, b):
        return S.Binary(rng.choice(("+", "-", "*")), a, b)

    stmts = [S.AssignStmt(name("s"), S.Binary("+", name("x"), name("y")))]
    for j in range(loops):
        i = name(f"i{j}")
        body = [
            S.AssignStmt(S.Index("a", i), binop(S.Index("a", i), S.Binary("*", name("s"), lit(rng.randint(1, 9))))),
            S.IfStmt(
                S.Binary(rng.choice(("<", ">", "==")), S.Index("a", S.Binary("+", i, name("z"))), lit(rng.randint(-4, 4))),
                [S.AssignStmt(name("s"), binop(name("s"), i))],
                [S.AssignStmt(name("s"), binop(name("s"), lit(rng.randint(2, 5))))],
            ),
        ]
        stmts.append(
            S.ForStmt(
                init=S.AssignStmt(i, lit(0)),
                cond=S.Binary("<", i, name("y")),
                step=S.AssignStmt(i, S.Binary("+", i, lit(1))),
                bound=bound,
                body=body,
            )
        )
    stmts.append(S.AssignStmt(name("r"), S.Binary("+", name("s"), S.Index("a", lit(0)))))
    return S.SurfaceProgram(arrays={"a": cells}, statements=stmts)


class LargeLadder:
    """A seeded ladder of large programs, k = 3, with fake combines.

    Linear rungs (random_linear_program) at 250, 1,000, 2,000 and 3,700
    statements, and surface rungs whose unrolled loops and oblivious
    array scans lower to about 700 and 2,100 statements. Every rung is
    compiled, run twice under encryption with one key (so the key's
    handle store grows as it does for a long-lived key holder) and
    deobfuscated once. After each linear rung comes an attack with
    long candidates: a program-level obfuscation of five programs of
    the rung's size, a class of five candidates that each fold to a
    rung-sized program. One sample is one pass over the whole ladder.
    """

    name = "large-ladder"
    LINEAR = (250, 1000, 2000, 3700)
    SURFACE = (1, 3)  # loops; each lowers to about 700 statements
    PROGRAMS_PER_CLASS = 5
    round_samples = 1

    def __init__(self, sel, seed: int, smoke: bool = False):
        self.sel = sel
        linear = (20, 40) if smoke else self.LINEAR
        surface = (1,) if smoke else self.SURFACE
        bound, cells = (2, 3) if smoke else (6, 6)
        self.runs = 2
        gen = random.Random(_mix_seed(seed, "large-ladder"))
        ObfuscationConfig = sel.obfuscate.ObfuscationConfig
        # ascending cost, so the largest key store is the last one built
        sources = [(f"linear-{linear[0]}", linear[0])]
        sources += [(f"surface-{loops}", loops) for loops in surface]
        sources += [(f"linear-{n}", n) for n in linear[1:]]
        self.rungs = []
        trees = []
        for label, size in sources:
            if label.startswith("surface"):
                sp = ladder_surface(sel, gen, size, bound, cells)
                trees.extend(sel.patterns.from_surface(sp))
                text, expected = sel.surface.render_surface(sp), None
            else:
                p = sel.generate.random_linear_program(gen, n_statements=size)
                text, expected = sel.ir.render_program(p), 3 ** size
            cfg = ObfuscationConfig(
                mislead_factor=3,
                fake_vars=_LADDER_FAKES,
                fake_combining=20,
                seed=_mix_seed(seed, "cfg", label),
            )
            self.rungs.append((label, text, cfg, expected, _mix_seed(seed, "inputs", label)))
        self.table = sel.patterns.mine(trees)
        self.classes = {}
        for n in linear:
            # no consts: program-level obfuscation renames them, and the
            # truth must keep its names to be found in the class
            programs = [
                sel.generate.random_linear_program(gen, n_statements=n, n_consts=0)
                for _ in range(self.PROGRAMS_PER_CLASS)
            ]
            i_star = gen.randrange(len(programs))
            obf, _ = sel.obfuscate.obfuscate_program_level(
                programs, i_star, seed=_mix_seed(seed, "program-level", n)
            )
            pairs = make_pairs(sel, programs[i_star], {}, gen, 2, small=False)
            self.classes[f"linear-{n}"] = (f"program-level-{n}", programs[i_star], obf, pairs)

    def requests(self, index: int):
        for rung in self.rungs:
            yield lambda ctx, rung=rung: self._rung(ctx, rung, f"{index}/{rung[0]}")
            if rung[0] in self.classes:
                attack = self.classes[rung[0]]
                yield lambda ctx, attack=attack: self._attack(ctx, attack, f"{index}/{attack[0]}")

    def _rung(self, ctx: Ctx, rung, rep: str):
        sel = self.sel
        label, text, cfg, expected, input_seed = rung
        sp, program, obf, sel_key = compile_source(ctx, text, cfg, rep, probe=label)
        rng = random.Random(input_seed)
        envs = [sel.generate.random_inputs(program, rng, small=True) for _ in range(self.runs)]
        # one key for all runs of the rung: its handle store grows per run
        key = keygen(ctx, input_seed, rep)
        outs, recovered = run_key_holder(ctx, obf, sel_key, lambda j: key, envs, rep, probe=label)

        def checks():
            check_compiled(ctx, obf, expected, label)
            check_key_holder(ctx, sp, program, envs, outs, recovered, label)

        return checks

    def _attack(self, ctx: Ctx, attack, rep: str):
        label, truth, obf, pairs = attack
        ranked, kpa = run_attacks(ctx, obf, truth, self.table, pairs, rep, probe=label)
        return lambda: check_attacks(ctx, ranked, kpa, self.PROGRAMS_PER_CLASS, label)


# ---------------------------------------------------------- demo-attack

class DemoAttack:
    """The paper's demo classes: l0 (12,500 programs), l1 (15,625).

    The classes are the artifacts `selectc demo l0|l1` builds by
    default (the default seed), the ones the paper's figures and the
    ROADMAP Baseline describe; the workload seed draws the pattern
    table, the known pairs and everything else. Each round attacks both
    classes rank-only, with a table mined from seeded random surface
    programs, and with known pairs on small signed inputs taken from
    the confidential program. Ahead of the attacks the round walks the
    demo's key-holder side at its own small size: task 1 and task 2
    compiled through the CLI path with the l1 configuration under ten
    seeds, twenty encrypted runs and a deobfuscate for each, and the
    same for the hand-built l0.
    """

    name = "demo-attack"
    round_samples = 1

    def __init__(self, sel, seed: int, smoke: bool = False):
        from selectc import demos

        self.sel = sel
        self.l0 = demos.build_l0()
        self.l1 = demos.build_l1()
        gen = random.Random(_mix_seed(seed, "demo-attack"))
        trees = []
        for _ in range(200):
            trees.extend(sel.patterns.from_surface(sel.generate.random_surface_program(gen)))
        self.table = sel.patterns.mine(trees)
        self.pairs = {
            d.name: make_pairs(sel, d.program, d.sel_key.bindings, gen, 3, small=True)
            for d in (self.l0, self.l1)
        }
        self.sources = (("task1", demos.TASK1_SOURCE, 5 ** 6), ("task2", demos.TASK2_SOURCE, None))
        self.compile_seeds = [_mix_seed(seed, "compile", j) for j in range(2 if smoke else 10)]
        self.runs = 5 if smoke else 20
        self.input_seed = _mix_seed(seed, "inputs")

    def _l1_config(self, seed: int):
        Op = self.sel.field.Op
        return self.sel.obfuscate.ObfuscationConfig(
            mislead_factor=5,
            fake_vars=_L1_FAKES,
            op_pool=(Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.NEQ, Op.LT),
            fake_combining=3,
            strategy="uniform",
            seed=seed,
        )

    def requests(self, index: int):
        for j, cseed in enumerate(self.compile_seeds):
            for source in self.sources:
                yield lambda ctx, cseed=cseed, source=source, j=j: self._compile(
                    ctx, cseed, source, f"{index}/{source[0]}-{j}"
                )
        yield lambda ctx: self._l0_key_holder(ctx, f"{index}/l0")
        for demo, size in ((self.l0, 12_500), (self.l1, 15_625)):
            yield lambda ctx, demo=demo, size=size: self._attack(ctx, demo, size, f"{index}/{demo.name}")

    def _compile(self, ctx: Ctx, cseed: int, source, rep: str):
        sel = self.sel
        label, text, expected = source
        sp, program, obf, sel_key = compile_source(ctx, text, self._l1_config(cseed), rep)
        rng = random.Random(cseed)
        envs = [sel.generate.random_inputs(program, rng, small=True) for _ in range(self.runs)]
        key = keygen(ctx, cseed, rep)
        outs, recovered = run_key_holder(ctx, obf, sel_key, lambda j: key, envs, rep)

        def checks():
            check_compiled(ctx, obf, expected, rep)
            check_key_holder(ctx, sp, program, envs, outs, recovered, rep)

        return checks

    def _l0_key_holder(self, ctx: Ctx, rep: str):
        sel = self.sel
        l0 = self.l0
        rng = random.Random(self.input_seed)
        envs = [sel.generate.random_inputs(l0.program, rng, small=True) for _ in range(self.runs)]
        key = keygen(ctx, self.input_seed, rep)
        outs, recovered = run_key_holder(ctx, l0.obf, l0.sel_key, lambda j: key, envs, rep)
        return lambda: check_key_holder(ctx, None, l0.program, envs, outs, recovered, "l0")

    def _attack(self, ctx: Ctx, demo, size: int, rep: str):
        ranked, kpa = run_attacks(
            ctx, demo.obf, demo.program, self.table, self.pairs[demo.name], rep, probe=demo.name
        )
        return lambda: check_attacks(ctx, ranked, kpa, size, demo.name)


WORKLOADS = {w.name: w for w in (SmallMix, LargeLadder, DemoAttack)}

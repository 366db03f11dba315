"""Command-line front end for the obfuscation pipeline.

Exit codes: 0 success, 1 usage error, 2 domain error (bad input files,
key mismatches, enumeration refusals, ...). Seeds resolve in this
order: an explicit --seed flag, an explicitly configured seed, the
SELECTC_SEED environment variable, the built-in default. Bare
invocations are therefore reproducible run to run.
"""

from __future__ import annotations

import argparse
import os
import sys

from .attack import (
    DEFAULT_CAP,
    extract_class,
    game_exact,
    game_simulate,
    render_attack_report,
    run_attack,
)
from .crypto import enc, dec, keygen, read_key_file, write_key_file
from .demos import build_l0, build_l1, emit_artifacts
from .errors import ConfigError, FormatError, SelectcError, format_count, in_file
from .field import parse_int, signed
from .ir import Program, parse_program, render_program, unbound_inputs
from .lower import lower
from .metrics import measure, render_metrics
from .obfuscate import (
    ObfuscationConfig,
    eval_encrypted,
    deobfuscate,
    obfuscate_statement_level,
    read_config,
    read_obf_program,
    write_obf_program,
)
from .patterns import aggregate, export_table, merge_tables, mine, read_table, read_trees, render_table
from .rng import DEFAULT_SEED
from .surface import parse_surface


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here reserves 2
    # for domain errors, so usage problems surface as exceptions
    def error(self, message: str):
        raise UsageError(message)


def _int_flag(text: str) -> int:
    """An integer flag's value, read as every integer field is (field.parse_int)."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _env_seed() -> int | None:
    raw = os.environ.get("SELECTC_SEED")
    if raw is None:
        return None
    try:
        return parse_int(raw)
    except ValueError:
        raise ConfigError(f"SELECTC_SEED must be an integer, got {raw!r}") from None


def _resolve_seed(flag: int | None, configured: int | None = None) -> int:
    if flag is not None:
        return flag
    if configured is not None:
        return configured
    env = _env_seed()
    return env if env is not None else DEFAULT_SEED


def _read(reader, path: str, *args):
    """reader(path, *args), naming path in any SelectcError it raises."""
    with in_file(path):
        return reader(path, *args)


def _load_plain_program(path: str) -> Program:
    """Load a three-address file, or parse and lower surface text."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("prime"):
            return parse_program(text)
        break
    return lower(parse_surface(text))


def _parse_bindings(text: str) -> dict[str, int]:
    bindings: dict[str, int] = {}
    text = text.strip()
    if not text:
        return bindings
    for part in text.split(","):
        if "=" not in part:
            raise FormatError(f"expected name=value, got {part.strip()!r}")
        name, _, value = part.partition("=")
        name = name.strip()
        if not name:
            raise FormatError(f"binding {part.strip()!r} has no name")
        if name in bindings:
            raise FormatError(f"{name!r} is bound twice")
        try:
            bindings[name] = parse_int(value.strip())
        except ValueError:
            raise FormatError(f"value for {name!r} is not an integer") from None
    return bindings


def _read_pairs(path: str, obf_path: str, inputs: list[str]) -> list[tuple[dict[str, int], int]]:
    """The pairs in path; each binds exactly inputs, those of the program in obf_path."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=>" not in line:
                raise FormatError(f"line {lineno}: expected `name=value,... => output`")
            lhs, _, rhs = line.partition("=>")
            try:
                output = parse_int(rhs.strip())
                bindings = _parse_bindings(lhs)
            except ValueError:
                raise FormatError(f"line {lineno}: output is not an integer") from None
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            for name in bindings:
                if name not in inputs:
                    raise FormatError(f"line {lineno}: {name!r} is not an input of {obf_path}")
            missing = [v for v in inputs if v not in bindings]
            if missing:
                raise FormatError(f"line {lineno}: {unbound_inputs(missing)}")
            pairs.append((bindings, output))
    if not pairs:
        raise FormatError("no input/output pairs")
    return pairs


# ------------------------------------------------------------- commands

def _cmd_obfuscate(args) -> int:
    cfg = _read(read_config, args.config) if args.config else ObfuscationConfig()
    cfg.seed = _resolve_seed(args.seed, cfg.seed)
    program = _read(_load_plain_program, args.src)
    obf, sel_key = obfuscate_statement_level(program, cfg)
    write_obf_program(args.output, obf)
    write_key_file(args.key, cfg.seed, sel_key, program.prime)
    cd = extract_class(obf)
    print(f"statements | {len(obf.program)}")
    print(f"class_size | {format_count(cd.class_size)}")
    print(f"wrote | {args.output}")
    print(f"wrote | {args.key}")
    return 0


def _cmd_run(args) -> int:
    obf = _read(read_obf_program, args.obf)
    prime = obf.program.prime
    seed, sel_key = _read(read_key_file, args.key, prime)
    bindings = _parse_bindings(args.inputs)
    for name in bindings:
        if name in sel_key.bindings:
            raise FormatError(f"{name!r} is bound by the key, not an input to give")
        if name not in obf.program.inputs:
            raise FormatError(f"{name!r} is not an input of {args.obf}")
    key = keygen(seed, prime)
    enc_inputs = {v: enc(key, val) for v, val in bindings.items()}
    ct = eval_encrypted(obf, key, sel_key, enc_inputs)
    print(signed(dec(key, ct), prime))
    return 0


def _cmd_deobfuscate(args) -> int:
    obf = _read(read_obf_program, args.obf)
    _, sel_key = _read(read_key_file, args.key, obf.program.prime)
    program = deobfuscate(obf, sel_key)
    text = render_program(program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote | {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_mine(args) -> int:
    tables = [_read(lambda p: mine(read_trees(p)), path) for path in args.trees]
    if args.aggregate:
        names = [os.path.basename(path) for path in args.trees]
        text = export_table(aggregate(tables, names=names))
    else:
        text = render_table(merge_tables(tables))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote | {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_attack(args) -> int:
    obf = _read(read_obf_program, args.obf)
    pairs = _read(_read_pairs, args.pairs, args.obf, obf.program.inputs) if args.pairs else None
    table = _read(read_table, args.table) if args.table else None
    truth = [_read(_load_plain_program, args.truth)] if args.truth else None
    report = run_attack(obf, pairs=pairs, table=table, truth=truth, cap=args.cap)
    print(render_attack_report(report), end="")
    return 0


def _cmd_metrics(args) -> int:
    program = _read(_load_plain_program, args.src)
    obf = _read(read_obf_program, args.obf)
    report = measure(program, obf, eval_samples=args.samples, seed=_resolve_seed(args.seed))
    print(render_metrics(report), end="")
    return 0


def _cmd_game(args) -> int:
    acc = game_exact(args.pl, args.n)
    sim = game_simulate(
        args.pl,
        args.n,
        trials=args.trials,
        seed=_resolve_seed(args.seed),
        obf_strategy=args.obf_strategy,
        att_strategy=args.att_strategy,
    )
    print(f"exact = {acc.exact:.6g}")
    print(f"paper_form = {acc.paper_form:.6g}")
    print(f"simulated = {sim:.6g}")
    return 0


def _cmd_demo(args) -> int:
    build = build_l0 if args.level == "l0" else build_l1
    demo = build(_resolve_seed(args.seed))
    cd = extract_class(demo.obf)
    print(f"demo | {demo.name}")
    print(f"class_size | {format_count(cd.class_size)}")
    for path in emit_artifacts(demo, args.out):
        print(f"wrote | {path}")
    return 0


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="selectc",
        description="statement-combining source obfuscation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("obfuscate", help="obfuscate a source or three-address file")
    p.add_argument("src")
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--seed", type=_int_flag, default=None)
    p.set_defaults(func=_cmd_obfuscate)

    p = sub.add_parser("run", help="evaluate an obfuscated program under encryption")
    p.add_argument("obf")
    p.add_argument("--key", required=True)
    p.add_argument("--inputs", default="")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("deobfuscate", help="recover the program with the key")
    p.add_argument("obf")
    p.add_argument("--key", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_deobfuscate)

    p = sub.add_parser("mine", help="mine pattern tables from expression-tree files")
    p.add_argument("trees", nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.add_argument(
        "--aggregate",
        action="store_true",
        help="print cross-corpus statistics instead of merged counts",
    )
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("attack", help="enumerate, filter, and rank the program class")
    p.add_argument("obf")
    p.add_argument("--pairs", default=None, help="known input/output pairs file")
    p.add_argument("--table", default=None, help="mined pattern table for ranking")
    p.add_argument("--truth", default=None, help="confidential program for quality grading")
    p.add_argument("--cap", type=_int_flag, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("metrics", help="measure obfuscation overhead and potency")
    p.add_argument("src")
    p.add_argument("obf")
    p.add_argument("--samples", type=_int_flag, default=50)
    p.add_argument("--seed", type=_int_flag, default=None)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("game", help="statement guessing game, exact and simulated")
    p.add_argument("--pl", type=float, required=True)
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--trials", type=_int_flag, default=10**6)
    p.add_argument("--obf-strategy", default="uniform", choices=("uniform", "f-as-misleading"))
    p.add_argument("--att-strategy", dest="att_strategy", default="f-first", choices=("f-first", "random"))
    p.add_argument("--seed", type=_int_flag, default=None)
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("demo", help="build the bundled task-1 obfuscations")
    p.add_argument("level", choices=("l0", "l1"))
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=_int_flag, default=None)
    p.set_defaults(func=_cmd_demo)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SelectcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

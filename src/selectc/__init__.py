"""selectc: source obfuscation through encrypted combining statements.

The pipeline parses a small imperative language, lowers it to
three-address form over a prime field, and replaces statements with
combining statements whose one-hot selector variables live under
encryption. Companion modules mine code-pattern statistics, mount
de-obfuscation attacks against the published structure, and measure
the cost/security tradeoff.
"""

from .attack import (
    AttackReport,
    ClassDescriptor,
    GameAccuracy,
    extract_class,
    game_exact,
    game_simulate,
    kpa_filter,
    rank_candidates,
    realize_candidate,
    render_attack_report,
    run_attack,
    surviving_option_counts,
)
from .crypto import (
    Ciphertext,
    SecretKey,
    SelectorKey,
    dec,
    enc,
    keygen,
    read_key_file,
    write_key_file,
)
from .errors import (
    ConfigError,
    EnumerationCapError,
    ForeignCiphertextError,
    FormatError,
    KeyMismatchError,
    LowerError,
    ParseError,
    PoolExhaustedError,
    SelectcError,
    UnboundVariableError,
)
from .field import FIELD_PRIME, Op, apply_op, signed
from .generate import random_inputs, random_linear_program, random_surface_program
from .ir import (
    Program,
    canonical_key,
    eval_plain,
    normalize,
    parse_program,
    render_program,
)
from .lower import lower
from .metrics import MetricsReport, measure, potency_reduction, render_metrics
from .obfuscate import (
    ObfProgram,
    ObfuscationConfig,
    deobfuscate,
    eval_encrypted,
    obfuscate_program_level,
    obfuscate_statement_level,
    read_config,
    read_obf_program,
    write_obf_program,
)
from .patterns import (
    AggregateTable,
    ExprTree,
    PatternTable,
    aggregate,
    export_table,
    from_surface,
    merge_tables,
    mine,
    read_table,
    read_trees,
)
from .rng import DEFAULT_SEED
from .surface import SurfaceProgram, interpret, parse_surface, render_surface

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""In-memory spans for the benchmark's traced run.

A span records a name, start and end (perf_counter seconds), the span
that caused it, and the request it belongs to. The harness opens a span
around each pipeline step; in a traced run it also wraps the public
functions of selectc's layer modules, so that every call into a layer
from the harness, or from one layer into another, becomes a child span.
Nothing under src/ is changed: the wrappers replace module attributes
for the duration of the traced round and are removed afterwards.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) pairs wrapped in a traced round, with span names.
# A function imported into a second module is wrapped there too when
# that is the binding the pipeline calls through (eval_plain and
# canonical_key inside the attack layer). The enc calls that
# eval_encrypted makes for selector bits are not wrapped: they run once
# per selector per run and stay in eval_encrypted's self time.
LAYER_FUNCTIONS = (
    ("surface", "parse_surface", "surface.parse_surface"),
    ("lower", "lower", "lower.lower"),
    ("obfuscate", "obfuscate_statement_level", "obfuscate.obfuscate_statement_level"),
    ("obfuscate", "eval_encrypted", "obfuscate.eval_encrypted"),
    ("obfuscate", "deobfuscate", "obfuscate.deobfuscate"),
    ("crypto", "keygen", "crypto.keygen"),
    ("crypto", "enc", "crypto.enc"),
    ("crypto", "dec", "crypto.dec"),
    ("ir", "render_program", "ir.render_program"),
    ("ir", "parse_program", "ir.parse_program"),
    ("ir", "eval_plain", "ir.eval_plain"),
    ("attack", "eval_plain", "ir.eval_plain"),
    ("ir", "canonical_key", "ir.canonical_key"),
    ("attack", "canonical_key", "ir.canonical_key"),
    ("attack", "extract_class", "attack.extract_class"),
    ("attack", "realize_candidate", "attack.realize_candidate"),
    ("attack", "kpa_filter", "attack.kpa_filter"),
    ("attack", "rank_candidates", "attack.rank_candidates"),
    ("attack", "run_attack", "attack.run_attack"),
    ("patterns", "mine", "patterns.mine"),
)

# span record layout: [id, parent, name, start, end, phase, rep]
ID, PARENT, NAME, START, END, PHASE, REP = range(7)


class Tracer:
    """Collects spans; `rep` and `phase` label every span opened."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.phase = "run"
        self.rep = ""
        self._stack: list[int] = []
        self._paused = 0

    def _open(self, name: str) -> list:
        rec = [
            len(self.spans),
            self._stack[-1] if self._stack else -1,
            name,
            0.0,
            0.0,
            self.phase,
            self.rep,
        ]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextmanager
    def paused(self):
        """Run correctness checks without recording layer spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def layers(self, modules: dict):
        """Wrap every LAYER_FUNCTIONS entry for the duration of the block."""
        saved = []
        for mod_name, attr, span_name in LAYER_FUNCTIONS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span_name, original))
        try:
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": self.workload,
                    "fields": ["id", "parent", "name", "start", "end", "phase", "rep"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def self_times(spans: list[list], phase: str) -> dict[str, float]:
    """Total self time per span name: duration minus child durations."""
    child_time: dict[int, float] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] = child_time.get(rec[PARENT], 0.0) + rec[END] - rec[START]
    totals: dict[str, float] = {}
    for rec in spans:
        if rec[PHASE] != phase:
            continue
        own = rec[END] - rec[START] - child_time.get(rec[ID], 0.0)
        totals[rec[NAME]] = totals.get(rec[NAME], 0.0) + own
    return totals


def inclusive_minus(spans: list[list], name: str, excluded: str, phase: str) -> float:
    """Total time of `name` spans minus their `excluded` descendants."""
    by_id = {rec[ID]: rec for rec in spans}
    total = 0.0
    for rec in spans:
        if rec[PHASE] != phase:
            continue
        if rec[NAME] == name:
            total += rec[END] - rec[START]
        elif rec[NAME] == excluded:
            parent = rec[PARENT]
            while parent >= 0:
                anc = by_id[parent]
                if anc[NAME] == excluded:
                    break  # counted through the outer excluded span
                if anc[NAME] == name:
                    total -= rec[END] - rec[START]
                    break
                parent = anc[PARENT]
    return total


def durations(spans: list[list], name: str, phase: str) -> list[tuple[str, float]]:
    """(rep, duration) for every `name` span of a phase, in order."""
    return [
        (rec[REP], rec[END] - rec[START])
        for rec in spans
        if rec[NAME] == name and rec[PHASE] == phase
    ]


def top_level_wall(spans: list[list], phase: str) -> float:
    return sum(
        rec[END] - rec[START]
        for rec in spans
        if rec[PARENT] < 0 and rec[PHASE] == phase
    )

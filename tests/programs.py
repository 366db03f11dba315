"""Programs from statement nodes, for tests that write them by hand.

The package builds a program from its columns only
(selectc.ir.Program.from_columns). program_of flattens a list of
Assign and Combine nodes into those columns, and render_statement
writes one node as the line render_program writes for it.
"""

from selectc.field import FIELD_PRIME, OP_NAMES
from selectc.ir import Combine, Program


def program_of(inputs, statements=(), consts=None, prime=FIELD_PRIME) -> Program:
    """The program of these nodes, in order, over these inputs and consts."""
    rows = []
    combines = {}
    for i, st in enumerate(statements):
        if isinstance(st, Combine):
            sels, srcs = zip(*st.options)
            combines[i] = sels + srcs
            rows.append((None, None, None, st.target))
        else:
            rows.append((st.expr.op, st.expr.in1, st.expr.in2, st.target))
    columns = zip(*rows) if rows else ((),) * 4
    return Program.from_columns(inputs, *columns, combines, consts, prime)


def render_statement(st) -> str:
    """The line of render_program's format for one node."""
    if isinstance(st, Combine):
        return f"{st.target} := COMBINE " + " ".join(f"({s},{v})" for s, v in st.options)
    return f"{st.target} := {OP_NAMES[st.expr.op]} {st.expr.in1} {st.expr.in2}"

"""Plain-text operator dump format.

An operator dump is a header line

    dim <dimension> modes <m> cutoffs <c1,...,cm>

followed by one line per nonzero entry, "row col real imag", with 0-based
indices and 17 significant digits, ordered by (row, col).  R-matrix dumps use
the same entry lines under the header "rmatrix n <N> q <q>".
"""

from __future__ import annotations

import numpy as np

from .fock import LinearOperator
from .multimode import RMatrix


def _entry_lines(rows, cols, values) -> list[str]:
    return [f"{int(r)} {int(c)} {v.real:.17g} {v.imag:.17g}"
            for r, c, v in zip(rows, cols, values)]


def format_operator(op: LinearOperator) -> str:
    space = op.space
    header = (f"dim {space.dimension} modes {space.mode_count} "
              f"cutoffs {','.join(str(c) for c in space.cutoffs)}")
    return "\n".join([header] + _entry_lines(*op.entries())) + "\n"


def format_rmatrix(rmatrix: RMatrix) -> str:
    header = f"rmatrix n {rmatrix.n} q {rmatrix.q:.17g}"
    rows, cols = np.nonzero(rmatrix.entries)
    return "\n".join([header] + _entry_lines(rows, cols, rmatrix.entries[rows, cols])) + "\n"


def parse_operator_dump(text: str) -> tuple[dict, np.ndarray]:
    """Read a dump back into (header fields, dense matrix).  Used for round trips."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] == "rmatrix":
        n = int(head[2])
        meta = {"kind": "rmatrix", "n": n, "q": float(head[4])}
        dim = n * n
    else:
        dim = int(head[1])
        meta = {"kind": "operator", "dim": dim, "modes": int(head[3]),
                "cutoffs": tuple(int(c) for c in head[5].split(","))}
    dense = np.zeros((dim, dim), dtype=complex)
    for ln in lines[1:]:
        r, c, re, im = ln.split()
        dense[int(r), int(c)] = float(re) + 1j * float(im)
    return meta, dense

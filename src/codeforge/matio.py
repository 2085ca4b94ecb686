"""Matrix interchange: the MacKay alist format.

alist layout (1-based indices, zero-padded to the max degree):
    line 1: N M            (columns, rows)
    line 2: max_dv max_dc  (max column degree, max row degree)
    line 3: N column degrees
    line 4: M row degrees
    next N lines: row indices of the ones in each column
    next M lines: column indices of the ones in each row
"""
from __future__ import annotations

import numpy as np

from . import f2


def write_alist(m, path) -> None:
    """Write a 0/1 matrix to an alist file.

    Args:
        m: Matrix of shape (M, N); stored column-major first per the format.
        path: Destination file path.
    """
    m = f2.as_f2(m)
    rows, cols = m.shape
    col_idx = [list(np.nonzero(m[:, j])[0] + 1) for j in range(cols)]
    row_idx = [list(np.nonzero(m[i, :])[0] + 1) for i in range(rows)]
    max_dv = max((len(c) for c in col_idx), default=0)
    max_dc = max((len(r) for r in row_idx), default=0)
    lines = [
        f"{cols} {rows}",
        f"{max_dv} {max_dc}",
        " ".join(str(len(c)) for c in col_idx),
        " ".join(str(len(r)) for r in row_idx),
    ]
    for c in col_idx:
        lines.append(" ".join(str(i) for i in c + [0] * (max_dv - len(c))))
    for r in row_idx:
        lines.append(" ".join(str(i) for i in r + [0] * (max_dc - len(r))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_alist(path) -> np.ndarray:
    """Read an alist file back into a dense uint8 matrix.

    Tolerates the common zero-padding variants: entries are consumed as a
    flat token stream, padded positions hold 0.

    Raises:
        ValueError: on truncated files, out-of-range or duplicate indices,
            or row lists that disagree with the column lists.
    """
    with open(path) as fh:
        tokens = [int(t) for t in fh.read().split()]
    it = iter(tokens)

    def take(k):
        out = []
        for _ in range(k):
            try:
                out.append(next(it))
            except StopIteration:
                raise ValueError(f"truncated alist file: {path}") from None
        return out

    cols, rows = take(2)
    max_dv, max_dc = take(2)
    col_deg = take(cols)
    row_deg = take(rows)
    m = f2.zeros(rows, cols)
    for j in range(cols):
        entries = take(max_dv)[: col_deg[j]]
        if len(set(entries)) != col_deg[j]:
            raise ValueError(f"column {j}: degree {col_deg[j]} does not match "
                             f"its distinct row indices {entries}")
        for r in entries:
            if not 1 <= r <= rows:
                raise ValueError(f"column {j}: row index {r} out of range")
            m[r - 1, j] = 1
    for i in range(rows):
        entries = sorted(take(max_dc)[: row_deg[i]])
        have = (np.nonzero(m[i])[0] + 1).tolist()
        if len(have) != row_deg[i] or entries != have:
            raise ValueError(f"row {i}: degree {row_deg[i]} and columns "
                             f"{entries} disagree with the column lists {have}")
    return m

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
    flat token stream of width max_dv per column and max_dc per row, and
    only the first degree entries of each list are read, so padded
    positions may hold anything.  Extra tokens after the row lists are
    ignored.  The whole file is parsed into one int64 array and checked
    with array operations; the error names the first bad entry in file
    order.

    Raises:
        ValueError: on a non-integer token (Python's int() message) or one
            outside the int64 range, a truncated file
            (``truncated alist file: PATH``), negative dimensions, and
            ``column j: ...`` for a column whose degree is negative, above
            max_dv or counts a repeated index, or which holds a row index
            outside 1..M; ``row i: ...`` for a row list that disagrees with
            the column lists.
    """
    with open(path) as fh:
        try:
            tokens = np.array(fh.read().split(), dtype=np.int64)
        except OverflowError:
            raise ValueError(
                f"alist token outside the int64 range: {path}") from None
    head = tokens[:4].tolist()
    cols, rows, max_dv, max_dc = head if len(head) == 4 else (0, 0, 0, 0)
    # a negative count or width takes no tokens, as range() would
    at = 4 + max(cols, 0) + max(rows, 0)
    if tokens.size < at:
        raise ValueError(f"truncated alist file: {path}")
    col_deg, row_deg = tokens[4:4 + max(cols, 0)], tokens[at - max(rows, 0):at]
    m = f2.zeros(rows, cols)
    lists, at = _lists(tokens, at, cols, max_dv)
    bad, inside = _bad_lists(lists, col_deg[:len(lists)], rows)
    if bad.any():
        j = int(bad.argmax())
        entries = lists[j].tolist()[:int(col_deg[j])]
        if len(set(entries)) != col_deg[j]:
            raise ValueError(f"column {j}: degree {col_deg[j]} does not match "
                             f"its distinct row indices {entries}")
        r = next(r for r in entries if not 1 <= r <= rows)
        raise ValueError(f"column {j}: row index {r} out of range")
    if len(lists) < cols:
        raise ValueError(f"truncated alist file: {path}")
    jj, k = np.nonzero(inside)
    ii = lists[jj, k] - 1
    m[ii, jj] = 1
    # the column lists hold no repeat, so this counts the ones of each row
    weight = np.bincount(ii, minlength=rows)
    lists, _ = _lists(tokens, at, rows, max_dc)
    deg = row_deg[:len(lists)]
    bad, inside = _bad_lists(lists, deg, cols)
    bad |= deg != weight[:len(lists)]
    # a row whose entries are distinct, in range and as many as its ones
    # in m matches m when every entry is a one of m
    ii, k = np.nonzero(inside & (lists >= 1) & (lists <= cols))
    bad[ii[m[ii, lists[ii, k] - 1] == 0]] = True
    if bad.any():
        i = int(bad.argmax())
        entries = sorted(lists[i].tolist()[:int(row_deg[i])])
        have = (np.flatnonzero(m[i]) + 1).tolist()
        raise ValueError(f"row {i}: degree {row_deg[i]} and columns "
                         f"{entries} disagree with the column lists {have}")
    if len(lists) < rows:
        raise ValueError(f"truncated alist file: {path}")
    return m


def _lists(tokens, at, count, width):
    """The complete lists among `count` lists of `width` tokens from
    position `at` (fewer when the file ends early), and the end position."""
    width = max(width, 0)
    count = max(count, 0)
    if width:
        count = min(count, (tokens.size - at) // width)
    end = at + count * width
    return tokens[at:end].reshape(count, width), end


def _bad_lists(lists, deg, hi):
    """(bad, inside): bad flags the lists whose degree deg lies outside
    0..width or whose first deg entries hold a repeat or an index outside
    1..hi; inside marks those first deg entries."""
    inside = np.arange(lists.shape[1]) < deg[:, None]
    bad = (deg < 0) | (deg > lists.shape[1])
    bad |= (inside & ((lists < 1) | (lists > hi))).any(axis=1)
    # once a list is in range, 0 cannot be an entry, so it pads the sort
    s = np.sort(np.where(inside, lists, 0), axis=1)
    return bad | ((s[:, 1:] == s[:, :-1]) & (s[:, 1:] > 0)).any(axis=1), inside

"""Matrix interchange: the MacKay alist format.

alist layout (1-based indices, zero-padded to the max degree):
    line 1: N M            (columns, rows)
    line 2: max_dv max_dc  (max column degree, max row degree)
    line 3: N column degrees
    line 4: M row degrees
    next N lines: row indices of the ones in each column
    next M lines: column indices of the ones in each row

Both directions work on whole arrays, with no loop per row or column:
write_alist finds the ones in one pass and formats each block of lists
from one padded array, and read_alist parses the file into one token
array and checks it with array operations.
"""
from __future__ import annotations

import numpy as np

from . import f2


def write_alist(m, path) -> None:
    """Write a 0/1 matrix to an alist file.

    The ones are found in one pass over the matrix in row-major order,
    which lists each row's columns in order; a stable sort by column
    gives each column's rows in order.  Each block of lists is padded
    into one integer array, mapped to strings through one table of the
    numbers 0..max(M, N), and joined a line at a time.

    Args:
        m: Matrix of shape (M, N); stored column-major first per the format.
        path: Destination file path.
    """
    m = f2.as_f2(m)
    rows, cols = m.shape
    # a matrix with no columns has no ones; max() only avoids a 0 divisor
    r, c = np.divmod(np.flatnonzero(m.view(bool)), max(cols, 1))
    by_col = np.argsort(c, kind="stable")
    col_lists, col_deg = _padded(c[by_col], r[by_col] + 1, cols)
    row_lists, row_deg = _padded(r, c + 1, rows)
    names = np.array(list(map(str, range(max(rows, cols) + 1))),
                     dtype=object)
    lines = [
        f"{cols} {rows}",
        f"{col_lists.shape[1]} {row_lists.shape[1]}",
        " ".join(names[col_deg].tolist()),
        " ".join(names[row_deg].tolist()),
        *map(" ".join, names[col_lists].tolist()),
        *map(" ".join, names[row_lists].tolist()),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _padded(owner, entries, count):
    """(lists, degrees): the entries of each of count lists, given
    grouped by a nondecreasing owner, as the rows of an int array padded
    with 0 to the largest degree, and each list's degree."""
    deg = np.bincount(owner, minlength=count)
    lists = np.zeros((count, deg.max(initial=0)), dtype=np.int64)
    # an entry's place in its list: its position less its list's start
    place = np.arange(len(owner)) - (np.cumsum(deg) - deg)[owner]
    lists[owner, place] = entries
    return lists, deg


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

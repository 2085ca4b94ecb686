"""alist and dense interchange formats."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import f2, matio

HAM = np.array([[0, 0, 0, 1, 1, 1, 1],
                [0, 1, 1, 0, 0, 1, 1],
                [1, 0, 1, 0, 1, 0, 1]], dtype=np.uint8)


def test_alist_roundtrip(tmp_path):
    p = tmp_path / "ham.alist"
    matio.write_alist(HAM, p)
    assert (matio.read_alist(p) == HAM).all()


def test_alist_header_convention(tmp_path):
    """Line 1 is 'N M' (columns first), line 2 the max degrees."""
    p = tmp_path / "ham.alist"
    matio.write_alist(HAM, p)
    lines = p.read_text().splitlines()
    assert lines[0].split() == ["7", "3"]
    assert lines[1].split() == ["3", "4"]  # max col degree 3, max row degree 4


def test_alist_zero_rows_and_columns(tmp_path):
    m = np.zeros((3, 4), dtype=np.uint8)
    m[1, 2] = 1
    p = tmp_path / "sparse.alist"
    matio.write_alist(m, p)
    assert (matio.read_alist(p) == m).all()


def test_alist_rejects_bad_index(tmp_path):
    p = tmp_path / "bad.alist"
    p.write_text("2 2\n1 1\n1 1\n1 1\n9\n2\n1\n2\n")
    with pytest.raises(ValueError):
        matio.read_alist(p)


def test_alist_rejects_inconsistent_rows(tmp_path):
    p = tmp_path / "bad.alist"
    # column list says (1,1) is set, row list disagrees
    p.write_text("2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n")
    with pytest.raises(ValueError):
        matio.read_alist(p)
    # column lists set (1,1), (1,2) and (2,2); row 1 lists only column 1,
    # so every row entry is found in the columns but row 1 is short
    p.write_text("2 2\n2 1\n1 2\n1 1\n1 0\n1 2\n1\n2\n")
    with pytest.raises(ValueError, match="row 0"):
        matio.read_alist(p)
    # a repeated index inflates the degree without adding an entry
    p.write_text("2 2\n2 2\n2 1\n2 1\n1 1\n2 0\n1 1\n2 0\n")
    with pytest.raises(ValueError, match="column 0"):
        matio.read_alist(p)


def test_roundtrip_random_many(tmp_path):
    rng = np.random.default_rng(42)
    for trial in range(20):
        m = rng.integers(0, 2, (rng.integers(1, 9), rng.integers(1, 9)),
                         dtype=np.uint8)
        p = tmp_path / f"r{trial}.alist"
        matio.write_alist(m, p)
        assert (matio.read_alist(p) == m).all()


def test_write_is_deterministic(tmp_path):
    a, b = tmp_path / "a.alist", tmp_path / "b.alist"
    matio.write_alist(HAM, a)
    matio.write_alist(HAM, b)
    assert a.read_bytes() == b.read_bytes()


def loop_read_alist(path):
    """The token-at-a-time reader read_alist replaced, kept as its oracle."""
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


def outcome(read, path):
    """The matrix a reader returns, or the type and text of its error."""
    try:
        return read(path).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


def alist_tokens(m, tmp_path):
    p = tmp_path / "m.alist"
    matio.write_alist(m, p)
    return p.read_text().split()


@st.composite
def matrices(draw):
    shape = (draw(st.integers(0, 9)), draw(st.integers(0, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (rng.random(shape) < draw(st.floats(0, 1))).astype(np.uint8)


# one edit of a token list: truncate, or put a token in place of / before
# token k, where the new token is junk, an index edge, a copy of another
# token (a repeated index) or a small integer (a degree or header change)
JUNK = ["x", "1.5", "0x1", "--1", "1e3", "+2", "1_0", "007"]
edits = st.tuples(st.sampled_from(["cut", "set", "insert"]),
                  st.floats(0, 1, exclude_max=True),
                  st.sampled_from(JUNK) | st.sampled_from(["0", "-1"])
                  | st.integers(-2, 12).map(str)
                  | st.floats(0, 1, exclude_max=True))


def apply_edit(tokens, edit):
    kind, where, new = edit
    k = int(where * len(tokens)) if tokens else 0
    if kind == "cut":
        return tokens[:k]
    if isinstance(new, float):
        new = tokens[int(new * len(tokens))] if tokens else "0"
    if kind == "set" and tokens:
        return tokens[:k] + [new] + tokens[k + 1:]
    return tokens[:k] + [new] + tokens[k:]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_read_alist_matches_loop_on_valid_files(tmp_path_factory, m):
    p = tmp_path_factory.mktemp("valid") / "m.alist"
    matio.write_alist(m, p)
    got = matio.read_alist(p)
    assert got.dtype == np.uint8 and got.shape == m.shape
    assert (got == m).all() and (got == loop_read_alist(p)).all()


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_write_alist_matches_loop_writer(tmp_path_factory, loop_write_alist,
                                         m):
    # empty lists, 0 rows and 0 columns included
    tmp = tmp_path_factory.mktemp("write")
    matio.write_alist(m, tmp / "new.alist")
    loop_write_alist(m, tmp / "old.alist")
    assert (tmp / "new.alist").read_bytes() == (tmp / "old.alist").read_bytes()


@given(matrices(), st.lists(edits, min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
def test_read_alist_rejects_as_the_loop_reader(tmp_path_factory, m, changes):
    tmp = tmp_path_factory.mktemp("bad")
    tokens = alist_tokens(m, tmp)
    for change in changes:
        tokens = apply_edit(tokens, change)
    p = tmp / "bad.alist"
    p.write_text(" ".join(tokens))
    # same matrix, or the same first bad entry named in the same words
    assert outcome(matio.read_alist, p) == outcome(loop_read_alist, p)


HAM_TEXT = "7 3\n3 4\n1 1 2 1 2 2 3\n4 4 4\n" \
    "3 0 0\n2 0 0\n2 3 0\n1 0 0\n1 3 0\n1 2 0\n1 2 3\n" \
    "4 5 6 7\n2 3 6 7\n1 3 5 7\n"


@pytest.mark.parametrize("text, message", [
    ("7 3\n3 4\n1 1 2\n", "truncated alist file: "),
    (HAM_TEXT.rsplit(" ", 1)[0], "truncated alist file: "),
    (HAM_TEXT.replace("2 3 0", "2 x 0"),
     "invalid literal for int() with base 10: 'x'"),
    (HAM_TEXT.replace("2 3 0", "2 0 0"), "column 2: row index 0 out of range"),
    (HAM_TEXT.replace("1 0 0\n1 3 0", "1 0 0\n1 4 0"),
     "column 4: row index 4 out of range"),
    (HAM_TEXT.replace("2 3 0", "2 2 0"),
     "column 2: degree 2 does not match its distinct row indices [2, 2]"),
    (HAM_TEXT.replace("1 1 2 1 2 2 3", "1 1 2 1 2 2 4"),
     "column 6: degree 4 does not match its distinct row indices [1, 2, 3]"),
    (HAM_TEXT.replace("2 3 6 7", "2 3 6 5"),
     "row 1: degree 4 and columns [2, 3, 5, 6] disagree with the column "
     "lists [2, 3, 6, 7]"),
], ids=["header", "last-row", "token", "index-0", "index-high", "repeat",
        "degree", "row-list"])
def test_read_alist_error_names_first_bad_entry(tmp_path, text, message):
    p = tmp_path / "bad.alist"
    p.write_text(text)
    with pytest.raises(ValueError) as exc:
        matio.read_alist(p)
    assert str(exc.value).startswith(message)
    assert outcome(loop_read_alist, p) == (ValueError, str(exc.value))


def test_read_alist_ham_text(tmp_path):
    p = tmp_path / "ham.alist"
    p.write_text(HAM_TEXT)
    assert (matio.read_alist(p) == HAM).all()


def test_read_alist_rejects_int64_overflow(tmp_path):
    # the loop reader accepted any int in padding; no such file is written
    p = tmp_path / "big.alist"
    p.write_text(HAM_TEXT.replace("3 0 0", "3 0 99999999999999999999"))
    with pytest.raises(ValueError, match="int64 range"):
        matio.read_alist(p)

"""alist and dense interchange formats."""
import numpy as np
import pytest

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

"""Test-only helpers shared by several test modules, as fixtures."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from codeforge import f2
from codeforge.classical import LowerBound
from codeforge.soundness import quarter_square


def _tanner_components(m):
    """Connected components of the check/qubit graph of m, as
    (qubit-index set, check-index set) pairs; an isolated qubit or an
    empty check is a component of its own."""
    rows, cols = m.shape
    # union-find over checks [0, rows) and qubits [rows, rows + cols)
    parent = list(range(rows + cols))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in np.argwhere(m):
        parent[find(int(i))] = find(rows + int(j))
    groups: dict[int, tuple[set, set]] = {}
    for v in range(rows + cols):
        qubits, checks = groups.setdefault(find(v), (set(), set()))
        if v < rows:
            checks.add(v)
        else:
            qubits.add(v - rows)
    return list(groups.values())


def _pauli(n, qubit, p):
    """Weight-1 error on n qubits as an (ex | ez) vector: p in {'X', 'Y',
    'Z'} on the given qubit; Y sets both bits."""
    if p not in ("X", "Y", "Z"):
        raise ValueError(f"unknown Pauli {p!r}")
    e = np.zeros(2 * n, dtype=np.uint8)
    if p != "Z":
        e[qubit] = 1
    if p != "X":
        e[n + qubit] = 1
    return e


def _pauli_weight(e):
    """Qubits on which the (ex | ez) vector e acts: X, Y or Z."""
    n = len(e) // 2
    return int(np.count_nonzero(e[:n] | e[n:]))


def _single_shot_trial(model, e, u, budget=4):
    """One noisy-readout decode, one trial and one SupportMatcher.find_min
    call at a time: the per-trial decoder that StabilizerModel's batch
    stages replaced, kept as their oracle.

    Repairs the observed syndrome, decodes it, reduces the residual over
    the stabilizer coset and compares it with quarter_square(2 |u|).

    Returns:
        (rw, passed, logical, aborted): the residual's reduced weight,
        LowerBound(budget) when a search exhausts the budget; whether rw
        meets the bound; whether the residual is a logical failure; and
        the stage whose search aborted, "repair" or "decode", or None.
    """
    def find(matcher, v):
        return matcher.find_min(f2.columns_as_ints(v.reshape(-1, 1))[0],
                                budget)

    s = f2.mat_vec(model.syndrome_map, e) ^ f2.as_f2_vector(u)
    ann, repair = model._meta_tools()
    resid = f2.mat_vec(ann, s)
    if resid.any():
        w, supp = find(repair, resid)
        if w is None:
            return LowerBound(budget), False, False, "repair"
        for i, _ in supp:
            s[i] ^= 1
    w, supp = find(model._decode_tools(), s)
    if w is None:
        return LowerBound(budget), False, False, "decode"
    residual = e.copy()
    # X and Y set the X bit, Z and Y the Z bit
    for q, p in supp:
        residual[q] ^= p != "Z"
        residual[model.n + q] ^= p != "X"
    member, coset = model._coset_tools()
    w, _ = find(coset, f2.mat_vec(member, residual))
    rw = LowerBound(budget) if w is None else w
    # a LowerBound is never 0: only a stabilizer reduces to 0
    logical = not f2.mat_vec(model.syndrome_map, residual).any() and rw != 0
    bound = quarter_square(2 * f2.weight(u))
    passed = not isinstance(rw, LowerBound) and Fraction(rw) <= bound
    return rw, passed, logical, None


def _dense_bits(words):
    """SupportMatcher._bits from a dense unpack of every entry bit, the
    way it was built before it read only the set bits, kept as its
    oracle: (rank, ranked, starts, holders, dead) of entry words (W,
    count)."""
    held = np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8),
                         axis=1, bitorder="little")
    count = held.sum(axis=0)
    order = np.argsort(count, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    starts = np.zeros(len(order) + 1, dtype=np.intp)
    np.cumsum(count[order], out=starts[1:])
    by_rank = held.take(order, axis=1)
    ranked = np.packbits(by_rank, axis=1, bitorder="little").view("<u8").T
    return (rank, ranked, starts, by_rank.T.nonzero()[1],
            int(np.count_nonzero(count == 0)))


def _loop_write_alist(m, path):
    """The column-at-a-time alist writer that matio.write_alist
    replaced, kept as its oracle."""
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


def _loop_row_echelon(m):
    """The column-at-a-time RREF that f2.row_echelon replaced, kept as
    its oracle: one pivot search and one row XOR per column."""
    r = f2.as_f2(m).copy()
    rows, cols = r.shape
    pivot_cols: list[int] = []
    prow = 0
    for c in range(cols):
        if prow >= rows:
            break
        hits = np.nonzero(r[prow:, c])[0]
        if hits.size == 0:
            continue
        p = prow + int(hits[0])
        if p != prow:
            r[[prow, p]] = r[[p, prow]]
        # clear every other 1 in this column (full reduction)
        others = np.nonzero(r[:, c])[0]
        others = others[others != prow]
        if others.size:
            r[others] ^= r[prow]
        pivot_cols.append(c)
        prow += 1
    return r, pivot_cols


def _brute_distance(h):
    """Minimum nonzero codeword weight by enumerating all 2^k codewords
    of the kernel basis span, or None when the kernel is trivial."""
    basis = f2.kernel_basis(h)
    k = basis.shape[0]
    if k == 0:
        return None
    best = None
    for bits in itertools.product((0, 1), repeat=k):
        if not any(bits):
            continue
        v = np.zeros(h.shape[1], dtype=np.uint8)
        for i, b in enumerate(bits):
            if b:
                v ^= basis[i]
        w = int(v.sum())
        best = w if best is None or w < best else best
    return best


def _brute_betti(c, k):
    """dim ker d_k - rank d_{k+1} of a ChainComplex, maps off the ends
    read as zero, by rank-nullity with an integer-bitmask rank,
    independent of f2."""
    def bitrank(m):
        basis = {}
        for r in m:
            v = int("".join(map(str, r)), 2) if r.size else 0
            while v:
                top = v.bit_length()
                if top not in basis:
                    basis[top] = v
                    break
                v ^= basis[top]
        return len(basis)

    ker = c.dim(k) - (bitrank(c.boundary(k)) if k >= 1 else 0)
    img = bitrank(c.boundary(k + 1)) if k + 1 <= c.length else 0
    return ker - img


def _tagged_equals(a, b):
    """Bit-exact equality of two BlockTaggedCss codes: all band matrices
    and syndrome checks (the BlockTaggedCss.equals method that was
    deleted, kept as a test helper)."""
    if len(a.bands) != len(b.bands) or a.col_sizes != b.col_sizes:
        return False
    for p, q in zip(a.bands, b.bands):
        if p.x.shape != q.x.shape or (p.x != q.x).any() or (p.z != q.z).any():
            return False
    for m, o in ((a.hsx, b.hsx), (a.hsz, b.hsz)):
        if (m is None) != (o is None):
            return False
        if m is not None and (m.shape != o.shape or (m != o).any()):
            return False
    return True


def _first_support(matcher, target, weight, start=0):
    """The lexicographically first support of exactly the given weight
    that uses only entries from index start on, as (group, tag) pairs,
    or None: the first row of SupportMatcher.supports whose first entry
    is start or later (supports lists its rows in lexicographic order)."""
    rows = matcher.supports(weight, target)
    if weight:
        rows = rows[rows[:, 0] >= start]
    if not len(rows):
        return None
    return [matcher.entries[i][:2] for i in rows[0].tolist()]


@pytest.fixture
def tanner_components():
    return _tanner_components


@pytest.fixture(scope="session")
def pauli():
    return _pauli


@pytest.fixture(scope="session")
def pauli_weight():
    return _pauli_weight


@pytest.fixture(scope="session")
def single_shot_trial():
    return _single_shot_trial


@pytest.fixture(scope="session")
def dense_bits():
    return _dense_bits


@pytest.fixture(scope="session")
def loop_write_alist():
    return _loop_write_alist


@pytest.fixture(scope="session")
def loop_row_echelon():
    return _loop_row_echelon


@pytest.fixture(scope="session")
def brute_distance():
    return _brute_distance


@pytest.fixture(scope="session")
def brute_betti():
    return _brute_betti


@pytest.fixture(scope="session")
def tagged_equals():
    return _tagged_equals


@pytest.fixture(scope="session")
def first_support():
    return _first_support

"""Classical linear codes over GF(2): parameters, transpose codes, stock
constructions, the direct product of two codes, and SupportMatcher, the
one support-search engine that distance searches, soundness scans and
the single-shot decoder share.

A code is the kernel of its parity-check matrix h; parameters are
[n, k, d] with n = cols(h), k = n - rank(h), d the minimum weight of a
nonzero kernel element.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import f2


class _Undefined:
    """Tagged sentinel for the distance of a k = 0 code."""

    def __repr__(self):
        return "undefined"


UNDEFINED = _Undefined()


@dataclass(frozen=True)
class LowerBound:
    """Distance search outcome 'd > value' when the weight cap was hit."""

    value: int

    def __repr__(self):
        return f"> {self.value}"


_WORD = (1 << 64) - 1


def _fold(v: int) -> int:
    """XOR of the 64-bit words of v.

    GF(2)-linear, so fold(a ^ b) == fold(a) ^ fold(b), and equal to v when
    v fits in 64 bits.  Equal folds only make candidates: the search
    compares full values before it accepts one.
    """
    f = 0
    while v:
        f ^= v & _WORD
        v >>= 64
    return f


class SupportMatcher:
    """Support search: entry subsets whose values XOR to a target.

    Entries are (group, tag, packed-int) triples; a valid support uses
    strictly increasing group ids, so at most one entry per group.  Plain
    column searches use group = column index; Pauli searches put the X, Z
    and Y columns of one qubit in the same group.

    Two questions share one set of tables.  find and find_min answer
    with one support, the lexicographically first tuple of entry indices
    in sorted-entry order, so the first outer entry (weight 3) or outer
    pair (weight 4) with any valid completion wins, with the first such
    completion.  supports lists every support of one weight.

    Cost, for n entries.  The pair table holds all ~n^2/2 pairs of
    entries from different groups, sorted by the 64-bit fold of their
    XOR, at 16 bytes a pair; it is built at the first question of weight
    3 or more, so searches whose answers all have weight 1 or 2 never
    build it.  find at weight 1 is one dictionary probe and at weight 2
    n of them.  At weight 3 it looks the target XOR each entry up in the
    pair table, in one vectorised call of n keys; each higher weight
    recurses on its first entry, so a weight-4 miss is n such calls, with
    temporaries of about n elements, and a hit stops at once.  supports
    joins sorted tables in whole-array numpy calls: weight 2 is the n
    entries against the entries sorted by fold, weight 3 the n entries
    against the pair table, and weight 4 the pair table against itself,
    so its time and memory grow with the ~n^2/2 pairs plus the number of
    candidates whose folds match.  Weight 5 and up recurse on the first
    entry, one weight-4 join per entry.  Every candidate is checked on
    its full value, one 64-bit word at a time.
    """

    def __init__(self, entries: list[tuple[int, object, int]]):
        self.entries = sorted(entries)
        self._groups = [g for g, _, _ in self.entries]
        self._values = [v for _, _, v in self.entries]
        # _after[i]: index of the first entry in a group above entry i's
        self._after = [bisect.bisect_right(self._groups, g)
                       for g in self._groups]
        self._singles: dict[int, list[int]] | None = None
        self._folds = None
        self._words = None
        self._pairs = None

    @classmethod
    def for_columns(cls, m) -> "SupportMatcher":
        """Matcher over the columns of m: column j is entry (j, j)."""
        return cls([(j, j, v) for j, v in enumerate(f2.columns_as_ints(m))])

    @classmethod
    def for_paulis(cls, m) -> "SupportMatcher":
        """Matcher over single-qubit Paulis for a map acting on errors
        written (ex | ez): qubit q is one group, with entries X (column
        q), Z (column n + q) and Y (their XOR)."""
        cols = f2.columns_as_ints(m)
        n = len(cols) // 2
        return cls([(q, p, v) for q in range(n)
                    for p, v in (("X", cols[q]), ("Z", cols[n + q]),
                                 ("Y", cols[q] ^ cols[n + q]))])

    def _single_table(self) -> dict[int, list[int]]:
        """Value -> indices of the entries holding it, in entry order."""
        if self._singles is None:
            self._singles = {}
            for i, v in enumerate(self._values):
                self._singles.setdefault(v, []).append(i)
        return self._singles

    def _fold_array(self) -> np.ndarray:
        if self._folds is None:
            self._folds = np.array([_fold(v) for v in self._values],
                                   dtype=np.uint64)
        return self._folds

    def _word_table(self) -> np.ndarray:
        """(words, n) uint64 array: row k holds the k-th 64-bit word of
        every entry value, least significant word first."""
        if self._words is None:
            width = max((v.bit_length() for v in self._values), default=0)
            nwords = max(1, -(-width // 64))
            raw = b"".join(v.to_bytes(8 * nwords, "little")
                           for v in self._values)
            self._words = np.frombuffer(raw, dtype="<u8").reshape(
                len(self._values), nwords).T.astype(np.uint64)
        return self._words

    def _pair_table(self):
        """(pair keys, first and second pair indices).

        Holds every pair i < j of entries in different groups, sorted by
        the fold of their XOR; pairs with equal keys stay in (i, j)
        order, so the first exact match in a key's run is the
        lexicographically first pair.
        """
        if self._pairs is None:
            n = len(self._values)
            folds = self._fold_array()
            after = np.array(self._after, dtype=np.int32)
            counts = n - after
            # pairs (i, after[i]), ..., (i, n - 1) for each i in turn
            shift = np.cumsum(counts, dtype=np.int32) - counts - after
            first = np.repeat(np.arange(n, dtype=np.int32), counts)
            second = np.arange(len(first), dtype=np.int32)
            second -= shift[first]
            keys = folds[first] ^ folds[second]
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = first[order]
            second = second[order]
            self._pairs = (keys, first, second)
        return self._pairs

    def _triple(self, target: int, start: int):
        """First support (b, c, d) with b from index `start` on: one
        pair-table lookup of target ^ value(b) for every such b."""
        keys, first, second = self._pair_table()
        if not len(keys):
            return None
        vals, after = self._values, self._after
        q = np.uint64(_fold(target)) ^ self._fold_array()[start:]
        lo = keys.searchsorted(q)
        # clipping is safe: lo == len(keys) means every key is below q
        for off in (keys.take(lo, mode="clip") == q).nonzero()[0]:
            b = start + int(off)
            rest = target ^ vals[b]
            p = int(lo[off])
            while p < len(keys) and keys[p] == q[off]:
                c, d = int(first[p]), int(second[p])
                if c >= after[b] and vals[c] ^ vals[d] == rest:
                    return b, c, d
                p += 1
        return None

    def _search(self, target: int, weight: int, start: int):
        """Index tuple of the first support of the given weight that uses
        only entries from index `start` on, or None."""
        vals, after = self._values, self._after
        if weight == 0:
            return () if target == 0 else None
        if weight == 1:
            for i in self._single_table().get(target, ()):
                if i >= start:
                    return (i,)
            return None
        if weight == 2:
            singles = self._single_table()
            for i in range(start, len(vals)):
                for j in singles.get(target ^ vals[i], ()):
                    if j >= after[i]:
                        return i, j
            return None
        if weight == 3:
            return self._triple(target, start)
        for i in range(start, len(vals)):
            rest = self._search(target ^ vals[i], weight - 1, after[i])
            if rest is not None:
                return (i,) + rest
        return None

    def find(self, target: int, weight: int, min_group: int = -1):
        """One support of exactly the given weight, as (group, tag) pairs
        with groups above min_group, or None."""
        start = bisect.bisect_right(self._groups, min_group)
        got = self._search(target, weight, start)
        if got is None:
            return None
        return [self.entries[i][:2] for i in got]

    def find_min(self, target: int, cap: int):
        """(weight, support) of a minimum-weight match, or (None, None)."""
        for w in range(cap + 1):
            got = self.find(target, w)
            if got is not None:
                return w, got
        return None, None

    def supports(self, weight: int, target: int = 0) -> np.ndarray:
        """Every support of the given weight whose values XOR to target.

        Returns:
            An int64 array of shape (count, weight).  Each row holds the
            indices into self.entries of one support, in increasing
            order, and the rows come in lexicographic order.
        """
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        return self._all(target, weight, 0)

    def _all(self, target: int, weight: int, start: int) -> np.ndarray:
        """supports(weight, target), restricted to entries from index
        `start` on."""
        n = len(self._values)
        if weight == 0:
            return np.zeros((1 if target == 0 else 0, 0), dtype=np.int64)
        if weight >= 5:
            vals, after = self._values, self._after
            parts = [np.zeros((0, weight), dtype=np.int64)]
            for a in range(start, n):
                rest = self._all(target ^ vals[a], weight - 1, after[a])
                if len(rest):
                    parts.append(np.column_stack(
                        [np.full(len(rest), a, dtype=np.int64), rest]))
            return np.concatenate(parts)
        folds = self._fold_array()
        if weight == 1:
            fold = np.uint64(_fold(target))
            hit = start + (folds[start:] == fold).nonzero()[0]
            return self._exact(hit[:, None], target)
        tail = (folds[start:], [np.arange(start, n)])
        if weight == 2:
            order = np.argsort(folds, kind="stable")
            return self._join(target, tail, (folds[order], [order]))
        keys, first, second = self._pair_table()
        pairs = (keys, [first, second])
        if weight == 3:
            return self._join(target, tail, pairs)
        if not start:
            # a masked copy would cost another 16 bytes a pair
            return self._join(target, pairs, pairs)
        keep = first >= start
        return self._join(target, (keys[keep], [first[keep], second[keep]]),
                          pairs)

    def _join(self, target: int, left, right) -> np.ndarray:
        """Supports made of one left item followed by one right item.

        Each side is (fold keys, index columns); the right keys are
        sorted.  Every left item is matched with the run of right items
        whose key is the target's fold XOR its own, and a combination is
        kept when the right item starts in a group above the left item's
        last one and the values XOR to the target exactly.
        """
        lkeys, lcols = left
        rkeys, rcols = right
        q = lkeys ^ np.uint64(_fold(target))
        lo = rkeys.searchsorted(q, "left")
        count = rkeys.searchsorted(q, "right") - lo
        li = np.repeat(np.arange(len(q)), count)
        # right index: lo of the item's run plus the offset within it
        ri = np.arange(len(li)) + np.repeat(lo - np.cumsum(count) + count,
                                            count)
        after = np.array(self._after, dtype=np.int64)
        keep = rcols[0][ri] >= after[lcols[-1][li]]
        li, ri = li[keep], ri[keep]
        got = np.column_stack([c[li] for c in lcols]
                              + [c[ri] for c in rcols]).astype(np.int64)
        return self._exact(got, target)

    def _exact(self, got: np.ndarray, target: int) -> np.ndarray:
        """The rows of got whose entry values XOR to target, sorted
        lexicographically."""
        words = self._word_table()
        if target >> (64 * len(words)):
            return got[:0]
        ok = np.ones(len(got), dtype=bool)
        for k, row in enumerate(words):
            want = np.uint64((target >> (64 * k)) & _WORD)
            ok &= np.bitwise_xor.reduce(row[got], axis=1) == want
        got = got[ok]
        return got[np.lexsort(got.T[::-1])]


def kernel_supports_of_weight(m, w: int):
    """Yield every support (sorted column tuple) of a weight-w kernel vector.

    The supports are those of weight w whose packed columns XOR to zero,
    listed by one SupportMatcher (group = column) in lexicographic order.
    The whole weight shell is built before the first one is yielded.

    Args:
        m: Check matrix.
        w: Exact Hamming weight to search, w >= 0.
    """
    for supp in SupportMatcher.for_columns(m).supports(w).tolist():
        yield tuple(supp)


def min_kernel_weight(m, max_weight: int | None = None,
                      enum_limit: int = 20) -> int | LowerBound | _Undefined:
    """Minimum weight of a nonzero kernel element of m.

    Strategy: when the kernel dimension is small enough, enumerate all
    2^k - 1 codewords from the RREF basis (gray-code order, one XOR per
    step); otherwise search supports by increasing weight up to max_weight
    and report a lower bound if nothing is found.

    Returns:
        The exact distance, a LowerBound, or UNDEFINED when the kernel is
        trivial.
    """
    m = f2.as_f2(m)
    basis = f2.kernel_basis(m)
    k = basis.shape[0]
    if k == 0:
        return UNDEFINED
    if k <= enum_limit:
        best = None
        cur = np.zeros(m.shape[1], dtype=np.uint8)
        for idx in range(1, 2 ** k):
            # gray code: flip the basis row at the lowest set bit of idx
            cur = cur ^ basis[(idx & -idx).bit_length() - 1]
            wt = f2.weight(cur)
            if best is None or wt < best:
                best = wt
        return int(best)
    cap = max_weight if max_weight is not None else m.shape[1]
    for w in range(1, cap + 1):
        for _ in kernel_supports_of_weight(m, w):
            return w
    return LowerBound(cap)


class ClassicalCode:
    """A parity-check matrix plus lazily cached parameters.

    Attributes:
        h: Check matrix, shape (m, n).
        name: Optional human-readable tag used in manifests.
    """

    def __init__(self, h, name: str = ""):
        self.h = f2.as_f2(h)
        self.name = name
        self._rank: int | None = None

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def k(self) -> int:
        if self._rank is None:
            self._rank = f2.rank(self.h)
        return self.n - self._rank

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        return f"<ClassicalCode{label} n={self.n} k={self.k}>"


def params(c: ClassicalCode, max_weight: int | None = None):
    """Exact (n, k, d-or-flag) for a classical code.

    Args:
        c: The code.
        max_weight: Weight cap for the support search fallback; ignored when
            full codeword enumeration is feasible.

    Returns:
        (n, k, d) with d an int when exact, LowerBound when capped, or
        UNDEFINED for k = 0.
    """
    if max_weight is not None and max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    return c.n, c.k, min_kernel_weight(c.h, max_weight)


def transpose_code(c: ClassicalCode) -> ClassicalCode:
    """The code checked by h transposed; length = rows(h)."""
    return ClassicalCode(c.h.T.copy(), name=f"{c.name}^T" if c.name else "")


def repetition_closed_loop(n: int) -> ClassicalCode:
    """Ring-arranged repetition code: n x n circulant with rows e_i + e_{i+1}.

    Rank n - 1; both the kernel and the transpose kernel are {0, all-ones},
    which is the premise the syndrome-encoded families rely on.

    Raises:
        ValueError: if n < 2.
    """
    if n < 2:
        raise ValueError("repetition ring needs n >= 2")
    h = f2.zeros(n, n)
    for i in range(n):
        h[i, i] = 1
        h[i, (i + 1) % n] = 1
    return ClassicalCode(h, name=f"rep{n}")


def repetition_open(n: int) -> ClassicalCode:
    """Full-rank (n-1) x n repetition check with rows e_i + e_{i+1}."""
    if n < 2:
        raise ValueError("repetition code needs n >= 2")
    h = f2.zeros(n - 1, n)
    for i in range(n - 1):
        h[i, i] = 1
        h[i, i + 1] = 1
    return ClassicalCode(h, name=f"rep{n}open")


def hamming_7_4() -> ClassicalCode:
    """The [7,4,3] Hamming code with columns 1..7 in binary."""
    h = f2.as_f2([
        [0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
    ])
    return ClassicalCode(h, name="hamming74")


def direct_product(c1: ClassicalCode, c2: ClassicalCode) -> ClassicalCode:
    """Code of n1 x n2 matrices with columns in c1 and rows in c2.

    The check matrix is the stack [h1 (x) I_{n2} ; I_{n1} (x) h2]; a kernel
    vector reshaped row-major to (n1, n2) has every column in c1 and every
    row in c2, and conversely.  Parameters multiply: [n1 n2, k1 k2, d1 d2].
    """
    upper = f2.kron(c1.h, f2.identity(c2.n))
    lower = f2.kron(f2.identity(c1.n), c2.h)
    h = f2.block_compose([[upper], [lower]])
    name = f"{c1.name}x{c2.name}" if (c1.name or c2.name) else ""
    return ClassicalCode(h, name=name)

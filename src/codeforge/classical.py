"""Classical linear codes over GF(2): parameters, the repetition codes,
and SupportMatcher, the one support-search engine that distance
searches, soundness scans and the single-shot decoder share.

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
_KEY_SEED = 0x2545F4914F6CDD1D
# left pairs per weight-4 join step; bounds the join's temporaries
_BLOCK = 1 << 16
# largest kernel dimension whose 2^k codewords min_kernel_weight lists
_ENUM_LIMIT = 20


def _key_tables(nbytes: int) -> np.ndarray:
    """(nbytes, 256) uint64 tables of the support-search key.

    The key of a value is the XOR over its little-endian bytes j of
    entry [j, byte j]: a fixed pseudo-random GF(2)-linear map of all of
    its bits to 64 bits, so key(a ^ b) == key(a) ^ key(b).  Unlike an
    XOR of 64-bit words it does not collapse on values built from
    repeated blocks.  Bit k of byte j owns a basis word, output
    8j + k + 1 of splitmix64 seeded with _KEY_SEED, so a value's key does
    not depend on the width it is padded to; entry [j, b] is the XOR of
    the basis words of the set bits of b.
    """
    with np.errstate(over="ignore"):
        z = np.arange(1, 8 * nbytes + 1, dtype=np.uint64)
        z = z * np.uint64(0x9E3779B97F4A7C15) + np.uint64(_KEY_SEED)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    basis = (z ^ (z >> np.uint64(31))).reshape(nbytes, 8)
    tables = np.zeros((nbytes, 256), dtype=np.uint64)
    for k in range(8):
        tables[:, 1 << k:2 << k] = tables[:, :1 << k] ^ basis[:, k, None]
    return tables


class _KeyIndex:
    """Items sorted by key, addressed directly by the keys' top bits.

    Bucket b, the items whose key starts with the bits of b, is
    keys[offsets[b]:offsets[b + 1]].  The bucket count is the least power
    of two at or above the item count, so a bucket holds 0.5 to 1 items
    on average.
    """

    def __init__(self, keys: np.ndarray, cols: list[np.ndarray]):
        self.keys, self.cols = keys, cols
        bits = max(1, (len(keys) - 1).bit_length())
        self.shift = np.uint64(64 - bits)
        # bucket sizes, counted a block of sorted keys at a time, then
        # summed in place into bucket starts
        self.offsets = np.zeros((1 << bits) + 1, dtype=np.int32)
        for s in range(0, len(keys), _BLOCK):
            top = (keys[s:s + _BLOCK] >> self.shift).astype(np.intp)
            self.offsets[top[0] + 1:top[-1] + 2] += np.bincount(top - top[0])
        np.cumsum(self.offsets, out=self.offsets)

    def probe(self, q: np.ndarray):
        """(query, item) positions of every item whose key equals a query."""
        if not len(self.keys):
            return np.zeros((2, 0), dtype=np.intp)
        bucket = (q >> self.shift).astype(np.intp)
        lo = self.offsets[bucket]
        # keys are sorted, so a query below the first key at or after its
        # bucket's start has no match: its bucket is empty, or starts
        # above it (a start past the end clips to a smaller key)
        live = (self.keys.take(lo, mode="clip") <= q).nonzero()[0]
        lo = lo[live]
        count = self.offsets[1:][bucket[live]] - lo
        qi = np.repeat(live, count)
        # item position: lo of the query's bucket plus the offset within it
        ii = np.arange(len(qi)) + np.repeat(lo - np.cumsum(count) + count,
                                            count)
        same = self.keys[ii] == q[qi]
        return qi[same], ii[same]


class SupportMatcher:
    """Support search: entry subsets whose values XOR to a target.

    Entries are (group, tag, packed-int) triples; a valid support uses
    strictly increasing group ids, so at most one entry per group.  Plain
    column searches use group = column index; Pauli searches put the X, Z
    and Y columns of one qubit in the same group.

    Three questions share one set of tables.  find and find_min answer
    with one support, the lexicographically first tuple of entry indices
    in sorted-entry order.  supports lists every support of one weight,
    in that order.  least_weight gives the least weight of a zero-XOR
    support that a caller's test accepts: every distance in the package.

    Cost, for n entries.  Each entry is keyed by a fixed random
    GF(2)-linear map of its value to 64 bits (_key_tables), so a set's
    key is the XOR of its entries' keys.

    - find at weight 1 is one dictionary probe and at weight 2 n of
      them.  A soundness scan makes thousands of such tiny searches, and
      sending them through the key index doubled the rsh1 rep:3 scan
      (0.11 to 0.22 s on a 2-CPU host), so the dictionary stays.
    - Every other search is one join of key-indexed tables: weight 2
      (for supports) joins the n entries with the entries, weight 3 the
      n entries with the pair table, and weight 4 the pair table with
      itself.
    - The pair table holds all ~n^2/2 pairs of entries from different
      groups: 8 bytes of key and two int32 indices a pair, plus an int32
      offset per bucket of key top bits, at 0.5 to 1 pairs a bucket.  It
      is built at the first join of weight 3 or more.
    - A join looks each left item's query key up in its bucket, then
      compares full keys, then groups, then full values one 64-bit word
      at a time.
    - The weight-4 join takes its left pairs in blocks of _BLOCK, so its
      temporaries are bounded by the block and its matches, not by the
      table.  Its time grows with the ~n^2/2 pairs, hit or miss.  find
      keeps the least support of each block, and supports sorts the
      rows of all blocks once.
    - Weight 5 and up recurse on the first entry, one weight-4 join per
      entry, and give one block per first entry in increasing entry
      order; find stops at the first entry with a completion.
    - least_weight walks the same blocks weight by weight and stops at
      the first block holding an accepted support, so its memory is
      bounded by one block, not by the weight shell.
    """

    def __init__(self, entries: list[tuple[int, object, int]]):
        self.entries = sorted(entries)
        self._groups = [g for g, _, _ in self.entries]
        self._values = [v for _, _, v in self.entries]
        # _after[i]: index of the first entry in a group above entry i's
        self._after = [bisect.bisect_right(self._groups, g)
                       for g in self._groups]
        self._singles: dict[int, list[int]] | None = None
        self._arrays = None
        self._by_key = None
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

    def _tables(self):
        """(words, keys, after, key tables): words[k] holds the k-th 64-bit
        word of every entry value, least significant word first; keys the
        entries' keys (see _key_tables); after the _after list."""
        if self._arrays is None:
            width = max((v.bit_length() for v in self._values), default=0)
            nbytes = 8 * max(1, -(-width // 64))
            raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little")
                                         for v in self._values),
                                dtype=np.uint8).reshape(-1, nbytes)
            tables = _key_tables(nbytes)
            keys = np.zeros(len(raw), dtype=np.uint64)
            for j in range(nbytes):
                keys ^= tables[j][raw[:, j]]
            self._arrays = (raw.view("<u8").T.astype(np.uint64), keys,
                            np.array(self._after, dtype=np.int32), tables)
        return self._arrays

    def _key(self, target: int) -> np.uint64:
        """Key of a target no wider than the entries."""
        tables = self._tables()[3]
        raw = np.frombuffer(target.to_bytes(len(tables), "little"),
                            dtype=np.uint8)
        return np.bitwise_xor.reduce(tables[np.arange(len(tables)), raw])

    def _entry_index(self) -> _KeyIndex:
        if self._by_key is None:
            keys = self._tables()[1]
            order = np.argsort(keys).astype(np.int32)
            self._by_key = _KeyIndex(keys[order], [order])
        return self._by_key

    def _pair_index(self) -> _KeyIndex:
        """Every pair i < j of entries in different groups, indexed by
        the key of their XOR, as (first, second) int32 columns."""
        if self._pairs is None:
            _, keys, after, _ = self._tables()
            n = len(keys)
            counts = n - after
            # pairs (i, after[i]), ..., (i, n - 1) for each i in turn
            shift = np.cumsum(counts, dtype=np.int32) - counts - after
            first = np.repeat(np.arange(n, dtype=np.int32), counts)
            second = np.arange(len(first), dtype=np.int32)
            second -= np.repeat(shift, counts)
            pair_keys = np.repeat(keys, counts)
            pair_keys ^= keys.take(second)
            order = np.argsort(pair_keys)
            # gathering the keys again costs less memory than permuting
            del pair_keys
            first, second = first.take(order), second.take(order)
            del order
            pair_keys = keys.take(first)
            pair_keys ^= keys.take(second)
            self._pairs = _KeyIndex(pair_keys, [first, second])
        return self._pairs

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
        best = None
        for got in self._blocks(target, weight, start):
            if len(got):
                row = tuple(got[np.lexsort(got.T[::-1])[0]].tolist())
                best = row if best is None else min(best, row)
                if weight >= 5:
                    # blocks come in first-entry order, one per entry
                    break
        return best

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
        if weight == 0:
            return np.zeros((1 if target == 0 else 0, 0), dtype=np.int64)
        got = np.concatenate([np.zeros((0, weight), dtype=np.int64),
                              *self._blocks(target, weight, 0)])
        return got[np.lexsort(got.T[::-1])]

    def least_weight(self, cap: int, keep=None):
        """Least w in 1..cap with a zero-XOR support of weight w, else
        LowerBound(cap).  keep, when given, takes one join block of
        supports (rows of entry indices) and says whether it holds one
        that counts; the search stops at the first block where it does."""
        for w in range(1, cap + 1):
            for got in self._blocks(0, w, 0):
                if len(got) and (keep is None or keep(got)):
                    return w
        return LowerBound(cap)

    def _blocks(self, target: int, weight: int, start: int):
        """Yield, unsorted and in parts, every support of weight >= 1 that
        uses only entries from index `start` on.  Weight 5 and up yield
        one part per first entry that completes, in entry order."""
        words, keys, _, _ = self._tables()
        if target >> (64 * len(words)):
            return
        if weight >= 5:
            empty = np.zeros((0, weight - 1), dtype=np.int64)
            for a in range(start, len(keys)):
                rest = np.concatenate([empty, *self._blocks(
                    target ^ self._values[a], weight - 1, self._after[a])])
                if len(rest):
                    yield np.column_stack([np.full(len(rest), a), rest])
            return
        tkey = self._key(target)
        if weight == 1:
            hit = start + (keys[start:] == tkey).nonzero()[0]
            yield self._exact(hit[:, None], target)
            return
        mine = (keys[start:], [np.arange(start, len(keys), dtype=np.int32)])
        if weight == 2:
            yield self._join(target, tkey, mine, self._entry_index())
            return
        pairs = self._pair_index()
        if weight == 3:
            yield self._join(target, tkey, mine, pairs)
            return
        first, second = pairs.cols
        for s in range(0, len(pairs.keys), _BLOCK):
            block = slice(s, s + _BLOCK)
            left = (pairs.keys[block], [first[block], second[block]])
            if start:
                keep = first[block] >= start
                left = (left[0][keep], [c[keep] for c in left[1]])
            yield self._join(target, tkey, left, pairs)

    def _join(self, target: int, tkey, left, right: _KeyIndex) -> np.ndarray:
        """Supports made of one left item followed by one right item.

        The left side is (keys, index columns).  Every left item is
        matched with the right items whose key is tkey XOR its own, and a
        combination is kept when the right item starts in a group above
        the left item's last one and the values XOR to the target.
        """
        lkeys, lcols = left
        li, ri = right.probe(lkeys ^ tkey)
        after = self._tables()[2]
        keep = right.cols[0][ri] >= after.take(lcols[-1][li])
        li, ri = li[keep], ri[keep]
        return self._exact(np.column_stack([c[li] for c in lcols]
                                           + [c[ri] for c in right.cols]),
                           target)

    def _exact(self, got: np.ndarray, target: int) -> np.ndarray:
        """The rows of got whose entry values XOR to target, as int64."""
        words = self._tables()[0]
        ok = np.ones(len(got), dtype=bool)
        for k, row in enumerate(words):
            want = np.uint64((target >> (64 * k)) & _WORD)
            ok &= np.bitwise_xor.reduce(row[got], axis=1) == want
        return got[ok].astype(np.int64)


def kernel_supports_of_weight(m, w: int):
    """Yield every support (sorted column tuple) of a weight-w kernel vector.

    The supports are those of weight w whose packed columns XOR to zero,
    listed by one SupportMatcher (group = column) in lexicographic order.
    The whole weight shell is built before the first one is yielded.
    Distance searches do not use it; they call least_weight, which stops
    at the first join block holding a hit.

    Args:
        m: Check matrix.
        w: Exact Hamming weight to search, w >= 0.
    """
    for supp in SupportMatcher.for_columns(m).supports(w).tolist():
        yield tuple(supp)


def min_kernel_weight(m, max_weight: int | None = None):
    """Minimum weight of a nonzero kernel element of m.

    Strategy: when the kernel dimension is at most _ENUM_LIMIT, enumerate
    all 2^k - 1 codewords from the RREF basis (gray-code order, one XOR
    per step); otherwise search supports by increasing weight up to
    max_weight (SupportMatcher.least_weight) and report a lower bound if
    nothing is found.

    Returns:
        The exact distance, a LowerBound, or UNDEFINED when the kernel is
        trivial.
    """
    m = f2.as_f2(m)
    basis = f2.kernel_basis(m)
    k = basis.shape[0]
    if k == 0:
        return UNDEFINED
    if k <= _ENUM_LIMIT:
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
    return SupportMatcher.for_columns(m).least_weight(cap)


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

"""Classical linear codes over GF(2): the check-matrix code type, the
repetition codes, and SupportMatcher, the one support-search engine
that distance searches, soundness scans and the single-shot decoder
share.

A code is the kernel of its parity-check matrix h: n = cols(h) and
k = n - rank(h); its distance up to a cap is one least_weight search.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from . import f2


@dataclass(frozen=True)
class LowerBound:
    """Distance search outcome 'd > value' when the weight cap was hit."""

    value: int

    def __repr__(self):
        return f"> {self.value}"


_KEY_SEED = 0x2545F4914F6CDD1D
# queries per join step and candidates per run read; bounds their
# temporaries
_BLOCK = 1 << 16


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


class _Sorted:
    """Items sorted by key, one uint64 word each: the item's key with its
    low `bits` = bit_length(count - 1) bits replaced by its ordinal.

    Keys are compared on their high 64 - bits bits only, so a run of
    equal keys lists its items by ordinal; a false match costs one value
    check (SupportMatcher._exact).  span looks keys up by binary search.
    probe, for the weight-4 join's many queries, reads an int32 start
    offset per bucket of the words' top bits instead, counted at its
    first call: about 4 times faster a query, but the count costs about
    20 ms for a million words, so weights 1 to 3, with at most one
    lookup per target and entry, use span.  The bucket count is the
    least power of two at or above the item count, times 8 up to 2^16
    buckets, so a bucket holds 0.5 to 1 items on average in a large
    table, and 1/16 to 1/8 in a small one, where most of a batch's many
    queries then stop at an empty bucket.
    """

    def __init__(self, count: int, blocks):
        """Fill one array from (s, keys) blocks that hold the keys of
        items s, s + 1, ..., each with its ordinal in the low bits, then
        sort it in place."""
        bits = max(0, count - 1).bit_length()
        self.bits, self.low = np.uint64(bits), np.uint64((1 << bits) - 1)
        self.words = np.empty(count, dtype=np.uint64)
        for s, keys in blocks:
            part = self.words[s:s + len(keys)]
            np.bitwise_and(keys, ~self.low, out=part)
            part |= np.arange(s, s + len(keys), dtype=np.uint64)
        self.words.sort()
        top = max(1, (count - 1).bit_length())
        self._shift = np.uint64(64 - max(top, min(top + 3, 16)))
        self._offsets = None

    def ordinals(self, pos: np.ndarray) -> np.ndarray:
        """The ordinals of the items at the given positions."""
        return (self.words[pos] & self.low).astype(np.intp)

    def span(self, keys: np.ndarray):
        """(lo, hi): words[lo[i]:hi[i]] are the items keyed as keys[i]."""
        return (np.searchsorted(self.words, keys & ~self.low),
                np.searchsorted(self.words, keys | self.low, side="right"))

    def runs(self):
        """(kept, later): the positions of the items that share their key
        with another item, in order, and for each the count of items
        after it with the same key."""
        words = self.words
        # same[i]: items i and i + 1 share their key, read a block at a time
        same = np.empty(max(0, len(words) - 1), dtype=bool)
        for s in range(0, len(same), _BLOCK):
            e = min(s + _BLOCK, len(same))
            np.less_equal(words[s + 1:e + 1] ^ words[s:e], self.low,
                          out=same[s:e])
        keep = np.zeros(len(words), dtype=bool)
        keep[1:] = same
        keep[:-1] |= same
        kept = keep.nonzero()[0]
        high = words[kept] >> self.bits
        return kept, (np.searchsorted(high, high, side="right")
                      - np.arange(1, len(kept) + 1))

    def probe(self, q: np.ndarray):
        """(query, position) of every item whose key equals a query's."""
        words = self.words
        if not len(words):
            return np.zeros((2, 0), dtype=np.intp)
        if self._offsets is None:
            # bucket sizes, counted a block of words at a time, then
            # summed in place into bucket starts
            self._offsets = np.zeros((1 << (64 - int(self._shift))) + 1,
                                     dtype=np.int32)
            for s in range(0, len(words), _BLOCK):
                top = (words[s:s + _BLOCK] >> self._shift).astype(np.intp)
                self._offsets[top[0] + 1:top[-1] + 2] += np.bincount(
                    top - top[0])
            np.cumsum(self._offsets, out=self._offsets)
        bucket = (q >> self._shift).astype(np.intp)
        lo = self._offsets[bucket]
        # words are sorted, so a query keyed below the first word at or
        # after its bucket's start has no match: its bucket is empty, or
        # starts above it (a start past the end clips to a smaller word)
        live = (words.take(lo, mode="clip") <= (q | self.low)).nonzero()[0]
        lo = lo[live]
        count = self._offsets[1:][bucket[live]] - lo
        qi = np.repeat(live, count)
        # item position: lo of the query's bucket plus the offset within it
        ii = np.arange(len(qi)) + np.repeat(lo - np.cumsum(count) + count,
                                            count)
        same = (words[ii] ^ q[qi]) <= self.low
        return qi[same], ii[same]


class SupportMatcher:
    """Support search: entry subsets whose values XOR to a target.

    Entries are (group, tag, packed-int) triples; a valid support uses
    strictly increasing group ids, so at most one entry per group.  Plain
    column searches use group = column index; Pauli searches put the X, Z
    and Y columns of one qubit in the same group.

    Three questions share one set of tables.  find_min and
    find_min_batch answer with one support, the lexicographically first
    tuple of entry indices in sorted-entry order; find_min_batch answers
    a whole batch of targets at once, and find_min is its one-target
    case.  supports lists every support of one weight, in that order.
    least_weight gives the least weight of a zero-XOR support that a
    caller's test accepts: every distance in the package.

    Cost, for n entries and T targets.  Each entry is keyed by a fixed
    random GF(2)-linear map of its value to 64 bits (_key_tables), so a
    set's key is the XOR of its entries' keys, and a target's key is
    computed once per search (pack).  There is one table of the n
    entries and one of the ~n^2/2 pairs of entries from different
    groups, both _Sorted: one uint64 word an item, its key with its
    ordinal in the low bits.  The pair table is built at the first
    search of weight 2 or more, _BLOCK pairs at a time straight into its
    one array, then sorted in place; it serves every later search.

    - Weights 1 to 3 look keys up by binary search (span): weight 1 each
      target's key in the entry table, weight 2 in the pair table, and
      weight 3 the XOR of each target's key with the key of each entry
      from `start` on, in the pair table.
    - Weight 4 is a join of the pair table with itself: a query is one
      (target, left pair), the left pairs those whose first entry is
      `start` or later, and it looks the XOR of their keys up in the
      pair table's bucket index (probe).
    - A search for one target whose key is 0 from entry 0 on (every
      least_weight, and supports(4) of target 0 in the soundness scan)
      reads weight 4 off runs of equal keys in the pair table instead,
      with no probe: each word is paired with the later words of its
      run.
    - Pair positions are decoded to (first, second) entries only for the
      words a read or probe keeps; each candidate then goes through the
      group test and a full value check, one 64-bit word at a time.
    - A step yields at most _BLOCK candidates, and a join step takes at
      most _BLOCK queries (or one target and up to _BLOCK left pairs),
      so temporaries are bounded by the block, not by the tables or the
      batch.  The weight-4 join's time grows with T times the ~n^2/2
      pairs, hit or miss; the weight-4 run read's with the pairs of
      equal key.  find_min keeps the least support of each target in
      each step, and supports sorts the rows of all steps once, so
      neither depends on the order of the steps.
    - Weight 5 and up recurse on the first entry, one weight-4 join per
      entry, in increasing entry order; find_min stops for each target
      at the first entry with a completion.
    - least_weight walks the same steps weight by weight and stops at
      the first step holding an accepted support, so its memory is
      bounded by one step, not by the weight shell.
    """

    def __init__(self, entries: list[tuple[int, object, int]]):
        self.entries = sorted(entries)
        groups = [g for g, _, _ in self.entries]
        self._values = [v for _, _, v in self.entries]
        # _after[i]: index of the first entry in a group above entry i's
        self._after = [bisect.bisect_right(groups, g) for g in groups]
        self._arrays = None
        self._singles = None
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

    def _tables(self):
        """(words, keys, after, key tables, starts): words[k] holds the
        k-th 64-bit word of every entry value, least significant word
        first; keys the entries' keys (see _key_tables); after the _after
        list; starts[i] the position of entry i's first pair, in the
        order that lists pairs (i, j) by i, then j, and starts[n] the
        pair count."""
        if self._arrays is None:
            width = max((v.bit_length() for v in self._values), default=0)
            tables = _key_tables(8 * max(1, -(-width // 64)))
            keys, words = _pack(self._values, tables)
            after = np.array(self._after, dtype=np.intp)
            starts = np.zeros(len(keys) + 1, dtype=np.intp)
            np.cumsum(len(keys) - after, out=starts[1:])
            self._arrays = (words, keys, after, tables, starts)
        return self._arrays

    def pack(self, values) -> tuple[np.ndarray, np.ndarray]:
        """(keys, words) of a list of ints: the target form that
        find_min_batch takes.  keys[i] is the search key of values[i] and
        words[:, i] its 64-bit words, least significant first, at least
        as many as the entries have.  Both are GF(2)-linear in the value,
        so the form of an XOR of values is the XOR of their forms."""
        tables = self._tables()[3]
        width = max((v.bit_length() for v in values), default=0)
        if width > 8 * len(tables):
            tables = _key_tables(8 * -(-width // 64))
        return _pack(values, tables)

    def _pairs_of(self, pos: np.ndarray):
        """(first, second) entry indices of pair positions."""
        _, _, after, _, starts = self._tables()
        first = np.searchsorted(starts, pos, side="right") - 1
        return first, pos - starts[first] + after[first]

    def _pair_blocks(self):
        """Yield (s, keys): the keys of pairs s, s + 1, ..., _BLOCK pairs
        at a time, in position order."""
        _, keys, after, _, starts = self._tables()
        count = int(starts[-1])
        for s in range(0, count, _BLOCK):
            e = min(s + _BLOCK, count)
            # the first entries of the block's pairs, each repeated for
            # its pairs inside the block
            rows = np.arange(np.searchsorted(starts, s, side="right") - 1,
                             np.searchsorted(starts, e - 1, side="right"))
            first = np.repeat(rows, np.minimum(starts[rows + 1], e)
                              - np.maximum(starts[rows], s))
            second = np.arange(s, e) - starts[first] + after[first]
            yield s, keys.take(first) ^ keys.take(second)

    def _table(self, weight: int) -> _Sorted:
        """The entries (weight 1) or the pairs as a _Sorted table, with
        entry index or pair position as ordinal."""
        if weight == 1:
            if self._singles is None:
                keys = self._tables()[1]
                self._singles = _Sorted(len(keys), [(0, keys)])
            return self._singles
        if self._pairs is None:
            self._pairs = _Sorted(int(self._tables()[4][-1]),
                                  self._pair_blocks())
        return self._pairs

    def find_min(self, target: int, cap: int):
        """(weight, support) of a minimum-weight match, or (None, None)."""
        weight, rows = self.find_min_batch(*self.pack([target]), cap)
        w = int(weight[0])
        if w < 0:
            return None, None
        return w, [self.entries[i][:2] for i in rows[0, :w].tolist()]

    def find_min_batch(self, keys: np.ndarray, words: np.ndarray, cap: int):
        """find_min for a batch of targets, given in the form pack makes.

        Returns:
            (weight, rows).  weight[i] is the least weight of a support
            of target i, or -1 when it has none of weight <= cap.
            rows[i, :weight[i]] is the lexicographically first support
            of that weight, as increasing indices into self.entries; -1
            pads the rest of the (len(keys), max(cap, 0)) int64 array.
        """
        width = len(self._tables()[0])
        weight = np.full(len(keys), -1, dtype=np.int64)
        rows = np.full((len(keys), max(cap, 0)), -1, dtype=np.int64)
        live = np.arange(len(keys))
        if len(words) > width:
            # a target with bits above the entries' words has no support
            live = (~words[width:].any(axis=0)).nonzero()[0]
            keys, words = keys[live], words[:width, live]
        for w in range(cap + 1):
            if not len(live):
                break
            got, sub = self._first(keys, words, w, 0)
            if len(got):
                weight[live[got]] = w
                rows[live[got], :w] = sub
                if len(got) == len(live):
                    break
                keep = _unanswered(len(live), got)
                live, keys, words = live[keep], keys[keep], words[:, keep]
        return weight, rows

    def supports(self, weight: int, target: int = 0) -> np.ndarray:
        """Every support of the given weight whose values XOR to target.

        Weights 1 to 3 are span lookups and weights 4 and up joins; a
        target whose key is 0, such as 0 itself, is read off runs of
        equal pair keys at weight 4 (see the class docstring).

        Returns:
            An int64 array of shape (count, weight).  Each row holds the
            indices into self.entries of one support, in increasing
            order, and the rows come in lexicographic order.
        """
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        if weight == 0:
            return np.zeros((1 if target == 0 else 0, 0), dtype=np.int64)
        got = [np.zeros((0, weight), dtype=np.int64)]
        if not target >> (64 * len(self._tables()[0])):
            got += [rows for _, rows in
                    self._blocks(*self.pack([target]), weight, 0)]
        got = np.concatenate(got)
        return got[np.lexsort(got.T[::-1])]

    def least_weight(self, cap: int, keep=None):
        """Least w in 1..cap with a zero-XOR support of weight w, else
        LowerBound(cap).  keep, when given, takes one step's supports
        (rows of entry indices) and says whether it holds one that
        counts; the search stops at the first step where it does.  Each
        step holds at most _BLOCK candidates (see the class docstring)."""
        zero = self.pack([0])
        for w in range(1, cap + 1):
            for _, got in self._blocks(*zero, w, 0):
                if len(got) and (keep is None or keep(got)):
                    return w
        return LowerBound(cap)

    def _first(self, tkeys, twords, weight: int, start: int):
        """(targets, rows): each target that has a support of the given
        weight using only entries from index `start` on, with its
        lexicographically first one."""
        if weight == 0:
            hit = (~twords.any(axis=0)).nonzero()[0]
            return hit, np.zeros((len(hit), 0), dtype=np.int64)
        if weight < 5:
            parts = [_least(*part) for part in
                     self._blocks(tkeys, twords, weight, start)
                     if len(part[0])]
        else:
            words, keys, after, _, _ = self._tables()
            live, parts = np.arange(len(tkeys)), []
            # the first entry that completes decides each target
            for a in range(start, len(keys)):
                if not len(live):
                    break
                got, rest = self._first(tkeys[live] ^ keys[a],
                                        twords[:, live] ^ words[:, a, None],
                                        weight - 1, after[a])
                if len(got):
                    parts.append((live[got], np.column_stack(
                        [np.full(len(got), a), rest])))
                    live = live[_unanswered(len(live), got)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return np.zeros(0, dtype=np.intp), np.zeros((0, weight),
                                                        dtype=np.int64)
        return _least(np.concatenate([t for t, _ in parts]),
                      np.concatenate([r for _, r in parts]))

    def _blocks(self, tkeys, twords, weight: int, start: int):
        """Yield, unsorted and in parts, (targets, rows) for every support
        of weight >= 1 of every target that uses only entries from index
        `start` on.  Weight 5 and up yield the parts of each first entry
        in turn, in entry order."""
        words, keys, after, _, starts = self._tables()
        if weight >= 5:
            for a in range(start, len(keys)):
                for got, rest in self._blocks(
                        tkeys ^ keys[a], twords ^ words[:, a, None],
                        weight - 1, after[a]):
                    yield got, np.column_stack([np.full(len(got), a), rest])
            return
        if weight <= 3:
            # look up each target's key (weights 1 and 2), or the XOR of
            # each target's key with each entry's from `start` on
            table = self._table(min(weight, 2))
            lkeys = keys[start:] if weight == 3 else np.zeros(1, np.uint64)
            per = max(1, _BLOCK // max(1, len(lkeys)))
            for t in range(0, len(tkeys), per):
                lo, hi = table.span((tkeys[t:t + per, None] ^ lkeys).ravel())
                for q, pos in _spans(lo, hi - lo):
                    got, a = np.divmod(q, len(lkeys))
                    cols = self._decode(table, pos, weight)
                    if weight == 3:
                        # entry a, then a pair that starts past a's group
                        ok = cols[0] >= after.take(start + a)
                        cols = (start + a,) + cols
                    else:
                        ok = cols[0] >= start
                    yield self._exact(t + got[ok], np.column_stack(
                        [c[ok] for c in cols]), twords)
            return
        if start == 0 and len(tkeys) == 1 and tkeys[0] == 0:
            yield from self._zero_runs(twords)
            return
        # each pair whose first entry is `start` or later, which are those
        # at pair position (their ordinal) starts[start] or more, then a
        # pair from the probe
        pairs = self._table(2)
        bound = np.uint64(starts[start])
        for s in range(0, len(pairs.words), _BLOCK):
            part = pairs.words[s:s + _BLOCK]
            ids = np.arange(s, s + len(part))
            if bound:
                ids = ids[(part & pairs.low) >= bound]
                part = pairs.words[ids]
            if not len(part):
                continue
            per = max(1, _BLOCK // len(part))
            for t in range(0, len(tkeys), per):
                qi, pos = pairs.probe((tkeys[t:t + per, None] ^ part).ravel())
                # a query may match many pairs: cut them into steps
                for c in range(0, len(qi), _BLOCK):
                    got, li = np.divmod(qi[c:c + _BLOCK], len(part))
                    a, b = self._decode(pairs, ids[li], 2)
                    first, second = self._decode(pairs, pos[c:c + _BLOCK], 2)
                    ok = first >= after.take(b)
                    yield self._exact(t + got[ok], np.column_stack(
                        [a[ok], b[ok], first[ok], second[ok]]), twords)

    def _zero_runs(self, twords):
        """_blocks for one target whose key is 0, at weight 4 from entry 0
        on: the candidates are the pairs of pairs whose keys are equal,
        read off runs of the sorted pair table with no probe."""
        after = self._tables()[2]
        pairs = self._table(2)
        kept, later = pairs.runs()
        first, second = self._decode(pairs, kept, 2)
        # a run lists its pairs by position, so by first entry: each
        # candidate is a pair followed by a later one of its run
        for left, right in _spans(np.arange(1, len(kept) + 1), later):
            ok = first[right] >= after.take(second[left])
            left, right = left[ok], right[ok]
            yield self._exact(np.zeros(len(left), dtype=np.intp),
                              np.column_stack([first[left], second[left],
                                               first[right], second[right]]),
                              twords)

    def _decode(self, table: _Sorted, pos: np.ndarray, weight: int):
        """The entry index columns of the items of an entry (weight 1) or
        pair table at the given positions."""
        ordinals = table.ordinals(pos)
        return (ordinals,) if weight == 1 else self._pairs_of(ordinals)

    def _exact(self, got: np.ndarray, rows: np.ndarray, twords):
        """The (targets, rows) pairs whose row's entry values XOR to the
        target, rows as int64."""
        words = self._tables()[0]
        ok = (np.bitwise_xor.reduce(words[:, rows], axis=2)
              == twords[:, got]).all(axis=0)
        return got[ok], rows[ok].astype(np.int64, copy=False)


def _pack(values, tables: np.ndarray):
    """(keys, words) of a list of ints no wider than the key tables: see
    SupportMatcher.pack."""
    nbytes = len(tables)
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little")
                                 for v in values),
                        dtype=np.uint8).reshape(-1, nbytes)
    keys = np.bitwise_xor.reduce(tables[np.arange(nbytes), raw], axis=1)
    return keys, raw.view("<u8").T


def _spans(base: np.ndarray, count: np.ndarray):
    """Yield (item, position) arrays, at most _BLOCK long, that list the
    positions base[i] .. base[i] + count[i] - 1 of each item i in turn."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    for s in range(0, total, _BLOCK):
        k = np.arange(s, min(s + _BLOCK, total))
        item = np.searchsorted(ends, k, side="right")
        yield item, base[item] + k - (ends[item] - count[item])


def _unanswered(count: int, got: np.ndarray) -> np.ndarray:
    """Mask of the count targets of a batch that are not in got."""
    keep = np.ones(count, dtype=bool)
    keep[got] = False
    return keep


def _least(got: np.ndarray, rows: np.ndarray):
    """The lexicographically least row of each target in got, as
    (targets, rows)."""
    if len(got) > 1:
        order = np.lexsort((*rows.T[::-1], got))
        got, rows = got[order], rows[order]
        first = np.ones(len(got), dtype=bool)
        first[1:] = got[1:] != got[:-1]
        got, rows = got[first], rows[first]
    return got, rows


def kernel_supports_of_weight(m, w: int):
    """Yield every support (sorted column tuple) of a weight-w kernel vector.

    The supports are those of weight w whose packed columns XOR to zero,
    listed by one SupportMatcher (group = column) in lexicographic order.
    The whole weight shell is built before the first one is yielded.
    Nothing in the package calls it (distances call least_weight); it
    stays only while the perfbench harness traces it by name.

    Args:
        m: Check matrix.
        w: Exact Hamming weight to search, w >= 0.
    """
    for supp in SupportMatcher.for_columns(m).supports(w).tolist():
        yield tuple(supp)


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

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


_KEY_SEED = 0x2545F4914F6CDD1D
# queries per join step and candidates per run read; bounds their
# temporaries
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
    of two at or above the item count, times 8 up to 2^16 buckets: a
    bucket holds 0.5 to 1 items on average in a large index, and 1/16 to
    1/8 in a small one, where most of a batch's many queries then stop
    at an empty bucket.
    """

    def __init__(self, keys: np.ndarray, cols: list[np.ndarray]):
        self.keys, self.cols = keys, cols
        bits = max(1, (len(keys) - 1).bit_length())
        bits = max(bits, min(bits + 3, 16))
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


class _Sorted:
    """Items sorted by key, one uint64 word each: the item's key with its
    low `bits` = bit_length(count - 1) bits replaced by its ordinal.

    Keys are compared on their high 64 - bits bits only, so a run of
    equal keys lists its items by ordinal; a false match costs one value
    check (SupportMatcher._exact).
    """

    def __init__(self, keys: np.ndarray):
        """Sort keys, which it takes over and overwrites, as words."""
        self.bits = np.uint64(max(0, len(keys) - 1).bit_length())
        self.low = np.uint64((1 << int(self.bits)) - 1)
        keys &= ~self.low
        keys |= np.arange(len(keys), dtype=np.uint64)
        keys.sort()
        self.words = keys

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
        high = self.words >> self.bits
        same = high[1:] == high[:-1]
        keep = np.zeros(len(high), dtype=bool)
        keep[1:] = same
        keep[:-1] |= same
        kept = keep.nonzero()[0]
        high = high[kept]
        return kept, (np.searchsorted(high, high, side="right")
                      - np.arange(1, len(kept) + 1))


class SupportMatcher:
    """Support search: entry subsets whose values XOR to a target.

    Entries are (group, tag, packed-int) triples; a valid support uses
    strictly increasing group ids, so at most one entry per group.  Plain
    column searches use group = column index; Pauli searches put the X, Z
    and Y columns of one qubit in the same group.

    Three questions share one set of tables.  find, find_min and
    find_min_batch answer with one support, the lexicographically first
    tuple of entry indices in sorted-entry order; find_min_batch answers
    a whole batch of targets at once, and find_min is its one-target
    case.  supports lists every support of one weight, in that order.
    least_weight gives the least weight of a zero-XOR support that a
    caller's test accepts: every distance in the package.

    Cost, for n entries and T targets.  Each entry is keyed by a fixed
    random GF(2)-linear map of its value to 64 bits (_key_tables), so a
    set's key is the XOR of its entries' keys, and a target's key is
    computed once per search (pack).

    - Weight 1 compares the target keys with the n entry keys.
    - A search for one target whose key is 0 from entry 0 on (every
      least_weight, and supports(w) of target 0: the soundness scan's
      achievable syndromes) reads weights 2 to 4 off runs of equal keys
      in sorted tables (_Sorted), with no probe: weight 2 reads runs of
      the sorted entry keys, weight 3 looks each entry key up in the
      sorted pair keys by binary search, and weight 4 reads runs of the
      sorted pair keys.  That table holds one uint64 word a pair, the
      key with the pair's ordinal in its low bits, and is sorted once;
      pair indices are decoded only for the pairs a read keeps.  A read
      pairs an item with each later item of its run (or span), and
      these candidates go through the group test and value check below.
    - Every other search is one join of key-indexed tables: weight 2
      joins the n entries with the entries, weight 3 the n entries with
      the pair table, and weight 4 the pair table with itself.  That
      takes every target batch, every target of nonzero key, every
      start above entry 0 and the first-entry recursion of weight 5 up.
    - The join's pair table holds all ~n^2/2 pairs of entries from
      different groups: 8 bytes of key and two int32 indices a pair,
      plus an int32 offset per bucket of key top bits, at 0.5 to 1 pairs
      a bucket.  It is built at the first join of weight 3 or more.
    - A join query is one (target, left item) pair.  It looks the XOR of
      their keys up in its bucket, then compares full keys, then groups,
      then full values one 64-bit word at a time.
    - A join step takes at most _BLOCK queries (or one target and up to
      _BLOCK left items), and a run read at most _BLOCK candidates, so
      temporaries are bounded by the block and its matches, not by the
      tables or the batch.  The weight-4 join's time grows with T times
      the ~n^2/2 pairs, hit or miss; the weight-4 run read's with the
      sort of the pairs and the pairs of equal key.  find keeps the
      least support of each target in each step, and supports sorts the
      rows of all steps once.
    - Weight 5 and up recurse on the first entry, one weight-4 join per
      entry, in increasing entry order; find stops for each target at
      the first entry with a completion.
    - least_weight walks the same steps weight by weight and stops at
      the first step holding an accepted support, so its memory is
      bounded by one step, not by the weight shell.
    """

    def __init__(self, entries: list[tuple[int, object, int]]):
        self.entries = sorted(entries)
        self._groups = [g for g, _, _ in self.entries]
        self._values = [v for _, _, v in self.entries]
        # _after[i]: index of the first entry in a group above entry i's
        self._after = [bisect.bisect_right(self._groups, g)
                       for g in self._groups]
        self._arrays = None
        self._by_key = None
        self._pairs = None
        self._entry_words = None
        self._pair_words = None
        self._pair_decode = None

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
        """(words, keys, after, key tables, index): words[k] holds the
        k-th 64-bit word of every entry value, least significant word
        first; keys the entries' keys (see _key_tables); after the _after
        list; index the entry indices 0..n-1 as int32."""
        if self._arrays is None:
            width = max((v.bit_length() for v in self._values), default=0)
            tables = _key_tables(8 * max(1, -(-width // 64)))
            keys, words = _pack(self._values, tables)
            self._arrays = (words, keys, np.array(self._after, dtype=np.int32),
                            tables, np.arange(len(keys), dtype=np.int32))
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

    def _entry_index(self) -> _KeyIndex:
        if self._by_key is None:
            keys = self._tables()[1]
            order = np.argsort(keys).astype(np.int32)
            self._by_key = _KeyIndex(keys[order], [order])
        return self._by_key

    def _pair_keys(self):
        """(keys, second, starts, shift) of every pair i < j of entries in
        different groups, listed by i, then j: pair p is (i, p - shift[i])
        for the i with starts[i] <= p < starts[i + 1], and keys[p] is the
        key of its XOR."""
        _, keys, after, _, _ = self._tables()
        counts = len(keys) - after
        # pairs (i, after[i]), ..., (i, n - 1) for each i in turn
        starts = np.cumsum(counts, dtype=np.int32) - counts
        shift = starts - after
        second = np.arange(counts.sum(), dtype=np.int32)
        second -= np.repeat(shift, counts)
        pair_keys = np.repeat(keys, counts)
        pair_keys ^= keys.take(second)
        return pair_keys, second, starts, shift

    def _pair_index(self) -> _KeyIndex:
        """Every pair i < j of entries in different groups, indexed by
        the key of their XOR, as (first, second) int32 columns."""
        if self._pairs is None:
            _, keys, after, _, _ = self._tables()
            pair_keys, second, _, _ = self._pair_keys()
            first = np.repeat(np.arange(len(keys), dtype=np.int32),
                              len(keys) - after)
            order = np.argsort(pair_keys)
            # gathering the keys again costs less memory than permuting
            del pair_keys
            first, second = first.take(order), second.take(order)
            del order
            pair_keys = keys.take(first)
            pair_keys ^= keys.take(second)
            self._pairs = _KeyIndex(pair_keys, [first, second])
        return self._pairs

    def _sorted_entries(self) -> _Sorted:
        """The entries' keys as a _Sorted table (ordinal = entry index)."""
        if self._entry_words is None:
            keys = self._tables()[1]
            self._entry_words = _Sorted(keys.copy())
        return self._entry_words

    def _sorted_pairs(self) -> _Sorted:
        """The pairs of _pair_keys as a _Sorted table (ordinal = pair
        position), with what decodes a pair position."""
        if self._pair_words is None:
            pair_keys, second, starts, shift = self._pair_keys()
            del second
            self._pair_words = _Sorted(pair_keys)
            self._pair_decode = (starts, shift)
        return self._pair_words

    def _pairs_of(self, ordinals: np.ndarray):
        """(first, second) int32 entry indices of pair positions."""
        starts, shift = self._pair_decode
        first = (np.searchsorted(starts, ordinals, side="right")
                 - 1).astype(np.int32)
        return first, (ordinals - shift[first]).astype(np.int32)

    def _zero_blocks(self, twords, weight: int):
        """_blocks for one target whose key is 0, weight 2 to 4, from
        entry 0 on: the candidates are the sets whose keys XOR to 0, read
        off runs of equal keys in the sorted tables with no probe."""
        after = self._tables()[2]
        if weight == 3:
            # entry a, then a pair (b, c) with the key of a
            keys = self._tables()[1]
            pairs = self._sorted_pairs()
            lo, hi = pairs.span(keys)
            for a, p in _spans(lo, hi - lo):
                first, second = self._pairs_of(pairs.ordinals(p))
                ok = first >= after.take(a)
                yield self._exact(np.zeros(ok.sum(), dtype=np.intp),
                                  np.column_stack([a[ok], first[ok],
                                                   second[ok]]), twords)
            return
        table = self._sorted_pairs() if weight == 4 else self._sorted_entries()
        kept, later = table.runs()
        # the kept items as columns of entry indices, (a, b) or (a,)
        ordinals = table.ordinals(kept)
        cols = (self._pairs_of(ordinals) if weight == 4
                else (ordinals.astype(np.int32),))
        # a run lists its items by ordinal, so by first entry: each
        # candidate is an item followed by a later one of its run
        for left, right in _spans(np.arange(1, len(kept) + 1), later):
            ok = cols[0][right] >= after.take(cols[-1][left])
            left, right = left[ok], right[ok]
            yield self._exact(np.zeros(len(left), dtype=np.intp),
                              np.column_stack([c[left] for c in cols]
                                              + [c[right] for c in cols]),
                              twords)

    def find(self, target: int, weight: int, min_group: int = -1):
        """One support of exactly the given weight, as (group, tag) pairs
        with groups above min_group, or None."""
        if target >> (64 * len(self._tables()[0])):
            return None
        start = bisect.bisect_right(self._groups, min_group)
        _, got = self._first(*self.pack([target]), weight, start)
        if not len(got):
            return None
        return [self.entries[i][:2] for i in got[0].tolist()]

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

        A target whose key is 0, such as 0 itself, is read off runs of
        equal keys at weights 2 to 4; any other goes through the joins
        (see the class docstring).

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
        counts; the search stops at the first step where it does.  Steps
        of weight 2 to 4 are run reads of at most _BLOCK candidates, in
        key order, not joins (see the class docstring)."""
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
        words, keys, after, _, index = self._tables()
        if weight >= 5:
            for a in range(start, len(keys)):
                for got, rest in self._blocks(
                        tkeys ^ keys[a], twords ^ words[:, a, None],
                        weight - 1, after[a]):
                    yield got, np.column_stack([np.full(len(got), a), rest])
            return
        if weight == 1:
            per = max(1, _BLOCK // max(1, len(keys) - start))
            for t in range(0, len(tkeys), per):
                got, hit = (tkeys[t:t + per, None] == keys[start:]).nonzero()
                yield self._exact(t + got, start + hit[:, None], twords)
            return
        if start == 0 and len(tkeys) == 1 and tkeys[0] == 0:
            yield from self._zero_blocks(twords, weight)
            return
        if weight == 4:
            pairs = self._pair_index()
            yield from self._join(tkeys, twords, (pairs.keys, pairs.cols),
                                  pairs, start)
            return
        right = self._entry_index() if weight == 2 else self._pair_index()
        yield from self._join(tkeys, twords, (keys, [index]), right, start)

    def _join(self, tkeys, twords, left, right: _KeyIndex, start: int):
        """Yield (targets, rows) parts: the supports made of one left item
        that starts at entry `start` or later, followed by one right item.

        The left side is (keys, index columns).  Every (target, left
        item) query is matched with the right items whose key is the XOR
        of the two, and a combination is kept when the right item starts
        in a group above the left item's last one and the values XOR to
        the target.  A step takes up to _BLOCK left items, and as many
        targets as keep it at _BLOCK queries, one target at least.
        """
        after = self._tables()[2]
        lkeys, lcols = left
        for s in range(0, len(lkeys), _BLOCK):
            part, cols = lkeys[s:s + _BLOCK], [c[s:s + _BLOCK] for c in lcols]
            if start:
                mine = cols[0] >= start
                part, cols = part[mine], [c[mine] for c in cols]
            if not len(part):
                continue
            per = max(1, _BLOCK // len(part))
            for t in range(0, len(tkeys), per):
                qi, ri = right.probe((tkeys[t:t + per, None] ^ part).ravel())
                got, li = np.divmod(qi, len(part))
                keep = right.cols[0][ri] >= after.take(cols[-1][li])
                got, li, ri = got[keep], li[keep], ri[keep]
                rows = np.column_stack([c[li] for c in cols]
                                       + [c[ri] for c in right.cols])
                yield self._exact(t + got, rows, twords)

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
    Distance searches do not use it; they call least_weight, which stops
    at the first block holding a hit.

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

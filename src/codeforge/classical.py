"""Classical linear codes over GF(2): the check-matrix code type, the
repetition codes, and SupportMatcher, the one support-search engine
that distance searches, soundness scans and the single-shot decoder
share: one recursive descent, in steps of at most _BLOCK rows, on the
entries that hold a remainder's rarest bit.

A code is the kernel of its parity-check matrix h: n = cols(h) and
k = n - rank(h); its distance up to a cap is one least_weight search.
"""
from __future__ import annotations

import itertools
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
# rows per search step; bounds the step's temporaries
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
    """Entries sorted by key, one uint64 word each: the entry's key with
    its low bit_length(count - 1) bits replaced by its index.

    Keys are compared on their high bits only, so a run of equal keys
    lists its entries by index; a false match costs one value check
    (SupportMatcher._exact).  span looks keys up by binary search.
    """

    def __init__(self, keys: np.ndarray):
        self.low = np.uint64((1 << max(0, len(keys) - 1).bit_length()) - 1)
        self.words = keys & ~self.low
        self.words |= np.arange(len(keys), dtype=np.uint64)
        self.words.sort()

    def ordinals(self, pos: np.ndarray) -> np.ndarray:
        """The indices of the entries at the given positions."""
        return (self.words[pos] & self.low).astype(np.intp)

    def span(self, keys: np.ndarray):
        """(lo, hi): words[lo[i]:hi[i]] are the entries keyed as keys[i]."""
        return (np.searchsorted(self.words, keys & ~self.low),
                np.searchsorted(self.words, keys | self.low, side="right"))


class SupportMatcher:
    """Support search: entry subsets whose values XOR to a target.

    Entries are (group, tag, packed-int) triples; a valid support uses
    strictly increasing group ids, so at most one entry per group.  Plain
    column searches use group = column index; Pauli searches put the X, Z
    and Y columns of one qubit in the same group.

    Three questions share one recursive descent (_descend).  find_min
    and find_min_batch answer with one support, the lexicographically
    first tuple of entry indices in sorted-entry order; find_min_batch
    answers a whole batch of targets at once, and find_min is its
    one-target case.  supports lists every support of one weight, in
    that order.  least_weight gives the least weight of a zero-XOR
    support that a caller's test accepts: every distance in the package.

    Cost.  The descent runs on the bit index (_bits), one
    weight at a time.  A support of a nonzero remainder holds an odd
    number of the entries that hold its pivot, its set bit that fewest
    entries hold: each of those is XORed away in turn and the rest
    searched one weight lower, down to weight 1, one binary-search
    lookup (span) of the remainder's key in the entry table.  Each value
    is keyed by a fixed random GF(2)-linear map to 64 bits
    (_key_tables), so a set's key is the XOR of its entries' keys.  A
    weight-w search costs about p^(w - 1) lookups for pivot sets of p
    entries: 12 on the bssh rep:2 decoder, but 27 to 63 on rsh1 rep:3's
    dense scan annihilator, where weight 4 costs the most.  Each
    candidate passes the group test and a full value check, one 64-bit
    word at a time, and a step holds at most _BLOCK rows, so
    temporaries are bounded by the block.

    - find_min_batch descends with no floor.  A live target has no
      lighter support, so a remainder that reaches 0 above weight 0 is
      dropped.  Each target keeps its least sorted candidate, so no
      answer depends on the order of the steps.
    - supports and least_weight give each row a floor, the lowest entry
      index the rest of its support may use, 0 at the top.  A remainder
      that is 0 above weight 0 (every least_weight, and supports of
      target 0, start so) takes each entry from its floor on in turn as
      the least of the rest, and the floor moves past it; other rows
      keep the pivot holders from their floor on.  A support that holds
      several holders of one pivot is found once per holder: supports
      sorts the rows of all steps and drops the repeats, and
      least_weight stops at the first step with an accepted support, so
      its memory is bounded by one step.
    """

    def __init__(self, entries: list[tuple[int, object, int]]):
        self.entries = sorted(entries)
        self._values = [v for _, _, v in self.entries]
        self._groups = np.array([g for g, _, _ in self.entries],
                                dtype=np.intp)
        self._arrays = None
        self._sorted = None
        self._bit_index = None

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
        """(words, keys, key tables): words[k] holds the k-th 64-bit word
        of every entry value, least significant word first; keys the
        entries' keys (see _key_tables)."""
        if self._arrays is None:
            width = max((v.bit_length() for v in self._values), default=0)
            tables = _key_tables(8 * max(1, -(-width // 64)))
            keys, words = _pack(self._values, tables)
            self._arrays = (words, keys, tables)
        return self._arrays

    def pack(self, values) -> tuple[np.ndarray, np.ndarray]:
        """(keys, words) of a list of ints: the target form that
        find_min_batch takes.  keys[i] is the search key of values[i] and
        words[:, i] its 64-bit words, least significant first, at least
        as many as the entries have.  Both are GF(2)-linear in the value,
        so the form of an XOR of values is the XOR of their forms."""
        tables = self._tables()[2]
        width = max((v.bit_length() for v in values), default=0)
        if width > 8 * len(tables):
            tables = _key_tables(8 * -(-width // 64))
        return _pack(values, tables)

    def _entry_table(self) -> _Sorted:
        """The entries as a _Sorted table."""
        if self._sorted is None:
            self._sorted = _Sorted(self._tables()[1])
        return self._sorted

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
        if not len(live):
            return weight, rows
        ranked = _ranked(words, self._bits()[0])
        for w in range(cap + 1):
            if not len(live):
                break
            # no live target has a support below w, so each candidate of
            # weight w is a least one
            parts = [part for part in self._descend(
                np.arange(len(live)), keys, ranked, [], w, words)
                if len(part[0])]
            if not parts:
                continue
            got, sub = _least(parts)
            weight[live[got]] = w
            rows[live[got], :w] = sub
            keep = np.ones(len(live), dtype=bool)
            keep[got] = False
            live, keys, words = live[keep], keys[keep], words[:, keep]
            ranked = ranked[:, keep]
        return weight, rows

    def _bits(self):
        """(order, ranked, starts, holders, dead): the bit index.  Bits
        are ranked by how many entries hold them, fewest first: rank r
        is bit order[r], held by entries holders[starts[r]:starts[r + 1]]
        in increasing order (none below rank dead); ranked is the
        entries' words in rank order (_ranked)."""
        if self._bit_index is None:
            words = self._tables()[0]
            held = _unpack(words)
            count = held.sum(axis=0)
            order = np.argsort(count, kind="stable")
            starts = np.zeros(len(order) + 1, dtype=np.intp)
            np.cumsum(count[order], out=starts[1:])
            self._bit_index = (order, _ranked(words, order), starts,
                               held.take(order, axis=1).T.nonzero()[1],
                               int(np.count_nonzero(count == 0)))
        return self._bit_index

    def _descend(self, tgt, keys, ranked, cols, weight: int, twords,
                 floor=None):
        """Yield, unsorted and in parts, (targets, rows): each support of
        the given weight of each remainder i (keys[i], ranked[:, i]) that
        uses no group of the entries cols[j][i] taken for it, joined to
        them and sorted; tgt[i] is its target.

        A support of a nonzero remainder holds an odd number of the
        entries that hold the remainder's pivot, so one or more: each is
        XORed away in turn.  A remainder whose pivot no entry holds has
        none.  With no floor, neither has a remainder 0 above weight 0
        (the case of a target with a lighter support).  Given floor[i],
        a support uses only entries from index floor[i] on: a remainder
        0 above weight 0 takes each of them in turn as the least entry
        of its support, and the floor moves past it.
        """
        if weight == 0:
            hit = (~ranked.any(axis=0)).nonzero()[0]
            yield tgt[hit], np.zeros((len(hit), 0), dtype=np.int64)
            return
        if weight == 1:
            # binary searches run about twice as fast on sorted keys
            table, order = self._entry_table(), np.argsort(keys)
            lo, hi = table.span(keys[order])
            steps = ((order[item], table.ordinals(pos))
                     for item, pos in _spans(lo, hi - lo))
        else:
            _, eranked, starts, holders, dead = self._bits()
            # the pivot, the lowest set bit of the first nonzero word:
            # frexp reads the exponent of word & -word exactly (0 for 0,
            # so a zero remainder gets pivot -1)
            k = (ranked != 0).argmax(axis=0)
            word = ranked[k, np.arange(len(keys))]
            low = (word & (~word + np.uint64(1))).astype(np.float64)
            pivot = 64 * k + np.frexp(low)[1] - 1
            live = (pivot >= dead).nonzero()[0]
            at = pivot[live]
            steps = ((live[item], holders[pos]) for item, pos in
                     _spans(starts[at], starts[at + 1] - starts[at]))
            if floor is not None:
                zero = pivot < 0
                least = zero.nonzero()[0]
                steps = itertools.chain(steps, (
                    (least[item], pos) for item, pos in
                    _spans(floor[least], len(self.entries) - floor[least])))
        groups, ekeys = self._groups, self._tables()[1]
        for item, e in steps:
            if floor is None:
                ok = np.ones(len(e), dtype=bool)
            else:
                ok = e >= floor.take(item)
            for col in cols:
                ok &= groups.take(col.take(item)) != groups.take(e)
            item, e = item[ok], e[ok]
            row = [col.take(item) for col in cols] + [e]
            if weight == 1:
                yield self._exact(tgt.take(item), np.sort(
                    np.column_stack(row), axis=1), twords)
            else:
                yield from self._descend(
                    tgt.take(item), keys.take(item) ^ ekeys.take(e),
                    ranked.take(item, axis=1) ^ eranked.take(e, axis=1),
                    row, weight - 1, twords,
                    None if floor is None else
                    np.where(zero.take(item), e + 1, floor.take(item)))

    def _walk(self, target: int, weight: int):
        """Yield, in parts, the rows of every support of the given weight
        whose values XOR to target: _descend from floor 0, so a row may
        come more than once."""
        width = len(self._tables()[0])
        keys, words = self.pack([target])
        if words[width:].any():
            # a bit above the entries' words
            return
        one = np.zeros(1, dtype=np.intp)
        for _, rows in self._descend(
                one, keys, _ranked(words[:width], self._bits()[0]), [],
                weight, words[:width], one):
            yield rows

    def supports(self, weight: int, target: int = 0) -> np.ndarray:
        """Every support of the given weight whose values XOR to target.

        Returns:
            An int64 array of shape (count, weight).  Each row holds the
            indices into self.entries of one support, in increasing
            order, and the rows come in lexicographic order, each once.
        """
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        got = np.concatenate([np.zeros((0, weight), dtype=np.int64),
                              *self._walk(target, weight)])
        if len(got) < 2:
            return got
        got = got[np.lexsort(got.T[::-1])]
        first = np.ones(len(got), dtype=bool)
        first[1:] = (got[1:] != got[:-1]).any(axis=1)
        return got[first]

    def least_weight(self, cap: int, keep=None):
        """Least w in 1..cap with a zero-XOR support of weight w, else
        LowerBound(cap).  keep, when given, takes one step's supports
        (rows of entry indices, a row possibly repeated) and says whether
        it holds one that counts; the search stops at the first step
        where it does.  Each step holds at most _BLOCK rows."""
        for w in range(1, cap + 1):
            for got in self._walk(0, w):
                if len(got) and (keep is None or keep(got)):
                    return w
        return LowerBound(cap)

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


def _unpack(words: np.ndarray) -> np.ndarray:
    """The bits of each column of words (W, count) as a uint8 row: bit
    64k + j is bit j of word k."""
    return np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8),
                         axis=1, bitorder="little")


def _ranked(words: np.ndarray, order: np.ndarray) -> np.ndarray:
    """words (W, count), bit r of each column moved from bit order[r]."""
    return np.packbits(_unpack(words).take(order, axis=1), axis=1,
                       bitorder="little").view("<u8").T


def _spans(base: np.ndarray, count: np.ndarray):
    """Yield (item, position) arrays, at most _BLOCK long, that list the
    positions base[i] .. base[i] + count[i] - 1 of each item i in turn."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    for s in range(0, total, _BLOCK):
        k = np.arange(s, min(s + _BLOCK, total))
        item = np.searchsorted(ends, k, side="right")
        yield item, base[item] + k - (ends[item] - count[item])


def _least(parts):
    """The lexicographically least row of each target in (targets, rows)
    parts, as (targets, rows)."""
    got, rows = (np.concatenate(part) for part in zip(*parts))
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

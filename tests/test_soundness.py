"""Soundness scans, reduced weights, and the two-stage single-shot decoder."""
import bisect
import functools
import gc
import hashlib
import itertools
import math
import operator
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeforge import classical, complexes, f2
from codeforge import constructions as cons
from codeforge.classical import LowerBound
from codeforge.complexes import ChainComplex
from codeforge.css import CssCode
from codeforge.soundness import (F_BY_NAME, LemmaContradictionError,
                                 SoundnessReport, StabilizerModel,
                                 SupportMatcher, decode_residual,
                                 inheritance_check, quarter_cube,
                                 quarter_square, soundness_scan)

REP2 = classical.repetition_closed_loop(2)
REP3 = classical.repetition_closed_loop(3)


def toric18():
    return cons.hgp(REP3.h, REP3.h)


def test_bound_functions_are_exact_rationals():
    assert quarter_square(3) == Fraction(9, 4)
    assert quarter_cube(2) == 2
    assert quarter_square(0) == 0
    assert F_BY_NAME["x2over4"] is quarter_square
    assert F_BY_NAME["x3over4"] is quarter_cube


def brute_match(entries, target, cap):
    """Oracle for SupportMatcher.find_min: try all subsets with distinct
    groups, smallest first."""
    for w in range(cap + 1):
        for combo in itertools.combinations(entries, w):
            groups = [g for g, _, _ in combo]
            if len(set(groups)) != w:
                continue
            acc = 0
            for _, _, v in combo:
                acc ^= v
            if acc == target:
                return w
    return None


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_support_matcher_matches_brute(seed):
    rng = np.random.default_rng(seed)
    n_groups = int(rng.integers(2, 6))
    entries = []
    for g in range(n_groups):
        for tag in range(int(rng.integers(1, 4))):
            entries.append((g, tag, int(rng.integers(0, 16))))
    matcher = SupportMatcher(entries)
    target = int(rng.integers(0, 16))
    w, supp = matcher.find_min(target, 4)
    want = brute_match(entries, target, 4)
    assert w == want
    if w is not None:
        acc = 0
        by_key = {(g, t): v for g, t, v in entries}
        for g, t in supp:
            acc ^= by_key[(g, t)]
        assert acc == target
        assert len({g for g, _ in supp}) == len(supp)


class DfsMatcher:
    """The recursive depth-first SupportMatcher search that the
    meet-in-the-middle engine replaced, kept as its reference: same
    answers, tie-break included, at n^(weight-1) dictionary probes."""

    def __init__(self, entries: list[tuple[int, object, int]]):
        self.entries = sorted(entries)
        self._singles: dict[int, list[tuple[int, object]]] | None = None

    def _single_table(self):
        if self._singles is None:
            self._singles = {}
            for g, tag, v in self.entries:
                self._singles.setdefault(v, []).append((g, tag))
        return self._singles

    def find(self, target: int, weight: int, min_group: int = -1):
        """One support of exactly the given weight, or None.

        Cost grows as n^(weight-1) dictionary probes; intended for small
        weights (the scans cap at 4 or 5).
        """
        if weight == 0:
            return [] if target == 0 else None
        if weight == 1:
            for g, tag in self._single_table().get(target, ()):
                if g > min_group:
                    return [(g, tag)]
            return None
        for g, tag, v in self.entries:
            if g <= min_group:
                continue
            rest = self.find(target ^ v, weight - 1, g)
            if rest is not None:
                return [(g, tag)] + rest
        return None

    def find_min(self, target: int, cap: int):
        """(weight, support) of a minimum-weight match, or (None, None)."""
        for w in range(cap + 1):
            got = self.find(target, w)
            if got is not None:
                return w, got
        return None, None


def dfs_find_min(entries, target, cap):
    return DfsMatcher(entries).find_min(target, cap)


def search_keys(values):
    """The support-search keys of values, from a matcher holding them."""
    matcher = SupportMatcher([(i, i, v) for i, v in enumerate(values)])
    return matcher._tables()[1].tolist()


def key_ghost(rng, bits):
    """A nonzero value below 2**bits whose search key is 0, for bits > 64.

    Keys have 64 bits, so the keys of 65 values are linearly dependent;
    the values of a dependent subset XOR to the ghost.
    """
    values = [rng.getrandbits(bits) for _ in range(65)]
    pivots = {}     # leading key bit -> (key, XOR of the values behind it)
    for k, acc in zip(search_keys(values), values):
        while k and k.bit_length() in pivots:
            pk, pv = pivots[k.bit_length()]
            k, acc = k ^ pk, acc ^ pv
        if k:
            pivots[k.bit_length()] = (k, acc)
        elif acc:
            return acc
    return key_ghost(rng, bits)


def matcher_case(seed, count=1):
    """Entries, a list of count targets, cap and one (weight, min_group)
    probe.

    Values run from 4 to 130 bits.  Duplicates and same-group Y = X ^ Z
    triples give many supports of one weight, so the tie-break matters.
    Above 64 bits some values and targets differ from others by a ghost:
    either r | r << 64, whose 64-bit words XOR to zero, or a key_ghost,
    whose search key is zero.  Such values share keys (or folds) but are
    not equal, so a search that trusted keys would answer wrongly.  Half
    the targets XOR one entry from each of up to cap groups, so hits
    occur at every weight.  Caps above 4 only come with few groups, where
    the reference DFS stays fast on misses.
    """
    rng = random.Random(seed)
    n_groups = rng.randint(*rng.choice(((1, 10), (11, 40))))
    bits = rng.choice((4, 5, 8, 16, 63, 64, 65, 100, 130))
    same_key = key_ghost(rng, bits) if bits > 64 else 0

    def ghost():
        r = rng.getrandbits(max(0, bits - 64))
        return rng.choice((r | r << 64, same_key))

    entries = []
    for g in range(n_groups):
        if rng.random() < 0.5:
            x, z = rng.getrandbits(bits), rng.getrandbits(bits)
            entries += [(g, "X", x), (g, "Z", z), (g, "Y", x ^ z)]
            continue
        for tag in range(rng.randint(1, 3)):
            if entries and rng.random() < 0.4:
                v = rng.choice(entries)[2] ^ rng.choice((0, ghost()))
            else:
                v = rng.getrandbits(bits)
            entries.append((g, tag, v))
    cap = rng.randint(0, 6 if n_groups <= 10 else 4)

    def target():
        t = rng.getrandbits(bits)
        if rng.random() < 0.5:
            t = rng.choice((0, 0, ghost()))
            k = min(n_groups, rng.randint(cap // 2, cap))
            for g in rng.sample(range(n_groups), k):
                t ^= rng.choice([v for h, _, v in entries if h == g])
        return t

    targets = [target() for _ in range(count)]
    probe = (rng.randint(0, cap), rng.randint(-1, n_groups))
    return entries, targets, cap, probe


@given(st.integers(0, 2 ** 32))
@settings(max_examples=400, deadline=None)
def test_support_matcher_matches_dfs(first_support, seed):
    entries, (target,), cap, (weight, min_group) = matcher_case(seed)
    matcher = SupportMatcher(entries)
    assert matcher.find_min(target, cap) == dfs_find_min(entries, target,
                                                         cap)
    # the first entry in a group above min_group
    start = bisect.bisect_right([g for g, _, _ in matcher.entries],
                                min_group)
    assert (first_support(matcher, target, weight, start)
            == DfsMatcher(entries).find(target, weight, min_group))


def assert_batch_matches_dfs(entries, targets, cap):
    """find_min_batch on targets equals DfsMatcher.find_min on each."""
    matcher = SupportMatcher(entries)
    weight, rows = matcher.find_min_batch(*matcher.pack(targets), cap)
    assert weight.shape == (len(targets),)
    assert rows.shape == (len(targets), max(cap, 0))
    dfs = DfsMatcher(entries)
    for target, w, row in zip(targets, weight.tolist(), rows.tolist()):
        want_w, want = dfs.find_min(target, cap)
        if want_w is None:
            assert w == -1 and row == [-1] * len(row)
        else:
            assert w == want_w
            assert [matcher.entries[i][:2] for i in row[:w]] == want
            assert row[w:] == [-1] * (len(row) - w)


@pytest.mark.parametrize("step_words", [classical._STEP_WORDS, 3])
@given(st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_find_min_batch_matches_dfs(step_words, seed):
    entries, targets, cap, _ = matcher_case(seed, 6)
    rng = random.Random(seed)
    if rng.random() < 0.1:
        entries = []
    width = max((v.bit_length() for _, _, v in entries), default=0)
    # repeats, zero, and a target with a bit above the entries' words
    wide = targets[0] ^ 1 << (64 * max(1, -(-width // 64)) + rng.randrange(64))
    targets += [targets[0], targets[1], 0, wide]
    rng.shuffle(targets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "_STEP_WORDS", step_words)
        assert_batch_matches_dfs(entries, targets, cap)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_bit_index_matches_dense_unpack(dense_bits, seed):
    # entries of one to four words, sparse to dense, some repeated or 0,
    # and bits that no entry holds
    rng = random.Random(seed)
    width = rng.choice([1, 8, 63, 64, 65, 130, 256])
    density = rng.choice([0.02, 0.1, 0.5, 0.9])
    values = [sum(1 << b for b in range(width) if rng.random() < density)
              for _ in range(rng.randint(0, 40))]
    values += rng.sample(values, min(3, len(values)))
    matcher = SupportMatcher([(g, g, v) for g, v in enumerate(values)])
    got = matcher._bits()
    want = dense_bits(matcher._tables()[0])
    for a, b in zip(got[:4], want[:4]):
        assert a.shape == b.shape and (a == b).all()
    assert got[4] == want[4]


@pytest.mark.parametrize("step_words", [classical._STEP_WORDS, 3])
def test_find_min_batch_rejects_key_ghosts(step_words, monkeypatch):
    rng = random.Random(3)
    g = key_ghost(rng, 100)
    a, b, c = (rng.getrandbits(100) for _ in range(3))
    entries = [(0, "a", a), (1, "b", b), (2, "c", c), (3, "d", a ^ g),
               (4, "e", b ^ c ^ g), (5, "f", a ^ b ^ c ^ g)]
    monkeypatch.setattr(classical, "_STEP_WORDS", step_words)
    # g and a ^ b ^ g share keys with 0 and a ^ b, which have supports
    # that g and a ^ b ^ g do not share
    assert_batch_matches_dfs(entries, [0, g, a, a ^ b ^ g, g, a ^ b, b ^ c],
                             5)


def descent_case(seed):
    """Entries, targets and cap for the pivot descent of find_min_batch.

    Groups hold X/Z/Y triples, the zero value, two fresh values, a
    duplicate of an earlier value (so across groups), or a fresh value.
    Values use only the bits of a random mask, so some bits below the
    entries' width are held by no entry; at 3 to 5 bits they are dense,
    and the pivot sets hold most of the entries.  Targets XOR one entry
    from each of up to cap groups, and a quarter of them then flip a
    bit that no entry holds, when there is one.
    """
    rng = random.Random(seed)
    bits = rng.choice((3, 4, 5, 8, 16, 70))
    mask = rng.getrandbits(bits) | 1 << (bits - 1)
    entries = []
    n_groups = rng.randint(1, 8)
    for g in range(n_groups):
        kind = rng.random()
        if kind < 0.3:
            x, z = rng.getrandbits(bits) & mask, rng.getrandbits(bits) & mask
            entries += [(g, "X", x), (g, "Z", z), (g, "Y", x ^ z)]
        elif kind < 0.4:
            entries.append((g, 0, 0))
        elif kind < 0.5:
            entries += [(g, t, rng.getrandbits(bits) & mask) for t in (0, 1)]
        elif entries and kind < 0.7:
            entries.append((g, 0, rng.choice(entries)[2]))
        else:
            entries.append((g, 0, rng.getrandbits(bits) & mask))
    # the DFS reference walks n^(cap - 1) sets on a miss
    cap = rng.randint(0, 5 if len(entries) <= 12 else 4)
    unheld = [b for b in range(bits) if not mask >> b & 1]
    targets = []
    for _ in range(8):
        t = 0
        for g in rng.sample(range(n_groups), min(n_groups,
                                                 rng.randint(0, cap))):
            t ^= rng.choice([v for h, _, v in entries if h == g])
        if unheld and rng.random() < 0.25:
            t ^= 1 << rng.choice(unheld)
        targets.append(t)
    return entries, targets, cap


@pytest.mark.parametrize("step_words", [classical._STEP_WORDS, 3])
@given(st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_descent_matches_dfs(step_words, seed):
    """find_min_batch against DfsMatcher on zero values, unheld target
    bits, dense values with large pivot sets, duplicates across groups,
    Pauli triples and groups of two; every step of the descent below
    the batch's top level, and every candidate step, holds at most
    max(1, _STEP_WORDS // W) rows of W-word values (W is 2 at 70 bits)."""
    entries, targets, cap = descent_case(seed)
    sizes = []
    descend, exact = SupportMatcher._descend, SupportMatcher._exact

    def spy_descend(self, tgt, keys, ranked, cols, weight, twords,
                    floor=None):
        if cols:
            sizes.append((len(keys), max(1, step_words // len(ranked))))
        return descend(self, tgt, keys, ranked, cols, weight, twords, floor)

    def spy_exact(self, got, rows, twords):
        words = len(self._tables()[0])
        sizes.append((len(rows), max(1, step_words // words)))
        return exact(self, got, rows, twords)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "_STEP_WORDS", step_words)
        mp.setattr(SupportMatcher, "_descend", spy_descend)
        mp.setattr(SupportMatcher, "_exact", spy_exact)
        assert_batch_matches_dfs(entries, targets, cap)
    assert all(rows <= most for rows, most in sizes)


def test_find_min_builds_no_pair_table(monkeypatch):
    """find_min and find_min_batch descend with no floor: a cap-4 miss,
    and a batch with hits at every weight, never take the branch of a
    zero remainder, which only supports and least_weight need."""
    rng = random.Random(9)
    entries = [(q, p, rng.getrandbits(40)) for q in range(12)
               for p in "XZY"]
    matcher = SupportMatcher(entries)
    floors = []
    descend = SupportMatcher._descend

    def spy(self, tgt, keys, ranked, cols, weight, twords, floor=None):
        floors.append(floor)
        return descend(self, tgt, keys, ranked, cols, weight, twords, floor)

    monkeypatch.setattr(SupportMatcher, "_descend", spy)
    assert matcher.find_min(rng.getrandbits(40), 4) == (None, None)
    targets = [0] + [functools.reduce(operator.xor, (v for _, _, v in
                                                     entries[:3 * w:3]), 0)
                     for w in range(1, 5)]
    weight, _ = matcher.find_min_batch(*matcher.pack(targets), 4)
    assert weight.tolist() == [0, 1, 2, 3, 4]
    assert floors and all(floor is None for floor in floors)


def test_find_min_batch_weight_5_matches_supports_rsh1_rep2():
    """On rsh1 rep:2's syndrome map, find_min_batch at cap 5 agrees with
    supports taken one weight at a time: the least w with a support of
    weight w, and the first one.  Both run on _descend, find_min_batch
    with no floor, dropping zero remainders and keeping each target's
    least row, and supports from floor 0, sorting every row; so this
    pins the pruning and the tie-break of the first against the full
    listing, not one engine against another.  The 20 achievable
    weight-4 syndromes are 7 answered at weight 5, 7 with none of
    weight <= 5, and 6 others."""
    c = cons.rsh(REP2, REP2, REP2, REP2, 1)
    d = StabilizerModel.from_code(c).syndrome_map
    matcher = SupportMatcher.for_columns(d)
    unit = f2.columns_as_ints(f2.identity(d.shape[0]))
    targets = [functools.reduce(operator.xor, (unit[i] for i in supp))
               for supp in SupportMatcher.for_columns(
                   f2.kernel_basis(d.T)).supports(4).tolist()]
    weight, rows = matcher.find_min_batch(*matcher.pack(targets), 5)
    pick = [i for w in (5, -1) for i in (weight == w).nonzero()[0][:7]]
    pick += (weight < 5).nonzero()[0][::1000][:6].tolist()
    assert len(pick) == 20
    for i in pick:
        first = next(((w, s[0].tolist()) for w in range(6)
                      for s in [matcher.supports(w, targets[i])] if len(s)),
                     (-1, []))
        assert (int(weight[i]), rows[i, :max(first[0], 0)].tolist()) == first


def brute_supports(entries, weight, target):
    """Oracle for SupportMatcher.supports: every index tuple into the
    sorted entries, in combinations order, with one entry per group and
    values XOR-ing to target."""
    entries = sorted(entries)
    out = []
    for combo in itertools.combinations(range(len(entries)), weight):
        if len({entries[i][0] for i in combo}) != weight:
            continue
        acc = 0
        for i in combo:
            acc ^= entries[i][2]
        if acc == target:
            out.append(combo)
    return out


@pytest.mark.parametrize("step_words", [classical._STEP_WORDS, 3])
@given(st.integers(0, 2 ** 32), st.sampled_from(("zero", "case", "hit")))
@settings(max_examples=200, deadline=None)
def test_support_matcher_supports_match_combinations(step_words, seed, kind):
    entries, (target,), _, _ = matcher_case(seed)
    rng = random.Random(seed)
    weight = rng.randint(0, 5)
    # keep the oracle's walk over combinations near 10^5
    while math.comb(len(entries), weight) > 10 ** 5:
        weight -= 1
    if kind == "zero":
        target = 0
    elif kind == "hit":
        groups = sorted({g for g, _, _ in entries})
        target = 0
        for g in rng.sample(groups, min(weight, len(groups))):
            target ^= rng.choice([v for h, _, v in entries if h == g])
    # at a step of 3 words each level of the descent spans many steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "_STEP_WORDS", step_words)
        got = SupportMatcher(entries).supports(weight, target)
    assert got.shape == (len(got), weight)
    assert [tuple(row) for row in got.tolist()] == brute_supports(
        entries, weight, target)


def test_key_ghosts_are_rejected_on_value(first_support):
    rng = random.Random(3)
    g = key_ghost(rng, 100)
    assert g and search_keys([g]) == [0]
    a, b, c = (rng.getrandbits(100) for _ in range(3))
    entries = [(0, "a", a), (1, "b", b), (2, "c", c), (3, "d", a ^ g),
               (4, "e", b ^ c ^ g), (5, "f", a ^ b ^ c ^ g)]
    matcher = SupportMatcher(entries)
    for target in (0, g, a, a ^ b ^ g):
        for weight in range(5):
            want = brute_supports(entries, weight, target)
            got = matcher.supports(weight, target).tolist()
            assert [tuple(row) for row in got] == want
            first = first_support(matcher, target, weight)
            assert first == (None if not want else
                             [matcher.entries[i][:2] for i in want[0]])
    # keys alone would also accept {a, d}, {b, c, e}, {a, b, c, f} and
    # more: their keys XOR to 0 but their values to g
    keys = search_keys([v for _, _, v in entries])
    for weight in (2, 3, 4):
        by_key = [combo for combo in itertools.combinations(range(6), weight)
                  if not functools.reduce(operator.xor,
                                          [keys[i] for i in combo])]
        assert len(by_key) > len(brute_supports(entries, weight, 0))


def zero_case(seed):
    """Entries with many zero-XOR supports, and a key ghost.

    Groups hold Pauli triples X, Z, Y = X ^ Z, the zero value, or one
    value that often repeats an earlier one, so runs of three or more
    equal keys are common; above 64 bits a repeat may differ by the
    ghost, a nonzero value whose key is 0 (key_ghost), which a search on
    keys alone would take for a repeat.
    """
    rng = random.Random(seed)
    bits = rng.choice((6, 16, 100))
    ghost = key_ghost(rng, bits) if bits > 64 else 0
    entries = []
    for g in range(rng.randint(1, 10)):
        kind = rng.random()
        if kind < 0.3:
            x, z = rng.getrandbits(bits), rng.getrandbits(bits)
            entries += [(g, "X", x), (g, "Z", z), (g, "Y", x ^ z)]
        elif kind < 0.4:
            entries.append((g, 0, 0))
        elif entries and kind < 0.8:
            v = rng.choice(entries)[2] ^ rng.choice((0, 0, ghost))
            entries.append((g, 0, v))
        else:
            entries.append((g, 0, rng.getrandbits(bits)))
    return entries, ghost


@pytest.mark.parametrize("step_words", [classical._STEP_WORDS, 3])
@given(st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_zero_target_reads_match_brute(step_words, seed):
    entries, ghost = zero_case(seed)
    rng = random.Random(seed)
    want = {w: brute_supports(entries, w, 0) for w in range(5)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "_STEP_WORDS", step_words)
        matcher = SupportMatcher(entries)
        for w in range(5):
            assert [tuple(r) for r in matcher.supports(w).tolist()] == want[w]
            # a ghost target has key 0 too, so it takes the same reads
            assert ([tuple(r) for r in matcher.supports(w, ghost).tolist()]
                    == brute_supports(entries, w, ghost))
        cap = rng.randint(1, 4)
        first = min((w for w in range(1, cap + 1) if want[w]),
                    default=None)
        assert matcher.least_weight(cap) == (
            LowerBound(cap) if first is None else first)
        # keep accepts a random part of the supports; the search must
        # stop at the first step that holds one of them
        accepted = {s for w in range(1, 5) for s in want[w]
                    if rng.random() < 0.3}
        seen = []

        def keep(rows):
            rows = [tuple(r) for r in rows.tolist()]
            seen.append(rows)
            return any(r in accepted for r in rows)

        got = matcher.least_weight(cap, keep)
    first = min((len(s) for s in accepted if len(s) <= cap), default=None)
    assert got == (LowerBound(cap) if first is None else first)
    for rows in seen:
        w = len(rows[0])
        assert set(rows) <= set(want[w])
        assert len(rows) <= step_words
    hits = [any(r in accepted for r in rows) for rows in seen]
    if first is None:
        assert not any(hits)
    else:
        assert hits == [False] * (len(hits) - 1) + [True]


@given(st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_descent_takes_no_entry_below_a_floor(seed):
    """Given floors, each entry a row takes is at or above its floor, or
    is the entry that has just set it (floor - 1, the least entry of the
    rest of a zero remainder's support).  Taking entries below the floor
    would give no wrong row, only repeats that supports drops, so the
    answers alone cannot show it; but a zero-XOR support of weight 2 or
    3 is found once only, from its least entry, as the rest then holds
    exactly one holder of any pivot."""
    entries, ghost = zero_case(seed)
    matcher = SupportMatcher(entries)
    descend = SupportMatcher._descend
    below = []

    def spy(self, tgt, keys, ranked, cols, weight, twords, floor=None):
        if floor is not None and cols:
            below.append(int(np.count_nonzero(cols[-1] < floor - 1)))
        return descend(self, tgt, keys, ranked, cols, weight, twords, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SupportMatcher, "_descend", spy)
        for w in range(2, 5):
            matcher.supports(w)
            matcher.supports(w, ghost)
        matcher.least_weight(4, lambda rows: False)
    assert below == [0] * len(below)
    for w in (2, 3):
        rows = np.concatenate([np.zeros((0, w), dtype=np.int64),
                               *matcher._walk(0, w)])
        assert len(np.unique(rows, axis=0)) == len(rows)


@pytest.mark.parametrize("step_words", [classical._STEP_WORDS, 3])
def test_zero_entry_sends_weight_5_to_a_zero_target_after_it(
        step_words, monkeypatch, first_support):
    """The zero entry leaves a remainder of 0 below the top level of the
    descent, which then takes each entry from the row's floor on as the
    least of the rest; it must not reach back below the floor."""
    rng = random.Random(5)
    a, b, c = (rng.getrandbits(16) for _ in range(3))
    entries = [(0, 0, a), (1, 0, b), (2, 0, a ^ b), (3, 0, 0),
               (4, 0, c), (5, 0, c), (6, 0, a), (7, 0, b ^ c),
               (8, 0, a ^ c)]
    monkeypatch.setattr(classical, "_STEP_WORDS", step_words)
    matcher = SupportMatcher(entries)
    for target in (0, a, b ^ c):
        for weight in (4, 5):
            want = brute_supports(entries, weight, target)
            got = matcher.supports(weight, target).tolist()
            assert [tuple(row) for row in got] == want
            assert first_support(matcher, target, weight) == (
                None if not want else [entries[i][:2] for i in want[0]])
            # a zero target from entry 4 on
            want = [s for s in want if s[0] >= 4]
            assert first_support(matcher, target, weight, 4) == (
                None if not want else [entries[i][:2] for i in want[0]])


def test_steps_hold_at_most_block_candidates(monkeypatch):
    """Five pairs of later groups XOR to 1, the value of entry 0, so
    target 1 has five supports of weight 2, and target 0 five of weight
    3 and more of weight 4; steps of 3 words cut them up, for
    supports and for the least_weight walk alike."""
    monkeypatch.setattr(classical, "_STEP_WORDS", 3)
    entries = [(0, 0, 1), (0, 1, 1 << 20), (1, 0, 1 << 21)] + [
        (g, 0, v) for i in range(1, 6)
        for g, v in ((2 * i, 2 << i), (2 * i + 1, 2 << i ^ 1))]
    matcher = SupportMatcher(entries)
    sizes = []
    exact = SupportMatcher._exact

    def spy(self, got, rows, twords):
        sizes.append(len(rows))
        return exact(self, got, rows, twords)

    monkeypatch.setattr(SupportMatcher, "_exact", spy)
    for weight, target in ((2, 1), (3, 0), (4, 0), (4, 3 << 20 ^ 1)):
        sizes.clear()
        want = brute_supports(entries, weight, target)
        got = matcher.supports(weight, target).tolist()
        assert [tuple(r) for r in got] == want and len(want) >= 5
        assert sizes and max(sizes) <= 3
    # keep accepts only the last zero support of weight 4, so the walk
    # passes every step of weights 1 to 3
    last = brute_supports(entries, 4, 0)[-1]
    seen = []

    def keep(rows):
        seen.append(rows.shape)
        return last in [tuple(r) for r in rows.tolist()]

    assert matcher.least_weight(4, keep) == 4
    assert {w for _, w in seen} == {3, 4}
    assert max(n for n, _ in seen) <= 3


SCAN_SUPPORTS_4 = {
    # (rows, sha256 of the rows as little-endian int64), recorded with
    # the meet-in-the-middle pair-table engine that the descent replaced
    "rsh1": ((7408, 4), "2836cc6c70f0ee6637c624ca830bdec4"
                        "b48f96ada235ff3c0103fbc6d191b679"),
    "bsh": ((972, 4), "8916e6a55f58bfbe30809f68991c61b6"
                      "98b16cec7993f8936b29c98e7c9e4a26"),
}


@pytest.mark.parametrize("family", sorted(SCAN_SUPPORTS_4))
def test_scan_annihilator_supports_4_are_pinned(family):
    """The achievable weight-4 syndromes of rsh1 rep:2 and bsh rep:3, the
    zero-XOR supports of weight 4 of the columns of their annihilators
    (dense ones, whose pivot sets are large), are the rows the
    pair-table engine listed, in the same order."""
    if family == "rsh1":
        c = cons.rsh(REP2, REP2, REP2, REP2, 1)
    else:
        c = cons.bsh(REP3, REP3, REP3, REP3)
    d = StabilizerModel.from_code(c).syndrome_map
    rows = SupportMatcher.for_columns(f2.kernel_basis(d.T)).supports(4)
    shape, digest = SCAN_SUPPORTS_4[family]
    assert rows.shape == shape
    assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == digest


def test_matcher_is_freed_without_the_cycle_collector():
    """Nothing a matcher builds refers back to it, so dropping its last
    reference frees its tables at once, not at a gen-2 collection."""
    rng = random.Random(2)
    entries = [(q, p, rng.getrandbits(12)) for q in range(20)
               for p in "XZY"]
    gc.disable()
    try:
        matcher = SupportMatcher(entries)
        # a miss on a bit that no entry holds builds the bit index, and
        # its weight-1 lookup the entry table
        assert matcher.find_min(1 << 12, 4) == (None, None)
        assert len(matcher.supports(5))
        alive = [weakref.ref(a) for a in (matcher, matcher._entry_table(),
                                          *matcher._bits()[:4])]
        del matcher
        assert [ref() for ref in alive] == [None] * 6
    finally:
        gc.enable()


def brute_reduced_weight(model, e):
    """Exhaust the full generator span (rank kept small by the fixtures)."""
    gens = np.concatenate([model.xpart, model.zpart], axis=1)
    red, _ = f2.row_echelon(gens.copy())
    rows = red[red.any(axis=1)]
    n = model.n
    best = None
    for bits in itertools.product((0, 1), repeat=rows.shape[0]):
        v = e.copy()
        for i, b in enumerate(bits):
            if b:
                v ^= rows[i]
        w = int(np.count_nonzero(v[:n] | v[n:]))
        best = w if best is None or w < best else best
    return best


def test_reduced_weight_stabilizer_row_is_zero():
    c = toric18()
    model = StabilizerModel.from_code(c)
    e = np.concatenate([np.zeros(18, dtype=np.uint8), c.hz[0]])
    assert model.reduced_weight(e).tolist() == [0]


def test_reduced_weight_single_z_on_toric(pauli):
    c = toric18()
    e = pauli(18, 0, "Z")
    assert StabilizerModel.from_code(c).reduced_weight(e).tolist() == [1]


def test_reduced_weight_ring_string_folds_back():
    # Z string covering all but one qubit of a Z-stabilizer ring is one
    # stabilizer product away from a single Z
    ring = CssCode(f2.zeros(0, 6), classical.repetition_closed_loop(6).h)
    e = np.zeros(12, dtype=np.uint8)
    e[7:] = 1
    model = StabilizerModel.from_code(ring)
    # even-length strings are stabilizer products and vanish entirely
    even = np.zeros(12, dtype=np.uint8)
    even[7:11] = 1
    # one batch, one error per column
    assert model.reduced_weight(np.column_stack([e, even])).tolist() == [1, 0]


@given(st.integers(0, 2 ** 30))
@settings(max_examples=30, deadline=None)
def test_reduced_weight_matches_span_enumeration(pauli_weight, seed):
    rng = np.random.default_rng(seed)
    c = cons.hgp(REP2.h, REP2.h)  # 8 qubits, 8 checks
    model = StabilizerModel.from_code(c)
    e = rng.integers(0, 2, 16, dtype=np.uint8)
    [got] = model.reduced_weight(e, budget=8).tolist()
    assert got == brute_reduced_weight(model, e)
    assert got <= pauli_weight(e)


@pytest.mark.parametrize("code", [cons.hgp(REP2.h, REP2.h),
                                  cons.bssh(REP2)],
                         ids=["hgp", "bssh"])
@given(seed=st.integers(0, 2 ** 30), stabilizer=st.booleans())
@settings(max_examples=30, deadline=None)
def test_reduced_weight_is_zero_exactly_on_stabilizers(code, seed,
                                                       stabilizer):
    # hgp rep:2 keeps its X and Z checks in separate blocks; bssh rep:2
    # pairs row i of hx with row i of hz into one stabilizer
    model = StabilizerModel.from_code(code)
    gens = model._gens()
    rng = np.random.default_rng(seed)
    if stabilizer:
        pick = rng.integers(0, 2, gens.shape[0], dtype=np.uint8)
        e = np.bitwise_xor.reduce(gens[pick.astype(bool)], axis=0,
                                  initial=0).astype(np.uint8)
    else:
        e = rng.integers(0, 2, 2 * model.n, dtype=np.uint8)
    in_span = bool(f2.RowSpaceTester(gens).contains_batch(e[None])[0])
    assert (model.reduced_weight(e, budget=8)[0] == 0) == in_span


@pytest.mark.parametrize("p", ["X", "Y", "Z"])
def test_min_weight_decode_single_paulis(pauli, pauli_weight, p):
    model = StabilizerModel.from_code(cons.bssh(REP2))
    n = model.n
    e = pauli(n, 5, p)
    # Y sets both bits, X and Z one each
    assert (e[5], e[n + 5]) == (int(p != "Z"), int(p != "X"))
    s = f2.mat_vec(model.syndrome_map, e)
    e_hat, found = model.min_weight_decode(s)
    assert e_hat.shape == (2 * n, 1) and e_hat.dtype == np.uint8
    assert found.tolist() == [True]
    assert pauli_weight(e_hat[:, 0]) == 1
    assert (f2.mat_vec(model.syndrome_map, e_hat[:, 0]) == s).all()


def test_scan_product_complex_boundary_clean():
    j = complexes.tensor(ChainComplex([REP3.h]), ChainComplex([REP3.h]))
    rep = soundness_scan(j.boundary(2), t=3, f=quarter_square)
    assert rep.clean
    assert rep.t_scanned == 3 and rep.f_name == "quarter_square"
    assert rep.max_ratio <= 1


def test_scan_zero_map_vacuous():
    rep = soundness_scan(f2.zeros(4, 3), t=2)
    assert rep.clean
    assert rep.per_weight == {0: 0}  # no nonzero syndrome is achievable


def test_scan_flags_distant_pair_violation():
    # 1D matching chain: a syndrome pair at opposite ends needs a long
    # error string, far above x^2/4
    d = classical.repetition_open(9).h.T.copy()  # 9 checks x 8 error sites
    rep = soundness_scan(d, t=2, f=quarter_square)
    assert not rep.clean
    assert any(ws == 2 for _, ws, _ in rep.violations)


def combinations_scan(syndrome_map, t, f=quarter_square, cap=None):
    """The soundness scan as it was before SupportMatcher listed its
    achievable syndromes and answered them in batches: a walk over all
    C(m, w) supports of each weight, one DfsMatcher.find_min per
    achievable syndrome, kept as the reference for the whole report,
    violation order included."""
    d = f2.as_f2(syndrome_map)
    m = d.shape[0]
    if cap is None:
        cap = int(f(t)) + 2
    ach = f2.columns_as_ints(f2.kernel_basis(d.T))
    unit = f2.columns_as_ints(f2.identity(m))
    matcher = DfsMatcher(
        [(j, j, v) for j, v in enumerate(f2.columns_as_ints(d))])
    report = SoundnessReport(t_scanned=t, f_name=getattr(f, "fname", "custom"))
    report.per_weight[0] = 0

    def consider(supp):
        target = 0
        for i in supp:
            target ^= unit[i]
        ws = len(supp)
        w, pre = matcher.find_min(target, cap)
        bound = f(ws)
        if w is None:
            report.partial = True
            report.violations.append((tuple(supp), ws, LowerBound(cap)))
            return
        report.per_weight[ws] = max(report.per_weight.get(ws, 0), w)
        report.max_ratio = max(report.max_ratio,
                               Fraction(w) / bound if bound else Fraction(0))
        if w > bound:
            report.violations.append(
                (tuple(tag for _, tag in pre), ws, w))

    for ws in range(1, t + 1):
        for supp in itertools.combinations(range(m), ws):
            acc = 0
            for i in supp:
                acc ^= ach[i]
            if acc == 0:
                consider(supp)
    return report


@given(st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_scan_matches_combinations_scan(seed):
    rng = np.random.default_rng(seed)
    m, n = (int(x) for x in rng.integers(1, 10, 2))
    d = (rng.random((m, n)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
    t = int(rng.integers(0, 6))
    f = (quarter_square, quarter_cube)[int(rng.integers(0, 2))]
    cap = None if rng.random() < 0.7 else int(rng.integers(0, 4))
    assert (soundness_scan(d, t, f, cap)
            == combinations_scan(d, t, f, cap))


@pytest.mark.parametrize("step_words", [classical._STEP_WORDS, 3])
def test_scan_matches_combinations_scan_rsh1_rep2(step_words, monkeypatch):
    c = cons.rsh(REP2, REP2, REP2, REP2, 1)
    d = StabilizerModel.from_code(c).syndrome_map
    monkeypatch.setattr(classical, "_STEP_WORDS", step_words)
    # past t = 3 the default preimage cap makes every miss a long search
    cases = [(0, None), (1, None), (2, None), (3, None), (4, 2)]
    if step_words == 3:
        # a join step then holds one syndrome and 3 columns, so the 96
        # syndromes of weight 2 take ~5000 steps; the 7408 of weight 4
        # would take ~400000 (23 s), and at the default size they
        # already span 19 steps at each weight
        cases.pop()
    for t, cap in cases:
        want = combinations_scan(d, t, cap=cap)
        assert soundness_scan(d, t, cap=cap) == want
        assert want.violations or t < 2


def test_scan_reports_partial_when_cap_hits():
    d = classical.repetition_open(9).h.T.copy()
    rep = soundness_scan(d, t=2, f=quarter_square, cap=2)
    assert rep.partial
    assert any(isinstance(w, LowerBound) for _, _, w in rep.violations)


def test_first_soundness_lemma_instances(brute_distance):
    bases = [REP2, REP3]
    for c1 in bases:
        for c2 in bases:
            j = complexes.tensor(ChainComplex([c1.h]), ChainComplex([c2.h]))
            t = min(brute_distance(c1.h), brute_distance(c2.h))
            for d in (j.boundary(2), j.boundary(1).T.copy()):
                rep = soundness_scan(d, t=t, f=quarter_square)
                assert rep.clean, (c1.name, c2.name)


def test_composite_direct_sum_scan():
    q = complexes.tensor(cons.j_complex(REP2, REP2),
                         cons.j_complex(REP2, REP2))
    d = f2.block_compose([[q.boundary(2), None],
                          [None, q.boundary(3).T.copy()]])
    rep = soundness_scan(d, t=2, f=quarter_square)
    assert rep.clean


def test_truncated_family_cube_bound():
    # at least one of the two truncations satisfies the cubic bound
    verdicts = []
    for which in (1, 2):
        c = cons.rsh(REP2, REP2, REP2, REP2, which)
        reps = [soundness_scan(m, t=2, f=quarter_cube)
                for m in (c.hx, c.hz)]
        verdicts.append(all(r.clean for r in reps))
    assert any(verdicts)


def test_inheritance_clean_cases():
    rep = inheritance_check(REP3.h, n=2, t=3)
    assert rep.clean and rep.max_ratio <= 1
    j = complexes.tensor(ChainComplex([REP2.h]), ChainComplex([REP2.h]))
    assert inheritance_check(j.boundary(2), n=2, t=2).clean


def test_inheritance_n1_matches_base_scan():
    base = soundness_scan(REP3.h, t=3)
    rep = inheritance_check(REP3.h, n=1, t=3)
    assert rep.max_ratio == base.max_ratio
    assert rep.per_weight == base.per_weight


def test_inheritance_raises_on_unsound_input():
    d = classical.repetition_open(9).h.T.copy()
    with pytest.raises(LemmaContradictionError):
        inheritance_check(d, n=2, t=2)


def test_model_syndrome_agrees_with_css_view():
    c = toric18()
    model = StabilizerModel.from_code(c)
    rng = np.random.default_rng(3)
    for _ in range(10):
        e = rng.integers(0, 2, 36, dtype=np.uint8)
        want = np.concatenate([f2.mat_vec(c.hx, e[18:]),
                               f2.mat_vec(c.hz, e[:18])])
        assert (f2.mat_vec(model.syndrome_map, e) == want).all()


def test_model_shape_mismatch():
    with pytest.raises(ValueError):
        StabilizerModel(f2.zeros(2, 3), f2.zeros(2, 4))


def test_repair_syndrome_identity_and_single_flip(pauli):
    rot = cons.bssh(REP2)
    model = StabilizerModel.from_code(rot)
    e = pauli(model.n, 5, "Z")
    s = f2.mat_vec(model.syndrome_map, e)
    u = np.zeros(model.m, dtype=np.uint8)
    u[7] = 1
    # one batch: the clean readout and the one with outcome 7 flipped
    repaired, found = model.repair_syndrome(np.column_stack([s, s ^ u]))
    assert found.tolist() == [True, True]
    assert (repaired[:, 0] == s).all()
    # the repaired syndrome is achievable again
    ann, _ = model._meta_tools()
    assert not f2.mat_mul(ann, repaired).any()
    assert f2.weight(repaired[:, 1] ^ s ^ u) <= 1


def decode_batch(model, e, u):
    """Reduced residual weights of the two-stage decoder over the columns
    of e and u, -1 where a search exhausts its budget."""
    residual, decoded = decode_residual(model, e, u)
    return np.where(decoded, model.reduced_weight(residual), -1)


def test_single_shot_noiseless_identity():
    rot = cons.bssh(REP2)
    e = np.zeros(2 * rot.n, dtype=np.uint8)
    u = np.zeros(rot.check_count(), dtype=np.uint8)
    assert decode_batch(StabilizerModel.from_code(rot), e, u).tolist() == [0]


def test_single_shot_weight1_error_clean_readout(pauli):
    rot = cons.bsh(REP2, REP2, REP2, REP2)
    model = StabilizerModel.from_code(rot)
    e = np.column_stack([pauli(rot.n, qubit, p)
                         for qubit, p in [(0, "X"), (40, "Z"), (90, "Y")]])
    u = np.zeros((model.m, 3), dtype=np.uint8)
    assert decode_batch(model, e, u).tolist() == [0, 0, 0]


def test_single_shot_one_flipped_outcome():
    rot = cons.bsh(REP2, REP2, REP2, REP2)
    model = StabilizerModel.from_code(rot)
    e = np.zeros((2 * rot.n, 3), dtype=np.uint8)
    u = np.zeros((model.m, 3), dtype=np.uint8)
    u[[0, 50, 127], [0, 1, 2]] = 1
    rw = decode_batch(model, e, u)
    assert all(0 <= w and Fraction(w) <= quarter_square(2)
               for w in rw.tolist())

import math
from dataclasses import replace
from itertools import product as iproduct

import numpy as np
import pytest

from shadowbench import symbolic
from shadowbench.symbolic import (
    SFT,
    PeriodicWord,
    SubshiftPresentation,
    as_presentation,
    canonical_cycle,
    equality_witness,
    is_locally_maximal,
    is_member,
    language,
    sft_closure,
    shift_metric,
    shift_metric_with_bound,
    stabilization_check,
    symbolic_shadow,
)
from shadowbench.symbolic import _generator_rows


def W(*cycles, n=2):
    return SubshiftPresentation(n, tuple(PeriodicWord.from_cycle(c, n) for c in cycles))


def random_word(rng, n=2):
    L = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 4)))
    core = tuple(int(v) for v in rng.integers(n, size=rng.integers(0, 4)))
    R = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 4)))
    return PeriodicWord(L, core, R, n, offset=int(rng.integers(-3, 4)))


def random_presentation(rng, n=2):
    gens = tuple(random_word(rng, n) for _ in range(rng.integers(1, 4)))
    return SubshiftPresentation(n, gens)


def golden_mean_presentation():
    # no "11": all periodic orbits up to period 4 of the golden-mean SFT
    return W((0,), (0, 1), (0, 0, 1), (0, 0, 0, 1))


def even_shift_presentation():
    # runs of 1s of even length, up to 10, plus the two fixed words
    cycles = [(0,), (1,)] + [(0,) + (1,) * (2 * m) for m in range(1, 6)]
    return W(*cycles)


class TestPeriodicWord:
    def test_symbol_indexing(self):
        w = PeriodicWord((0,), (1, 1), (0, 1), 2)
        assert [w.symbol_at(i) for i in range(-3, 6)] == [0, 0, 0, 1, 1, 0, 1, 0, 1]

    def test_shift_relabels_exactly(self, rng):
        for _ in range(50):
            w = random_word(rng)
            n = int(rng.integers(-5, 6))
            shifted = w.shift(n)
            for i in range(-8, 9):
                assert shifted.symbol_at(i) == w.symbol_at(i + n)

    def test_agrees_with_detects_same_sequence(self):
        a = PeriodicWord((0, 1), (), (0, 1), 2)           # ...010101...
        # other representations of ...0101...: they agree, but `==` compares
        # representations
        for b in (PeriodicWord((1, 0), (), (1, 0), 2, offset=1),
                  PeriodicWord((0, 1, 0, 1), (0, 1), (0, 1), 2)):
            assert a.agrees_with(b) and b.agrees_with(a)
            assert a != b
        assert a.agrees_with(a.shift(2))              # period 2
        assert not a.agrees_with(a.shift(1))          # odd shift flips phase

    def test_canonical_preserves_sequence(self, rng):
        for _ in range(100):
            w = random_word(rng)
            assert w.agrees_with(w.canonical())

    def test_text_roundtrip(self, rng):
        for _ in range(100):
            w = random_word(rng)
            back = PeriodicWord.from_text(w.to_text(), w.alphabet_size)
            assert w.agrees_with(back)

    def test_periodic_root(self):
        w = PeriodicWord((0, 1), (), (0, 1), 2)
        assert w.periodic_root() == (0, 1)
        h = PeriodicWord((0,), (1,), (0,), 2)
        assert h.periodic_root() is None

    def test_cycles_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            PeriodicWord((), (0,), (0,), 2)


class TestShiftMetric:
    def test_identity(self):
        a = PeriodicWord.from_cycle((0, 1), 2)
        assert shift_metric(a, a) == 0.0

    def test_single_difference_at_origin(self):
        a = PeriodicWord.constant(0, 2)
        b = PeriodicWord((0,), (1,), (0,), 2)
        assert shift_metric(a, b) == 1.0

    def test_difference_at_plus_minus_one(self):
        a = PeriodicWord.constant(0, 2)
        b = PeriodicWord((0,), (1, 0, 1), (0,), 2, offset=1)
        assert [b.symbol_at(i) for i in (-1, 0, 1)] == [1, 0, 1]
        assert shift_metric(a, b) == 0.5 + 0.5

    def test_exactness_flag(self):
        a = PeriodicWord.constant(0, 2)
        b = PeriodicWord((0,), (1,), (0,), 2)
        val, tail = shift_metric_with_bound(a, b)
        assert (val, tail) == (1.0, 0.0)
        c = PeriodicWord.from_cycle((0, 1), 2)
        _, tail = shift_metric_with_bound(a, c, precision=10)
        assert tail == 4.0 / 2 ** 10

    def test_metric_axioms_exact_random_triples(self, rng):
        for _ in range(1000):
            a, b, c = (random_word(rng) for _ in range(3))
            dab = shift_metric(a, b)
            assert dab == shift_metric(b, a)
            assert shift_metric(a, c) <= dab + shift_metric(b, c)
            assert shift_metric(a, a) == 0.0


class TestLanguage:
    def test_fixed_sequence(self):
        s = W((0,))
        assert language(s, 2) == ((0, 0),)

    def test_two_cycle_orbit_closure(self):
        s = W((0, 1))
        assert language(s, 2) == ((0, 1), (1, 0))

    def test_heteroclinic_adds_transition_words(self):
        gens = (
            PeriodicWord.constant(0, 2),
            PeriodicWord.constant(1, 2),
            PeriodicWord((0,), (), (1,), 2),  # 0^inf -> 1^inf
        )
        s = SubshiftPresentation(2, gens)
        assert language(s, 2) == ((0, 0), (0, 1), (1, 1))


class TestSFT:
    def test_membership_golden_mean(self):
        t = SFT(2, 2, frozenset({(0, 0), (0, 1), (1, 0)}))
        assert is_member(t, PeriodicWord.constant(0, 2))
        assert not is_member(t, PeriodicWord.from_cycle((0, 1, 1), 2))
        assert is_member(t, PeriodicWord.constant(1, 2)) is False  # 11 forbidden
        loop = SFT(2, 2, frozenset({(1, 1)}))
        assert is_member(loop, PeriodicWord.constant(1, 2))

    def test_closure_of_heteroclinic_adds_nothing(self):
        gens = (
            PeriodicWord.constant(0, 2),
            PeriodicWord.constant(1, 2),
            PeriodicWord((0,), (), (1,), 2),
        )
        s = SubshiftPresentation(2, gens)
        t = sft_closure(s, 2)
        assert t.words == {(0, 0), (0, 1), (1, 1)}
        # all periodic points of M_W were already in s
        assert t.periodic_cycles(4) == {(0,), (1,)}
        assert s.periodic_cycles() >= t.periodic_cycles(4)

    def test_single_periodic_orbit_is_its_own_closure(self):
        s = W((0, 1))
        t = sft_closure(s, 2)
        assert t.words == {(0, 1), (1, 0)}
        assert t.periodic_cycles(4) == {(0, 1)}

    def test_monotone_in_k(self, rng):
        for _ in range(20):
            s = random_presentation(rng)
            k = int(rng.integers(1, 4))
            tk = sft_closure(s, k)
            tk1 = sft_closure(s, k + 1)
            for cyc in tk1.periodic_cycles(2 * k + 2):
                assert tk.admits_cycle(cyc)

    def test_as_presentation_reproduces_language(self, rng):
        for _ in range(20):
            s = random_presentation(rng, n=int(rng.integers(2, 4)))
            k = int(rng.integers(1, 4))
            t = sft_closure(s, k)
            p = as_presentation(t)
            assert set(language(p, k)) == set(t.words)


class TestLocallyMaximal:
    def test_full_shift_window_one(self):
        s = W((0,), (1,), (0, 1))
        assert is_locally_maximal(s, 4) == 1

    def test_golden_mean_window_two(self):
        s = golden_mean_presentation()
        assert is_locally_maximal(s, 4) == 2
        # k = 1 fails: the full shift has the fixed point 1^inf, s does not
        w = equality_witness(s, 1)
        assert w is not None and w.periodic_root() == (1,)

    def test_even_shift_not_sft_up_to_eight(self):
        s = even_shift_presentation()
        assert is_locally_maximal(s, 8, period_bound=16) is None
        for k in range(1, 9):
            w = equality_witness(s, k, period_bound=16)
            assert w is not None, f"no witness at k={k}"
            cyc = w.periodic_root()
            runs = _cyclic_one_runs(cyc)
            assert any(r % 2 == 1 for r in runs), (k, cyc)

    def test_symbolic_bracket_splice_membership(self, rng):
        # a, b in M_W agreeing on [0, k-1]: past-of-b glued to future-of-a stays in M_W
        for _ in range(20):
            s = random_presentation(rng)
            k = int(rng.integers(1, 4))
            t = sft_closure(s, k)
            p = as_presentation(t)
            a = p.generators[int(rng.integers(len(p.generators)))]
            b = p.generators[int(rng.integers(len(p.generators)))]
            shift_b = _align_on_window(a, b, k)
            if shift_b is None:
                continue
            b = b.shift(shift_b)
            L = len(b.left_cycle)
            lo = min(b.core_lo, 0)
            left = tuple(b.symbol_at(i) for i in range(lo - L, lo))
            core = tuple(b.symbol_at(i) for i in range(lo, 0)) + tuple(
                a.symbol_at(i) for i in range(0, max(a.core_hi, 1)))
            right = tuple(a.symbol_at(i) for i in
                          range(max(a.core_hi, 1), max(a.core_hi, 1) + len(a.right_cycle)))
            spliced = PeriodicWord(left, core, right, 2, offset=-lo)
            assert is_member(t, spliced)


def _align_on_window(a, b, k):
    """Shift for b making it agree with a on [0, k-1], if one exists nearby:
    b.shift(j) reads b(i + j), so returning j aligns b's window at j to 0."""
    target = a.window(0, k)
    for j in range(-6, 7):
        if b.window(j, k) == target:
            return j
    return None


def _cyclic_one_runs(cycle):
    n = len(cycle)
    if all(s == 1 for s in cycle):
        return [n]
    runs = []
    doubled = list(cycle) + list(cycle)
    i = 0
    while i < n:
        if doubled[i] == 1 and (doubled[i - 1] if i else cycle[-1]) == 0:
            j = i
            while doubled[j] == 1:
                j += 1
            runs.append(j - i)
            i = j
        else:
            i += 1
    return runs


class TestSymbolicShadow:
    def test_exact_orbit_returns_itself(self):
        s = golden_mean_presentation()
        t = sft_closure(s, 2)
        a = PeriodicWord.from_cycle((0, 0, 1), 2)
        pseudo = [a.shift(i) for i in range(-4, 5)]
        out = symbolic_shadow(t, pseudo, delta=0.1, start_index=-4)
        assert out.agrees_with(a)

    def test_heteroclinic_glue_in_full_shift(self):
        t = SFT(2, 1, frozenset({(0,), (1,)}))
        h = PeriodicWord((0,), (), (1,), 2, offset=-8)  # junction at index 8
        pseudo = [PeriodicWord.constant(0, 2)] * 4 + [h.shift(i) for i in range(4, 13)]
        out = symbolic_shadow(t, pseudo, delta=0.2, start_index=0)
        assert out.agrees_with(h)

    def test_gap_identifies_failing_index(self):
        t = SFT(2, 1, frozenset({(0,), (1,)}))
        pseudo = [PeriodicWord.constant(0, 2), PeriodicWord.constant(1, 2)]
        with pytest.raises(ValueError, match="index 3"):
            symbolic_shadow(t, pseudo, delta=0.2, start_index=3)

    def test_words_outside_the_sft_rejected(self):
        # constant 1 has no gaps but contains the forbidden block 11
        t = sft_closure(W((0,), (0, 1)), 2)
        with pytest.raises(ValueError, match="left the SFT"):
            symbolic_shadow(t, [PeriodicWord.constant(1, 2)] * 3, delta=0.1)

    def test_equivariance_exact(self, rng):
        for _ in range(50):
            s = random_presentation(rng)
            k = int(rng.integers(1, 4))
            t = sft_closure(s, k)
            g = s.generators[int(rng.integers(len(s.generators)))]
            start = int(rng.integers(-5, 1))
            m = int(rng.integers(2, 8))
            pseudo = [g.shift(start + i) for i in range(m)]
            lhs = symbolic_shadow(t, pseudo, delta=2.0 ** -(k + 2), start_index=start - 1)
            rhs = symbolic_shadow(t, pseudo, delta=2.0 ** -(k + 2), start_index=start).shift(1)
            assert lhs.agrees_with(rhs)

    def test_shadows_within_two_delta(self):
        t = SFT(2, 1, frozenset({(0,), (1,)}))
        h = PeriodicWord((0,), (), (1,), 2, offset=-8)
        pseudo = [PeriodicWord.constant(0, 2)] * 4 + [h.shift(i) for i in range(4, 13)]
        delta = 0.2
        out = symbolic_shadow(t, pseudo, delta=delta, start_index=0)
        for i, w in enumerate(pseudo):
            assert shift_metric(out.shift(i), w) < 2 * delta


class TestStabilization:
    def test_window_one_always_stabilizes(self, rng):
        for _ in range(10):
            assert stabilization_check(random_presentation(rng), 1)

    def test_random_presentations_stabilize(self, rng):
        for _ in range(25):
            s = random_presentation(rng, n=int(rng.integers(2, 4)))
            k = int(rng.integers(1, 5))
            assert stabilization_check(s, k)

    def test_even_shift_stabilizes_even_though_not_sft(self):
        assert stabilization_check(even_shift_presentation(), 4)

    def test_closure_extensive_and_idempotent(self, rng):
        for _ in range(20):
            s = random_presentation(rng)
            k = int(rng.integers(1, 4))
            t = sft_closure(s, k)
            for g in s.generators:
                assert is_member(t, g)   # extensive: s subset of M_W
            assert stabilization_check(s, k)  # idempotent at fixed k


def test_canonical_cycle_primitive_and_minimal():
    assert canonical_cycle((1, 0, 1, 0)) == (0, 1)
    assert canonical_cycle((2, 1, 0)) == (0, 2, 1)
    assert canonical_cycle((1, 1, 1)) == (1,)


# ---------------------------------------------------------------------------
# Reference implementations: the per-index code the module used before it
# worked on whole windows.  The window code must give the same answers.


def ref_symbol_at(w, i):
    j = i + w.offset
    if j < 0:
        return w.left_cycle[j % len(w.left_cycle)]
    if j >= len(w.core):
        return w.right_cycle[(j - len(w.core)) % len(w.right_cycle)]
    return w.core[j]


def ref_window(w, start, length):
    return tuple(ref_symbol_at(w, start + i) for i in range(length))


def ref_agrees(a, b):
    if a.alphabet_size != b.alphabet_size:
        return False
    lp = math.lcm(len(a.left_cycle), len(b.left_cycle))
    rp = math.lcm(len(a.right_cycle), len(b.right_cycle))
    lo = min(a.core_lo, b.core_lo) - lp
    hi = max(a.core_hi, b.core_hi) + rp
    return all(ref_symbol_at(a, i) == ref_symbol_at(b, i) for i in range(lo, hi))


def ref_periodic_root(w):
    bound = 2 * math.lcm(len(w.left_cycle), len(w.right_cycle)) + len(w.core)
    for p in range(1, bound + 1):
        if ref_agrees(w, w.shift(p)):
            return canonical_cycle(ref_window(w, 0, p))
    return None


def ref_limit_cycles(w):
    out = {canonical_cycle(w.left_cycle), canonical_cycle(w.right_cycle)}
    root = ref_periodic_root(w)
    if root is not None:
        out.add(root)
    return out


def ref_canonical(w):
    L, R = len(w.left_cycle), len(w.right_cycle)
    lo = min(w.core_lo, 0)
    hi = max(w.core_hi, 0)
    left = tuple(ref_symbol_at(w, i) for i in range(lo - L, lo))
    core = [ref_symbol_at(w, i) for i in range(lo, hi)]
    right = tuple(ref_symbol_at(w, i) for i in range(hi, hi + R))
    while core and core[-1] == right[-1]:
        core.pop()
        right = (right[-1],) + right[:-1]
    while core and core[0] == left[0]:
        core = core[1:]
        left = left[1:] + (left[0],)
        lo += 1
    return PeriodicWord(left, tuple(core), right, w.alphabet_size, offset=-lo)


def ref_metric(a, b, precision):
    total = 0.0
    for i in range(-precision, precision + 1):
        if ref_symbol_at(a, i) != ref_symbol_at(b, i):
            total += 2.0 ** -abs(i)
    right_from = max(a.core_hi, b.core_hi, precision + 1)
    rp = math.lcm(len(a.right_cycle), len(b.right_cycle))
    left_from = min(a.core_lo, b.core_lo, -precision - 1)
    lp = math.lcm(len(a.left_cycle), len(b.left_cycle))
    tails = (all(ref_symbol_at(a, i) == ref_symbol_at(b, i)
                 for i in range(right_from, right_from + rp))
             and all(ref_symbol_at(a, i) == ref_symbol_at(b, i)
                     for i in range(left_from - lp, left_from)))
    return total, 0.0 if tails else 4.0 / 2 ** precision


def ref_language(s, k):
    words = set()
    for g in s.generators:
        L, R = len(g.left_cycle), len(g.right_cycle)
        for p in range(g.core_lo - k - L + 1, g.core_hi + R):
            words.add(ref_window(g, p, k))
    return tuple(sorted(words))


def ref_periodic_cycles(t, max_period):
    out = set()
    for p in range(1, max_period + 1):
        for cand in iproduct(range(t.alphabet_size), repeat=p):
            if canonical_cycle(cand) == cand and t.admits_cycle(cand):
                out.add(cand)
    return out


def ref_witness(s, k, period_bound=None):
    t = SFT(s.alphabet_size, k, frozenset(ref_language(s, k)))
    bound = 2 * k if period_bound is None else period_bound
    have = set().union(*(ref_limit_cycles(g) for g in s.generators))
    for cyc in sorted(ref_periodic_cycles(t, bound), key=lambda c: (len(c), c)):
        if cyc not in have:
            return cyc
    return None


def ref_is_locally_maximal(s, kmax, period_bound=None):
    for k in range(1, kmax + 1):
        words = set(ref_language(s, k))
        if not all(set(ref_language(SubshiftPresentation(s.alphabet_size, (g,)), k)) <= words
                   for g in s.generators):
            continue
        if ref_witness(s, k, period_bound) is None:
            return k
    return None


def ref_splice(pseudo, start_index, alphabet_size):
    first, last = pseudo[0], pseudo[-1]
    end_index = start_index + len(pseudo) - 1
    lo = min(start_index + first.core_lo, start_index)
    hi = max(end_index + last.core_hi, end_index + 1)

    def global_symbol(i):
        if i < start_index:
            return ref_symbol_at(first, i - start_index)
        if i > end_index:
            return ref_symbol_at(last, i - end_index)
        return ref_symbol_at(pseudo[i - start_index], 0)

    L, R = len(first.left_cycle), len(last.right_cycle)
    left = tuple(global_symbol(i) for i in range(lo - L, lo))
    core = tuple(global_symbol(i) for i in range(lo, hi))
    right = tuple(global_symbol(i) for i in range(hi, hi + R))
    return PeriodicWord(left, core, right, alphabet_size, offset=-lo)


def fields(w):
    return (w.left_cycle, w.core, w.right_cycle, w.alphabet_size, w.offset)


def random_test_word(rng):
    """Alphabet of 2 or 3, offset in -6..6; one word in three is globally
    periodic, written with a core and rotated tails."""
    n = int(rng.integers(2, 4))
    offset = int(rng.integers(-6, 7))
    if rng.random() < 1 / 3:
        c = tuple(int(v) for v in rng.integers(n, size=rng.integers(1, 5)))
        j = int(rng.integers(len(c) + 1))
        reps = int(rng.integers(0, 3))
        core = c * reps + c[:j]
        return PeriodicWord(c, core, c[j:] + c[:j], n, offset=offset)
    w = random_word(rng, n)
    return replace(w, offset=offset)


def random_test_presentation(rng):
    first = random_test_word(rng)
    n = first.alphabet_size
    more = []
    for _ in range(int(rng.integers(0, 3))):
        w = random_test_word(rng)
        while w.alphabet_size != n:
            w = random_test_word(rng)
        more.append(w)
    return SubshiftPresentation(n, (first, *more))


class TestWindowCodeMatchesReference:
    N_WORDS = 3000

    def test_windows_roots_and_canonical_forms(self, rng):
        periodic = 0
        for _ in range(self.N_WORDS):
            w = random_test_word(rng)
            for start in range(-12, 13, 3):
                for length in (0, 1, 2, 5, 11):
                    assert w.window(start, length) == ref_window(w, start, length)
            assert tuple(w.symbol_at(i) for i in range(-9, 10)) == ref_window(w, -9, 19)
            root = w.periodic_root()
            assert root == ref_periodic_root(w)
            periodic += root is not None
            assert w.limit_cycles() == ref_limit_cycles(w)
            assert fields(w.canonical()) == fields(ref_canonical(w))
            assert w.to_text() == w.canonical().to_text()
            assert PeriodicWord.from_text(w.to_text(), w.alphabet_size).agrees_with(w)
        assert periodic > self.N_WORDS // 4

    def test_agreement_and_metric(self, rng):
        for _ in range(self.N_WORDS):
            a = random_test_word(rng)
            other = random_test_word(rng)
            while other.alphabet_size != a.alphabet_size:
                other = random_test_word(rng)
            b = [a.canonical(),          # the same sequence, another representation
                 a.shift(int(rng.integers(-3, 4))),
                 replace(a, left_cycle=other.left_cycle),    # differs in one tail at most
                 replace(a, right_cycle=other.right_cycle),
                 other][int(rng.integers(5))]
            assert a.agrees_with(b) == ref_agrees(a, b)
            for precision in (5, 20, 50):
                assert shift_metric_with_bound(a, b, precision) == ref_metric(a, b, precision)

    def test_language(self, rng):
        for _ in range(1000):
            s = random_test_presentation(rng)
            for k in (1, 2, 3, 5):
                assert language(s, k) == ref_language(s, k)

    def test_witness_and_window_detection(self, rng):
        for _ in range(150):
            s = random_test_presentation(rng)
            for k in (1, 2, 3):
                w = equality_witness(s, k)
                want = ref_witness(s, k)
                assert (w.periodic_root() if w is not None else None) == want
                if w is not None:
                    assert fields(w) == fields(PeriodicWord.from_cycle(want, s.alphabet_size))
            assert is_locally_maximal(s, 3) == ref_is_locally_maximal(s, 3)
        s = even_shift_presentation()
        for k in range(1, 5):
            assert equality_witness(s, k, period_bound=10).periodic_root() == ref_witness(s, k, 10)

    def test_periodic_cycles_set(self, rng):
        for _ in range(100):
            s = random_test_presentation(rng)
            t = sft_closure(s, int(rng.integers(1, 4)))
            bound = 6 if s.alphabet_size == 2 else 4
            assert t.periodic_cycles(bound) == ref_periodic_cycles(t, bound)

    def test_cycle_order_matches_brute_force(self, rng):
        # the pruned Lyndon search yields exactly the brute-force cycles,
        # shortest first and lexicographic within a length, also on word
        # sets with dead ends and on the closures the window calls build
        def in_order(t, bound):
            return sorted(ref_periodic_cycles(t, bound), key=lambda c: (len(c), c))

        for _ in range(300):
            n, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            words = [w for w in iproduct(range(n), repeat=k) if rng.random() < 0.6]
            t = SFT(n, k, frozenset(words))
            bound = {1: 8, 2: 8, 3: 5}[n]
            assert list(t._cycles_in_order(bound)) == in_order(t, bound)
        for s in (W((0,), (1,), (0, 1)), golden_mean_presentation(),
                  even_shift_presentation()):
            for k in range(1, 9):
                t = sft_closure(s, k)
                assert list(t._cycles_in_order(10)) == in_order(t, 10)

    def test_window_calls_match_reference(self, rng):
        # is_locally_maximal shares one language across windows and starts
        # each window's search at the previous window's witness
        for s in (W((0,), (1,), (0, 1)), golden_mean_presentation()):
            assert is_locally_maximal(s, 8) == ref_is_locally_maximal(s, 8)
        s = even_shift_presentation()
        assert is_locally_maximal(s, 6, period_bound=10) is None
        assert ref_is_locally_maximal(s, 6, period_bound=10) is None
        windows = set()
        for _ in range(150):
            s = random_test_presentation(rng)
            bound = 6 if s.alphabet_size == 2 else 4
            got = is_locally_maximal(s, 5, period_bound=bound)
            assert got == ref_is_locally_maximal(s, 5, period_bound=bound)
            windows.add(got)
        assert len(windows) >= 3

    def test_splice(self, rng):
        checked = 0
        for _ in range(600):
            s = random_test_presentation(rng)
            k = int(rng.integers(1, 4))
            t = sft_closure(s, k)
            g = s.generators[int(rng.integers(len(s.generators)))]
            start = int(rng.integers(-6, 7))
            pseudo = [g.shift(start + i) for i in range(int(rng.integers(1, 8)))]
            index = int(rng.integers(-6, 7))
            out = symbolic_shadow(t, pseudo, delta=2.0 ** -(k + 2), start_index=index)
            assert fields(out) == fields(ref_splice(pseudo, index, s.alphabet_size))
            checked += 1
        h = PeriodicWord((0,), (), (1,), 2, offset=-8)
        pseudo = [PeriodicWord.constant(0, 2)] * 4 + [h.shift(i) for i in range(4, 13)]
        out = symbolic_shadow(SFT(2, 1, frozenset({(0,), (1,)})), pseudo, 0.2, start_index=-3)
        assert fields(out) == fields(ref_splice(pseudo, -3, 2))
        assert checked == 600


class TestDecisionPreconditions:
    def test_period_bound_below_one_refused(self):
        s = even_shift_presentation()
        for bound in (0, -1):
            with pytest.raises(ValueError, match="period_bound must be >= 1"):
                is_locally_maximal(s, 8, period_bound=bound)
            with pytest.raises(ValueError, match="period_bound must be >= 1"):
                equality_witness(s, 2, period_bound=bound)

    def test_kmax_below_one_refused(self):
        for kmax in (0, -1):
            with pytest.raises(ValueError, match="kmax must be >= 1"):
                is_locally_maximal(golden_mean_presentation(), kmax)

    def test_enumeration_cap_refusal(self):
        # 10 + 10^2 + ... + 10^7 = 11111110 words exceed the fixed cap of 10^7
        t = SFT(10, 1, frozenset((s,) for s in range(10)))
        message = "periodic-point enumeration of 11111110 words exceeds cap"
        with pytest.raises(ValueError, match=message):
            t.periodic_cycles(7)
        s = SubshiftPresentation(10, (PeriodicWord.constant(0, 10),))
        with pytest.raises(ValueError, match=message):
            equality_witness(s, 1, period_bound=7)


# ---------------------------------------------------------------------------
# Reference kernels for the de Bruijn path: one first-choice walk per word
# and direction, and one slice per k-block.  The library memoizes the walks,
# trims dead-end branches first, and zips shifted slices instead.


def reference_debruijn_edges(t, forward):
    """De Bruijn edges by (k-1)-block: the admissible words leaving each
    block (forward) or entering it (backward), in sorted order."""
    edges = {}
    for w in t.sorted_words():
        edges.setdefault(w[:-1] if forward else w[1:], []).append(w)
    return edges


def reference_walk_to_cycle(start, edges, forward):
    """Follow first-choice de Bruijn edges from `start` until a block
    repeats.  Returns (emitted symbols, cycle symbols) in walking order;
    the cycle is empty when the walk dead-ends."""
    node = start
    seen = {node: 0}
    emitted = []
    while True:
        choices = edges.get(node)
        if not choices:
            return emitted, ()
        w = choices[0]
        emitted.append(w[-1] if forward else w[0])
        node = w[1:] if forward else w[:-1]
        if node in seen:
            idx = seen[node]
            return emitted[:idx], tuple(emitted[idx:])
        seen[node] = len(emitted)


def reference_as_presentation(t):
    succ = reference_debruijn_edges(t, forward=True)
    pred = reference_debruijn_edges(t, forward=False)
    gens = []
    for w in t.sorted_words():
        back_emit, back_cycle = reference_walk_to_cycle(w[:-1], pred, forward=False)
        fwd_emit, fwd_cycle = reference_walk_to_cycle(w[1:], succ, forward=True)
        if not back_cycle or not fwd_cycle:
            continue
        core = tuple(reversed(back_emit)) + w + tuple(fwd_emit)
        gens.append(PeriodicWord(tuple(reversed(back_cycle)), core, fwd_cycle,
                                 t.alphabet_size))
    if not gens:
        raise ValueError("SFT admits no bi-infinite words; empty presentation")
    return SubshiftPresentation(t.alphabet_size, tuple(gens))


def reference_language(s, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    words = set()
    for g in s.generators:
        lo = g.core_lo - k - len(g.left_cycle) + 1
        count = g.core_hi + len(g.right_cycle) - lo
        unrolled = g.window(lo, count + k - 1)
        words.update(unrolled[p:p + k] for p in range(count))
    return tuple(sorted(words))


def reference_word_check(left, core, right, alphabet_size):
    """The PeriodicWord checks, one symbol at a time: the error text or None."""
    if not left or not right:
        return "cycles must be nonempty"
    for sym in (*left, *core, *right):
        if not 0 <= sym < alphabet_size:
            return f"symbol {sym} outside alphabet of size {alphabet_size}"
    return None


def reference_sft_check(alphabet_size, k, words):
    """The SFT checks, one word and symbol at a time: the error text or None."""
    for w in words:
        if len(w) != k:
            return f"admissible word {w} has length != {k}"
        if any(not 0 <= s < alphabet_size for s in w):
            return f"word {w} leaves the alphabet"
    return None


def bi_infinite_words(words, n):
    """Brute force: the words over n symbols that extend by len(words) + 1
    admissible symbols on both sides.  A walk that long repeats a (k-1)-block, so it
    can be pumped forever: exactly the words on bi-infinite paths."""
    depth = len(words) + 1
    ahead = {w: True for w in words}   # extends by 0 symbols
    behind = dict(ahead)
    for _ in range(depth):
        ahead = {w: any(ahead.get(w[1:] + (a,), False) for a in range(n)) for w in words}
        behind = {w: any(behind.get((a,) + w[:-1], False) for a in range(n)) for w in words}
    return {w for w in words if ahead[w] and behind[w]}


def kernel_cases(seed, n_presentations=40):
    """Closures of random presentations (2-3 symbols, 1-3 generators) at
    k = 1..8, then of the full, golden-mean and even shifts."""
    rng = np.random.default_rng(seed)
    named = [W((0,), (1,), (0, 1)), golden_mean_presentation(), even_shift_presentation()]
    sources = [random_presentation(rng, n=int(rng.integers(2, 4)))
               for _ in range(n_presentations)] + named
    return [(s, k) for s in sources for k in range(1, 9)]


class TestDeBruijnKernelsMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generators_and_languages(self, seed):
        for s, k in kernel_cases(seed):
            assert language(s, k) == reference_language(s, k)
            t = sft_closure(s, k)
            assert t.words == set(reference_language(s, k))
            p = as_presentation(t)
            ref = reference_as_presentation(t)
            assert [fields(g) for g in p.generators] == [fields(g) for g in ref.generators]
            assert language(p, k) == reference_language(ref, k)
            assert stabilization_check(s, k)

    def test_membership_matches_language(self, rng):
        for _ in range(200):
            s = random_presentation(rng, n=int(rng.integers(2, 4)))
            k = int(rng.integers(1, 5))
            t = sft_closure(s, k)
            w = random_word(rng, n=s.alphabet_size)
            probe = SubshiftPresentation(s.alphabet_size, (w,))
            assert is_member(t, w) == (set(reference_language(probe, k)) <= t.words)

    def test_bad_words_raise_the_same_text(self):
        cases = [((0,), (), (), 2), ((), (1,), (0,), 2), ((-1,), (), (0,), 2),
                 ((0,), (2,), (0,), 2), ((0,), (0, 1), (3, 0), 3), ((0, 5), (), (1,), 3)]
        for left, core, right, n in cases:
            message = reference_word_check(left, core, right, n)
            with pytest.raises(ValueError) as err:
                PeriodicWord(left, core, right, n)
            assert str(err.value) == message

    def test_bad_sfts_raise_the_same_text(self):
        cases = [(2, 2, [(0, 1), (0,)]), (2, 2, [(0, 1, 1)]), (2, 2, [(0, 2)]),
                 (3, 1, [(-1,)]), (2, 2, [(1, 0), (0, 0, 0), (5, 5)]), (2, 1, [(0,), (1, 1)])]
        for n, k, words in cases:
            for order in (words, words[::-1]):
                message = reference_sft_check(n, k, order)
                with pytest.raises(ValueError) as err:
                    SFT(n, k, order)
                assert str(err.value) == message


def two_closure_check(s, k):
    """The stabilization check through a built presentation: re-present the
    window-k closure as words, close it again and compare."""
    first = sft_closure(s, k)
    return sft_closure(as_presentation(first), k).words == first.words


class TestStabilizationOnRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_two_closures(self, seed):
        for s, k in kernel_cases(seed):
            assert stabilization_check(s, k) == two_closure_check(s, k)
            t = sft_closure(s, k)
            gens = as_presentation(t).generators
            assert [fields(g)[:3] for g in gens] == _generator_rows(t)
            assert {fields(g)[3:] for g in gens} == {(t.alphabet_size, 0)}

    @pytest.mark.parametrize("k", [2, 3])
    def test_flipped_cycle_symbol_reads_false(self, monkeypatch, k):
        walks = symbolic._first_choice_walks

        def flip_one_cycle(first, forward):
            memo = walks(first, forward)
            if forward:
                node = min(memo)
                emitted, cycle = memo[node]
                memo[node] = (emitted, (1 - cycle[0],) + cycle[1:])
            return memo

        s = golden_mean_presentation()
        assert stabilization_check(s, k)
        monkeypatch.setattr(symbolic, "_first_choice_walks", flip_one_cycle)
        assert not stabilization_check(s, k)
        assert not two_closure_check(s, k)

    def test_builds_no_words_or_presentations(self, monkeypatch):
        cases = kernel_cases(0, n_presentations=10)
        built = []
        for cls in (PeriodicWord, SubshiftPresentation):
            def spy(self, check=cls.__post_init__):
                built.append(type(self).__name__)
                check(self)
            monkeypatch.setattr(cls, "__post_init__", spy)
        for s, k in cases:
            assert stabilization_check(s, k)
        assert built == []
        as_presentation(sft_closure(*cases[0]))  # the spy does see them built
        assert set(built) == {"PeriodicWord", "SubshiftPresentation"}


class TestDegenerateInputsRefused:
    @pytest.mark.parametrize("k", [0, -1])
    def test_sft_window_below_one(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            SFT(2, k, frozenset())

    def test_negative_precision(self):
        a, b = PeriodicWord.constant(0, 2), PeriodicWord.constant(1, 2)
        with pytest.raises(ValueError, match="precision must be >= 0, got -1"):
            shift_metric_with_bound(a, b, -1)
        with pytest.raises(ValueError, match="precision must be >= 0, got -1"):
            shift_metric(a, b, -1)
        assert shift_metric_with_bound(a, b, 0) == (1.0, 4.0)

    def test_empty_cycle(self):
        with pytest.raises(ValueError, match="cycle must be nonempty"):
            canonical_cycle(())
        with pytest.raises(ValueError, match="cycle must be nonempty"):
            SFT(2, 1, frozenset({(0,)})).admits_cycle(())

    def test_text_form_symbol_limit(self):
        with pytest.raises(ValueError, match="symbol 37 has no text form.* 36 symbols"):
            PeriodicWord((37,), (), (0,), 40).to_text()
        assert PeriodicWord((35,), (), (0,), 40).to_text() == "(z)(0)"


class TestEssentialGraph:
    def test_dead_end_branch_is_trimmed(self):
        # 01 runs into the block 1, which no word leaves
        t = SFT(3, 2, frozenset({(0, 1), (0, 2), (2, 0), (2, 2)}))
        assert is_member(t, PeriodicWord.constant(2, 3))
        assert is_member(t, PeriodicWord.from_cycle((2, 0), 3))
        p = as_presentation(t)
        assert set(language(p, 2)) == {(0, 2), (2, 0), (2, 2)}
        with pytest.raises(ValueError, match="no bi-infinite words"):
            reference_as_presentation(t)

    def test_every_word_kept_once_the_branch_closes(self):
        words = {(0, 1), (0, 2), (1, 1), (2, 0), (2, 2)}
        p = as_presentation(SFT(3, 2, frozenset(words)))
        assert set(language(p, 2)) == words

    def test_no_bi_infinite_word_refused(self):
        for words in ({(0, 1)}, {(0, 1), (1, 2)}, set()):
            with pytest.raises(ValueError, match="no bi-infinite words"):
                as_presentation(SFT(3, 2, frozenset(words)))

    def test_random_word_sets_against_brute_force(self, rng):
        for _ in range(400):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, 4))
            every = list(iproduct(range(n), repeat=k))
            chosen = rng.random(len(every)) < rng.uniform(0.2, 0.8)
            words = {w for w, keep in zip(every, chosen) if keep}
            t = SFT(n, k, frozenset(words))
            essential = bi_infinite_words(words, n)
            if not essential:
                with pytest.raises(ValueError, match="no bi-infinite words"):
                    as_presentation(t)
                continue
            p = as_presentation(t)
            assert set(language(p, k)) == essential
            assert all(is_member(t, g) for g in p.generators)

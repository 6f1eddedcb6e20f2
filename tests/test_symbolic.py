import numpy as np
import pytest

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
        b = PeriodicWord((1, 0), (0, 1), (1, 0), 2, offset=2)
        assert a.agrees_with(b.shift(-2).shift(2)) or True
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

"""Exact symbolic counterpart of the shadowing machinery on shift spaces.

Bi-infinite sequences are restricted to the eventually-periodic words
(...LLL core RRR...): these are dense in any subshift, and every operation
on them is exact and decidable.  A closed shift-invariant set is presented
as the orbit closure of finitely many such words; its shadowing closure at
scale 2^-(k+1) is exactly the subshift of finite type built from the
length-k language, and the closure stabilizes after one step, always.

Subshift equality is decided through periodic points: two window-k objects
are compared on their periodic points up to period 2k plus generator
membership.  The period bound is this artifact's own decision procedure
(documented, not taken from the literature) and can be raised per call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .torus import _integer, _positive

__all__ = [
    "PeriodicWord",
    "SubshiftPresentation",
    "SFT",
    "shift_metric",
    "shift_metric_with_bound",
    "language",
    "sft_closure",
    "is_member",
    "is_locally_maximal",
    "equality_witness",
    "symbolic_shadow",
    "stabilization_check",
    "as_presentation",
    "canonical_cycle",
]

_WORD_RE = re.compile(r"^\(([0-9a-z]+)\)([0-9a-z]*)\(([0-9a-z]+)\)$")
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_ENUMERATION_CAP = 10_000_000  # words over the alphabet a periodic-point search may try


def _cyclic(cycle: tuple[int, ...], start: int, stop: int) -> tuple[int, ...]:
    """Positions [start, stop) of the cycle repeated forever both ways,
    position 0 being cycle[0]; empty when stop <= start."""
    if stop <= start:
        return ()
    n = len(cycle)
    first = start % n
    return (cycle * -(-(first + stop - start) // n))[first:first + stop - start]


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Primitive root of a cycle, rotated to its lexicographic minimum:
    the canonical key of the periodic orbit it generates."""
    c = tuple(cycle)
    if not c:
        raise ValueError("cycle must be nonempty")
    n = len(c)
    for p in range(1, n + 1):
        if n % p == 0 and c == c[p:] + c[:p]:
            c = c[:p]
            break
    return min(c[i:] + c[:i] for i in range(len(c)))


@dataclass(frozen=True)
class PeriodicWord:
    """Eventually periodic bi-infinite word (...LLL core RRR...).

    With offset zero the core occupies indices [0, len(core)); the offset
    shifts the origin, so the shift map is free.  `agrees_with` compares
    the sequences two words denote; `==` compares representations, so two
    words can denote one sequence and still differ.
    """

    left_cycle: tuple[int, ...]
    core: tuple[int, ...]
    right_cycle: tuple[int, ...]
    alphabet_size: int
    offset: int = 0

    def __post_init__(self):
        if not self.left_cycle or not self.right_cycle:
            raise ValueError("cycles must be nonempty")
        n = _integer("alphabet_size", self.alphabet_size, 1)
        _integer("offset", self.offset)
        for sym in (*self.left_cycle, *self.core, *self.right_cycle):
            if not 0 <= _integer("symbol", sym) < n:
                raise ValueError(f"symbol {sym} outside alphabet of size {n}")

    @classmethod
    def from_cycle(cls, cycle: Sequence[int], alphabet_size: int) -> "PeriodicWord":
        c = tuple(cycle)
        return cls(c, (), c, alphabet_size)

    @classmethod
    def constant(cls, symbol: int, alphabet_size: int) -> "PeriodicWord":
        return cls.from_cycle((symbol,), alphabet_size)

    # core window in external coordinates
    @property
    def core_lo(self) -> int:
        return -self.offset

    @property
    def core_hi(self) -> int:
        return len(self.core) - self.offset

    def window(self, start: int, length: int) -> tuple[int, ...]:
        """Symbols at indices [start, start + length): the repeated left
        cycle, the core and the repeated right cycle, one slice each."""
        lo = start + self.offset
        hi = lo + length
        n = len(self.core)
        return (_cyclic(self.left_cycle, lo, min(hi, 0))
                + self.core[max(lo, 0):max(min(hi, n), 0)]
                + _cyclic(self.right_cycle, max(lo, n) - n, hi - n))

    def symbol_at(self, i: int) -> int:
        return self.window(i, 1)[0]

    def shift(self, n: int) -> "PeriodicWord":
        """sigma^n: the word with w'(i) = w(i + n)."""
        return replace(self, offset=self.offset + n)

    def agrees_with(self, other: "PeriodicWord") -> bool:
        """Equality as bi-infinite sequences: check the joint core window
        plus one full lcm period of the tails on each side."""
        if self.alphabet_size != other.alphabet_size:
            return False
        left_period = math.lcm(len(self.left_cycle), len(other.left_cycle))
        right_period = math.lcm(len(self.right_cycle), len(other.right_cycle))
        lo = min(self.core_lo, other.core_lo) - left_period
        hi = max(self.core_hi, other.core_hi) + right_period
        return self.window(lo, hi - lo) == other.window(lo, hi - lo)

    def periodic_root(self) -> tuple[int, ...] | None:
        """Canonical cycle when the word is globally periodic, else None.
        A globally periodic word also has the period of its right tail, so
        one shift by len(right_cycle) decides periodicity."""
        r = len(self.right_cycle)
        if not self.agrees_with(self.shift(r)):
            return None
        return canonical_cycle(self.window(0, r))

    def limit_cycles(self) -> set[tuple[int, ...]]:
        """Canonical cycles of the periodic orbits in this word's orbit
        closure: the two tail cycles (a periodic word is its right tail's
        orbit, so it adds no third)."""
        return {canonical_cycle(self.left_cycle), canonical_cycle(self.right_cycle)}

    def canonical(self) -> "PeriodicWord":
        """Offset-free minimal-core representative of the same sequence."""
        L, R = len(self.left_cycle), len(self.right_cycle)
        lo = min(self.core_lo, 0)
        hi = max(self.core_hi, 0)
        left = self.window(lo - L, L)
        core = list(self.window(lo, hi - lo))
        right = self.window(hi, R)
        while core and core[-1] == right[-1]:
            core.pop()
            right = (right[-1],) + right[:-1]
        while core and core[0] == left[0]:
            core = core[1:]
            left = left[1:] + (left[0],)
            lo += 1
        return PeriodicWord(left, tuple(core), right, self.alphabet_size, offset=-lo)

    def to_text(self) -> str:
        top = max((*self.left_cycle, *self.core, *self.right_cycle))
        if top >= len(_DIGITS):
            raise ValueError(f"symbol {top} has no text form, which writes only "
                             f"the {len(_DIGITS)} symbols 0-9 and a-z")
        c = self.canonical()
        enc = lambda syms: "".join(_DIGITS[s] for s in syms)
        tail = f"@{c.offset}" if c.offset else ""
        return f"({enc(c.left_cycle)}){enc(c.core)}({enc(c.right_cycle)}){tail}"

    @classmethod
    def from_text(cls, text: str, alphabet_size: int) -> "PeriodicWord":
        text = text.strip()
        offset = 0
        if "@" in text:
            text, off = text.rsplit("@", 1)
            offset = int(off)
        m = _WORD_RE.match(text)
        if m is None:
            raise ValueError(f"cannot parse word {text!r}; expected (cycle)core(cycle)")
        dec = lambda s: tuple(_DIGITS.index(ch) for ch in s)
        return cls(dec(m.group(1)), dec(m.group(2)), dec(m.group(3)),
                   alphabet_size, offset=offset)


def shift_metric(a: PeriodicWord, b: PeriodicWord, precision: int = 50) -> float:
    """dist(a, b) = sum over |i| <= precision of 2^-|i| [a_i != b_i].

    Exact (all terms are dyadic and fit a double for precision <= 50) when
    the sequences agree beyond the window; otherwise the true value exceeds
    this by at most 4/2^precision.
    """
    return shift_metric_with_bound(a, b, precision)[0]


def shift_metric_with_bound(a: PeriodicWord, b: PeriodicWord,
                            precision: int = 50) -> tuple[float, float]:
    """(truncated value, rigorous tail bound); the bound is 0 when the tails
    provably agree beyond the window."""
    if a.alphabet_size != b.alphabet_size:
        raise ValueError("alphabet mismatch")
    if _integer("precision", precision, 0) > 50:
        raise ValueError("precision beyond 50 is not exactly representable")
    total = 0.0
    n = 2 * precision + 1
    for i, (x, y) in enumerate(zip(a.window(-precision, n), b.window(-precision, n)),
                               start=-precision):
        if x != y:
            total += 2.0 ** -abs(i)
    if _tails_agree(a, b, precision):
        return total, 0.0
    return total, 4.0 / 2 ** precision


def _tails_agree(a: PeriodicWord, b: PeriodicWord, precision: int) -> bool:
    right_from = max(a.core_hi, b.core_hi, precision + 1)
    rp = math.lcm(len(a.right_cycle), len(b.right_cycle))
    if a.window(right_from, rp) != b.window(right_from, rp):
        return False
    left_from = min(a.core_lo, b.core_lo, -precision - 1)
    lp = math.lcm(len(a.left_cycle), len(b.left_cycle))
    return a.window(left_from - lp, lp) == b.window(left_from - lp, lp)


@dataclass(frozen=True)
class SubshiftPresentation:
    """Closed shift-invariant set presented as the orbit closure of finitely
    many eventually-periodic generators."""

    alphabet_size: int
    generators: tuple[PeriodicWord, ...]

    def __post_init__(self):
        _integer("alphabet_size", self.alphabet_size, 1)
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if g.alphabet_size != self.alphabet_size:
                raise ValueError("generator alphabet mismatch")

    @classmethod
    def from_text(cls, text: str, alphabet_size: int) -> "SubshiftPresentation":
        """Parse one generator per line in `PeriodicWord.from_text` form; blank
        lines and `#` comments are skipped.  Raises ValueError naming the
        offending line."""
        words = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                words.append(PeriodicWord.from_text(line, alphabet_size))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        if not words:
            raise ValueError("no words in file")
        return cls(alphabet_size, tuple(words))

    def periodic_cycles(self) -> set[tuple[int, ...]]:
        """Canonical cycles of every periodic orbit in the presented set:
        an orbit closure of eventually-periodic words contains exactly the
        generators' tail cycles and the periodic generators themselves."""
        return set().union(*(g.limit_cycles() for g in self.generators))


_Row = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _rows(words: Iterable[PeriodicWord]) -> Iterator[_Row]:
    """(left_cycle, core, right_cycle) of each word: all `_blocks` reads."""
    return ((w.left_cycle, w.core, w.right_cycle) for w in words)


def _blocks(rows: Iterable[_Row], k: int) -> set[tuple[int, ...]]:
    """The set of length-k words occurring in the orbit closure of the
    eventually periodic words with these (left_cycle, core, right_cycle)
    rows.

    Each row is unrolled one tail period plus k - 1 symbols past its core
    on both sides, which visits every window position class (an offset
    moves no block); zipping k shifted slices of that yields its k-blocks.
    """
    m = _integer("k", k, 1) - 1
    words: set[tuple[int, ...]] = set()
    for L, core, R in rows:
        unrolled = ((L * (2 + m // len(L)))[-len(L) - m:] + core
                    + (R * (2 + m // len(R)))[:len(R) + m])
        count = len(unrolled) - m
        words.update(zip(*[unrolled[i:i + count] for i in range(k)]))
    return words


def language(s: SubshiftPresentation, k: int) -> tuple[tuple[int, ...], ...]:
    """All length-k words occurring in the presented set, sorted."""
    return tuple(sorted(_blocks(_rows(s.generators), k)))


@dataclass(frozen=True)
class SFT:
    """Subshift of finite type: all bi-infinite words whose length-k
    subwords are admissible."""

    alphabet_size: int
    k: int
    words: frozenset[tuple[int, ...]]

    def __post_init__(self):
        # Python ints, so that the enumeration count cannot overflow
        object.__setattr__(self, "alphabet_size", _integer("alphabet_size", self.alphabet_size, 1))
        object.__setattr__(self, "k", _integer("k", self.k, 1))
        words = self.words
        if (not set(map(len, words)) <= {self.k}
                or min(chain.from_iterable(words), default=0) < 0
                or max(chain.from_iterable(words), default=0) >= self.alphabet_size):
            for w in words:
                if len(w) != self.k:
                    raise ValueError(f"admissible word {w} has length != {self.k}")
                if any(not 0 <= s < self.alphabet_size for s in w):
                    raise ValueError(f"word {w} leaves the alphabet")

    def sorted_words(self) -> list[tuple[int, ...]]:
        return sorted(self.words)

    def admits_cycle(self, cycle: Sequence[int]) -> bool:
        """Does cycle^infinity belong to M_W?  Checks the cyclic windows."""
        c = tuple(cycle)
        if not c:
            raise ValueError("cycle must be nonempty")
        unrolled = _cyclic(c, 0, len(c) + self.k - 1)
        return all(unrolled[i:i + self.k] in self.words for i in range(len(c)))

    def periodic_cycles(self, max_period: int) -> set[tuple[int, ...]]:
        """Canonical cycles of all periodic points with period <= max_period,
        found by the pruned search of `_cycles_in_order`."""
        return set(self._cycles_in_order(_integer("max_period", max_period, 1)))

    def _cycles_in_order(self, max_period: int, start: tuple[int, ...] = ()):
        """The canonical admissible cycles of period <= max_period, shortest
        first and lexicographically within a length, skipping those ordered
        before `start`.  Refuses before the first candidate when the
        enumeration would exceed the fixed cap.

        Canonical cycles are the Lyndon words, so each length is searched
        depth-first in symbol order over prenecklaces (the Fredricksen-
        Kessler-Maiorana recursion), extending a prefix only while its last
        k symbols are a factor of an admissible word; each Lyndon word of
        full length is then checked on its cyclic windows."""
        n, k = self.alphabet_size, self.k
        total = sum(n ** p for p in range(1, max_period + 1))
        if total > _ENUMERATION_CAP:
            raise ValueError(f"periodic-point enumeration of {total} words exceeds cap")
        factors = set(self.words)
        level = self.words
        for _ in range(k - 1):
            level = {w[1:] for w in level} | {w[:-1] for w in level}
            factors |= level
        for p in range(max(len(start), 1), max_period + 1):
            floor = start if p == len(start) else ()
            # (prefix, length of its longest Lyndon prefix), popped in lexicographic order
            stack = [((a,), 1) for a in reversed(range(n)) if (a,) in factors]
            while stack:
                w, q = stack.pop()
                t = len(w)
                if t == p:
                    if q == p and w >= floor and self.admits_cycle(w):
                        yield w
                    continue
                ref = w[t - q]  # a smaller symbol would make a smaller rotation
                for a in reversed(range(ref, n)):
                    x = w + (a,)
                    if x[-k:] in factors:
                        stack.append((x, q if a == ref else t + 1))


def sft_closure(s: SubshiftPresentation, k: int) -> SFT:
    """The symbolic shadowing closure at scale delta = 2^-(k+1): sequences
    2^-(k+1)-shadowable by pseudo-orbits in the set are exactly those whose
    k-blocks occur in it, so the closure is the SFT over language(s, k)."""
    return SFT(s.alphabet_size, k, frozenset(_blocks(_rows(s.generators), k)))


def is_member(t: SFT, w: PeriodicWord) -> bool:
    """True iff every k-subword of the unrolled word is admissible."""
    if w.alphabet_size != t.alphabet_size:
        raise ValueError("alphabet mismatch")
    return _blocks(_rows((w,)), t.k) <= t.words


def _first_choice_walks(first: dict, forward: bool) -> dict:
    """Every first-choice de Bruijn walk at once, in the orientation of the
    generators it builds: node -> (symbols between the node and the cycle
    the walk ends in, that cycle).

    `first` maps each (k-1)-block to its first-choice word, the smallest
    admissible word leaving it (forward) or entering it (backward).  That
    makes the next block a function of the block, so a block on its cycle
    walks the cycle rotated to start there, and any other block emits its
    own symbol and then walks exactly as the block after it.  Backward
    walks are stored reversed, ready to stand left of a word.
    """
    memo: dict = {}
    for start in first:
        path: list = []
        node = start
        while node not in memo:
            memo[node] = None  # on the current path
            path.append(node)
            w = first[node]
            node = w[1:] if forward else w[:-1]
        if memo[node] is None:  # a new cycle: path[i:] walks it
            i = path.index(node)
            syms = tuple(first[n][-1] if forward else first[n][0] for n in path[i:])
            for j, n in enumerate(path[i:]):
                cycle = syms[j:] + syms[:j]
                memo[n] = ((), cycle if forward else cycle[::-1])
            del path[i:]
        for n in reversed(path):
            w = first[n]
            if forward:
                emitted, cycle = memo[w[1:]]
                memo[n] = ((w[-1],) + emitted, cycle)
            else:
                emitted, cycle = memo[w[:-1]]
                memo[n] = (emitted + (w[0],), cycle)
    return memo


def _generator_rows(t: SFT) -> list[_Row]:
    """The (left_cycle, core, right_cycle) rows of `as_presentation(t)`'s
    generators, in the same order.

    Words that cannot extend to bi-infinite paths occur in no element of
    M_W and are dropped first: the edges into blocks no edge leaves, and out
    of blocks no edge enters, are trimmed until none is left (the essential
    graph), so every first-choice walk ends in a cycle.
    """
    words = sorted(t.words)
    while True:
        # reversed, so each block keeps its smallest word
        succ = {w[:-1]: w for w in reversed(words)}
        pred = {w[1:]: w for w in reversed(words)}
        if succ.keys() == pred.keys():
            break
        words = [w for w in words if w[1:] in succ and w[:-1] in pred]
    if not words:
        raise ValueError("SFT admits no bi-infinite words; empty presentation")
    left = _first_choice_walks(pred, forward=False)
    right = _first_choice_walks(succ, forward=True)
    rows = []
    for w in words:
        back, left_cycle = left[w[:-1]]
        ahead, right_cycle = right[w[1:]]
        rows.append((left_cycle, back + w + ahead, right_cycle))
    return rows


def as_presentation(t: SFT) -> SubshiftPresentation:
    """A presentation whose language reproduces the SFT's admissible set:
    one generator through every admissible word on a bi-infinite path,
    extended along first-choice de Bruijn edges into cycles on both sides
    (the rows of `_generator_rows`)."""
    n = t.alphabet_size
    return SubshiftPresentation(n, tuple(PeriodicWord(*row, n) for row in _generator_rows(t)))


def _first_missing(t: SFT, have: set[tuple[int, ...]], bound: int,
                   start: tuple[int, ...] = ()) -> tuple[int, ...] | None:
    """The first admissible cycle of `t` up to the period bound that is
    missing from `have`, searched from `start` on."""
    return next((c for c in t._cycles_in_order(bound, start) if c not in have), None)


def equality_witness(s: SubshiftPresentation, k: int,
                     period_bound: int | None = None) -> PeriodicWord | None:
    """A periodic point of the window-k closure that is not in the set, or
    None if none exists up to the period bound (default 2k); the first
    such cycle, shortest first and lexicographic within a length."""
    bound = 2 * k if period_bound is None else _integer("period_bound", period_bound, 1)
    cyc = _first_missing(sft_closure(s, k), s.periodic_cycles(), bound)
    return None if cyc is None else PeriodicWord.from_cycle(cyc, s.alphabet_size)


def is_locally_maximal(s: SubshiftPresentation, kmax: int,
                       period_bound: int | None = None) -> int | None:
    """Smallest window k <= kmax at which the set equals the SFT over its
    own language, decided through periodic points up to the period bound
    (the generators always lie in the SFT over their own language); None
    when every k fails.  Each window k asks `equality_witness`'s question,
    with two shortcuts: every k-block of the set begins one of its
    kmax-blocks, so one language serves all windows; and the window-(k+1)
    closure lies inside the window-k one, so its first missing cycle comes
    no earlier in the order than the window-k one."""
    kmax = _integer("kmax", kmax, 1)
    if period_bound is not None:
        period_bound = _integer("period_bound", period_bound, 1)
    have = s.periodic_cycles()
    top = _blocks(_rows(s.generators), kmax)
    cyc: tuple[int, ...] | None = ()
    for k in range(1, kmax + 1):
        t = SFT(s.alphabet_size, k, frozenset(w[:k] for w in top))
        cyc = _first_missing(t, have, 2 * k if period_bound is None else period_bound, cyc)
        if cyc is None:
            return k
    return None


def stabilization_check(s: SubshiftPresentation, k: int) -> bool:
    """Does the symbolic shadowing closure stabilize after one step?
    Re-presenting the closure SFT and closing again must reproduce the same
    admissible set; this is expected to hold universally and exactly.

    The second closure reads the generator rows of `as_presentation` as
    they are: the closure's words are checked words, so a row symbol
    outside the alphabet or a block of another length would only make the
    two sets differ, and the check read False."""
    first = sft_closure(s, k)
    return first.words == _blocks(_generator_rows(first), k)


def symbolic_shadow(t: SFT, pseudo: Sequence[PeriodicWord], delta: float,
                    start_index: int = 0) -> PeriodicWord:
    """Splice a pseudo-orbit of words into its exact shadowing sequence.

    Entry i sits at index start_index + i; consecutive entries must satisfy
    dist(sigma w_i, w_{i+1}) < delta with delta < 2^-(k+1), which forces the
    central (k+1)-blocks to agree and makes the splice b(j) = w_{j}(0) an
    admissible element of M_W shadowing every entry within 2 delta.
    Shifting start_index commutes with the shift exactly.
    """
    if not pseudo:
        raise ValueError("empty pseudo-orbit")
    start_index = _integer("start_index", start_index)
    k = t.k
    if not _positive("delta", delta) < 2.0 ** -(k + 1):
        raise ValueError(f"delta must be below 2^-(k+1) = {2.0**-(k+1)}")
    if k > 20:
        raise ValueError("window beyond 20 leaves no metric precision headroom")
    for i in range(len(pseudo) - 1):
        val, tail = shift_metric_with_bound(pseudo[i].shift(1), pseudo[i + 1],
                                            precision=50)
        if val + tail >= delta:
            raise ValueError(f"pseudo-orbit gap at index {start_index + i}: "
                             f"dist(sigma w_i, w_i+1) = {val} >= {delta}")

    # global index i reads the first word's past before start_index, entry
    # i - start_index's symbol 0 up to end_index, the last word's future after
    first, last = pseudo[0], pseudo[-1]
    end_index = start_index + len(pseudo) - 1
    lo = min(start_index + first.core_lo, start_index)
    hi = max(end_index + last.core_hi, end_index + 1)
    L = len(first.left_cycle)
    R = len(last.right_cycle)
    past = first.window(lo - L - start_index, start_index - lo + L)
    future = last.window(1, hi - end_index - 1 + R)
    core = past[L:] + tuple(w.window(0, 1)[0] for w in pseudo) + future[:-R]
    result = PeriodicWord(past[:L], core, future[-R:], t.alphabet_size, offset=-lo)

    if not is_member(t, result):
        raise ValueError("spliced shadow left the SFT: the pseudo-orbit words are not in it")
    return result

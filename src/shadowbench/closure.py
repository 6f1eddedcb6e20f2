"""Shadowing closure on finite set approximations and the stabilization
iteration Lambda_{j+1} = sh(Lambda_j, delta).

A compact invariant set is represented by an r-net of points (`SetApprox`).
One closure step discretizes the delta-pseudo-orbit space as a transition
graph on the net, samples generating pseudo-orbits (cycles, cycle-to-cycle
connectors, random walks), shadows the samples of each length and kind
together, and merges the full shadow orbit windows back into the net.  The
iteration records the Hausdorff increments nu_j, detects stabilization and
neighborhood escape, and reports whether the gamma-dichotomy (consecutive
increments cannot both be small) held along the way.

Torus nearest-neighbor machinery is scipy's periodic cKDTree (boxsize=1),
which realizes exactly the min-over-translates metric of `torus_distance`;
graph edges, Hausdorff distances and the keep-first coarsening of nets all
query it, and tests cross-check it against the brute-force definition.  A
net made from a grid set knows that its first rows are a cell lattice; its
graph answers the balls of those rows with one integer stencil instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import chain, compress, islice, product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .shadowing import (PseudoOrbit, ShadowingRefusal, _defect_limit, _shadow_windows,
                        pseudo_orbit_defect)
from .torus import ToralAutomorphism, _integer, _positive, torus_distance_array, wrap

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "SetApprox",
    "TransitionGraph",
    "SamplingParams",
    "ClosureTrace",
    "Verdict",
    "hausdorff",
    "directed_hausdorff",
    "build_graph",
    "sample_pseudo_orbits",
    "shadowing_closure",
    "gamma_for",
    "iterate_closure",
]


# query points per step of the bounded edge count in `build_graph`
_COUNT_CHUNK = 128
# closed-ball hits past which a transition graph stays lazy
_EDGE_CAP = 2_000_000
# stencil targets per block of the lattice count pass: bounds its temporaries
_TARGET_BLOCK = _COUNT_CHUNK * 4096


def _torus_tree(points: np.ndarray) -> cKDTree:
    # scipy.spatial pulls in qhull and scipy.special on import, so it loads
    # with the first tree rather than with the package
    from scipy.spatial import cKDTree

    return cKDTree(wrap(points), boxsize=1.0)


# The neighbour rule, for every caller: r-close means torus distance strictly
# below r, indices ascending.  The tree's closed ball only proposes candidates.

def _ball(tree: cKDTree, x: np.ndarray, r: float) -> np.ndarray:
    """Indices of the tree's points r-close to the point x."""
    idx = np.sort(np.asarray(tree.query_ball_point(x, r=r), dtype=np.intp))
    return idx[torus_distance_array(tree.data[idx], x) < r]


def _balls(tree: cKDTree, queries: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat index arrays (i, j) of the tree's points j r-close to queries[i]."""
    lists = tree.query_ball_point(queries, r=r, return_sorted=True)
    src = np.repeat(np.arange(len(lists)), list(map(len, lists)))
    dst = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=len(src))
    parts = len(src) // 65536 + 1  # bounds the filter's float temporaries
    keep = np.concatenate([torus_distance_array(queries[s], tree.data[t]) < r
                           for s, t in zip(np.array_split(src, parts), np.array_split(dst, parts))])
    return src[keep], dst[keep]


def _pairs(sa: SetApprox, r: float) -> np.ndarray:
    """Rows (i, j), i < j, of net points r-close to each other."""
    pairs = sa.tree.query_pairs(r=r, output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return pairs[torus_distance_array(sa.points[pairs[:, 0]], sa.points[pairs[:, 1]]) < r]


@dataclass(frozen=True, eq=False)
class _Lattice:
    """The cells of a depth-k grid set whose centres (c + 1/2)·2^-k are a
    net's first `size` rows: cell c is row `rank[c]`, in C order, and
    `rank` is -1 on the absent cells of the (2^k)^d grid."""

    depth: int
    rank: np.ndarray  # int32, shape (2^k,) * d
    size: int

    @classmethod
    def of(cls, depth: int, mask: np.ndarray) -> _Lattice:
        size = np.count_nonzero(mask)
        rank = np.full(mask.shape, -1, dtype=np.int32)
        rank[mask] = np.arange(size, dtype=np.int32)
        return cls(depth, rank, int(size))


class SetApprox:
    """Finite r-net approximating a compact subset of T^d.

    The net condition (no two points closer than r/2) is enforced on
    construction; `build` coarsens instead of rejecting, keeping the
    earliest-inserted point of any r/2-cluster.  `_validate=False` marks
    trusted rows, already wrapped into [0, 1) and already a net: they are
    neither wrapped nor checked again.  `lattice` is set on a net whose
    first rows are the centres of a grid set's cells (see `_Lattice`), and
    it carries over to the nets merged from it.
    """

    __slots__ = ("points", "resolution", "label", "lattice", "_tree")

    def __init__(self, points: np.ndarray, resolution: float, label: str = "",
                 _validate: bool = True, _lattice: _Lattice | None = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if _validate and not np.isfinite(pts).all():
            raise ValueError("points must have finite coordinates")
        # a view, so that freezing it leaves the caller's array writeable
        pts = wrap(pts) if _validate else pts.view()
        if pts.size == 0:
            raise ValueError("set approximation must be nonempty")
        resolution = _positive("resolution", resolution)
        pts.flags.writeable = False
        self.points = pts
        self.resolution = resolution
        self.label = label
        self.lattice = _lattice
        self._tree: cKDTree | None = None
        if _validate and len(pts) > 1 and len(pairs := _pairs(self, resolution / 2.0)):
            i, j = pairs[0]
            raise ValueError(f"net condition violated: points {i} and {j} are closer than r/2")

    @classmethod
    def build(cls, points: Iterable, resolution: float, label: str = "") -> "SetApprox":
        pts = np.atleast_2d(np.asarray(list(points), dtype=float))
        if not np.isfinite(pts).all():
            raise ValueError("points must have finite coordinates")
        pts = wrap(pts)
        kept = _greedy_net(pts, resolution / 2.0) if pts.size else pts
        return cls(kept, resolution, label, _validate=False)

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = _torus_tree(self.points)
        return self._tree

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self):
        return f"SetApprox({len(self)} points, r={self.resolution}, label={self.label!r})"

    def _rows(self, points) -> np.ndarray:
        """`points` as finite rows of the net's dimension, wrapped."""
        rows = np.atleast_2d(np.asarray(points, dtype=float))
        if rows.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: net is {self.dim}-d, "
                             f"points are {rows.shape[1]}-d")
        if not np.isfinite(rows).all():
            raise ValueError("points must have finite coordinates")
        return wrap(rows)

    def distance_to(self, queries: np.ndarray) -> np.ndarray:
        """Torus distance from each query point to the net."""
        d, _ = self.tree.query(self._rows(queries), k=1)
        return d

    def merge(self, new_points: np.ndarray, label: str | None = None) -> tuple["SetApprox", int]:
        """Coarsen `new_points` into the net; existing points always survive.

        Returns the merged net and the number of points actually added.
        """
        cand = self._rows(new_points)
        threshold = self.resolution / 2.0
        kept = self.points[:0]
        if cand.size:
            # the net is already valid: once candidates within r/2 of it are
            # dropped, the rest only need coarsening among themselves
            gap, _ = self.tree.query(cand, k=1)
            kept = _greedy_net(cand[gap >= threshold], threshold)
        return SetApprox(np.vstack([self.points, kept]), self.resolution,
                         self.label if label is None else label, _validate=False,
                         _lattice=self.lattice), len(kept)


def _greedy_net(points: np.ndarray, threshold: float) -> np.ndarray:
    """Keep-first filter: drop any point within `threshold` (strictly) of an
    earlier kept point."""
    tree = _torus_tree(points)
    covered = np.zeros(len(points), dtype=bool)
    kept = []
    for i in range(len(points)):
        if not covered[i]:
            kept.append(i)
            covered[_ball(tree, points[i], threshold)] = True
    return points[kept]


def directed_hausdorff(A: SetApprox | np.ndarray, B: SetApprox | np.ndarray) -> float:
    """sup over a in A of the torus distance from a to B."""
    pa, pb = (X.points if isinstance(X, SetApprox) else np.atleast_2d(np.asarray(X, dtype=float))
              for X in (A, B))
    if pa.size == 0 or pb.size == 0:
        raise ValueError("Hausdorff distance needs nonempty sets")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("dimension mismatch")
    if not (np.isfinite(pa).all() and np.isfinite(pb).all()):
        raise ValueError("points must have finite coordinates")
    tb = B.tree if isinstance(B, SetApprox) else _torus_tree(pb)
    d, _ = tb.query(pa if isinstance(A, SetApprox) else wrap(pa), k=1)
    return float(np.max(d))


def hausdorff(A: SetApprox, B: SetApprox) -> float:
    """Hausdorff distance between two nets under the torus metric."""
    return max(directed_hausdorff(A, B), directed_hausdorff(B, A))


@dataclass(frozen=True, eq=False)
class _Stencil:
    """The delta-balls of a lattice net's rows as cell offsets.

    The image of a lattice row under an integer matrix is an exact dyadic,
    and every such image sits at the same place in its cell.  So whether
    the centre of the cell t away from an image's cell is delta-close is
    one verdict for every lattice row, bit for bit: every difference the
    rule takes is exact.  `ball` holds the offsets strictly within delta,
    `_ball`'s rule, each once mod 2^k.  An offset t is a column: its entry
    on axis a is a·len(axis) + j where t_a = axis[j].
    """

    lattice: _Lattice
    axis: np.ndarray  # int32 cell offsets along one axis
    ball: np.ndarray  # intp (d, |T|), the index type of a fast gather

    def _targets(self, cells: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The ranks of the cells `offsets` away from `cells`, -1 where a
        cell is absent: (|T|,) for one cell given as (d,), (|T|, rows) for
        cells given as (d, rows)."""
        n = 2 ** self.lattice.depth
        trail = (1,) * (cells.ndim - 1)
        # entry (a, j): (c_a + axis[j]) mod n times axis a's stride, the
        # share of axis a in the flat index of a target
        strides = n ** np.arange(len(cells) - 1, -1, -1, dtype=np.int32)
        terms = (cells[:, None] + self.axis.reshape(-1, *trail)) % n
        terms = (terms * strides.reshape(-1, 1, *trail)).reshape(-1, *cells.shape[1:])
        flat = terms[offsets[0]]
        for column in offsets[1:]:
            flat += terms[column]
        return self.lattice.rank.reshape(-1)[flat]

    def _cells(self, images: np.ndarray) -> np.ndarray:
        """The cells holding image rows, with the axis first."""
        return np.floor(images.T * 2 ** self.lattice.depth).astype(np.int32)

    def near(self, image: np.ndarray) -> np.ndarray:
        """The lattice rows delta-close to the image of a lattice row, ascending."""
        ranks = self._targets(self._cells(image), self.ball)
        return np.sort(ranks[ranks >= 0]).astype(np.intp)

    def hits(self, images: np.ndarray, offsets: np.ndarray) -> int:
        """How many lattice rows sit at `offsets` from the cells of the
        images of lattice rows, summed over the images."""
        rows = max(1, _TARGET_BLOCK // offsets.shape[1])
        return sum(int(np.count_nonzero(self._targets(self._cells(part), offsets) >= 0))
                   for part in np.split(images, range(rows, len(images), rows)))


def _cell_box(lattice: _Lattice, images: np.ndarray,
              delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The cell offsets that can hold a centre delta-close to the image of a
    lattice row, as the axis and the columns of `_Stencil`, and the centre
    rows of those cells around the first image; None unless the lattice
    rows' images all sit at one place in their cells, a multiple of half a
    cell from its corner: the exactness a stencil rests on."""
    n = 2 ** lattice.depth
    place = images[:lattice.size] * n
    place -= np.floor(place)
    if not (np.all(place == place[0]) and np.all(place[0] * 2 % 1.0 == 0.0)):
        return None
    # a cell's centre lies within delta of the image on an axis only if the
    # cell is at most reach cells away; a reach covering the axis takes each cell once
    reach = int(np.floor(min(delta, 1.0) * n)) + 1
    axis = np.arange(n) if 2 * reach + 1 >= n else np.arange(-reach, reach + 1)
    d = images.shape[1]
    box = np.indices((len(axis),) * d).reshape(d, -1)
    # the centre coordinates along each axis, (d, len(axis)), then of each box cell
    coords = ((np.floor(images[0] * n)[:, None] + axis) % n + 0.5) * 2.0 ** -lattice.depth
    centres = coords[np.arange(d)[:, None], box].T
    return axis.astype(np.int32), box + (np.arange(d) * len(axis))[:, None], centres


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Edges (i, j) with d(f(x_i), x_j) < delta over a net: the finite
    presentation of the delta-pseudo-orbit space.

    Dense graphs beyond `_EDGE_CAP` closed-ball hits stay lazy: `edges` is
    None and neighbor queries are answered on demand.  `n_edges` is the
    exact edge count of a materialized graph; on a lazy graph it is the
    running count of closed-ball hits at the query chunk that took it past
    the cap.  A closure step whose parent graph is lazy makes its own lazy
    without counting, with the parent's `n_edges` and `stencil`.  A
    materialized graph builds its `successors` lists on the first read and
    keeps them.  On a net with a lattice, `stencil` answers the lattice
    rows' balls among the lattice rows, and a KD-tree over the rows after
    them the rest; any other row queries the net's tree.  Graphs compare
    by identity.
    """

    set: SetApprox
    delta: float
    images: np.ndarray = field(repr=False)
    edges: np.ndarray | None = field(repr=False)
    n_edges: int = 0
    stencil: _Stencil | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.set)

    @property
    def materialized(self) -> bool:
        return self.edges is not None

    @cached_property
    def successors(self) -> list[list[int]]:
        """The successor lists of a materialized graph, in edge order."""
        return _successors(self.edges, self.n_nodes)

    @cached_property
    def _tail_tree(self) -> cKDTree | None:
        """The KD-tree over the net's rows after its lattice rows, if any."""
        tail = self.set.points[self.stencil.lattice.size:]
        return _torus_tree(tail) if len(tail) else None

    def out_neighbors(self, i: int) -> np.ndarray:
        if self.stencil is None or i >= self.stencil.lattice.size:
            return _ball(self.set.tree, self.images[i], self.delta)
        near = self.stencil.near(self.images[i])
        if self._tail_tree is None:
            return near
        far = _ball(self._tail_tree, self.images[i], self.delta)
        return np.concatenate([near, far + self.stencil.lattice.size])

    def self_loop_nodes(self) -> np.ndarray:
        d = torus_distance_array(self.images, self.set.points)
        return np.nonzero(d < self.delta)[0]

    def verify_edges(self, map: ToralAutomorphism) -> bool:
        """Re-check the defining inequality on every materialized edge."""
        if self.edges is None or len(self.edges) == 0:
            return True
        img = map.apply_array(self.set.points[self.edges[:, 0]])
        return bool(np.all(torus_distance_array(img, self.set.points[self.edges[:, 1]]) < self.delta))


def build_graph(map: ToralAutomorphism, sa: SetApprox, delta: float) -> TransitionGraph:
    """Transition graph of the net under the map at tolerance delta.

    Callers should keep delta above the net resolution, otherwise the graph
    can be edgeless even on an invariant net.  For an f-invariant net with
    resolution r < delta every node has out-degree >= 1.  The graph stays
    lazy once its closed-ball hits pass `_EDGE_CAP`.
    """
    _positive("delta", delta)
    map._check_dim(sa.dim)
    images = map.apply_array(sa.points)
    stencil = closed = None
    box = None if sa.lattice is None else _cell_box(sa.lattice, images, delta)
    if box is not None:
        # each rule between the first image and the box's real centre rows:
        # `_ball`'s for the stencil, the tree's closed ball for the count
        axis, columns, centres = box
        near = _ball(_torus_tree(centres), images[0], delta)
        stencil = _Stencil(sa.lattice, axis, columns[:, near])
        if sa.lattice.size == len(sa):
            hit = _torus_tree(images[:1]).query_ball_point(centres, r=delta, return_length=True)
            closed = columns[:, hit > 0]
    # closed-ball hits, a superset of the edges, are counted chunk by chunk:
    # once their running total passes the cap the graph stays lazy
    total = 0
    for start in range(0, len(images), _COUNT_CHUNK):
        rows = images[start:start + _COUNT_CHUNK]
        total += (int(np.sum(sa.tree.query_ball_point(rows, r=delta, return_length=True)))
                  if closed is None else stencil.hits(rows, closed))
        if total > _EDGE_CAP:
            return TransitionGraph(sa, delta, images, None, total, stencil)
    sources, targets = _balls(sa.tree, images, delta)
    return TransitionGraph(sa, delta, images, np.column_stack([sources, targets]),
                           len(sources), stencil)


@dataclass(frozen=True)
class SamplingParams:
    """Knobs for pseudo-orbit generation from a transition graph."""

    max_cycle_len: int = 8
    n_paths: int = 32
    path_len: int = 40
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            minimum = 1 if f.name in ("max_cycle_len", "path_len") else 0
            # a Python int, so that derived seeds cannot overflow a numpy integer
            object.__setattr__(self, f.name, _integer(f.name, getattr(self, f.name), minimum))


# fixed caps of `sample_pseudo_orbits`; hitting the first two flags a sample partial
_CYCLE_CAP = 2000          # enumerated cycles kept, in `_simple_cycles` order
_CONNECTOR_BUDGET = 200    # cycle-to-cycle connecting paths per call
_CONNECTORS_PER_PAIR = 5
_PAD = 15                  # points of cycle padding on each connector side


@dataclass(frozen=True, eq=False)
class SampledOrbits:
    """Sampled pseudo-orbits as node-index sequences into the net `points`.

    Sequence k is a periodic orbit (one period) when `periodic[k]`, else a
    segment indexed from -(n // 2).  The three flags name the cap that made
    the sample partial: the cycle cap, the connector budget, or a graph too
    dense to materialize (no cycle or connector enumeration at all).
    Samples compare by identity.
    """

    points: np.ndarray = field(repr=False)
    sequences: tuple[list[int], ...]
    periodic: tuple[bool, ...]
    cycle_cap: bool
    connector_budget: bool
    lazy_graph: bool

    @property
    def partial(self) -> bool:
        return self.cycle_cap or self.connector_budget or self.lazy_graph

    @property
    def orbits(self) -> tuple[PseudoOrbit, ...]:
        """The samples as `PseudoOrbit`s, in sample order."""
        return tuple(
            PseudoOrbit(self.points[seq], periodic=per, start_index=0 if per else -(len(seq) // 2))
            for seq, per in zip(self.sequences, self.periodic))


def _rotate_cycle(cycle: list[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def _successors(edges: np.ndarray, n_nodes: int) -> list[list[int]]:
    """Successor lists of nodes 0..n_nodes-1, each in the edge array's order."""
    heads = edges[np.argsort(edges[:, 0], kind="stable"), 1].tolist()
    ends = np.cumsum(np.bincount(edges[:, 0], minlength=n_nodes)).tolist()
    return [heads[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _simple_cycles(succ: list[list[int]], bound: int) -> Iterator[tuple[int, ...]]:
    """Each simple cycle of at most `bound` nodes once, starting at its
    smallest node.  Roots ascend; from each root the search is depth-first
    in successor order through larger nodes, pruned by their BFS distance
    back to the root."""
    if bound < 0:
        raise ValueError("length bound must be non-negative")
    if bound == 0:
        return
    pred: list[list[int]] = [[] for _ in succ]
    for u, heads in enumerate(succ):
        for v in heads:
            pred[v].append(u)
    for root in range(len(succ)):
        dist = {root: 0}
        frontier = [root]
        for d in range(1, bound):
            reached = []
            for v in frontier:
                for u in pred[v]:
                    if u > root and u not in dist:
                        dist[u] = d
                        reached.append(u)
            frontier = reached
        path = [root]
        stack = [iter(succ[root])]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                path.pop()
            elif w == root:
                yield tuple(path)
            elif w in dist and w not in path and len(path) + dist[w] <= bound:
                path.append(w)
                stack.append(iter(succ[w]))


def _simple_paths(succ: list[list[int]], s: int, t: int, cutoff: int) -> Iterator[list[int]]:
    """Simple paths from s to t of at most `cutoff` edges, depth-first in
    successor order; s == t gives the one-node path [s]."""
    if s == t:
        if cutoff >= 0:
            yield [s]
        return
    if cutoff < 1:
        return
    path = [s]
    stack = [iter(succ[s])]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            path.pop()
        elif w == t:
            yield path + [t]
        elif w not in path and len(path) < cutoff:
            path.append(w)
            stack.append(iter(succ[w]))


def _connectors(succ: list[list[int]], c1: tuple[int, ...], c2: tuple[int, ...],
                cutoff: int) -> Iterator[list[int]]:
    """Paths s..t of at most `cutoff` edges for (s, t) in c1 × c2, each
    padded with at least `_PAD` points of its end cycles: p..p s..t q..q."""
    head_reps, tail_reps = (max(1, -(-_PAD // len(c))) for c in (c1, c2))
    for s, t in product(c1, c2):
        for path in _simple_paths(succ, s, t, cutoff):
            i, j = c1.index(s) + 1, c2.index(t)
            head = list(c1[i:] + c1[:i]) * head_reps  # ends at s
            tail = list(c2[j:] + c2[:j]) * tail_reps  # starts at t
            yield head[:-1] + path + tail[1:]


def sample_pseudo_orbits(graph: TransitionGraph, *,
                         params: SamplingParams | None = None) -> SampledOrbits:
    """Generate pseudo-orbits sitting on the graph, deterministically, as
    node-index sequences into the net (see `SampledOrbits`).

    Three families: (a) simple cycles up to max_cycle_len, (b) seeded random
    walks, (c) cycle-to-cycle connecting paths padded with their end cycles;
    the heteroclinic pattern p..p z q..q that makes closures grow.  Caps on
    cycle and connector counts flag the result partial instead of blowing
    up; graphs too dense to materialize fall back to self-loops, walks, and
    cycles recovered from walk self-intersections.
    """
    p = params or SamplingParams()
    return _with_walks(graph, _graph_families(graph, p), p)


def _graph_families(graph: TransitionGraph, p: SamplingParams) -> SampledOrbits:
    """The walk-free part of a sample, read from the graph alone with
    `max_cycle_len` and `path_len` but no seed: the sorted cycles and then
    the connectors of a materialized graph, or the self-loop nodes of a lazy
    one, and the caps that fired."""
    if not graph.materialized:
        loops = graph.self_loop_nodes()[:_CYCLE_CAP].tolist()
        return SampledOrbits(graph.set.points, tuple([i] for i in loops), (True,) * len(loops),
                             cycle_cap=False, connector_budget=False, lazy_graph=True)
    succ = graph.successors
    cycles = list(islice(_simple_cycles(succ, p.max_cycle_len), _CYCLE_CAP + 1))
    cycle_cap = len(cycles) > _CYCLE_CAP
    cycles = sorted(cycles[:_CYCLE_CAP])
    per_pair = (islice(_connectors(succ, c1, c2, p.path_len), _CONNECTORS_PER_PAIR)
                for c1, c2 in product(cycles, repeat=2) if c1 != c2)
    found = list(islice(chain.from_iterable(per_pair), _CONNECTOR_BUDGET))
    return SampledOrbits(graph.set.points, (*map(list, cycles), *found),
                         (True,) * len(cycles) + (False,) * len(found), cycle_cap=cycle_cap,
                         connector_budget=len(found) == _CONNECTOR_BUDGET, lazy_graph=False)


# raw 64-bit outputs per bulk call of `_bounded_draws`
_DRAW_CHUNK = 256


def _bounded_draws(rng: np.random.Generator) -> Callable[[int], int]:
    """`draw(high)` returning what `int(rng.integers(high))` would, call for
    call, for 1 <= high <= 2**32, from a fresh PCG64 generator it then owns.

    Raw outputs are taken in bulk and split into 32-bit words low half
    first, the order of PCG64's `next_uint32`.  Each draw applies numpy's
    bounded rule (Lemire, arXiv:1805.10941): `high == 1` uses no word; else
    m = word * high, redrawn while its low half is below
    (2**32 - high) % high, and the draw is m >> 32.
    """
    raw = rng.bit_generator.random_raw

    def chunk() -> list[int]:
        out = raw(_DRAW_CHUNK)
        return np.column_stack([out & 0xFFFFFFFF, out >> 32]).ravel().tolist()

    words = chain.from_iterable(iter(chunk, None))

    def draw(high: int) -> int:
        if high == 1:
            return 0
        if not 1 < high <= 1 << 32:
            raise ValueError(f"draw bound must be in [1, 2**32], got {high}")
        m = next(words) * high
        if m & 0xFFFFFFFF < high:
            threshold = ((1 << 32) - high) % high
            while m & 0xFFFFFFFF < threshold:
                m = next(words) * high
        return m >> 32

    return draw


def _with_walks(graph: TransitionGraph, families: SampledOrbits,
                p: SamplingParams) -> SampledOrbits:
    """The families followed by `p.n_paths` random walks seeded by `p.seed`;
    on a lazy graph each new cycle a walk closes comes just before it."""
    draw = _bounded_draws(np.random.default_rng(p.seed))
    sequences = list(families.sequences)
    periodic = list(families.periodic)
    lazy = not graph.materialized
    neighbor = graph.out_neighbors if lazy else graph.successors.__getitem__
    walk_cycles: set[tuple[int, ...]] = set()
    for _ in range(p.n_paths):
        node = draw(graph.n_nodes)
        walk = [node]
        for _ in range(p.path_len - 1):
            nbrs = neighbor(walk[-1])
            if len(nbrs) == 0:
                break
            nxt = int(nbrs[draw(len(nbrs))])
            if nxt in walk and lazy:
                cyc = _rotate_cycle(walk[walk.index(nxt):])
                if cyc not in walk_cycles and len(walk_cycles) < _CYCLE_CAP:
                    walk_cycles.add(cyc)
                    sequences.append(list(cyc))
                    periodic.append(True)
            walk.append(nxt)
        if len(walk) >= 2:
            sequences.append(walk)
            periodic.append(False)

    return replace(families, sequences=tuple(sequences), periodic=tuple(periodic))


@dataclass(frozen=True)
class ClosureStepStats:
    """Counts of one closure step and the sampling caps that fired (see
    `SampledOrbits`)."""

    n_sampled: int
    n_refused: int
    n_added: int
    cycle_cap: bool
    connector_budget: bool
    lazy_graph: bool

    @property
    def partial_sampling(self) -> bool:
        return self.cycle_cap or self.connector_budget or self.lazy_graph


@dataclass(frozen=True)
class _StepGraph:
    """What a closure step hands the next one: its graph, the graph's
    families and how many of those the defect gate refused."""

    graph: TransitionGraph
    families: SampledOrbits
    n_refused: int


def _closure_step(map: ToralAutomorphism, sa: SetApprox, delta: float,
                  params: SamplingParams, *, max_defect: float | None, label: str,
                  parent: _StepGraph | None = None,
                  ) -> tuple[SetApprox, ClosureStepStats, _StepGraph]:
    """One closure step.  `parent` is what the step that made `sa` returned,
    at the same map, delta, max_defect and params but the seed; the step
    returns its own for the next.  `sa` is the parent step's merge, so its
    first rows are the parent graph's net.  The step's graph is
    - the parent's, with its families, when the net is unchanged (the parent
      step added nothing); only the seeded walks are run, shadowed and
      merged.  That is exact: the families depend on the graph,
      `max_cycle_len` and `path_len` alone; each window is bit for bit the
      one its orbit gets alone, so the parent's gate verdicts and windows
      hold again; and the parent added nothing, so every admitted family
      window lies strictly within r/2 of this same net and the merge would
      drop it again;
    - lazy without a count pass, with the parent's images, count and
      stencil, when the parent graph is lazy: the larger net gives each of
      the parent's image rows at least as many closed-ball hits, and keeps
      the parent net's lattice.  The parent's rows keep the roundings of
      the batch they were stepped in;
    - else the one `build_graph` makes.
    """
    limit = _defect_limit(map.splitting, max_defect)
    reused = parent is not None and np.array_equal(sa.points, parent.graph.set.points)
    if reused:
        graph = parent.graph
    elif parent is not None and not parent.graph.materialized:
        prev = parent.graph
        images = np.vstack([prev.images, map.apply_array(sa.points[len(prev.set):])])
        graph = TransitionGraph(sa, delta, images, None, prev.n_edges, prev.stencil)
    else:
        graph = build_graph(map, sa, delta)
    families = parent.families if reused else _graph_families(graph, params)
    sampled = _with_walks(graph, families, params)
    n_families = len(families.sequences)

    # orbits of one length and kind are gathered from the net (whose rows
    # are wrapped already) and shadowed together; the windows go back in
    # sample order, since the merge keeps the first point of a cluster
    sequences = sampled.sequences
    groups: dict[tuple[int, bool], list[int]] = {}
    for i in range(n_families if reused else 0, len(sequences)):
        groups.setdefault((len(sequences[i]), sampled.periodic[i]), []).append(i)
    windows: list[np.ndarray | None] = [None] * len(sequences)
    for (n, periodic), members in groups.items():
        idx = np.fromiter(chain.from_iterable(sequences[i] for i in members), dtype=np.intp,
                          count=len(members) * n).reshape(len(members), n)
        found, admitted = _shadow_windows(map, sampled.points[idx], periodic, limit)
        for i, window in zip(compress(members, admitted), found):
            windows[i] = window
    family_refused = (parent.n_refused if reused
                      else sum(w is None for w in windows[:n_families]))
    refused = family_refused + sum(w is None for w in windows[n_families:])
    if sequences and refused == len(sequences):
        smallest = min(pseudo_orbit_defect(map, sampled.points[seq], periodic=periodic)
                       for seq, periodic in zip(sequences, sampled.periodic))
        raise ShadowingRefusal(smallest, limit, f"all {len(sequences)} sampled pseudo-orbits "
                               f"refused: smallest defect {smallest:.3e} >= delta_0 = {limit:.3e}")
    # the graph's net holds the rows of `sa`, with its tree already built
    merged, added = graph.set.merge(
        np.vstack([sa.points[:0], *(w for w in windows if w is not None)]), label=label)
    stats = ClosureStepStats(len(sequences), refused, added, sampled.cycle_cap,
                             sampled.connector_budget, sampled.lazy_graph)
    return merged, stats, _StepGraph(graph, families, family_refused)


def shadowing_closure(map: ToralAutomorphism, sa: SetApprox, delta: float, *,
                      params: SamplingParams | None = None,
                      max_defect: float | None = None) -> SetApprox:
    """One application of sh(., delta) at the net's resolution.

    Shadows every sampled pseudo-orbit of the net's transition graph,
    collects full orbit windows (the closure is f-invariant, so all y_j
    belong, not just y_0), merges them into the net, and coarsens.  The
    result always contains the input points.  Refused pseudo-orbits are
    skipped; if every sample is refused the call errors.
    """
    merged, _, _ = _closure_step(map, sa, delta, params or SamplingParams(),
                                 max_defect=max_defect, label=sa.label)
    return merged


def gamma_for(map: ToralAutomorphism, delta: float) -> float:
    """The gamma of the dichotomy argument: points gamma-close stay
    delta/4-close under one application of f or f^{-1}.

    gamma = delta/(4L) * 0.9 with L >= 1 the Lipschitz bound of the map and
    its inverse (for a linear map, the larger operator norm).  The 10%
    margin keeps the paper-side inequalities strict.
    """
    _positive("delta", delta)
    L = max(map.lipschitz, 1.0)
    return delta / (4.0 * L) * 0.9


@dataclass(frozen=True)
class Verdict:
    kind: str            # stabilized | escaped_neighborhood | budget_exhausted
    index: int | None = None

    def __str__(self):
        return f"{self.kind}({self.index})" if self.index is not None else self.kind


@dataclass(frozen=True)
class ClosureTrace:
    """Record of a stabilization run: the iterates Lambda_0..Lambda_N, the
    increments nu_j = d_H(Lambda_j, Lambda_{j-1}), gamma, and the verdict."""

    iterates: tuple[SetApprox, ...]
    nus: tuple[float, ...]
    gamma: float
    verdict: Verdict
    delta: float
    u_radius: float
    stab_tol: float
    step_stats: tuple[ClosureStepStats, ...] = ()

    def __post_init__(self):
        if len(self.nus) != len(self.iterates) - 1:
            raise ValueError("need one increment nu_j per step: len(nus) == len(iterates) - 1")

    @property
    def final(self) -> SetApprox:
        return self.iterates[-1]

    def dichotomy(self, slack: float = 0.5) -> list[dict]:
        """Check max(nu_j, nu_{j+1}) >= gamma * (1 - slack) on consecutive
        non-stabilized pairs.  Failures are reported, never swallowed."""
        rows = []
        bound = self.gamma * (1.0 - slack)
        for k in range(len(self.nus) - 1):
            a, b = self.nus[k], self.nus[k + 1]
            if a <= self.stab_tol and b <= self.stab_tol:
                continue  # stabilized pair: the claim's hypothesis fails
            rows.append({
                "j": k + 1,
                "nu_j": a,
                "nu_j1": b,
                "holds": bool(max(a, b) >= bound),
            })
        return rows

    def dichotomy_pass_rate(self, slack: float = 0.5) -> float:
        rows = self.dichotomy(slack)
        if not rows:
            return 1.0
        return sum(r["holds"] for r in rows) / len(rows)

    def to_json_dict(self, include_iterates: str = "final") -> dict:
        if include_iterates not in ("none", "final", "all"):
            raise ValueError(f"include_iterates must be 'none', 'final' or 'all', "
                             f"got {include_iterates!r}")
        out = {
            "delta": self.delta,
            "u_radius": self.u_radius,
            "gamma": self.gamma,
            "stab_tol": self.stab_tol,
            "verdict": {"kind": self.verdict.kind, "index": self.verdict.index},
            "nus": list(self.nus),
            "sizes": [len(s) for s in self.iterates],
            "dichotomy": self.dichotomy(),
            "steps": [
                {"sampled": s.n_sampled, "refused": s.n_refused,
                 "added": s.n_added, "partial": s.partial_sampling}
                for s in self.step_stats
            ],
        }
        if include_iterates == "all":
            out["iterates"] = [s.points.tolist() for s in self.iterates]
        elif include_iterates == "final":
            out["final"] = self.final.points.tolist()
        return out


_CONFIRM_STEPS = 3  # quiet steps after the first that confirm stabilization


def iterate_closure(map: ToralAutomorphism, lam0: SetApprox, delta: float,
                    u_radius: float, max_iter: int, *,
                    params: SamplingParams | None = None,
                    max_defect: float | None = None) -> ClosureTrace:
    """Iterate the shadowing closure and classify the outcome.

    Stabilization is declared at the first index j whose following
    `1 + _CONFIRM_STEPS` increments all fall below the tolerance
    0.45 * resolution, which sits strictly below the net half-spacing r/2,
    so a step that genuinely adds a net point can never read as
    stabilization.  Escape fires when a new point leaves the u_radius
    neighborhood of Lambda_0.  Budget exhaustion is a verdict, not an error.
    """
    _positive("u_radius", u_radius, finite=False)  # a NaN would never fire the escape test
    max_iter = _integer("max_iter", max_iter, 1)
    p = params or SamplingParams()
    tol = 0.45 * lam0.resolution
    gamma = gamma_for(map, delta)
    iterates = [SetApprox(lam0.points, lam0.resolution, "Lambda_0", _validate=False,
                          _lattice=lam0.lattice)]
    nus: list[float] = []
    stats: list[ClosureStepStats] = []
    verdict: Verdict | None = None
    quiet_run = 0
    step: _StepGraph | None = None

    for i in range(1, max_iter + 1):
        step_params = replace(p, seed=p.seed * 1_000_003 + i)
        current = iterates[-1]
        new_sa, st, step = _closure_step(map, current, delta, step_params,
                                         max_defect=max_defect, label=f"Lambda_{i}",
                                         parent=step)
        added = new_sa.points[len(current):]
        nu = float(np.max(current.distance_to(added))) if len(added) else 0.0
        iterates.append(new_sa)
        nus.append(nu)
        stats.append(st)

        if len(added) and float(np.max(iterates[0].distance_to(added))) > u_radius:
            verdict = Verdict("escaped_neighborhood", i)
            break

        if nu <= tol:
            quiet_run += 1
            if quiet_run >= 1 + _CONFIRM_STEPS:
                verdict = Verdict("stabilized", i - quiet_run)
                break
        else:
            quiet_run = 0

    if verdict is None:
        verdict = Verdict("budget_exhausted", max_iter)

    return ClosureTrace(tuple(iterates), tuple(nus), gamma, verdict,
                        delta, u_radius, tol, tuple(stats))

"""Local product structure, maximal invariant sets on grids, the punctured
4-torus construction, and the non-premaximality witness checker.

The bracket of two nearby points follows the flow-style convention
S(x, y) in W^u(x) ∩ W^s(y): forward iterates converge to y's orbit,
backward iterates to x's.  For a linear system it is the exact intersection
of the unstable affine line through x with the stable affine line through y,
computed on the minimal lift.

Grid computations are set-oriented: a cell survives a sweep when the outer
enclosure of its image (and preimage) still meets the remaining cell set,
so the result always over-approximates the true maximal invariant set and
shrinks monotonically with more sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closure import SetApprox, _Lattice, _pairs
from .torus import (
    ProductSystem,
    ToralAutomorphism,
    TorusPoint,
    _integer,
    _positive,
    minimal_lift,
    torus_distance,
    torus_distance_array,
    wrap,
)

__all__ = [
    "BracketError",
    "BracketPoint",
    "LPSFailure",
    "LPSReport",
    "GridSet",
    "NonPremaxWitness",
    "WitnessReport",
    "bracket",
    "bracket_delta_for",
    "local_product_check",
    "maximal_invariant_set",
    "crovisier_set",
    "verify_nonpremax_witness",
    "constant_family",
    "unstable_segment_family",
    "b_direction_heteroclinic_family",
]


class BracketError(ValueError):
    pass


@dataclass(frozen=True)
class BracketPoint:
    """The intersection point W^u(x) ∩ W^s(y) with the distances along each
    manifold."""

    point: TorusPoint
    s_distance: float
    u_distance: float


def bracket_delta_for(splitting, eps: float) -> float:
    """Largest pair distance delta guaranteeing both bracket components stay
    below eps: delta = eps / max(||P_s||, ||P_u||)."""
    _positive("eps", eps, finite=False)
    ds = splitting.stable_dim
    d = splitting.dim
    sel_s = np.zeros((d, d))
    sel_s[:ds, :ds] = np.eye(ds)
    sel_u = np.eye(d) - sel_s
    Ps = splitting.basis @ sel_s @ splitting.basis_inv
    Pu = splitting.basis @ sel_u @ splitting.basis_inv
    norm = max(np.linalg.norm(Ps, 2), np.linalg.norm(Pu, 2))
    return eps / norm


def _brackets(splitting, X: np.ndarray, Y: np.ndarray, eps: float,
              delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The brackets of the rows of X and Y (n, d), x plus the unstable part
    of the minimal lift of y - x, and their stable and unstable distances,
    refused as `bracket` documents."""
    if not eps < 0.25:
        raise BracketError("linear bracket needs eps < 1/4 for a unique lift")
    if splitting.C > 1e8:
        raise BracketError(f"near-parallel stable/unstable bases: conditioning {splitting.C:.2e}")
    d_xy = torus_distance_array(X, Y)
    if not np.all(d_xy < delta):  # NaN included
        raise BracketError(f"no local bracket: d(x,y) = {d_xy.max():.4g} >= delta = {delta:.4g}")
    w = minimal_lift(Y - X)
    wu = splitting.unstable_component(w)
    ss, su = np.linalg.norm(w - wu, axis=-1), np.linalg.norm(wu, axis=-1)
    if np.any((ss > eps) | (su > eps)):
        raise BracketError(f"no local bracket: component distances ({ss.max():.4g}, "
                           f"{su.max():.4g}) exceed eps = {eps}; "
                           "pick delta <= bracket_delta_for(eps)")
    return wrap(X + wu), ss, su


def bracket(map: ToralAutomorphism, x: TorusPoint, y: TorusPoint, eps: float,
            delta: float | None = None) -> BracketPoint:
    """S(x, y): unstable coordinate of x, stable coordinate of y, and
    bracket(x, x) = x exactly.  Raises BracketError, checked in this order,
    for eps >= 1/4 (the minimal lift of y - x is no longer the only
    candidate), a basis conditioned above 1e8, d(x, y) >= delta (by default
    bracket_delta_for(eps)) and a stable or unstable component above eps."""
    s = map.splitting
    delta = bracket_delta_for(s, eps) if delta is None else delta
    points, ss, su = _brackets(s, x.coords[None, :], y.coords[None, :], eps, delta)
    return BracketPoint(TorusPoint(points[0]), float(ss[0]), float(su[0]))


@dataclass(frozen=True)
class LPSFailure:
    x: np.ndarray
    y: np.ndarray
    bracket: np.ndarray
    distance_to_set: float


@dataclass(frozen=True)
class LPSReport:
    """Outcome of the local-product-structure sweep: every ordered close
    pair's bracket was tested for membership in the net."""

    epsilon: float
    delta: float
    membership_tol: float
    pairs_tested: int
    failures: tuple[LPSFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "membership_tol": self.membership_tol,
            "pairs_tested": self.pairs_tested,
            "passed": self.passed,
            "failures": [
                {
                    "x": f.x.tolist(),
                    "y": f.y.tolist(),
                    "bracket": f.bracket.tolist(),
                    "distance_to_set": f.distance_to_set,
                }
                for f in self.failures
            ],
        }


def local_product_check(map: ToralAutomorphism, sa: SetApprox, eps: float,
                        delta: float, membership_tol: float) -> LPSReport:
    """Test every ordered pair x != y with d(x, y) < delta: the bracket must
    land within membership_tol of the net.  Failures are data, not errors;
    the refusals of `bracket` raise BracketError here too."""
    for name, value in (("eps", eps), ("delta", delta), ("membership_tol", membership_tol)):
        _positive(name, value, finite=False)
    map._check_dim(sa.dim)
    pts = sa.points
    pairs = _pairs(sa, delta)
    ii = np.concatenate([pairs[:, 0], pairs[:, 1]])
    jj = np.concatenate([pairs[:, 1], pairs[:, 0]])
    brackets, _, _ = _brackets(map.splitting, pts[ii], pts[jj], eps, delta)
    dists = sa.distance_to(brackets)
    bad = np.nonzero(dists > membership_tol)[0]
    failures = tuple(
        LPSFailure(pts[ii[k]].copy(), pts[jj[k]].copy(), brackets[k].copy(), float(dists[k]))
        for k in bad
    )
    return LPSReport(eps, delta, membership_tol, len(ii), failures)


# ---------------------------------------------------------------------------
# grids


# the most cells a grid may span, (2^k)^d: the 4-d grid at depth 6
_MAX_CELLS = 2 ** 24


def _shape(dim: int, depth: int) -> tuple[int, ...]:
    """The (2^k,) * d shape of a grid, refused past `_MAX_CELLS` cells
    before anything is allocated."""
    depth = _integer("depth", depth, 0)
    dim = _integer("dim", dim, 1)
    bits = _MAX_CELLS.bit_length() - 1
    if depth * dim > bits:
        raise ValueError(f"depth {depth} in dimension {dim} gives 2^{depth * dim} cells, "
                         f"above the grid bound of 2^{bits}")
    return (2 ** depth,) * dim


@dataclass(frozen=True)
class GridSet:
    """Cell set at dyadic subdivision depth k: cell width 2^-k per axis,
    stored as a boolean occupancy array over the full (2^k)^d grid, of at
    most `_MAX_CELLS` cells."""

    dim: int
    depth: int
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = _shape(self.dim, self.depth)
        if self.mask.shape != expected:
            raise ValueError(f"mask shape {self.mask.shape} != {expected}")
        m = np.asarray(self.mask, dtype=bool)
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridSet):
            return NotImplemented
        return (self.dim == other.dim and self.depth == other.depth
                and bool(np.array_equal(self.mask, other.mask)))

    def __hash__(self):
        return hash((self.dim, self.depth, self.mask.tobytes()))

    @classmethod
    def full(cls, dim: int, depth: int) -> "GridSet":
        return cls(dim, depth, np.ones(_shape(dim, depth), dtype=bool))

    @property
    def width(self) -> float:
        return 2.0 ** -self.depth

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def cells(self) -> np.ndarray:
        return np.argwhere(self.mask)

    def centers(self) -> np.ndarray:
        return (self.cells() + 0.5) * self.width

    def contains(self, point: TorusPoint | np.ndarray) -> bool:
        coords = np.asarray(point.coords if isinstance(point, TorusPoint) else point, float)
        if coords.shape != (self.dim,) or not np.isfinite(coords).all():
            raise ValueError(f"point must have {self.dim} finite coordinates, "
                             f"got {coords.tolist()}")
        idx = tuple(np.minimum((wrap(coords) / self.width).astype(int), 2 ** self.depth - 1))
        return bool(self.mask[idx])

    def minus_ball(self, center: np.ndarray, radius: float) -> "GridSet":
        """Remove cells whose center lies within `radius` of `center` (torus
        metric)."""
        center = np.asarray(center, float)
        if center.shape != (self.dim,) or not (np.isfinite(radius) and np.isfinite(center).all()):
            raise ValueError(f"ball needs a center of {self.dim} finite coordinates and a "
                             f"finite radius, got {center.tolist()} and {radius}")
        if radius <= 0:
            return self
        centers = (np.indices(self.mask.shape).reshape(self.dim, -1).T + 0.5) * self.width
        d = torus_distance_array(centers, center[None, :])
        keep = (d >= radius).reshape(self.mask.shape)
        return GridSet(self.dim, self.depth, self.mask & keep)

    def as_set_approx(self, label: str = "") -> SetApprox:
        return SetApprox(self.centers(), self.width, label, _validate=False,
                         _lattice=_Lattice.of(self.depth, self.mask))

    def coarsen(self) -> "GridSet":
        """Project to depth-1: a coarse cell is occupied when any of its 2^d
        children is."""
        if self.depth == 0:
            raise ValueError("already at depth 0")
        m = self.mask
        for axis in range(self.dim):
            n = m.shape[axis] // 2
            shape = list(m.shape)
            shape[axis] = n
            shape.insert(axis + 1, 2)
            m = m.reshape(shape).any(axis=axis + 1)
        return GridSet(self.dim, self.depth - 1, m)

    def to_rle(self) -> dict:
        flat = self.mask.ravel()
        runs = []
        changes = np.nonzero(np.diff(flat.astype(np.int8)))[0] + 1
        bounds = np.concatenate([[0], changes, [flat.size]])
        for a, b in zip(bounds[:-1], bounds[1:]):
            if flat[a]:
                runs.append([int(a), int(b - a)])
        return {"dim": self.dim, "depth": self.depth, "runs": runs}

    @classmethod
    def from_rle(cls, d: dict) -> "GridSet":
        mask = np.zeros(_shape(d["dim"], d["depth"]), dtype=bool)
        flat = mask.reshape(-1)
        for start, length in d["runs"]:
            flat[start: start + length] = True
        return cls(d["dim"], d["depth"], mask)


def _sweep(mask: np.ndarray, M: np.ndarray, depth: int) -> np.ndarray:
    """Keep cells whose image box under the integer matrix M meets the mask.

    In cell units, cell idx covers idx + [0, 1] and its image M(idx + [0, 1])
    lies in the box M·idx + c0 + [0, s], with c0_i = Σ_j min(M_ij, 0) and
    s_i = Σ_j |M_ij|: the hull of the mapped corners.  The box is closed, so
    a cell touching its far face counts.  Every number here is an integer:
    the mask is dilated by [0, s] with cyclic rolls (at most n − 1 per axis,
    since n cells cover the whole cycle), and each cell looks up its box's
    first cell in the dilated mask.
    """
    n = 2 ** depth
    c0 = np.minimum(M, 0).sum(axis=1)
    s = np.abs(M).sum(axis=1)
    hit = mask
    for axis, span in enumerate(s):
        base = hit
        for k in range(1, min(int(span), n - 1) + 1):
            hit = hit | np.roll(base, -k, axis=axis)
    idx = np.argwhere(mask)
    target = (idx @ M.T + c0) % n
    out = np.zeros_like(mask)
    out[tuple(idx[hit[tuple(target.T)]].T)] = True
    return out


def maximal_invariant_set(map: ToralAutomorphism, U: GridSet, n_iter: int) -> GridSet:
    """Outer approximation of I_f(U) = ∩_n f^n(U) by cell-removal sweeps.

    Each sweep drops cells whose forward or backward image enclosure leaves
    the current cell set; the result is a superset of the true invariant set
    that shrinks (or stalls) with n_iter.  Idempotent at the fixed point.
    """
    n_iter = _integer("n_iter", n_iter, 0)
    map._check_dim(U.dim)
    if U.count == 0:
        raise ValueError("empty grid")
    mask = U.mask
    for _ in range(n_iter):
        new = _sweep(mask, map.matrix, U.depth) & _sweep(mask, map.inverse_matrix, U.depth)
        if np.array_equal(new, mask):
            break
        mask = new
    return GridSet(U.dim, U.depth, mask)


def crovisier_set(product: ProductSystem, q: TorusPoint, r: TorusPoint,
                  v_radius: float, depth: int, n_iter: int, *,
                  q_period: int = 1) -> GridSet:
    """Grid approximation of Lambda = ∩_n F^n(T^4 - V) with V the ball of
    radius `v_radius` around (q, r).

    q must be fixed by A^q_period and distinct from the origin fixed point;
    the default system's A = [[3,1],[2,1]] genuinely fixes q = (1/2, 0), so
    q_period = 1 applies.  Cells are removed when their center lies in V.
    """
    if not v_radius >= 0:  # NaN included; 0 removes no cell
        raise ValueError(f"v_radius must be nonnegative, got {v_radius}")
    q_period = _integer("q_period", q_period, 1)  # A^0 fixes every q: a vacuous precondition
    A, B = product.factor_a, product.factor_b
    if torus_distance(A.iterate(q, q_period), q) > 1e-9:
        raise ValueError(f"q is not fixed by A^{q_period}")
    if torus_distance(q, TorusPoint((0,) * A.dim)) < 1e-12:
        raise ValueError("q must be distinct from the origin fixed point p")
    if torus_distance(B.apply(r), r) > 1e-9:
        raise ValueError("r is not a fixed point of B")
    F = product.as_automorphism()
    center = np.concatenate([q.coords, r.coords])
    U = GridSet.full(F.dim, depth).minus_ball(center, v_radius)
    if U.count == 0:
        raise ValueError("V swallows the whole grid; shrink v_radius")
    return maximal_invariant_set(F, U, n_iter)


# ---------------------------------------------------------------------------
# non-premaximality witness


@dataclass(frozen=True)
class NonPremaxWitness:
    """Sampled family of exact trajectories xi(n, t): a rectangular array
    over the time window [n_start, n_start + N - 1] and a uniform t-grid
    on [0, a]."""

    xi: np.ndarray          # (n_times, n_params, d)
    n_start: int
    a: float

    def __post_init__(self):
        arr = np.asarray(self.xi, dtype=float)
        if arr.ndim != 3:
            raise ValueError("xi must be a (times, params, dim) array")
        if not self.n_start <= 0 <= self.n_start + arr.shape[0] - 1:
            raise ValueError("time window must contain n = 0")
        arr = wrap(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "xi", arr)

    @property
    def zero_row(self) -> int:
        return -self.n_start


@dataclass(frozen=True)
class WitnessReport:
    exact_orbit: bool
    base_in_set: bool
    uniform_approach: bool
    leaves_set: bool
    details: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return self.exact_orbit and self.base_in_set and self.uniform_approach and self.leaves_set

    def conditions(self) -> tuple[bool, bool, bool, bool]:
        return (self.exact_orbit, self.base_in_set, self.uniform_approach, self.leaves_set)

    def to_json_dict(self) -> dict:
        return {
            "exact_orbit": self.exact_orbit,
            "base_in_set": self.base_in_set,
            "uniform_approach": self.uniform_approach,
            "leaves_set": self.leaves_set,
            "all_pass": self.all_pass,
            "details": self.details,
        }


_DECAY_MARGIN = 0.05  # least fitted exponential rate that counts as decay


def _side_decays(vals: np.ndarray, floor: float) -> bool:
    """Decreasing-envelope test for one time direction: the outer half sits
    at the floor, or the fitted exponential rate is at least `_DECAY_MARGIN`."""
    vals = np.asarray(vals, dtype=float)
    if len(vals) < 3:
        return bool(vals[-1] <= floor)
    half = len(vals) // 2
    if float(np.max(vals[half:])) <= floor:
        return True
    env = np.maximum.accumulate(vals[::-1])[::-1]  # envelope from the edge
    y = np.log(np.maximum(env, floor * 1e-2))
    slope = float(np.polyfit(np.arange(len(env)), y, 1)[0])
    return slope <= -_DECAY_MARGIN


def verify_nonpremax_witness(map: ToralAutomorphism, lam: SetApprox,
                             witness: NonPremaxWitness, tol: float) -> WitnessReport:
    """Check the four witness conditions numerically.

    (1) each t-slice is an exact orbit up to tol; (2) xi(0,0) lies within
    tol of the set; (3) sup_t dist(xi(n,t), set) decays as a two-sided
    envelope down to the floor tol (limits are not observable at desk scale, so
    a fitted rate or reaching the floor counts); (4) some xi(0, t1) sits
    farther than 2 tol from the set.  Failures are reported, not raised.
    """
    xi = witness.xi
    n_times, n_params, d = xi.shape

    defect = float(np.max(torus_distance_array(map.apply_array(xi[:-1]), xi[1:]), initial=0.0))
    cond1 = defect < tol

    dists = lam.distance_to(xi.reshape(-1, d)).reshape(n_times, n_params)
    z = witness.zero_row
    cond2 = bool(dists[z, 0] < tol)

    m = dists.max(axis=1)
    fwd = m[z:]
    bwd = m[: z + 1][::-1]
    cond3 = _side_decays(fwd, tol) and _side_decays(bwd, tol)

    off = float(np.max(dists[z]))
    cond4 = bool(off > 2 * tol)

    return WitnessReport(cond1, cond2, cond3, cond4, details={
        "orbit_defect": defect,
        "base_distance": float(dists[z, 0]),
        "max_zero_row_distance": off,
        "sup_distance_by_n": m.tolist(),
        "n_start": witness.n_start,
    })


def _mpmath():
    """mpmath's global context, loaded by the first extended-precision
    witness: nothing else needs it."""
    from mpmath import mp

    return mp


def _mp_frac(mp, x):
    return x - mp.floor(x)


def _eig_2x2_extended(mp, matrix: np.ndarray, stable: bool):
    """Eigenvalue and unit eigenvector of an integer 2x2 matrix via the
    quadratic formula, in the active precision of the mpmath context mp."""
    if matrix.shape != (2, 2):
        raise ValueError("extended-precision eigendata needs a 2x2 factor")
    a, b = int(matrix[0, 0]), int(matrix[0, 1])
    c, d = int(matrix[1, 0]), int(matrix[1, 1])
    tr, det = a + d, a * d - b * c
    disc = mp.sqrt(mp.mpf(tr) ** 2 - 4 * det)
    roots = [(tr + disc) / 2, (tr - disc) / 2]
    lam = min(roots, key=abs) if stable else max(roots, key=abs)
    if b != 0:
        v = (mp.mpf(b), lam - a)
    else:
        v = (lam - d, mp.mpf(c))
    norm = mp.sqrt(v[0] ** 2 + v[1] ** 2)
    return lam, (v[0] / norm, v[1] / norm)


def _family_from_segment(map: ToralAutomorphism, seg: np.ndarray, n_window: int,
                         a: float) -> NonPremaxWitness:
    n_window = _integer("n_window", n_window, 0)
    return NonPremaxWitness(map._orbit(wrap(seg), -n_window, n_window), -n_window, a)


def constant_family(map: ToralAutomorphism, x0: TorusPoint, n_window: int,
                    n_params: int, a: float) -> NonPremaxWitness:
    """xi(n, t) = f^n(x0) for every t: a family that never leaves the orbit."""
    seg = np.tile(x0.coords, (_integer("n_params", n_params, 1), 1))
    return _family_from_segment(map, seg, n_window, a)


def unstable_segment_family(map: ToralAutomorphism, center: TorusPoint, a: float,
                            n_window: int, n_params: int) -> NonPremaxWitness:
    """xi(0, t) = center + t v_u: pushforwards of an unstable segment."""
    v = map.splitting.unstable_basis[:, 0]
    t = np.linspace(0.0, a, _integer("n_params", n_params, 1))
    seg = wrap(center.coords[None, :] + t[:, None] * v[None, :])
    return _family_from_segment(map, seg, n_window, a)


def b_direction_heteroclinic_family(product: ProductSystem, q: TorusPoint,
                                    r: TorusPoint, *, s_offset: float, a: float,
                                    n_window: int, n_params: int) -> NonPremaxWitness:
    """Segments in the B factor's unstable direction, based where the A
    coordinate sits on W^s(q).

    xi(0, t) = (q + s_offset v_s(A), r + t v_u(B)).  Forward orbits converge
    to the fiber {q} x T^2 uniformly in t (the A part contracts along
    W^s(q)), backward orbits to T^2 x {r} (the B part contracts along the
    reversed unstable direction); interior t leave the union of those two
    invariant pieces.  This is the product mechanism behind the punctured
    4-torus example.

    Both offsets sit along eigenvectors of fixed points, so the orbits have
    the closed form (q + s lam_sA^n v_s, r + t lam_uB^n v_u).  The stable
    offset blown up through a 30-step backward window carries more digits
    than a double holds, so the positions are evaluated in extended
    precision before rounding to floats.
    """
    lam_max = max(product.factor_a.splitting.lambda_u,
                  product.factor_b.splitting.lambda_u)
    n_window = _integer("n_window", n_window, 0)
    digits = 40 + int(np.ceil((n_window + 1) * np.log10(lam_max)))
    t = np.linspace(0.0, a, _integer("n_params", n_params, 1))
    mp = _mpmath()
    with mp.workdps(digits):
        lam_s, vs = _eig_2x2_extended(mp, product.factor_a.matrix, stable=True)
        lam_u, vu = _eig_2x2_extended(mp, product.factor_b.matrix, stable=False)
        rows = []
        for n in range(-n_window, n_window + 1):
            sa_off = mp.mpf(s_offset) * lam_s ** n
            a_part = np.array([
                float(_mp_frac(mp, mp.mpf(float(qc)) + sa_off * vc))
                for qc, vc in zip(q.coords, vs)
            ])
            row = []
            for tk in t:
                tu_off = mp.mpf(float(tk)) * lam_u ** n
                b_part = np.array([
                    float(_mp_frac(mp, mp.mpf(float(rc)) + tu_off * vc))
                    for rc, vc in zip(r.coords, vu)
                ])
                row.append(np.concatenate([a_part, b_part]))
            rows.append(np.array(row))
    return NonPremaxWitness(np.stack(rows), -n_window, a)

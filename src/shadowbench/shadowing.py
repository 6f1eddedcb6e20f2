"""Pseudo-orbits and shadowing for hyperbolic toral maps and their
constant-roof suspensions.

Two shadowers are provided.  `exact_shadow_linear` solves the correction
recursion u_{j+1} = A u_j - e_j in the splitting basis: stable components
are summed forward, unstable components backward, each a geometric series in
the contraction rates, which yields the unique bounded solution with
sup distance <= K * defect.  `newton_shadow` solves the orbit equations as a
sparse boundary-value problem and must agree with the series on linear maps;
the pair forms an internal cross-check.

Finite windows use free ends: the stable displacement is clamped to zero at
the left end and the unstable displacement at the right end, mirroring the
bounded-solution selection of the bi-infinite problem.  Interior indices
(further than log(tol)/log(lambda_s) from the ends) meet the bi-infinite
bounds because boundary effects decay exponentially.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .torus import (
    FlowState,
    SuspensionFlow,
    ToralAutomorphism,
    TorusPoint,
    _integer,
    _positive,
    minimal_lift,
    torus_distance_array,
    wrap,
)

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

__all__ = [
    "ShadowingRefusal",
    "PseudoOrbit",
    "ShadowResult",
    "pseudo_orbit_defect",
    "exact_shadow_linear",
    "newton_shadow",
    "shadow_operator",
    "shift_pseudo",
    "expansivity_test",
    "FlowPseudoTrajectory",
    "FlowShadowResult",
    "suspend_pseudo_orbit",
    "flow_defect",
    "flow_shadow",
]


class ShadowingRefusal(ValueError):
    """A measured `defect` is not below its admissible `limit`, so the
    shadowing bound is not guaranteed and the solver declines.  By default
    these are a pseudo-orbit's defect and the gate delta_0; a refusal that
    compares other quantities names them in `message`."""

    def __init__(self, defect: float, limit: float, message: str | None = None):
        self.defect = defect
        self.limit = limit
        super().__init__(message or f"defect too large: {defect:.3e} >= delta_0 = {limit:.3e}; "
                                    "shadowing bound not guaranteed")


def _points_array(points: Iterable) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValueError("points must be a sequence of equal-dimension coordinates")
    if not len(arr):
        raise ValueError("need at least one point")
    if not np.isfinite(arr).all():
        raise ValueError("points must have finite coordinates")
    return wrap(arr)


def _flag(name: str, value) -> bool:
    """`value` as a Python bool, refusing anything but a bool or a numpy bool:
    a truthy string or number would otherwise switch the flag on."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class PseudoOrbit:
    """Finite pseudo-orbit x_l..x_m with l <= 0 <= m, at least one point;
    `start_index` is l, and a periodic orbit is one period, wrap implied.
    `periodic` must be a bool.  A shadower measures its defect once per map
    and keeps it in `_defects`.  Pseudo-orbits compare and hash by rows,
    `periodic` and `start_index`."""

    points: np.ndarray            # (n, d), rows wrapped into [0,1)
    _: KW_ONLY
    periodic: bool = False
    start_index: int = 0
    _defects: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = _points_array(self.points)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "periodic", _flag("periodic", self.periodic))
        object.__setattr__(self, "start_index", _integer("start_index", self.start_index))
        if not self.periodic and not (self.start_index <= 0 <= self.end_index):
            raise ValueError("index window must contain 0")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PseudoOrbit):
            return NotImplemented
        return (self.periodic == other.periodic and self.start_index == other.start_index
                and bool(np.array_equal(self.points, other.points)))

    def __hash__(self):
        return hash((self.points.tobytes(), self.periodic, self.start_index))

    @classmethod
    def from_map(cls, map: ToralAutomorphism, points: Iterable, *,
                 periodic: bool = False, start_index: int = 0) -> "PseudoOrbit":
        """A pseudo-orbit checked against the map's dimension; shadowers measure its defect."""
        po = cls(points, periodic=periodic, start_index=start_index)
        map._check_dim(po.dim)
        return po

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def end_index(self) -> int:
        return self.start_index + len(self) - 1

    def indices(self) -> np.ndarray:
        return np.arange(self.start_index, self.start_index + len(self))


def pseudo_orbit_defect(map: ToralAutomorphism, points: Iterable, *,
                        periodic: bool = False) -> float:
    """Max over consecutive pairs of d(f(x_j), x_{j+1}), the wrap pair
    included when `periodic` (a bool); 0 for a true orbit."""
    return _defect(map, _points_array(points), _flag("periodic", periodic))


def _defect(map: ToralAutomorphism, pts: np.ndarray, periodic: bool) -> float:
    map._check_dim(pts.shape[1])
    return float(_max_defect(*_step_pairs(map, pts, periodic)))


def _max_defect(images: np.ndarray, successors: np.ndarray) -> np.ndarray:
    """The defect of each stacked pseudo-orbit from its `_step_pairs`:
    max d(f(x_j), x_{j+1}), and 0 for a one-point segment, which has none."""
    return np.max(torus_distance_array(images, successors), axis=-1, initial=0.0)


def _step_pairs(map: ToralAutomorphism, X: np.ndarray,
                periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Images f(x_j) and successors x_{j+1} over the consecutive pairs of the
    orbits stacked in X (..., n, d), the wrap pair included when periodic.

    A stack of orbits goes through the same per-orbit matrix products as one
    orbit, so each slice is rounded as that orbit alone would be.
    """
    images = map.apply_array(X)
    if periodic:
        return images, np.roll(X, -1, axis=-2)
    return images[..., :-1, :], X[..., 1:, :]


@dataclass(frozen=True)
class ShadowResult:
    """A shadowing orbit for a pseudo-orbit.

    `orbit` is the window y_j aligned with the pseudo-orbit's points; the
    rest is derived from it on each read: `point` is the orbit point at
    index 0, `per_index` the torus distances d(y_j, x_j), and `residual`
    the largest violation of y_{j+1} = f(y_j) over the window.  Results
    compare by value, `orbit` row for row, and hash by `orbit` and `method`.
    """

    map: ToralAutomorphism = field(repr=False)
    pseudo_orbit: PseudoOrbit = field(repr=False)
    orbit: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    method: str

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShadowResult):
            return NotImplemented
        return (self.map == other.map and self.pseudo_orbit == other.pseudo_orbit
                and bool(np.array_equal(self.orbit, other.orbit))
                and (self.converged, self.iterations, self.method)
                == (other.converged, other.iterations, other.method))

    def __hash__(self):
        return hash((self.orbit.tobytes(), self.method))

    @property
    def start_index(self) -> int:
        return self.pseudo_orbit.start_index

    @property
    def point(self) -> TorusPoint:
        # a segment's window contains 0; a periodic orbit's index is cyclic
        return TorusPoint(self.orbit[-self.start_index % len(self.orbit)])

    @property
    def per_index(self) -> np.ndarray:
        return torus_distance_array(self.orbit, self.pseudo_orbit.points)

    @property
    def sup_distance(self) -> float:
        return float(np.max(self.per_index))

    @property
    def sup_distance_adapted(self) -> float:
        """Sup distance in the splitting's adapted coordinates."""
        lifts = minimal_lift(self.orbit - self.pseudo_orbit.points)
        return float(np.max(self.map.splitting.adapted_norm(lifts)))

    @property
    def residual(self) -> float:
        return _defect(self.map, self.orbit, self.pseudo_orbit.periodic)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "sup_distance": self.sup_distance,
            "sup_distance_adapted": self.sup_distance_adapted,
            "residual": self.residual,
            "start_index": self.start_index,
            "point": self.point.coords.tolist(),
            "per_index": [{"index": int(j), "distance": float(v)}
                          for j, v in enumerate(self.per_index, self.start_index)],
        }


def _defect_limit(splitting, max_defect: float | None) -> float:
    return splitting.max_shadow_defect if max_defect is None else max_defect


def _gated_pairs(map: ToralAutomorphism, po: PseudoOrbit,
                 max_defect: float | None) -> tuple[np.ndarray, np.ndarray]:
    """The `_step_pairs` of po under the map, once its measured defect is
    below the gate delta_0 (or `max_defect`); refused otherwise.  The defect
    is measured on the first call for each map and kept on po, keyed by the
    matrix bytes, which determine the map without keeping it alive."""
    map._check_dim(po.dim)
    pairs = _step_pairs(map, po.points, po.periodic)
    key = map.matrix.tobytes()
    if key not in po._defects:
        po._defects[key] = float(_max_defect(*pairs))
    defect, limit = po._defects[key], _defect_limit(map.splitting, max_defect)
    if not defect < limit:  # a NaN limit refuses too
        raise ShadowingRefusal(defect, limit)
    return pairs


def _shadow_windows(map: ToralAutomorphism, X: np.ndarray, periodic: bool,
                    limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Shadow windows of the stacked pseudo-orbits X (m, n, d) whose measured
    defect passes the gate, and the mask of those admitted."""
    images, successors = _step_pairs(map, X, periodic)
    admitted = _max_defect(images, successors) < limit
    errors = minimal_lift(successors[admitted] - images[admitted])
    corrections = _series_corrections(map, errors, X.shape[1], periodic)
    return wrap(X[admitted] + corrections), admitted


def exact_shadow_linear(map: ToralAutomorphism, po: PseudoOrbit, *,
                        max_defect: float | None = None) -> ShadowResult:
    """Closed-form shadowing point for a linear toral automorphism.

    In splitting coordinates the correction recursion decouples: the stable
    block is integrated forward from a zero left end, the unstable block
    backward from a zero right end (for periodic orbits, the cyclic fixed
    point of the one-period affine pass is solved in each block).  The
    result satisfies sup distance <= K * defect with
    K = C * (1/(1-lambda_s) + 1/(lambda_u-1)).  The defect, measured under the
    map, must be below `max_defect` (by default delta_0 < 1/2, which makes the
    error lifts unambiguous), else `ShadowingRefusal`.
    """
    images, successors = _gated_pairs(map, po, max_defect)
    corrections = _series_corrections(map, minimal_lift(successors - images)[None], len(po),
                                      po.periodic)[0]
    return ShadowResult(map, po, wrap(po.points + corrections), converged=True, iterations=0,
                        method="exact")


def _memoized(map: ToralAutomorphism, key, build):
    """`build()` for this map and key, computed on the first call and kept on
    the map instance: the value depends on the map alone, and it dies with
    the map."""
    memo = map._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _adapted_blocks(map: ToralAutomorphism) -> tuple[np.ndarray, np.ndarray]:
    """The stable block As and the inverse unstable block Au^-1 of the map's
    matrix in its splitting basis."""
    def build():
        s = map.splitting
        ds = s.stable_dim
        A_ad = s.basis_inv @ map.matrix.astype(float) @ s.basis
        blocks = A_ad[:ds, :ds], np.linalg.inv(A_ad[ds:, ds:])
        for B in blocks:
            B.flags.writeable = False  # shared by every later call
        return blocks
    return _memoized(map, "adapted_blocks", build)


def _block_step(B: np.ndarray):
    """out <- B v for each row v of V (m, k), rounded as the per-vector
    product `B @ v` is: a 1x1 block is one multiplication, a larger block one
    matrix-vector product per row (one row of a matrix-matrix product can
    round differently)."""
    if B.shape == (1, 1):
        b = B[0, 0]  # a numpy scalar: a Python float costs more per call
        return lambda V, out: np.multiply(V, b, out=out)
    return lambda V, out: np.matmul(B, V[..., None], out=out[..., None])


def _power(B: np.ndarray, n: int) -> np.ndarray:
    """B^n by n left multiplications; `np.linalg.matrix_power` squares,
    which rounds differently."""
    M = np.eye(len(B))
    for _ in range(n):
        M = B @ M
    return M


def _cyclic_matrices(map: ToralAutomorphism, n: int) -> tuple[np.ndarray, np.ndarray]:
    """I - As^n and I - (Au^-1)^n, the matrices of the fixed-point solves
    that start a periodic sweep of n points in each block, built once per map
    and n."""
    def build():
        mats = tuple(np.eye(len(B)) - _power(B, n) for B in _adapted_blocks(map))
        for M in mats:
            M.flags.writeable = False  # shared by every later call
        return mats
    return _memoized(map, ("cyclic_matrices", n), build)


def _cyclic_start(lhs: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Fixed point x = B^n x + end of one period's affine pass, given
    lhs = I - B^n, for every row of end (m, k), one right-hand side per solve
    (the matrix is broadcast over the stack): a single solve with m columns
    rounds differently."""
    return np.linalg.solve(lhs, end[..., None])[..., 0]


def _series_corrections(map: ToralAutomorphism, errors: np.ndarray, n: int,
                        periodic: bool) -> np.ndarray:
    """Exact-series corrections (m, n, d) of m pseudo-orbits of n points each
    from their lifted errors (m, n_err, d), n_err = n if periodic else n - 1.

    The stable block is integrated forward from index 0 and the unstable
    block backward from the right end, so every factor applied is
    contracting.  One segment of a 2-D map runs both recurrences over Python
    floats (`_scalar_sweeps`); anything else, every periodic stack included,
    runs them as numpy row operations over the m orbits (`_row_sweeps`).
    Either way each orbit's corrections are bit for bit those of the same
    series run on that orbit alone.
    """
    s = map.splitting
    m, _, d = errors.shape
    As, Au_inv = _adapted_blocks(map)
    eta = s.to_adapted(errors)
    if m == 1 and d == 2 and not periodic:
        zeta = _scalar_sweeps(As, Au_inv, eta)
    else:
        zeta = _row_sweeps(As, Au_inv, eta, n, _cyclic_matrices(map, n) if periodic else None)
    # per-orbit (n, d) @ (d, d) products, as one orbit alone is transformed
    return s.from_adapted(np.ascontiguousarray(zeta))


def _scalar_sweeps(As: np.ndarray, Au_inv: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Adapted corrections (1, n, 2) of one segment whose blocks are 1x1.

    CPython rounds each product, sum and difference of two floats as
    `np.multiply`, `np.add` and `np.subtract` do on float64 and never fuses
    them, so the steps give `_row_sweeps`' bits without two numpy calls per
    step.
    """
    a, b = float(As[0, 0]), float(Au_inv[0, 0])
    eta_s, eta_u = eta[0, :, 0].tolist(), eta[0, :, 1].tolist()
    # zeta_s[j+1] = As zeta_s[j] - eta_s[j], from zeta_s[0] = 0
    zs = list(accumulate(eta_s, lambda z, e: z * a - e, initial=0.0))
    # zeta_u[j] = Au^-1 (zeta_u[j+1] + eta_u[j]), down from zeta_u[n-1] = 0
    zu = list(accumulate(reversed(eta_u), lambda z, e: (z + e) * b, initial=0.0))
    zu.reverse()
    return np.array((zs, zu)).T[None]


def _row_sweeps(As: np.ndarray, Au_inv: np.ndarray, eta: np.ndarray, n: int,
                cyclic: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Adapted corrections (m, n, d) with the time loop over the orbit index
    and every step vectorized over the m orbits; `cyclic` holds the
    `_cyclic_matrices` of periodic orbits and is None for segments."""
    periodic = cyclic is not None
    m, n_err, d = eta.shape
    ds = len(As)
    stable_step, unstable_step = _block_step(As), _block_step(Au_inv)
    # time-major (n_err, m, d), so that each step reads one contiguous row
    eta = eta.transpose(1, 0, 2).copy()
    eta_s, eta_u = list(eta[:, :, :ds]), list(eta[:, :, ds:])
    # one row past the orbit: the stable pass over a whole period ends in
    # zeta_s[n], and a periodic unstable sweep starts from zeta_u[n] = zeta_u[0]
    zeta_s = np.zeros((n + 1, m, ds))
    zeta_u = np.zeros((n + 1, m, d - ds))
    rows_s, rows_u = list(zeta_s), list(zeta_u)
    scratch = np.empty((m, d - ds))

    def forward(stop):  # zeta_s[j+1] = As zeta_s[j] - eta_s[j] for j < stop
        for j in range(stop):
            z = rows_s[j + 1]
            stable_step(rows_s[j], z)
            np.subtract(z, eta_s[j], out=z)

    def backward(stop):  # zeta_u[j] = Au^-1 (zeta_u[j+1] + eta_u[j]) for j >= stop
        for j in range(n_err - 1, stop - 1, -1):
            np.add(rows_u[j + 1], eta_u[j], out=scratch)
            unstable_step(scratch, rows_u[j])

    if periodic:
        # One pass from zero over the period gives the affine map whose
        # unique fixed point is the cyclic start of each block; both passes
        # only ever apply contracting matrices.
        forward(n)
        backward(0)
        lhs_s, lhs_u = cyclic
        zeta_s[0] = _cyclic_start(lhs_s, zeta_s[n])
        zeta_u[0] = zeta_u[n] = _cyclic_start(lhs_u, zeta_u[0])

    forward(n - 1)
    backward(int(periodic))
    return np.concatenate([zeta_s[:n], zeta_u[:n]], axis=2).transpose(1, 0, 2)


def _newton_jacobian(map: ToralAutomorphism, n: int, periodic: bool) -> sp.csr_matrix:
    """Jacobian of the orbit equations A v_j - v_{j+1} in the n lifted
    displacements, with the free-end clamp rows for a segment.

    Every block entry is stored, zeros included: the sparse LU orders its
    work by the stored pattern, so dropping them changes the Newton solution
    in the last bit.  At n = 1 periodic, A and -I share a block and sum.
    """
    from scipy.sparse import csr_matrix  # loaded with the first Newton solve

    s = map.splitting
    d = map.dim
    n_eq = n if periodic else n - 1
    r, c = np.divmod(np.arange(d * d), d)  # entry offsets inside a d x d block
    eq = np.arange(n_eq) * d
    # equation j: A in block (j, j), -I in block (j, j+1 mod n)
    rows = np.add.outer(np.tile(eq, 2), r).ravel()
    cols = np.add.outer(np.concatenate([eq, (eq + d) % (n * d)]), c).ravel()
    data = np.concatenate([np.tile(map.matrix.astype(float).ravel(), n_eq),
                           np.tile(-np.eye(d).ravel(), n_eq)])
    if not periodic:
        # clamp rows: stable coords of v_0, unstable coords of v_{n-1}
        rows = np.append(rows, n_eq * d + r)
        cols = np.append(cols, c + np.where(r < s.stable_dim, 0, (n - 1) * d))
        data = np.append(data, s.basis_inv.ravel())
    return csr_matrix((data, (rows, cols)), shape=(n * d, n * d))


def _newton_lu(map: ToralAutomorphism, n: int, periodic: bool) -> spla.SuperLU:
    """Sparse LU of the Newton Jacobian, factored once per map and
    (n, periodic).  It factors the transpose J^T in CSC form and solves with
    trans="T": `spsolve` on the CSR J hands SuperLU that same matrix and
    solve, so the steps are bit for bit those of a fresh `spsolve(J, rhs)`."""
    def build() -> spla.SuperLU:
        from scipy.sparse.linalg import splu  # loaded on a memo miss only

        return splu(_newton_jacobian(map, n, periodic).T.tocsc())

    return _memoized(map, ("newton_lu", n, periodic), build)


_NEWTON_TOL = 1e-12      # residual sup norm at which a Newton solve has converged
_NEWTON_MAX_ITER = 20


def newton_shadow(map: ToralAutomorphism, po: PseudoOrbit, *,
                  max_defect: float | None = None) -> ShadowResult:
    """Newton solve of the orbit equations y_{j+1} = f(y_j).

    Unknowns are lifted displacements v_j from the pseudo-orbit; segments get
    the free-end clamps (stable block zero on the left, unstable on the
    right), periodic orbits get the cyclic closure.  The defect is measured,
    as in `exact_shadow_linear`, and must pass the gate delta_0, which keeps
    the Newton system diagonally dominant in the adapted norm.  On linear
    maps the solution coincides with `exact_shadow_linear`.

    Non-convergence is reported through `converged=False` with the final
    residual, not an exception.
    """
    s = map.splitting
    pairs = _gated_pairs(map, po, max_defect)
    n, d = po.points.shape
    ds = s.stable_dim
    x = po.points
    n_eq = n if po.periodic else n - 1

    def residual_rows(v: np.ndarray) -> np.ndarray:
        return minimal_lift(np.subtract(*_step_pairs(map, wrap(x + v), po.periodic)))

    lu = _newton_lu(map, n, po.periodic)
    v = np.zeros((n, d))
    res = minimal_lift(np.subtract(*pairs))  # residual_rows(v): wrap(x + 0) is x
    res_norm = float(np.max(np.linalg.norm(res, axis=1))) if len(res) else 0.0
    iterations = 0
    converged = res_norm < _NEWTON_TOL
    while not converged and iterations < _NEWTON_MAX_ITER:
        rhs = np.zeros(n * d)
        rhs[: n_eq * d] = -res.ravel()
        if not po.periodic:
            rhs[n_eq * d: n_eq * d + ds] = -(s.basis_inv[:ds, :] @ v[0])
            rhs[n_eq * d + ds:] = -(s.basis_inv[ds:, :] @ v[n - 1])
        delta = lu.solve(rhs, trans="T").reshape(n, d)
        v = v + delta
        res = residual_rows(v)
        res_norm = float(np.max(np.linalg.norm(res, axis=1))) if len(res) else 0.0
        iterations += 1
        converged = res_norm < _NEWTON_TOL

    return ShadowResult(map, po, wrap(po.points + v), converged=converged,
                        iterations=max(iterations, 1), method="newton")


def shadow_operator(map: ToralAutomorphism, po: PseudoOrbit, *,
                    max_defect: float | None = None) -> ShadowResult:
    """The shadowing operator T: pseudo-orbit -> shadowing orbit point.

    Every map here is a linear toral automorphism, so T is the exact series
    of `exact_shadow_linear`, measured gate included.  Satisfies
    T(sigma po) = f(T(po)) on interior windows.
    """
    return exact_shadow_linear(map, po, max_defect=max_defect)


def shift_pseudo(po: PseudoOrbit, n: int) -> PseudoOrbit:
    """Reindex by the shift sigma^n: the new index j holds the old x_{j+n}.
    A segment keeps its rows and so its measured defects; a periodic one rolls."""
    n = _integer("n", n)
    if po.periodic:
        return PseudoOrbit(np.roll(po.points, -n, axis=0), periodic=True, start_index=po.start_index)
    shifted = PseudoOrbit(po.points, start_index=po.start_index - n)
    object.__setattr__(shifted, "_defects", po._defects)
    return shifted


def expansivity_test(map: ToralAutomorphism, p: TorusPoint, q: TorusPoint,
                     a: float, N: int) -> bool:
    """True iff d(f^n(p), f^n(q)) < a for every |n| <= N.

    Callers should keep `a` below the splitting's expansivity estimate; a
    True result over a window N >= log(a / d(p,q)) / log(lambda_s) then
    certifies p and q coincide up to the identification tolerance.  Both
    orbits are iterated in floats, each point as its own row, so that every
    step rounds as a scalar step does.  Each direction runs in windows of
    1, 2, 4, ... steps, each from the last rows of the one before, and the
    test stops at the first window with a separation.
    """
    _positive("a", a)
    N = _integer("N", N, 0)
    for sign in (1, -1):
        rows, left, k = (p.coords[None], q.coords[None]), N, 1
        while True:
            k = min(k, left)  # at N = 0, one window of index 0 alone
            window = (0, k) if sign > 0 else (-k, 0)
            # rows f^0 .. f^(sign k) of each point, the farthest last
            P, Q = (map._orbit(x, *window)[::sign] for x in rows)
            if (torus_distance_array(P, Q) >= a).any():
                return False
            left -= k
            if not left:
                break
            rows, k = (P[-1], Q[-1]), 2 * k
    return True


# ---------------------------------------------------------------------------
# flows


@dataclass(frozen=True)
class FlowPseudoTrajectory:
    """Sampled epsilon-pseudotrajectory of a suspension flow: states at the
    uniform grid t_i = t0 + i*h with h <= 1; `flow_defect` measures it."""

    base_points: np.ndarray     # (n, d)
    fibers: np.ndarray          # (n,)
    h: float
    t0: float = 0.0

    def __post_init__(self):
        if not 0 < self.h <= 1:
            raise ValueError("sample step h must be in (0, 1]")
        pts = _points_array(self.base_points)
        pts.flags.writeable = False
        fib = np.asarray(self.fibers, dtype=float)
        if fib.shape != pts.shape[:1]:
            raise ValueError(f"need one fiber per base point, got {fib.shape} for {pts.shape}")
        if not np.isfinite(fib).all():  # a NaN sample would read as distance 0
            raise ValueError("fibers must be finite")
        if not ((fib >= 0.0) & (fib < 1.0)).all():
            raise ValueError("fibers must lie in [0, 1)")
        fib.flags.writeable = False
        object.__setattr__(self, "base_points", pts)
        object.__setattr__(self, "fibers", fib)

    def __len__(self) -> int:
        return self.base_points.shape[0]


def suspend_pseudo_orbit(flow: SuspensionFlow, po: PseudoOrbit, h: float) -> FlowPseudoTrajectory:
    """Sample the suspension of a base-map pseudo-orbit on a grid of step h,
    where 1/h is an integer so integer times land on the grid."""
    if not 0 < h <= 1:
        raise ValueError("sample step h must be in (0, 1]")
    m = round(1.0 / h)
    if abs(m * h - 1.0) > 1e-12:
        raise ValueError("1/h must be an integer to align samples with the roof")
    if po.periodic:
        raise ValueError("suspend a segment, not a periodic orbit")
    # m samples per base point; the last one contributes t = end only
    base = np.concatenate([np.repeat(po.points[:-1], m, axis=0), po.points[-1:]])
    fibers = np.append(np.tile(np.arange(m) * h, len(po) - 1), 0.0)
    return FlowPseudoTrajectory(base, fibers, h, t0=float(po.start_index))


def flow_defect(flow: SuspensionFlow, traj: FlowPseudoTrajectory) -> float:
    """Max over sampled t and grid offsets |tau| < 1 of
    d(g(t + tau), phi_tau(g(t)))."""
    P, fib = traj.base_points, traj.fibers
    steps = int(np.ceil(1.0 / traj.h)) - 1
    # s in [0, 1) and |tau| < 1: phi_tau moves the base point to f^-1(p), p or f(p)
    moves = flow.base._orbit(P, -1, 1)
    worst = 0.0
    for k in range(-steps, steps + 1):  # k = 0 compares each sample with itself: 0
        i = np.arange(max(0, -k), len(traj) - max(0, k))  # samples with i + k in range
        n, s = flow._roof_split(fib[i] + k * traj.h)
        d = flow._distances(P[i + k], fib[i + k], moves[n.astype(int) + 1, i], s)
        worst = max(worst, float(np.max(d, initial=0.0)))
    return worst


@dataclass(frozen=True)
class FlowShadowResult:
    """The suspension of the base shadow window `base_result`, at glued
    distance `sup_distance` from the samples; `state` is its time-0 state."""

    base_result: ShadowResult = field(repr=False)
    sup_distance: float

    @property
    def state(self) -> FlowState:
        return self.base_result.point, 0.0


def flow_shadow(flow: SuspensionFlow, traj: FlowPseudoTrajectory, delta: float, *,
                max_defect: float | None = None) -> FlowShadowResult:
    """Shadow a sampled flow pseudotrajectory up to a reparameterization.

    Extracts the base-map pseudo-orbit at integer sample times, shadows it
    with the exact series, and suspends the result.  With a constant roof no
    time shift is needed, so alpha is the identity with knots at the integer
    times `base_result.pseudo_orbit.indices()`.  The achieved suspension
    distance on the sample grid must come in below delta, which must be
    positive.
    """
    _positive("delta", delta, finite=False)
    if len(traj) < 2:
        raise ValueError("insufficient samples: need at least two")
    times = traj.t0 + np.arange(len(traj)) * traj.h
    int_mask = np.abs(times - np.rint(times)) < 1e-9
    int_idx = np.nonzero(int_mask)[0]
    if len(int_idx) < 2:
        raise ValueError("insufficient samples: need at least two integer-time samples")
    int_times = np.rint(times[int_idx]).astype(int)
    if not (np.diff(int_times) == 1).all():
        raise ValueError(f"integer-time samples must be consecutive, got times {int_times.tolist()}")
    base_po = PseudoOrbit.from_map(flow.base, traj.base_points[int_idx],
                                   start_index=int(int_times[0]))
    result = exact_shadow_linear(flow.base, base_po, max_defect=max_defect)

    # the shadow at time t is (y_n, t - n); times before the window need f^-1(y_first)
    n, s = flow._roof_split(times)
    rows = np.concatenate([flow.base.apply_inverse_array(result.orbit[:1]), result.orbit])
    shadow = rows[n.astype(int) - int_times[0] + 1]
    worst = float(np.max(flow._distances(traj.base_points, traj.fibers, shadow, s)))
    if worst >= delta:
        raise ShadowingRefusal(worst, delta, f"flow shadow too far: sampled sup distance "
                                             f"{worst:.3e} >= delta = {delta:.3e}")
    return FlowShadowResult(result, worst)

"""Hyperbolic toral automorphisms, their stable/unstable splittings, block
products on T^4, and constant-roof suspensions.

Points live on the flat torus T^d = R^d / Z^d with every coordinate wrapped
into [0, 1).  All objects are immutable after construction and all operations
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral
from typing import Sequence

import numpy as np

__all__ = [
    "NotHyperbolicError",
    "TorusPoint",
    "HyperbolicSplitting",
    "ToralAutomorphism",
    "ProductSystem",
    "SuspensionFlow",
    "FlowState",
    "wrap",
    "minimal_lift",
    "torus_distance",
    "torus_distance_array",
    "compute_splitting",
    "cat_map",
    "golden_map",
    "two_fixed_point_map",
    "default_product",
    "crovisier_product",
    "system_from_config",
    "system_to_config",
]

_UNIT_MOD_TOL = 1e-9  # eigenvalue modulus this close to 1 is rejected
_DET_TOL = 1e-9  # relative gap between |det| = 1 and the float eigenvalues' product


class NotHyperbolicError(ValueError):
    """Raised when an integer matrix has an eigenvalue of modulus ~1."""


def _mod1(x: np.ndarray) -> np.ndarray:
    """`x % 1.0` bit for bit, at a fraction of numpy's float remainder cost.

    Both are one rounding of the exact x - floor(x): for x >= 0 the
    difference is exact, and for negative x the remainder rounds
    fmod(x, 1) + 1, whose exact value is the same.  Zeros come out +0.0 in
    both, and inf and nan give nan.
    """
    return x - np.floor(x)


def wrap(vec: np.ndarray) -> np.ndarray:
    """Reduce coordinates mod 1 into [0, 1)."""
    out = _mod1(np.asarray(vec, dtype=float))
    # `x % 1.0` can return 1.0 for tiny negative x; fold that back.
    out[out >= 1.0] -= 1.0
    return out


def minimal_lift(vec: np.ndarray) -> np.ndarray:
    """Componentwise representative of `vec` mod 1 in (-1/2, 1/2]."""
    v = _mod1(np.asarray(vec, dtype=float))
    v = np.where(v > 0.5, v - 1.0, v)
    return v


def _integer(name: str, value, minimum: int | None = None) -> int:
    """`value` as a Python int: the one integer-argument check of the
    library's entry points.  Refuses anything but an int or a numpy
    integer, a bool included, and a value below `minimum` when given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _positive(name: str, value, *, finite: bool = True) -> float:
    """`value` as a float: the one positive-scalar check of the library's
    entry points.  Refuses NaN and values <= 0, and inf too when `finite`
    is set."""
    if not value > 0:  # NaN included
        raise ValueError(f"{name} must be positive, got {value}")
    if finite and value == np.inf:
        raise ValueError(f"{name} must be finite, got inf")
    return float(value)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^d.  Coordinates must be finite and are wrapped into
    [0, 1) on construction.

    An exact-rational coordinate tuple is kept alongside the float array when
    the point is built from Fractions, so integer-matrix dynamics can be
    iterated without rounding.
    """

    coords: np.ndarray
    exact: tuple[Fraction, ...] | None = None

    def __init__(self, coords: Sequence[float | Fraction]):
        entries = tuple(coords)
        if len(entries) < 2:
            raise ValueError("torus points need dimension >= 2")
        if all(isinstance(c, (Fraction, int)) for c in entries):
            exact = tuple(Fraction(c) % 1 for c in entries)
            arr = np.array([float(c) for c in exact])
        else:
            exact = None
            arr = np.array([float(c) for c in entries])
            if not np.isfinite(arr).all():
                raise ValueError("points must have finite coordinates")
            arr = wrap(arr)
        object.__setattr__(self, "coords", _readonly(arr))
        object.__setattr__(self, "exact", exact)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusPoint):
            return NotImplemented
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        return self.dim == other.dim and bool(np.all(self.coords == other.coords))

    def __hash__(self):
        return hash(self.coords.tobytes())

    def __repr__(self):
        return f"TorusPoint({tuple(round(c, 12) for c in self.coords)})"


def torus_distance(p: TorusPoint | np.ndarray, q: TorusPoint | np.ndarray) -> float:
    """Geodesic (min over integer translates) Euclidean distance on T^d.

    Symmetric, satisfies the triangle inequality, bounded by sqrt(d)/2.
    """
    pa = p.coords if isinstance(p, TorusPoint) else np.asarray(p, dtype=float)
    qa = q.coords if isinstance(q, TorusPoint) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"dimension mismatch: {pa.shape} vs {qa.shape}")
    return float(torus_distance_array(pa, qa))


def torus_distance_array(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Rowwise torus distance between two (n, d) coordinate arrays, from
    min(|Δ| mod 1, 1 − |Δ| mod 1) per coordinate: symmetric in P and Q, and
    rounded as the periodic KD-tree rounds it."""
    delta = _mod1(np.abs(np.asarray(P, dtype=float) - np.asarray(Q, dtype=float)))
    delta = np.minimum(delta, 1.0 - delta)
    return np.sqrt(np.sum(delta * delta, axis=-1))


@dataclass(frozen=True)
class HyperbolicSplitting:
    """E^s ⊕ E^u data for an integer hyperbolic matrix.

    `basis` holds unit stable columns first, then unstable columns.  The
    adapted norm of a vector is the Euclidean norm of its coefficients in
    this basis; in that norm the stable block contracts by exactly lambda_s
    per step and the unstable block expands by at least lambda_u.  `C` is the
    basis condition number converting adapted bounds to ambient ones.  The
    methods act on each row of a (..., d) array.
    """

    matrix: np.ndarray
    stable_basis: np.ndarray      # (d, k_s) unit columns
    unstable_basis: np.ndarray    # (d, k_u) unit columns
    lambda_s: float               # max modulus over stable spectrum, < 1
    lambda_u: float               # min modulus over unstable spectrum, > 1
    C: float                      # cond_2 of the full basis, >= 1
    basis: np.ndarray             # (d, d) = [stable | unstable]
    basis_inv: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def stable_dim(self) -> int:
        return self.stable_basis.shape[1]

    def to_adapted(self, vec: np.ndarray) -> np.ndarray:
        """Coefficients of `vec` in the splitting basis (stable block first)."""
        return np.asarray(vec, dtype=float) @ self.basis_inv.T

    def from_adapted(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs, dtype=float) @ self.basis.T

    def adapted_norm(self, vec: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.to_adapted(vec), axis=-1)

    def stable_component(self, vec: np.ndarray) -> np.ndarray:
        z = self.to_adapted(vec)
        z[..., self.stable_dim:] = 0.0
        return self.from_adapted(z)

    def unstable_component(self, vec: np.ndarray) -> np.ndarray:
        z = self.to_adapted(vec)
        z[..., : self.stable_dim] = 0.0
        return self.from_adapted(z)

    @property
    def expansivity_estimate(self) -> float:
        """Estimated expansivity constant a, in the adapted norm.

        (1 - lambda_s)/(2C): below this, two orbits staying a-close forever
        must coincide; the minimal-lift bookkeeping stays unambiguous.  For
        the cat map this evaluates to ~0.309.
        """
        return (1.0 - self.lambda_s) / (2.0 * self.C)

    @property
    def max_shadow_defect(self) -> float:
        """Gate delta_0 on pseudo-orbit defects accepted by the shadowers.

        (1 - lambda_s) * a / (2C) with a the expansivity estimate, keeping
        the contraction argument of the shadowing construction valid with a
        margin of 2.
        """
        return (1.0 - self.lambda_s) * self.expansivity_estimate / (2.0 * self.C)

    def shadow_bound(self, adapted: bool = True) -> float:
        """Constant K with sup shadow distance <= K * defect.

        K = 1/(1-lambda_s) + 1/(lambda_u-1) in the adapted norm; multiplied
        by C for the ambient norm.
        """
        k = 1.0 / (1.0 - self.lambda_s) + 1.0 / (self.lambda_u - 1.0)
        return k if adapted else self.C * k


def compute_splitting(matrix: np.ndarray | Sequence[Sequence[int]]) -> HyperbolicSplitting:
    """Eigen-split an integer matrix with |det| = 1 into E^s ⊕ E^u.

    Complex conjugate eigenvalue pairs contribute a real 2D invariant block
    spanned by the real and imaginary parts of one eigenvector.  Raises
    NotHyperbolicError if any eigenvalue modulus is within 1e-9 of 1, and
    ValueError if the float eigenvalues are too inexact to trust: the
    product of their moduli is off |det| = 1 by more than 1e-9.
    """
    M, _ = _unimodular(matrix)
    return _eigen_split(M)


def _unimodular(matrix: np.ndarray | Sequence[Sequence[int]]
                ) -> tuple[np.ndarray, list[list[Fraction]]]:
    """The matrix as int64 and its exact inverse, refused unless square,
    of integers within int64 and with |det| = 1: one Gauss–Jordan pass."""
    M = np.asarray(matrix, dtype=object)  # int64 would truncate 2.5 and overflow on 10**20
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not all(isinstance(v, Integral) and -2**63 <= v < 2**63 for v in M.flat):
        raise ValueError(f"matrix entries must be integers within int64, got {M.tolist()}")
    M = M.astype(np.int64)
    det, inv = _det_and_inverse(M)
    if abs(det) != 1:
        raise ValueError(f"|det| must be 1, got {det}")
    return M, inv


def _eigen_split(M: np.ndarray) -> HyperbolicSplitting:
    """compute_splitting past its determinant check."""
    vals, vecs = np.linalg.eig(M.astype(float))
    prod = float(np.prod(np.abs(vals)))
    if not abs(prod - 1.0) <= _DET_TOL:  # NaN included
        raise ValueError(f"float eigenvalues too inexact: the product of their moduli "
                         f"is {prod!r}, not |det| = 1 within {_DET_TOL}")

    stable_cols: list[np.ndarray] = []
    unstable_cols: list[np.ndarray] = []
    stable_mods: list[float] = []
    unstable_mods: list[float] = []
    order = np.lexsort((vals.imag, vals.real, np.abs(vals)))
    seen_conjugate = set()
    for idx in order:
        lam = vals[idx]
        mod = abs(lam)
        if abs(mod - 1.0) < _UNIT_MOD_TOL:
            raise NotHyperbolicError(
                f"not hyperbolic: eigenvalue {lam} has modulus within {_UNIT_MOD_TOL} of 1"
            )
        if abs(lam.imag) > 1e-12:
            key = (round(lam.real, 9), round(abs(lam.imag), 9))
            if key in seen_conjugate:
                continue
            seen_conjugate.add(key)
            v = vecs[:, idx]
            block = [np.real(v), np.imag(v)]
        else:
            block = [np.real(vecs[:, idx])]
        for col in block:
            col = col / np.linalg.norm(col)
            if col[np.argmax(np.abs(col))] < 0:
                col = -col  # deterministic sign
            if mod < 1.0:
                stable_cols.append(col)
                stable_mods.append(mod)
            else:
                unstable_cols.append(col)
                unstable_mods.append(mod)
    if not stable_cols or not unstable_cols:
        raise NotHyperbolicError("hyperbolic splitting needs both stable and unstable spectrum")

    basis = np.column_stack(stable_cols + unstable_cols)
    cond = float(np.linalg.cond(basis))
    return HyperbolicSplitting(
        matrix=_readonly(M),
        stable_basis=_readonly(np.column_stack(stable_cols)),
        unstable_basis=_readonly(np.column_stack(unstable_cols)),
        lambda_s=max(stable_mods),
        lambda_u=min(unstable_mods),
        C=max(cond, 1.0),
        basis=_readonly(basis),
        basis_inv=_readonly(np.linalg.inv(basis)),
    )


def _integer_inverse(inv: list[list[Fraction]]) -> np.ndarray:
    """An exact inverse as an integer matrix, refused unless integral."""
    if any(v.denominator != 1 for row in inv for v in row):
        raise ValueError("matrix is not invertible over the integers")
    return np.array([[int(v) for v in row] for row in inv], dtype=np.int64)


@dataclass(frozen=True)
class ToralAutomorphism:
    """Integer matrix with |det| = 1 and no eigenvalue on the unit circle,
    acting on T^d by x -> Mx mod 1.  Maps compare and hash by the matrix."""

    matrix: np.ndarray
    inverse_matrix: np.ndarray = field(repr=False)
    splitting: HyperbolicSplitting = field(repr=False)
    # operators that depend on the map alone, built on first use by the
    # shadowers; held by the instance, so they die with it
    _memo: dict = field(init=False, repr=False)
    # the float transposes that `apply_array` and `apply_inverse_array`
    # multiply by, built once
    _step_T: np.ndarray = field(init=False, repr=False)
    _inverse_step_T: np.ndarray = field(init=False, repr=False)

    def __init__(self, matrix: np.ndarray | Sequence[Sequence[int]]):
        M, inv = _unimodular(matrix)
        splitting = _eigen_split(M)
        object.__setattr__(self, "matrix", _readonly(M))
        object.__setattr__(self, "inverse_matrix", _readonly(_integer_inverse(inv)))
        object.__setattr__(self, "splitting", splitting)
        object.__setattr__(self, "_memo", {})
        # copies keep the transpose's layout, so every product rounds as before
        object.__setattr__(self, "_step_T", _readonly(self.matrix.T.astype(float)))
        object.__setattr__(self, "_inverse_step_T", _readonly(self.inverse_matrix.T.astype(float)))

    def __eq__(self, other) -> bool:
        # the matrix determines the inverse, the splitting and the operators
        if not isinstance(other, ToralAutomorphism):
            return NotImplemented
        return bool(np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash(self.matrix.tobytes())

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _check_dim(self, dim: int) -> None:
        """Refuse points of dimension `dim` unless the map acts on them."""
        if dim != self.dim:
            raise ValueError(f"dimension mismatch: map is {self.dim}-d, points are {dim}-d")

    def _apply_matrix(self, M: np.ndarray, exact: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        """One exact step x -> Mx mod 1 of a Fraction coordinate tuple."""
        return tuple(sum(Fraction(int(M[i, j])) * exact[j] for j in range(self.dim)) % 1
                     for i in range(self.dim))

    def apply(self, p: TorusPoint) -> TorusPoint:
        return self.iterate(p, 1)

    def apply_inverse(self, p: TorusPoint) -> TorusPoint:
        return self.iterate(p, -1)

    def apply_array(self, P: np.ndarray) -> np.ndarray:
        """Map an (n, d) coordinate array forward, wrapped into [0, 1)."""
        return wrap(np.asarray(P, dtype=float) @ self._step_T)

    def apply_inverse_array(self, P: np.ndarray) -> np.ndarray:
        return wrap(np.asarray(P, dtype=float) @ self._inverse_step_T)

    def _orbit(self, P: np.ndarray, n_min: int, n_max: int) -> np.ndarray:
        """Rows f^j(P) for j = n_min..n_max of an (m, d) array, in shape
        (n_max - n_min + 1, m, d): the one loop over float map steps, each an
        `apply_array` or `apply_inverse_array` of all m rows."""
        if n_min > 0 or n_max < 0:
            raise ValueError(f"orbit window must contain index 0, got [{n_min}, {n_max}]")
        if P.ndim != 2 or P.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: map is {self.dim}-d, points are {P.shape}")
        out = np.empty((n_max - n_min + 1,) + P.shape)
        out[-n_min] = P
        for j in range(-n_min, n_max - n_min):
            out[j + 1] = self.apply_array(out[j])
        for j in range(-n_min, 0, -1):
            out[j - 1] = self.apply_inverse_array(out[j])
        return out

    def iterate(self, p: TorusPoint, n: int) -> TorusPoint:
        """f^n(p): exact steps for an exact point, else one row of `_orbit`
        in windows of at most 1024 steps, so that memory stays bounded."""
        self._check_dim(p.dim)
        n = _integer("n", n)
        if p.exact is not None:
            M, exact = (self.matrix if n >= 0 else self.inverse_matrix), p.exact
            for _ in range(abs(n)):
                exact = self._apply_matrix(M, exact)
            return TorusPoint(exact)
        row, left = p.coords[None], abs(n)
        while left:
            k = min(left, 1024)
            row = self._orbit(row, 0, k)[-1] if n > 0 else self._orbit(row, -k, 0)[0]
            left -= k
        return TorusPoint(row[0])

    def orbit_segment(self, p: TorusPoint, n_min: int, n_max: int) -> np.ndarray:
        """Coordinates of f^j(p) for j = n_min..n_max inclusive, iterated in
        floats from `p.coords` (an exact point included)."""
        n_min, n_max = _integer("n_min", n_min), _integer("n_max", n_max)
        return self._orbit(p.coords[None], n_min, n_max)[:, 0]

    @property
    def lipschitz(self) -> float:
        """Operator 2-norm bound for the map and its inverse."""
        return float(
            max(np.linalg.norm(self.matrix.astype(float), 2),
                np.linalg.norm(self.inverse_matrix.astype(float), 2))
        )

    def fixed_points(self, period: int = 1) -> list[TorusPoint]:
        """All points with f^period(x) = x, via exact solve of (M^p - I)x in Z^d.

        Enumerates integer right-hand sides m with x = (M^p - I)^{-1} m in
        [0,1)^d; the count equals |det(M^p - I)|.
        """
        period = _integer("period", period, 1)
        Mp = np.linalg.matrix_power(self.matrix.astype(object), period)
        D = Mp - np.eye(self.dim, dtype=object)
        detD, inv = _det_and_inverse(D)
        if detD == 0:
            raise ValueError("matrix^period - I is singular; fixed points not isolated")
        bound = int(np.ceil(float(np.max(np.sum(np.abs(np.array(D, dtype=float)), axis=1)))))
        points = set()
        ranges = [range(0, bound + 1) for _ in range(self.dim)]
        for m in np.ndindex(*[len(r) for r in ranges]):
            rhs = [Fraction(mi) for mi in m]
            x = tuple(sum(inv[i][j] * rhs[j] for j in range(self.dim)) % 1 for i in range(self.dim))
            if all(0 <= xi < 1 for xi in x):
                points.add(x)
        result = sorted(points)
        expected = abs(int(detD))
        if len(result) != expected:  # pragma: no cover - guards the lattice sweep
            raise RuntimeError(f"fixed-point sweep found {len(result)}, expected {expected}")
        return [TorusPoint(p) for p in result]


def _det_and_inverse(M: np.ndarray) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Exact determinant (pivot product times swap sign) and, unless it is 0,
    exact inverse of a square integer matrix, from one Gauss–Jordan pass
    over Fractions."""
    n = len(M)
    A = [[Fraction(int(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            A[col], A[pivot] = A[pivot], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [vr - f * vc for vr, vc in zip(A[r], A[col])]
    return det, [row[n:] for row in A]


@dataclass(frozen=True)
class ProductSystem:
    """Block-diagonal action (x, y) -> (Ax, By) on T^4 with A dominating B:
    lambda_u(A) > lambda_u(B) and lambda_s(A) < lambda_s(B)."""

    factor_a: ToralAutomorphism
    factor_b: ToralAutomorphism

    def __post_init__(self):
        sa, sb = self.factor_a.splitting, self.factor_b.splitting
        if not (sa.lambda_u > sb.lambda_u and sa.lambda_s < sb.lambda_s):
            raise ValueError(
                "domination violated: need lambda_u(A) > lambda_u(B) and lambda_s(A) < lambda_s(B); "
                f"got u: {sa.lambda_u:.4f} vs {sb.lambda_u:.4f}, s: {sa.lambda_s:.4f} vs {sb.lambda_s:.4f}"
            )

    def as_automorphism(self) -> ToralAutomorphism:
        da, db = self.factor_a.dim, self.factor_b.dim
        M = np.zeros((da + db, da + db), dtype=np.int64)
        M[:da, :da] = self.factor_a.matrix
        M[da:, da:] = self.factor_b.matrix
        return ToralAutomorphism(M)


FlowState = tuple[TorusPoint, float]  # (base point, fiber height in [0, 1))


@dataclass(frozen=True)
class SuspensionFlow:
    """Constant-roof-1 suspension of a toral automorphism.

    States are (base point, s) with s in [0, 1); the time-t flow advances the
    fiber coordinate and applies the base map once per roof crossing, so
    integer-time flow equals base-map iteration.
    """

    base: ToralAutomorphism

    @classmethod
    def over(cls, system: ToralAutomorphism | ProductSystem) -> "SuspensionFlow":
        if isinstance(system, ProductSystem):
            system = system.as_automorphism()
        return cls(base=system)

    def flow_at(self, state: FlowState, t: float) -> FlowState:
        point, s = state
        if not 0.0 <= s < 1.0:
            raise ValueError(f"fiber coordinate must be in [0,1), got {s}")
        if not np.isfinite(t):
            raise ValueError(f"flow time must be finite, got {t}")
        n, new_s = self._roof_split(s + t)
        return (self.base.iterate(point, int(n)), float(new_s))

    @staticmethod
    def _roof_split(total):
        """Split fiber plus time into roof crossings n and a fiber in [0, 1)."""
        n = np.floor(total)
        s = total - n
        over = s >= 1.0  # floating point guard at the roof
        return np.where(over, n + 1, n), np.where(over, s - 1.0, s)

    def distance(self, s1: FlowState, s2: FlowState) -> float:
        """Metric on the suspension respecting the (p,1)~(f(p),0) gluing."""
        (p, a), (q, b) = s1, s2
        return float(self._distances(p.coords, a, q.coords, b))

    def _distances(self, P: np.ndarray, a, Q: np.ndarray, b) -> np.ndarray:
        """Rowwise glued distance: direct, or crossing the roof up or down."""
        direct = np.hypot(torus_distance_array(P, Q), a - b)
        up = np.hypot(torus_distance_array(self.base.apply_array(P), Q), (a - 1.0) - b)
        down = np.hypot(torus_distance_array(P, self.base.apply_array(Q)), a - (b - 1.0))
        return np.minimum(np.minimum(direct, up), down)


def cat_map() -> ToralAutomorphism:
    """Arnold cat map [[2,1],[1,1]]: lambda_u = (3+sqrt5)/2, orthogonal splitting."""
    return ToralAutomorphism([[2, 1], [1, 1]])


def golden_map() -> ToralAutomorphism:
    """Fibonacci map [[1,1],[1,0]]: lambda_u = golden ratio."""
    return ToralAutomorphism([[1, 1], [1, 0]])


def two_fixed_point_map() -> ToralAutomorphism:
    """[[3,1],[2,1]]: hyperbolic with |det(A - I)| = 2, hence two genuine
    fixed points (0,0) and (1/2,0) on T^2."""
    return ToralAutomorphism([[3, 1], [2, 1]])


def default_product() -> ProductSystem:
    """Cat map dominating the golden map."""
    return ProductSystem(cat_map(), golden_map())


def crovisier_product() -> ProductSystem:
    """Default system for the punctured-torus construction: the A factor has
    two fixed points so the puncture can sit at a genuine fixed pair."""
    return ProductSystem(two_fixed_point_map(), golden_map())


def system_from_config(cfg: dict) -> ToralAutomorphism | ProductSystem:
    """Build a system from a config dict: {"matrix": [[...]]} or
    {"product": {"a": [[...]], "b": [[...]]}}, each matrix a list of rows
    of integers."""
    if not isinstance(cfg, dict):
        raise ValueError(f"system config must be a JSON object, got {type(cfg).__name__}")
    if "matrix" in cfg:
        return ToralAutomorphism(_config_matrix(cfg["matrix"], "matrix"))
    if "product" in cfg:
        sub = cfg["product"]
        if not isinstance(sub, dict):
            raise ValueError("system config entry 'product' must be an object with 'a' and 'b'")
        return ProductSystem(ToralAutomorphism(_config_matrix(sub.get("a"), "product.a")),
                             ToralAutomorphism(_config_matrix(sub.get("b"), "product.b")))
    raise ValueError("system config needs a 'matrix' or 'product' entry")


def _config_matrix(rows, name: str) -> list:
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(type(v) is int for v in row) for row in rows)):
        raise ValueError(f"system config entry '{name}' must be a list of rows "
                         f"of integers, got {rows!r}")
    return rows


def system_to_config(system: ToralAutomorphism | ProductSystem) -> dict:
    if isinstance(system, ProductSystem):
        return {
            "product": {
                "a": system.factor_a.matrix.tolist(),
                "b": system.factor_b.matrix.tolist(),
            }
        }
    return {"matrix": system.matrix.tolist()}

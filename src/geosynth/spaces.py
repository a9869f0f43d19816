"""Geodesic metric spaces for object-valued panel data.

This module implements the geometric layer shared by all estimators: six
registered families of geodesic metric spaces together with their distances,
geodesics, weighted Frechet means, and geodesic transport maps.

Registered space kinds
----------------------
``laplacian``
    Graph Laplacians of weighted undirected networks under the Frobenius
    metric. Geodesics are linear interpolations.
``sphere``
    Unit vectors with nonnegative entries (square roots of compositions)
    under the arc-length metric, with closed-form geodesics.
``spd_frobenius``, ``spd_log_euclidean``, ``spd_power``, ``spd_log_cholesky``
    Symmetric positive-definite matrices under the Frobenius, Log-Euclidean,
    power family, and Log-Cholesky metrics. Each metric admits a global
    chart in which geodesics are straight lines.
``wasserstein1d``
    One-dimensional distributions represented by their quantile values on a
    fixed probability grid. Geodesics interpolate quantile functions.
``l2function``
    Real functions sampled on a fixed domain grid under the L2 metric with
    trapezoidal quadrature.

Except for the sphere, every kind is "flat": there is a bijective chart
(``flat_embed`` / ``flat_restore``) into a vector space in which distances
are Euclidean, possibly after a fixed diagonal rescaling (``metric_embed``).
Chart coordinates are plain read-only vectors.

Validation (``validate_stack``), the chart map (``metric_embed_stack``)
and its inverse (``metric_restore_stack``) work on stacks of points, so
that a panel is checked and embedded, and a fit's synthetic points are
restored, in one call each; ``validate_point``, ``metric_embed`` and
``metric_restore`` are their one-point cases. The sphere's Frechet means
are likewise one batched routine (``_sphere_mean_stack``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import isotonic_regression

TOL_VALIDATE = 1e-8
TOL_MEAN = 1e-10
TOL_DEGENERATE = 1e-12
MAX_MEAN_ITER = 1000
EPS_PD = 1e-10
REPAIR_BUDGET = 1e-6

KINDS = (
    "laplacian",
    "sphere",
    "spd_frobenius",
    "spd_log_euclidean",
    "spd_power",
    "spd_log_cholesky",
    "wasserstein1d",
    "l2function",
)

MATRIX_KINDS = frozenset(
    {"laplacian", "spd_frobenius", "spd_log_euclidean", "spd_power", "spd_log_cholesky"}
)
GRID_KINDS = frozenset({"wasserstein1d", "l2function"})
FLAT_KINDS = frozenset(KINDS) - {"sphere"}


class SpaceError(ValueError):
    """Raised when a geometric operation receives or produces invalid data."""


class RepairLog:
    """Collects messages about numerical repairs applied during an operation.

    Operations that may clip eigenvalues, zero out stray positive
    off-diagonals, or re-sort quantile values accept an optional log so that
    callers can surface the repairs in their own result metadata.
    """

    def __init__(self) -> None:
        self.events: list[str] = []

    def note(self, message: str) -> None:
        self.events.append(message)

    @property
    def flagged(self) -> bool:
        return bool(self.events)

    def __repr__(self) -> str:
        return f"RepairLog({self.events!r})"


@dataclass(frozen=True, eq=False)
class SpaceDescriptor:
    """Identifies one of the registered geodesic metric spaces.

    Parameters
    ----------
    kind : str
        One of :data:`KINDS`.
    dim : int
        Matrix order for matrix kinds, ambient dimension for the sphere,
        grid length for ``wasserstein1d`` and ``l2function``.
    power_p : float, optional
        Exponent of the power metric. Required (and only allowed) for
        ``spd_power``.
    grid : array-like, optional
        Strictly increasing grid of length ``dim``. Required for
        ``wasserstein1d`` (probability levels in the open unit interval)
        and ``l2function`` (domain samples).
    """

    kind: str
    dim: int
    power_p: float | None = None
    grid: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SpaceError(f"unknown space kind {self.kind!r}")
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise SpaceError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.kind == "spd_power":
            if self.power_p is None or not (float(self.power_p) > 0):
                raise SpaceError("spd_power requires power_p > 0")
            object.__setattr__(self, "power_p", float(self.power_p))
        elif self.power_p is not None:
            raise SpaceError(f"power_p is only valid for spd_power, not {self.kind}")
        if self.kind in GRID_KINDS:
            if self.grid is None:
                raise SpaceError(f"{self.kind} requires a grid")
            grid = np.asarray(self.grid, dtype=float)
            if grid.ndim != 1 or grid.size != self.dim:
                raise SpaceError(
                    f"grid must be a vector of length dim={self.dim}, got shape {grid.shape}"
                )
            if not np.all(np.diff(grid) > 0):
                raise SpaceError("grid must be strictly increasing")
            if self.kind == "wasserstein1d" and not (grid[0] > 0 and grid[-1] < 1):
                raise SpaceError("wasserstein1d grid entries must lie strictly in (0, 1)")
            grid = grid.copy()
            grid.setflags(write=False)
            object.__setattr__(self, "grid", grid)
        elif self.grid is not None:
            raise SpaceError(f"grid is only valid for {sorted(GRID_KINDS)}, not {self.kind}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpaceDescriptor):
            return NotImplemented
        if self.kind != other.kind or self.dim != other.dim:
            return False
        if self.power_p != other.power_p:
            return False
        if (self.grid is None) != (other.grid is None):
            return False
        return self.grid is None or bool(np.array_equal(self.grid, other.grid))

    def __hash__(self) -> int:
        grid_key = None if self.grid is None else tuple(self.grid.tolist())
        return hash((self.kind, self.dim, self.power_p, grid_key))

    @property
    def data_shape(self) -> tuple[int, ...]:
        if self.kind in MATRIX_KINDS:
            return (self.dim, self.dim)
        return (self.dim,)

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Read-only quadrature weights of a grid kind and their square roots."""
        if self.kind not in GRID_KINDS:
            return None
        g = self.grid
        w = np.ones(g.size)
        if g.size > 1:
            w[0] = (g[1] - g[0]) / 2.0
            w[-1] = (g[-1] - g[-2]) / 2.0
            w[1:-1] = (g[2:] - g[:-2]) / 2.0
        w /= w.sum()
        root = np.sqrt(w)
        w.setflags(write=False)
        root.setflags(write=False)
        return w, root


def default_quantile_grid(n_grid: int = 101) -> np.ndarray:
    """Equispaced probability levels (i - 0.5) / n for i = 1..n.

    The half-open offsets keep the grid strictly inside (0, 1) so that
    quantile values stay finite for distributions with unbounded support.
    """
    if n_grid < 1:
        raise SpaceError("n_grid must be positive")
    return (np.arange(1, n_grid + 1) - 0.5) / n_grid


def laplacian_space(n_nodes: int) -> SpaceDescriptor:
    """Space of graph Laplacians of weighted networks on ``n_nodes`` nodes."""
    return SpaceDescriptor(kind="laplacian", dim=n_nodes)


def sphere_space(dim: int) -> SpaceDescriptor:
    """Nonnegative unit vectors in ``R^dim`` under the arc-length metric."""
    return SpaceDescriptor(kind="sphere", dim=dim)


def spd_space(n: int, metric: str = "frobenius") -> SpaceDescriptor:
    """SPD matrices of order ``n`` under a named metric.

    ``metric`` is one of ``"frobenius"``, ``"log_euclidean"``,
    ``"log_cholesky"``. Use :func:`spd_power_space` for the power family.
    """
    kinds = {
        "frobenius": "spd_frobenius",
        "log_euclidean": "spd_log_euclidean",
        "log_cholesky": "spd_log_cholesky",
    }
    if metric not in kinds:
        raise SpaceError(f"unknown SPD metric {metric!r}")
    return SpaceDescriptor(kind=kinds[metric], dim=n)


def spd_power_space(n: int, p: float) -> SpaceDescriptor:
    """SPD matrices of order ``n`` under the power metric with exponent ``p``."""
    return SpaceDescriptor(kind="spd_power", dim=n, power_p=p)


def wasserstein_space(n_grid: int = 101, grid: Sequence[float] | None = None) -> SpaceDescriptor:
    """One-dimensional distributions as quantile values on a probability grid."""
    g = default_quantile_grid(n_grid) if grid is None else np.asarray(grid, dtype=float)
    return SpaceDescriptor(kind="wasserstein1d", dim=len(g), grid=g)


def l2function_space(grid: Sequence[float]) -> SpaceDescriptor:
    """Real functions sampled on ``grid`` under the trapezoidal L2 metric."""
    g = np.asarray(grid, dtype=float)
    return SpaceDescriptor(kind="l2function", dim=len(g), grid=g)


def scalar_space() -> SpaceDescriptor:
    """Scalars represented as constant functions on a two-point grid.

    The normalized trapezoidal quadrature makes the distance between two
    constant functions equal to the absolute difference of the constants,
    so this space embeds ordinary real-valued panels without modification.
    """
    return l2function_space([0.0, 1.0])


@dataclass(frozen=True, eq=False)
class ObjectPoint:
    """A point in one of the registered spaces.

    ``data`` holds the raw representation: a square matrix for matrix
    kinds, a unit vector for the sphere, a quantile vector or function
    values for the grid kinds. Construction checks only the shape; value
    invariants are inspected by :func:`validate_point`.
    """

    space: SpaceDescriptor
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=float)
        if arr.shape != self.space.data_shape:
            raise SpaceError(
                f"{self.space.kind} point must have shape {self.space.data_shape}, "
                f"got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectPoint):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.data, other.data))


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector to the sphere at ``base``, orthogonal to it."""

    base: ObjectPoint
    vector: np.ndarray

    def __post_init__(self) -> None:
        if self.base.space.kind != "sphere":
            raise SpaceError("tangent vectors are only defined on the sphere")
        vec = np.array(self.vector, dtype=float)
        if vec.shape != self.base.data.shape:
            raise SpaceError("tangent vector shape must match the base point")
        if abs(float(self.base.data @ vec)) > TOL_VALIDATE:
            raise SpaceError("tangent vector is not orthogonal to its base point")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


# ---------------------------------------------------------------------------
# validation


def validate_stack(space: SpaceDescriptor, data: np.ndarray) -> tuple[int, str] | None:
    """Check the value invariants of a stack of points, shape (n, *data_shape).

    Returns ``None`` when every point is valid, otherwise the index of the
    first invalid point and a message naming its first violated invariant.
    Each invariant is checked for the whole stack at once; ``eigvalsh``
    broadcasts over the leading axis.
    """
    kind = space.kind
    x = np.asarray(data, dtype=float)
    if not np.isfinite(x).all():
        first = int(np.argmin(np.isfinite(x.reshape(len(x), -1)).all(axis=1)))
        return validate_stack(space, x[:first]) or (first, f"{kind}: entries must be finite")
    # (mask of failing points, message or its maker from the point index)
    checks: list[tuple[np.ndarray, object]] = []
    if kind in MATRIX_KINDS:
        asym = np.abs(x - np.swapaxes(x, -1, -2)).max(axis=(-2, -1))
        checks.append((asym > TOL_VALIDATE, f"{kind}: matrix is not symmetric"))
    if kind == "laplacian":
        off = np.where(np.eye(space.dim, dtype=bool), 0.0, x).max(axis=(-2, -1))
        row_sums = np.abs(x.sum(axis=-1)).max(axis=-1)
        checks += [
            (off > TOL_VALIDATE, "laplacian: off-diagonal entries must be nonpositive"),
            (row_sums > TOL_VALIDATE, "laplacian: rows do not sum to 0"),
        ]
    elif kind in MATRIX_KINDS:
        eig = np.linalg.eigvalsh(_sym(x)).min(axis=-1)
        checks.append(
            (eig < EPS_PD, lambda i: f"{kind}: minimum eigenvalue {eig[i]:.3e} is below {EPS_PD:.0e}")
        )
    elif kind == "sphere":
        norm = np.sqrt(np.einsum("ij,ij->i", x, x))
        off_unit = np.abs(norm - 1.0) > TOL_VALIDATE
        checks += [
            (x.min(axis=-1) < -TOL_VALIDATE, "sphere: entries must be nonnegative"),
            (off_unit, lambda i: f"sphere: norm is {norm[i]:.12g}, expected 1"),
        ]
    elif kind == "wasserstein1d":
        drop = np.diff(x, axis=-1).min(axis=-1, initial=0.0)
        message = "wasserstein1d: quantile values must be nondecreasing"
        checks.append((drop < -TOL_VALIDATE, message))
    elif kind != "l2function":
        raise SpaceError(f"unknown space kind {kind!r}")
    if not any(bad.any() for bad, _ in checks):
        return None
    failing = np.stack([bad for bad, _ in checks])
    first = int(np.argmax(failing.any(axis=0)))
    _, message = checks[int(np.argmax(failing[:, first]))]
    return first, message(first) if callable(message) else message


def validate_point(point: ObjectPoint) -> str | None:
    """Check the value invariants of ``point``.

    Returns ``None`` when the point is valid, otherwise a message naming
    the first violated invariant. This is :func:`validate_stack` on a stack
    of one.
    """
    report = validate_stack(point.space, point.data[None])
    return None if report is None else report[1]


def require_valid(point: ObjectPoint) -> None:
    """Raise :class:`SpaceError` unless ``point`` passes validation."""
    report = validate_point(point)
    if report is not None:
        raise SpaceError(report)


def _require_same_space(*points: ObjectPoint) -> SpaceDescriptor:
    space = points[0].space
    for p in points[1:]:
        if p.space != space:
            raise SpaceError(
                f"space mismatch: {space.kind}(dim={space.dim}) vs "
                f"{p.space.kind}(dim={p.space.dim})"
            )
    return space


# ---------------------------------------------------------------------------
# symmetric matrix helpers


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def _eig_apply(a: np.ndarray, fn, name: str | None = None) -> np.ndarray:
    """Apply ``fn`` to the eigenvalues of symmetric matrices, shape (..., n, n).

    ``eigh`` broadcasts over the leading axes. When ``name`` is given the
    matrices must be positive definite, and ``name`` labels the error.
    """
    vals, vecs = np.linalg.eigh(_sym(a))
    if name is not None and vals.min(initial=np.inf) <= 0:
        raise SpaceError(f"matrix {name} requires a positive-definite matrix")
    return (vecs * fn(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _logm_spd(a: np.ndarray) -> np.ndarray:
    return _eig_apply(a, np.log, "logarithm")


def _powm_spd(a: np.ndarray, p: float) -> np.ndarray:
    return _eig_apply(a, lambda vals: np.power(vals, p), "power")


def _clip_to_cone(
    a: np.ndarray, kind: str, repair: bool, log: RepairLog | None
) -> np.ndarray:
    """Project symmetric matrices, shape (m, n, n), onto the PD cone by
    eigenvalue clipping, in place and in stack order.

    One batched ``eigh`` finds the matrices below ``EPS_PD``. Clipping is
    only allowed while the change per eigenvalue stays within
    ``REPAIR_BUDGET`` of the spectral norm; larger excursions are treated
    as genuine infeasibility and raise.
    """
    vals, vecs = np.linalg.eigh(a)
    for i in np.flatnonzero(vals.min(axis=-1) < EPS_PD):
        if not repair:
            raise SpaceError(f"{kind}: result leaves the positive-definite cone and repair is off")
        spectral = max(float(np.abs(vals[i]).max()), 1.0)
        # Clip slightly above the validation floor so that eigendecomposition
        # roundoff in the reconstruction cannot drop the result below it again.
        clipped = np.maximum(vals[i], 2.0 * EPS_PD)
        change = float(np.max(np.abs(clipped - vals[i])))
        if change > REPAIR_BUDGET * spectral:
            raise SpaceError(
                f"{kind}: eigenvalue clipping would move an eigenvalue by {change:.3e}, "
                f"beyond the repair budget {REPAIR_BUDGET:.0e} x spectral norm"
            )
        if log is not None:
            log.note(f"{kind}: clipped eigenvalues by up to {change:.3e}")
        a[i] = (vecs[i] * clipped) @ vecs[i].T
    return a


def _repair_laplacian(
    a: np.ndarray, repair: bool, log: RepairLog | None
) -> np.ndarray:
    """Zero out stray positive off-diagonals of symmetric matrices, shape
    (m, n, n), and rebuild their diagonals, in place and in stack order."""
    off = np.where(np.eye(a.shape[-1], dtype=bool), 0.0, a)
    worst = off.max(axis=(-2, -1))
    for i in np.flatnonzero(worst > TOL_VALIDATE):
        if not repair:
            message = "laplacian: result has positive off-diagonal entries and repair is off"
            raise SpaceError(message)
        scale = max(float(np.abs(a[i]).max()), 1.0)
        if worst[i] > REPAIR_BUDGET * scale:
            raise SpaceError(
                f"laplacian: off-diagonal excursion {worst[i]:.3e} exceeds the repair budget "
                f"{REPAIR_BUDGET:.0e} x max entry"
            )
        kept = np.minimum(off[i], 0.0)
        a[i] = kept - np.diag(kept.sum(axis=1))
        if log is not None:
            log.note(f"laplacian: clipped positive off-diagonals by up to {worst[i]:.3e}")
    return a


def _isotonize(
    q: np.ndarray, grid_weights: np.ndarray, repair: bool, log: RepairLog | None
) -> np.ndarray:
    """Project quantile vectors, shape (..., G), onto the nondecreasing cone
    (weighted PAV), in place and in stack order."""
    rows = q.reshape(-1, q.shape[-1])
    drops = np.diff(rows, axis=-1).min(axis=-1, initial=0.0)
    for i in np.flatnonzero(drops < 0.0):
        if not repair:
            message = "wasserstein1d: quantile values are not nondecreasing and repair is off"
            raise SpaceError(message)
        rows[i] = isotonic_regression(rows[i], weights=grid_weights, increasing=True).x
        if log is not None:
            log.note(f"wasserstein1d: isotonic projection moved values by up to {-drops[i]:.3e}")
    return q


# ---------------------------------------------------------------------------
# flat charts


_TRI_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _strict_lower_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _TRI_CACHE:
        _TRI_CACHE[n] = np.tril_indices(n, k=-1)
    return _TRI_CACHE[n]


def chart_dim(space: SpaceDescriptor) -> int:
    """Length of the flat chart coordinate vector for ``space``."""
    if space.kind == "sphere":
        raise SpaceError("the sphere has no flat chart")
    if space.kind == "spd_log_cholesky":
        return space.dim * (space.dim + 1) // 2
    if space.kind in MATRIX_KINDS:
        return space.dim * space.dim
    return space.dim


def quadrature_weights(space: SpaceDescriptor) -> np.ndarray:
    """Trapezoidal quadrature weights on the grid, normalized to sum to 1.

    The normalization makes the metric scale-free in the grid: constant
    functions at levels ``a`` and ``b`` are at distance ``|a - b|`` and a
    location shift of a quantile function by ``c`` has length ``|c|``.
    The array is computed once per descriptor and is read-only.
    """
    if space.kind not in GRID_KINDS:
        raise SpaceError(f"{space.kind} has no quadrature grid")
    return space._quadrature[0]


def _chart_forward(space: SpaceDescriptor, x: np.ndarray) -> np.ndarray:
    """Chart coordinates of a stack of points, shape (..., *data_shape) -> (..., D).

    One point is the stack with no leading axes; ``eigh`` and ``cholesky``
    broadcast over the leading axes of larger stacks.
    """
    kind = space.kind
    n = space.dim
    lead = x.shape[: x.ndim - len(space.data_shape)]
    if kind in ("laplacian", "spd_frobenius"):
        return x.reshape(lead + (n * n,)).copy()
    if kind == "spd_log_euclidean":
        return _logm_spd(x).reshape(lead + (n * n,))
    if kind == "spd_power":
        return _powm_spd(x, space.power_p).reshape(lead + (n * n,))
    if kind == "spd_log_cholesky":
        chol = np.linalg.cholesky(_sym(x))
        rows, cols = _strict_lower_indices(n)
        diag = np.diagonal(chol, axis1=-2, axis2=-1)
        return np.concatenate([chol[..., rows, cols], np.log(diag)], axis=-1)
    if kind in GRID_KINDS:
        return np.array(x, dtype=float)
    raise SpaceError(f"{kind} has no flat chart")


def _chart_backward(
    space: SpaceDescriptor, vecs: np.ndarray, repair: bool, log: RepairLog | None
) -> np.ndarray:
    """Points' data from chart coordinates, shape (..., D) -> (..., *data_shape).

    ``eigh`` and ``exp`` broadcast over the stack. For the kinds that can
    repair, one vectorized test picks out the points outside the feasible
    set, and only those are repaired, in stack order, so repair notes and
    errors come in the order of the points.
    """
    vecs = np.asarray(vecs, dtype=float)
    if vecs.shape[-1:] != (chart_dim(space),):
        raise SpaceError(
            f"{space.kind} chart coordinates must have length {chart_dim(space)}, "
            f"got shape {vecs.shape}"
        )
    if not np.all(np.isfinite(vecs)):
        raise SpaceError("flat coordinates must be finite")
    kind = space.kind
    n = space.dim
    lead = vecs.shape[:-1]
    vecs = vecs.reshape(-1, vecs.shape[-1])
    if kind == "spd_log_euclidean":
        out = _eig_apply(vecs.reshape(-1, n, n), np.exp)
    elif kind == "spd_log_cholesky":
        rows, cols = _strict_lower_indices(n)
        chol = np.zeros((len(vecs), n, n))
        chol[:, rows, cols] = vecs[:, : rows.size]
        chol[:, range(n), range(n)] = np.exp(vecs[:, rows.size :])
        out = chol @ np.swapaxes(chol, -1, -2)
    elif kind in GRID_KINDS:
        out = vecs.copy()
        if kind == "wasserstein1d":
            out = _isotonize(out, quadrature_weights(space), repair, log)
    elif kind == "laplacian":
        out = _repair_laplacian(_sym(vecs.reshape(-1, n, n)), repair, log)
    else:
        out = _clip_to_cone(_sym(vecs.reshape(-1, n, n)), kind, repair, log)
        if kind == "spd_power":
            out = _powm_spd(out, 1.0 / space.power_p)
    return out.reshape(lead + space.data_shape)


def flat_embed(point: ObjectPoint) -> np.ndarray:
    """Map a point of a flat space to its read-only chart coordinate vector.

    The chart is the identity vectorization for ``laplacian``,
    ``spd_frobenius``, and the grid kinds, the matrix logarithm for
    ``spd_log_euclidean``, the matrix power for ``spd_power``, and the
    pair (strict lower triangle, log-diagonal) of the Cholesky factor for
    ``spd_log_cholesky``. The sphere has no flat chart.
    """
    vec = _chart_forward(point.space, point.data)
    vec.setflags(write=False)
    return vec


def flat_restore(
    coords: np.ndarray,
    space: SpaceDescriptor,
    repair: bool = True,
    log: RepairLog | None = None,
) -> ObjectPoint:
    """Invert :func:`flat_embed`.

    When the coordinates fall outside the feasible set (a positive
    off-diagonal for Laplacians, a negative eigenvalue for SPD kinds, a
    decreasing quantile run), the result is projected back while the
    change stays within the repair budget; with ``repair=False`` such
    coordinates raise instead.
    """
    return ObjectPoint(space, _chart_backward(space, coords, repair, log))


def metric_weight_sqrt(space: SpaceDescriptor) -> np.ndarray | None:
    """Diagonal rescaling that turns chart coordinates into isometric ones."""
    return None if space._quadrature is None else space._quadrature[1]


def metric_embed_stack(space: SpaceDescriptor, data: np.ndarray) -> np.ndarray:
    """Isometric coordinates of a stack of points, shape (..., *data_shape) -> (..., D).

    Euclidean distances between coordinate vectors equal space distances.
    For matrix kinds this is the plain chart; for the grid kinds the chart
    is rescaled by square-root quadrature weights so that the 2-norm of a
    coordinate difference equals the trapezoidal L2 distance.
    """
    vec = _chart_forward(space, data)
    scale = metric_weight_sqrt(space)
    if scale is not None:
        vec *= scale
    return vec


def metric_embed(point: ObjectPoint) -> np.ndarray:
    """Isometric coordinates of one point: :func:`metric_embed_stack` on its data."""
    return metric_embed_stack(point.space, point.data)


def metric_restore_stack(
    space: SpaceDescriptor,
    vecs: np.ndarray,
    repair: bool = True,
    log: RepairLog | None = None,
) -> np.ndarray:
    """Invert :func:`metric_embed_stack`: points' data, shape (..., D) ->
    (..., *data_shape), repaired or rejected point by point in stack order
    as :func:`flat_restore` does."""
    vecs = np.asarray(vecs, dtype=float)
    scale = metric_weight_sqrt(space)
    if scale is not None and vecs.shape[-1:] == scale.shape:  # else the length check raises
        vecs = vecs / scale
    return _chart_backward(space, vecs, repair, log)


def metric_restore(
    vec: np.ndarray,
    space: SpaceDescriptor,
    repair: bool = True,
    log: RepairLog | None = None,
) -> ObjectPoint:
    """Invert :func:`metric_embed`: :func:`metric_restore_stack` on one vector."""
    return ObjectPoint(space, metric_restore_stack(space, vec, repair, log))


# ---------------------------------------------------------------------------
# distances


def _sphere_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit vectors along the last axis.

    ``arccos`` of the dot product loses half the significant digits near
    0 and near pi. The chord forms ``2 asin(|a - b| / 2)`` for acute
    pairs and ``pi - 2 asin(|a + b| / 2)`` for obtuse pairs are accurate
    over the whole range.
    """
    dots = np.sum(a * b, axis=-1)
    acute = 2.0 * np.arcsin(np.clip(0.5 * np.linalg.norm(a - b, axis=-1), 0.0, 1.0))
    obtuse = np.pi - 2.0 * np.arcsin(np.clip(0.5 * np.linalg.norm(a + b, axis=-1), 0.0, 1.0))
    return np.where(dots >= 0.0, acute, obtuse)


def distance(a: ObjectPoint, b: ObjectPoint) -> float:
    """Geodesic distance between two points of the same space."""
    space = _require_same_space(a, b)
    require_valid(a)
    require_valid(b)
    if space.kind == "sphere":
        return float(_sphere_angle(a.data, b.data))
    return float(np.linalg.norm(metric_embed(a) - metric_embed(b)))


def product_distance(xs: Sequence[ObjectPoint], ys: Sequence[ObjectPoint]) -> float:
    """Distance in a product of metric spaces, d^2 = sum of component d^2."""
    if len(xs) != len(ys):
        raise SpaceError(f"component count mismatch: {len(xs)} vs {len(ys)}")
    if not xs:
        raise SpaceError("product distance needs at least one component")
    return float(np.sqrt(sum(distance(x, y) ** 2 for x, y in zip(xs, ys))))


def fisher_rao_distance(
    f: Sequence[float], g: Sequence[float], domain: Sequence[float]
) -> float:
    """Fisher-Rao distance between two densities sampled on a common grid.

    Computes ``arccos`` of the Bhattacharyya affinity, the trapezoidal
    integral of ``sqrt(f * g)``. Both inputs must be nonnegative and
    integrate to 1 on the grid. This is a distance utility only; no
    geodesics or means are provided under this metric.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    x = np.asarray(domain, dtype=float)
    if f.shape != x.shape or g.shape != x.shape:
        raise SpaceError("densities and domain grid must have the same length")
    if not np.all(np.diff(x) > 0):
        raise SpaceError("domain grid must be strictly increasing")
    for name, dens in (("f", f), ("g", g)):
        if np.min(dens) < -TOL_VALIDATE:
            raise SpaceError(f"density {name} has negative values")
        total = float(np.trapezoid(dens, x))
        if abs(total - 1.0) > TOL_VALIDATE:
            raise SpaceError(f"density {name} integrates to {total:.12g}, expected 1")
    affinity = float(np.trapezoid(np.sqrt(np.maximum(f, 0.0) * np.maximum(g, 0.0)), x))
    return float(np.arccos(np.clip(affinity, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# geodesics


def geodesic_eval(a: ObjectPoint, b: ObjectPoint, t: float) -> ObjectPoint:
    """Point at parameter ``t`` on the unique geodesic from ``a`` to ``b``.

    Satisfies ``geodesic_eval(a, b, 0) == a``, ``geodesic_eval(a, b, 1) == b``
    and ``d(geodesic_eval(a, b, s), geodesic_eval(a, b, t)) = |t - s| d(a, b)``.
    """
    space = _require_same_space(a, b)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise SpaceError(f"geodesic parameter must lie in [0, 1], got {t}")
    require_valid(a)
    require_valid(b)
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    if space.kind == "sphere":
        return ObjectPoint(space, _sphere_geodesic(a.data, b.data, t))
    combo = (1.0 - t) * metric_embed(a) + t * metric_embed(b)
    return metric_restore(combo, space)


def _sphere_geodesic(z1: np.ndarray, z2: np.ndarray, t: float) -> np.ndarray:
    cos = float(np.clip(z1 @ z2, -1.0, 1.0))
    theta = float(_sphere_angle(z1, z2))
    if theta <= TOL_DEGENERATE:
        return z1.copy()
    if np.pi - theta <= TOL_DEGENERATE:
        raise SpaceError("sphere geodesic is not unique for antipodal points")
    u = z2 - cos * z1
    u = u / np.linalg.norm(u)
    out = np.cos(t * theta) * z1 + np.sin(t * theta) * u
    return out / np.linalg.norm(out)


# ---------------------------------------------------------------------------
# Frechet means


def _as_weights(weights, n: int) -> np.ndarray:
    values = getattr(weights, "values", weights)
    w = np.asarray(values, dtype=float)
    if w.shape != (n,):
        raise SpaceError(f"expected {n} weights, got shape {w.shape}")
    if np.min(w) < -1e-12 or abs(float(w.sum()) - 1.0) > 1e-9:
        raise SpaceError("weights must be nonnegative and sum to 1")
    return np.maximum(w, 0.0)


def weighted_frechet_mean(points: Sequence[ObjectPoint], weights) -> ObjectPoint:
    """Weighted Frechet mean, the minimizer of the weighted sum of squared
    distances to ``points``.

    Flat spaces use the closed form (the weighted average in the chart).
    The sphere uses an intrinsic gradient iteration with unit steps,
    started at the normalized extrinsic average and run until the gradient
    norm falls below ``TOL_MEAN`` (see :func:`_sphere_mean_stack`).
    """
    points = list(points)
    if not points:
        raise SpaceError("Frechet mean needs at least one point")
    space = _require_same_space(*points)
    w = _as_weights(weights, len(points))
    data = np.stack([p.data for p in points])
    report = validate_stack(space, data)
    if report is not None:
        raise SpaceError(report[1])
    if np.array_equal(data, np.broadcast_to(data[0], data.shape)):
        return points[0]
    if space.kind == "sphere":
        out = ObjectPoint(space, _sphere_mean_single(data, w))
        require_valid(out)
        return out
    return metric_restore(w @ metric_embed_stack(space, data), space)


def _sphere_mean_single(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Frechet mean of one sphere configuration: :func:`_sphere_mean_stack` with B = 1."""
    return _sphere_mean_stack(z[None], w)[0]


def _sphere_mean_stack(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Frechet means of a batch of sphere configurations, shape (B, J, d) -> (B, d).

    Starts at the normalized extrinsic averages and takes unit Riemannian
    gradient steps until every row's gradient is below ``TOL_MEAN``. No
    step needs a decrease check: the Riemannian Hessian of
    ``1/2 sum_j w_j d(nu, z_j)^2`` has eigenvalue 1 along each
    ``Log_nu(z_j)`` and ``theta_j cot theta_j <= 1`` across it, so it is
    at most the identity and a unit step along the negative gradient
    always descends (Afsari, Tron and Vidal, SIAM J. Control Optim. 2013).
    """
    nu = np.einsum("j,bjd->bd", w, z)
    norms = np.linalg.norm(nu, axis=1, keepdims=True)
    if norms.min() <= TOL_DEGENERATE:
        raise SpaceError("sphere mean is undefined: extrinsic average is at the origin")
    nu = nu / norms
    for _ in range(MAX_MEAN_ITER):
        dots = np.clip(np.einsum("bjd,bd->bj", z, nu), -1.0, 1.0)
        theta = _sphere_angle(z, nu[:, None, :])
        u = z - dots[..., None] * nu[:, None, :]
        unorm = np.linalg.norm(u, axis=2)
        factor = np.where(unorm > TOL_DEGENERATE, theta / np.maximum(unorm, TOL_DEGENERATE), 0.0)
        grad = np.einsum("j,bjd->bd", w, factor[..., None] * u)
        gnorm = np.linalg.norm(grad, axis=1)
        if gnorm.max() <= TOL_MEAN:
            return nu / np.linalg.norm(nu, axis=1, keepdims=True)
        gn = np.maximum(gnorm, 1e-300)[:, None]
        nu = np.cos(gnorm)[:, None] * nu + np.sin(gnorm)[:, None] * (grad / gn)
        nu = nu / np.linalg.norm(nu, axis=1, keepdims=True)
    raise SpaceError(f"sphere mean did not converge within {MAX_MEAN_ITER} iterations")


def _sphere_log_stack(base: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Logarithm maps ``Log_base(z)`` along the last axis, broadcasting.

    The tangent direction is taken from ``z - base``, which keeps full
    relative accuracy when ``z`` is close to ``base``.
    """
    diff = z - base
    u = diff - np.sum(diff * base, axis=-1, keepdims=True) * base
    unorm = np.linalg.norm(u, axis=-1)
    theta = _sphere_angle(base, z)
    return (theta / np.where(unorm > 0.0, unorm, 1.0))[..., None] * u


def _sphere_mean_jacobian(z: np.ndarray, w: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Derivative of the Frechet means ``nu`` (B, d) of ``z`` (B, J, d) in ``w``.

    Returns shape (B, d, J). Differentiating the stationarity condition
    ``sum_j w_j Log_nu(z_j) = 0`` gives ``H dnu = sum_j dw_j Log_nu(z_j)``
    (implicit function theorem; Lou et al., "Differentiating through the
    Frechet Mean", ICML 2020), where ``H`` is the Riemannian Hessian of
    ``1/2 sum_j w_j d(nu, z_j)^2``: eigenvalue 1 along each ``Log_nu(z_j)``
    and ``theta_j cot theta_j`` across it. Adding ``nu nu'`` makes the
    ambient d x d system nonsingular without changing tangent solutions.
    """
    logs = _sphere_log_stack(nu[:, None, :], z)
    theta = np.linalg.norm(logs, axis=2)
    safe = np.where(theta > 0.0, theta, 1.0)
    unit = logs / safe[..., None]
    theta_cot = np.where(theta > 0.0, theta * np.cos(theta) / np.sin(safe), 1.0)
    normal = nu[:, :, None] * nu[:, None, :]
    hess = np.einsum("j,bj,bjd,bje->bde", w, 1.0 - theta_cot, unit, unit)
    hess += (theta_cot @ w)[:, None, None] * (np.eye(z.shape[2]) - normal) + normal
    return np.linalg.solve(hess, logs.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# sphere exponential and logarithm maps


def _sphere_exp_raw(base: np.ndarray, v: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(v))
    if theta <= 1e-300:
        return base.copy()
    out = np.cos(theta) * base + np.sin(theta) * (v / theta)
    return out / np.linalg.norm(out)


def sphere_exp(base: ObjectPoint, tangent: TangentVector) -> ObjectPoint:
    """Exponential map: follow the great circle from ``base`` along ``tangent``."""
    if base.space.kind != "sphere":
        raise SpaceError("sphere_exp requires a sphere point")
    require_valid(base)
    if tangent.base.space != base.space:
        raise SpaceError("tangent vector belongs to a different sphere")
    return ObjectPoint(base.space, _sphere_exp_raw(base.data, tangent.vector))


def sphere_log(base: ObjectPoint, target: ObjectPoint) -> TangentVector:
    """Logarithm map: the tangent vector at ``base`` pointing to ``target``.

    Its norm equals the arc-length distance, and
    ``sphere_exp(base, sphere_log(base, target))`` recovers ``target``.
    Antipodal targets have no unique direction and raise.
    """
    space = _require_same_space(base, target)
    if space.kind != "sphere":
        raise SpaceError("sphere_log requires sphere points")
    require_valid(base)
    require_valid(target)
    cos = float(np.clip(base.data @ target.data, -1.0, 1.0))
    theta = float(_sphere_angle(base.data, target.data))
    if theta <= TOL_DEGENERATE:
        return TangentVector(base, np.zeros_like(base.data))
    if np.pi - theta <= TOL_DEGENERATE:
        raise SpaceError("logarithm map is undefined for antipodal points")
    u = target.data - cos * base.data
    u = u - (base.data @ u) * base.data
    return TangentVector(base, theta * u / np.linalg.norm(u))


# ---------------------------------------------------------------------------
# geodesic transport maps


def transport(
    alpha: ObjectPoint,
    beta: ObjectPoint,
    omega: ObjectPoint,
    repair: bool = True,
    log: RepairLog | None = None,
) -> ObjectPoint:
    """Apply the displacement from ``alpha`` to ``beta`` to the point ``omega``.

    The transport map sends ``alpha`` to ``beta`` and extends that
    displacement consistently: translation in the flat charts, rotation of
    the tangent direction on the sphere, and the quantile composition
    ``Q_beta(F_alpha(.))`` pushforward in the Wasserstein space.
    """
    space = _require_same_space(alpha, beta, omega)
    require_valid(alpha)
    require_valid(beta)
    require_valid(omega)
    kind = space.kind
    if kind == "sphere":
        return ObjectPoint(space, _sphere_transport(alpha.data, beta.data, omega.data, repair, log))
    if kind == "wasserstein1d":
        zeta = _wasserstein_transport(alpha.data, beta.data, omega.data, space)
        return ObjectPoint(space, _isotonize(zeta, quadrature_weights(space), repair, log))
    combo = metric_embed(omega) + (metric_embed(beta) - metric_embed(alpha))
    return metric_restore(combo, space, repair=repair, log=log)


def _sphere_transport(
    alpha: np.ndarray,
    beta: np.ndarray,
    omega: np.ndarray,
    repair: bool,
    log: RepairLog | None,
) -> np.ndarray:
    cos = float(np.clip(alpha @ beta, -1.0, 1.0))
    theta = float(_sphere_angle(alpha, beta))
    if theta <= TOL_DEGENERATE:
        return omega.copy()
    v_ab = beta - cos * alpha
    v = v_ab - (omega @ v_ab) * omega
    vnorm = float(np.linalg.norm(v))
    if vnorm <= TOL_DEGENERATE:
        raise SpaceError(
            "sphere transport direction is undefined: the displacement is "
            "radial at the transported point"
        )
    out = _sphere_exp_raw(omega, theta * v / vnorm)
    worst = float(-np.min(out))
    if worst > 0:
        if worst > TOL_VALIDATE:
            if not repair:
                raise SpaceError("sphere transport left the nonnegative orthant and repair is off")
            if worst > REPAIR_BUDGET:
                raise SpaceError(
                    f"sphere transport left the nonnegative orthant by {worst:.3e}, "
                    f"beyond the repair budget {REPAIR_BUDGET:.0e}"
                )
            if log is not None:
                log.note(f"sphere: clipped negative entries by up to {worst:.3e}")
        out = np.maximum(out, 0.0)
        out = out / np.linalg.norm(out)
    return out


def _quantile_eval(grid: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise-linear quantile interpolant, extrapolating the
    end segments linearly beyond the grid range."""
    out = np.interp(p, grid, q)
    head = p < grid[0]
    if np.any(head):
        slope = (q[1] - q[0]) / (grid[1] - grid[0])
        out = np.where(head, q[0] + (p - grid[0]) * slope, out)
    tail = p > grid[-1]
    if np.any(tail):
        slope = (q[-1] - q[-2]) / (grid[-1] - grid[-2])
        out = np.where(tail, q[-1] + (p - grid[-1]) * slope, out)
    return out


def _cdf_eval(grid: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Invert a nondecreasing quantile interpolant at the points ``x``.

    Flat runs (atoms) are inverted by the midpoint convention, and values
    outside the range of ``q`` use linear extrapolation of the first and
    last strictly increasing segments.
    """
    rising = np.flatnonzero(np.diff(q) > 0)
    if rising.size == 0:
        return np.full_like(x, 0.5)
    first, last = rising[0], rising[-1]
    head_slope = (grid[first + 1] - grid[first]) / (q[first + 1] - q[first])
    tail_slope = (grid[last + 1] - grid[last]) / (q[last + 1] - q[last])

    lo = np.searchsorted(q, x, side="left")
    hi = np.searchsorted(q, x, side="right")
    out = np.empty_like(x)

    exact = hi > lo
    if np.any(exact):
        out[exact] = (grid[lo[exact]] + grid[hi[exact] - 1]) / 2.0

    interior = ~exact & (lo > 0) & (lo < q.size)
    if np.any(interior):
        j = lo[interior] - 1
        span = q[j + 1] - q[j]
        frac = (x[interior] - q[j]) / span
        out[interior] = grid[j] + frac * (grid[j + 1] - grid[j])

    below = ~exact & (lo == 0)
    if np.any(below):
        out[below] = grid[first] + (x[below] - q[first]) * head_slope
    above = ~exact & (lo == q.size)
    if np.any(above):
        out[above] = grid[last + 1] + (x[above] - q[last + 1]) * tail_slope
    return out


def _wasserstein_transport(
    q_alpha: np.ndarray, q_beta: np.ndarray, q_omega: np.ndarray, space: SpaceDescriptor
) -> np.ndarray:
    grid = space.grid
    levels = _cdf_eval(grid, q_alpha, q_omega)
    return _quantile_eval(grid, q_beta, levels)

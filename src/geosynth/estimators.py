"""Synthetic control estimators for metric-space-valued panels.

Implements the geodesic synthetic control method (GSC), its
covariate-weighted and regression-augmented variants (AGSC), geodesic
synthetic difference-in-differences (GSDID) with a per-period variant and
a uniform-weight geodesic DID baseline, and placebo permutation tests.

A panel holds one treated unit (row 0) and J control units observed over T
periods, the first T0 of them pre-treatment, as one array of point data.
It is validated and embedded once, into a (J+1, T, D) coordinate tensor
that every estimator and placebo refit reads: the isometric coordinates
on the flat kinds, so the augmented estimator's regression and its
correction are combinations of that tensor too. All estimators are pure
functions of (panel, config): they change no input but the panel's caches.

Weights and statistics are each one routine over a stack of pseudo-treated
rows: :func:`_weight_stack` fits their unit or time weights,
:func:`_gsc_stack` and :func:`_did_stack` make each row's synthetic outcome
a weighted Frechet mean of the other units and measure it against its own
outcome. Each row's unit weights are fitted once per config and stored on
the panel, where every estimator and placebo test reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .spaces import (
    ObjectPoint,
    RepairLog,
    SpaceDescriptor,
    SpaceError,
    FLAT_KINDS,
    _shared_point,
    _sphere_angle,
    _sphere_log_stack,
    _sphere_mean_jacobian,
    _sphere_mean_stack,
    _transport_stack,
    distance,  # noqa: F401  (looked up here by geobench's tracer)
    metric_embed,  # noqa: F401  (looked up here by geobench's tracer)
    metric_embed_stack,
    metric_restore,  # noqa: F401  (looked up here by geobench's tracer)
    metric_restore_stack,
    transport,  # noqa: F401  (looked up here by geobench's tracer)
    validate_point,  # noqa: F401  (looked up here by geobench's tracer)
    validate_stack,
    weighted_frechet_mean,  # noqa: F401  (looked up here by geobench's tracer)
)
from .simplex_opt import (
    SimplexWeights,
    SolverConfig,
    SolverError,
    _solve_qps,
    _weight_qp,
    solve_simplex_derivative_free,  # noqa: F401  (looked up here by geobench's tracer)
    solve_simplex_gauss_newton,
    solve_simplex_qp,  # also looked up here by geobench's tracer
    stack_weight_qp,
)

Method = Literal["gsc", "gsdid"]


@dataclass(frozen=True, eq=False, init=False)
class Panel:
    """A panel of object-valued outcomes with a single treated unit.

    Parameters
    ----------
    space : SpaceDescriptor
        Common outcome space of all observations.
    outcomes : array of shape (J+1, T, *data_shape), or nested ObjectPoints (J+1, T)
        Row 0 is the treated unit; rows 1..J are controls.
    T0 : int
        Number of pre-treatment periods, ``1 <= T0 < T``.
    unit_labels, time_labels : sequence of str, optional
        Display labels; generated when omitted.

    The panel holds its outcomes as one read-only array, :attr:`data`
    (nested points are stacked once), validated in one batched call;
    :attr:`outcomes` views it as points. Estimators read slices of
    :attr:`coords`, the panel embedded once, and on the flat kinds assemble
    every weight QP from :attr:`grams`, computed once; so are every row's
    unit weights and the GSC and GSDID results that placebo tests reuse (:attr:`_fits`).
    """

    space: SpaceDescriptor
    data: np.ndarray = field(repr=False)
    T0: int
    unit_labels: tuple[str, ...] = ()
    time_labels: tuple[str, ...] = ()

    def __init__(self, space: SpaceDescriptor, outcomes, T0: int, unit_labels=(), time_labels=()):
        self.__dict__.update(
            space=space, data=outcomes, T0=T0, unit_labels=unit_labels, time_labels=time_labels
        )
        self.__post_init__()

    def __post_init__(self) -> None:
        space, data = self.space, self.data
        if not isinstance(data, np.ndarray) or data.dtype == object:  # nested points
            rows = [tuple(row) for row in data]
            if any(len(row) != len(rows[0]) for row in rows):
                raise SpaceError("all units must share the same number of periods")
            for j, row in enumerate(rows):
                for t, point in enumerate(row):
                    if not (isinstance(point, ObjectPoint) and point.space == space):
                        raise SpaceError(f"outcome ({j},{t}) is not a point of the panel's space")
            data = [[point.data for point in row] for row in rows]
        data = np.array(data, dtype=float)
        if data.ndim != 2 + len(space.data_shape) or data.shape[2:] != space.data_shape:
            raise SpaceError(f"outcomes must have shape (J+1, T) + {space.data_shape}")
        n_units, t_len = data.shape[:2]
        if n_units < 2 or t_len < 2:
            raise SpaceError("panel needs a treated unit, a control and at least 2 periods")
        T0 = self.T0
        if isinstance(T0, bool) or not (isinstance(T0, (int, np.integer)) and 1 <= T0 < t_len):
            raise SpaceError(f"T0 must be an integer with 1 <= T0 < T={t_len}, got {T0!r}")
        report = validate_stack(space, data.reshape((-1,) + space.data_shape))
        if report is not None:
            j, t = divmod(report[0], t_len)
            raise SpaceError(f"outcome (unit {j}, time {t}) is invalid: {report[1]}")
        units = tuple(self.unit_labels) or tuple(
            ["treated"] + [f"control_{j}" for j in range(1, n_units)]
        )
        times = tuple(self.time_labels) or tuple(f"t{t + 1}" for t in range(t_len))
        if len(units) != n_units:
            raise SpaceError(f"expected {n_units} unit labels, got {len(units)}")
        if len(times) != t_len:
            raise SpaceError(f"expected {t_len} time labels, got {len(times)}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "T0", int(self.T0))
        object.__setattr__(self, "unit_labels", tuple(str(u) for u in units))
        object.__setattr__(self, "time_labels", tuple(str(t) for t in times))

    @cached_property
    def outcomes(self) -> tuple[tuple[ObjectPoint, ...], ...]:
        """The outcomes as points, ``outcomes[j][t]`` for unit ``j`` in period
        ``t``: built on first use and cached, each point's data a read-only
        view of :attr:`data`."""
        return tuple(tuple(_shared_point(self.space, x) for x in row) for row in self.data)

    @cached_property
    def coords(self) -> np.ndarray:
        """Read-only (J+1, T, D) coordinates of the outcomes: the isometric
        chart (:func:`metric_embed_stack`) of :attr:`data` for the flat kinds
        and the unit vectors themselves for the sphere.

        Computed in one batched call on first use and cached, so a panel
        that no estimator reads holds no second copy of its data.
        """
        data = self.data
        coords = data if self.space.kind == "sphere" else metric_embed_stack(self.space, data)
        coords.setflags(write=False)
        return coords

    @cached_property
    def grams(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only Gram blocks of a flat kind's pre-period coordinates, cached
        like :attr:`coords`: the (J+1, J+1) unit Gram ``(1/T0) sum_t X_t X_t'``
        of the period slices ``X_t = coords[:, t]``, whose ``[1:, 1:]`` block
        is the unit-weight QP's, and the (J+1, T0, T0) time Grams
        ``Z_j Z_j'`` of ``Z_j = coords[j, :T0]``, whose mean over controls is
        the time-weight QP's."""
        pre = self.coords[:, : self.T0]
        flat = pre.reshape(self.n_units, -1)
        grams = ((flat @ flat.T) / self.T0, pre @ pre.swapaxes(1, 2))
        for gram in grams:
            gram.setflags(write=False)
        return grams

    @cached_property
    def _fits(self) -> dict:
        """Unit-weight rows by ``("unit", cfg)`` and row, results by ``(method, cfg, repair)``."""
        return {}

    def _stored(self, key: tuple, fit: Callable[[], object]):
        """A result, ``_fits[key]``, from ``fit()`` on first use; one that raises is not stored."""
        if key not in self._fits:
            self._fits[key] = fit()
        return self._fits[key]

    @property
    def n_units(self) -> int:
        return len(self.data)

    @property
    def n_controls(self) -> int:
        return len(self.data) - 1

    @property
    def n_periods(self) -> int:
        return self.data.shape[1]

    @property
    def treated(self) -> tuple[ObjectPoint, ...]:
        return self.outcomes[0]

    @property
    def controls(self) -> tuple[tuple[ObjectPoint, ...], ...]:
        return self.outcomes[1:]

    def pre_periods(self) -> range:
        return range(self.T0)

    def post_periods(self) -> range:
        return range(self.T0, self.n_periods)

    def with_treated_unit(self, j: int) -> "Panel":
        """Panel with unit ``j`` moved to the treated slot, built and validated
        as a new panel.

        The remaining units keep their original relative order, so a refit
        sees the same donor pool regardless of which unit is held out. No
        placebo test calls it: the donors' fits read this panel's own arrays.
        """
        if not 0 <= j < self.n_units:
            raise SpaceError(f"treated unit index must lie in 0..{self.n_controls}, got {j!r}")
        order = [j] + [i for i in range(self.n_units) if i != j]
        labels = tuple(self.unit_labels[i] for i in order)
        return Panel(self.space, self.data[order], self.T0, labels, self.time_labels)


@dataclass(frozen=True)
class CovariatePanel:
    """Object-valued covariates observed over the pre-treatment window.

    ``covariates[j][t][c]`` is unit ``j``'s covariate component ``c`` at pre
    period ``t``; component ``c`` lives in ``spaces[c]``. Construction
    validates each component in one batched call.
    """

    spaces: tuple[SpaceDescriptor, ...]
    covariates: tuple[tuple[tuple[ObjectPoint, ...], ...], ...]

    def __post_init__(self) -> None:
        spaces = tuple(self.spaces)
        if not spaces:
            raise SpaceError("covariate panel needs at least one component space")
        rows = tuple(tuple(tuple(cell) for cell in row) for row in self.covariates)
        if len(rows) < 2:
            raise SpaceError("covariate panel needs at least two units")
        t_len = len(rows[0])
        if t_len == 0:
            raise SpaceError("covariate panel needs at least one period")
        for j, row in enumerate(rows):
            if len(row) != t_len:
                raise SpaceError("all units must share the same number of covariate periods")
            for t, cell in enumerate(row):
                if len(cell) != len(spaces):
                    raise SpaceError(f"covariate cell ({j},{t}) has wrong component count")
                for c, point in enumerate(cell):
                    if point.space != spaces[c]:
                        raise SpaceError(
                            f"covariate ({j},{t},{c}) does not match component space {c}"
                        )
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "covariates", rows)
        for c, space in enumerate(spaces):
            report = validate_stack(space, self._component(c).reshape((-1,) + space.data_shape))
            if report is not None:
                t, j = divmod(report[0], len(rows))
                raise SpaceError(f"covariate ({j},{t},{c}) is invalid: {report[1]}")

    def _component(self, c: int) -> np.ndarray:
        """Component ``c`` of every covariate as one (T, J+1, *data_shape) array."""
        periods = range(self.n_periods)
        return np.array([[row[t][c].data for row in self.covariates] for t in periods])

    @property
    def n_units(self) -> int:
        return len(self.covariates)

    @property
    def n_periods(self) -> int:
        return len(self.covariates[0])


@dataclass(frozen=True)
class GeodesicEffect:
    """The geodesic from a synthetic (untreated) outcome to the observed one.

    ``length`` is the geodesic distance, the scalar effect size tau.
    """

    start: ObjectPoint
    end: ObjectPoint
    length: float

    def __post_init__(self) -> None:
        if self.start.space != self.end.space:
            raise SpaceError("effect endpoints must share a space")
        if not (np.isfinite(self.length) and self.length >= 0.0):
            raise SpaceError(f"effect length must be a nonnegative real, got {self.length}")
        object.__setattr__(self, "length", float(self.length))


@dataclass(frozen=True)
class GscResult:
    """Output of the geodesic synthetic control method.

    ``synthetic`` holds fitted values for every period: the fitted
    pre-period combinations (for fit diagnostics) followed by the
    post-period synthetic counterfactuals. ``effects`` covers post periods
    only. ``augmentation`` is populated by the regression-augmented
    variant and ``None`` otherwise.
    """

    weights: SimplexWeights
    synthetic: tuple[ObjectPoint, ...]
    effects: tuple[GeodesicEffect, ...]
    pre_fit_rmse: float
    repair_flags: tuple[str, ...] = ()
    augmentation: dict | None = None


@dataclass(frozen=True)
class GsdidResult:
    """Output of geodesic synthetic difference-in-differences.

    ``intermediates`` maps the four Frechet means the estimator combines:
    ``treated_pre`` (time-weighted), ``controls_pre`` (unit- and
    time-weighted), ``controls_post`` (unit-weighted), and ``treated_post``
    (the observed post mean, also exposed as ``observed_post_mean``). It
    is read-only, as a result may be shared through its panel's store.
    """

    unit_weights: SimplexWeights
    time_weights: SimplexWeights
    synthetic: ObjectPoint
    observed_post_mean: ObjectPoint
    effect: GeodesicEffect
    intermediates: Mapping[str, ObjectPoint]
    repair_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class PlaceboReport:
    """Permutation-test summary: each unit's fit statistic when it plays
    the treated role, the treated unit's rank, and the permutation p-value.

    Ranks use the max-rank convention, counting every unit whose statistic
    is at least the treated one, so ties produce conservative p-values.
    """

    statistics: np.ndarray
    rank_of_treated: int
    p_value: float

    def __post_init__(self) -> None:
        stats = np.array(self.statistics, dtype=float)
        stats.setflags(write=False)
        n = stats.size
        if not 1 <= self.rank_of_treated <= n:
            raise SolverError("rank must lie in 1..n_units")
        expected = self.rank_of_treated / n
        if abs(self.p_value - expected) > 1e-12:
            raise SolverError("p-value must equal rank / n_units")
        object.__setattr__(self, "statistics", stats)
        object.__setattr__(self, "rank_of_treated", int(self.rank_of_treated))
        object.__setattr__(self, "p_value", float(self.p_value))


# ---------------------------------------------------------------------------
# weight estimation


def _sphere_linearization(
    z: np.ndarray, y: np.ndarray
) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """``linearize(w, members)`` of a stack of problems ``mean_b d(m_b(w),
    y_b)^2`` on the sphere, as :func:`solve_simplex_gauss_newton` takes it.

    Member ``i``'s ``m_b(w)`` is the ``w``-weighted Frechet mean of the
    points ``z[i, b]`` (``z`` of shape (M, B, n, d)), and ``y`` (shape
    (M, B, d)) holds the targets. At weights ``w`` the residual of row
    ``b`` is ``Log_{m_b}(y_b)``, the tangent vector from the mean to its
    target, so the mean of the squared residual norms is the objective. To
    first order it moves by ``-dm_b``, the implicit derivative of the mean.
    The rows of all members asked for are one batch of means and one of
    Jacobians.
    """
    _, B, n, d = z.shape
    z = np.ascontiguousarray(z)

    def linearize(w: np.ndarray, members: np.ndarray) -> tuple:
        rows, weights = z[members].reshape(-1, n, d), np.repeat(w, B, axis=0)
        means = _sphere_mean_stack(rows, weights)
        resid = _sphere_log_stack(means, y[members].reshape(-1, d))
        jac = -_sphere_mean_jacobian(rows, weights, means)
        return resid.reshape(len(w), B, d), jac.reshape(len(w), B, d, n)

    return linearize


def _weight_stack(
    panel: Panel, rows: Sequence[int], cfg: SolverConfig, time: bool = False,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Simplex weights for a stack of pseudo-treated rows of the panel, one
    problem per row: unit weights, (B, J+1) and zero on the row's own unit,
    or with ``time`` time weights, (B, T0); a failed fit raises.

    Unit weights match the other units to the row before treatment, time
    weights each other unit's pre periods to its target in ``targets[:, b]``
    ((J+1, B or 1, D); by default the units' uniform post means). On the
    flat kinds a unit QP spans all J+1 units on ``Panel.grams[0]``, uncopied,
    with the row's own weight held at zero, and a time QP reads the units
    after its row, cyclically, as a window of the doubled pre-period arrays;
    all are one stack of QPs. On the sphere a row's problem spans the other
    units in panel order, as in ``panel.with_treated_unit(row)``, and all
    are one Gauss-Newton run.
    """
    J, T0, B = panel.n_controls, panel.T0, len(rows)
    pre, sphere = panel.coords[:, :T0], panel.space.kind == "sphere"
    targets = _post_means(panel)[:, None] if targets is None and time else targets
    others = np.arange(J + 1) != np.array(rows)[:, None]
    if sphere:
        order = np.nonzero(others)[1].reshape(-1, J)
        if time:  # each row's targets of the other units
            y = np.broadcast_to(targets, (J + 1, B, pre.shape[-1]))[order, np.arange(B)[:, None]]
        z, y = (pre[order], y) if time else (pre[order].swapaxes(1, 2), pre[rows])
        fits = solve_simplex_gauss_newton(_sphere_linearization(z, y), z.shape[2], cfg, B)
    elif time:  # only row 0's window, units 1..J, never wraps around
        wrap = (lambda a: np.concatenate([a, a])) if any(rows) else (lambda a: a)
        pre2, h2 = wrap(pre), wrap(panel.grams[1])  # and the time Grams
        y = np.broadcast_to(wrap(targets), (len(pre2), B, pre.shape[-1]))
        windows = enumerate(slice(j + 1, j + 1 + J) for j in rows)
        fits = _solve_qps([_weight_qp(pre2[s], y[s, b], h2[s].mean(0)) for b, s in windows], cfg)
    else:
        z, unit_gram = pre.swapaxes(0, 1), panel.grams[0]
        fits = _solve_qps([_weight_qp(z, pre[j], unit_gram, m) for j, m in zip(rows, others)], cfg)
    if failed := [fit for fit in fits if isinstance(fit, SolverError)]:
        raise failed[0]
    if sphere and not time:  # the row's own unit at weight zero
        return np.array([np.insert(w.values, j, 0.0) for j, (w, _) in zip(rows, fits)])
    return np.array([w.values for w, _ in fits])


def _restore(
    space: SpaceDescriptor, coords: np.ndarray, repair: bool, log: RepairLog | None
) -> np.ndarray:
    """Points' data from coordinates in :attr:`Panel.coords` form, shape
    (..., D): the unit vectors themselves on the sphere."""
    if space.kind == "sphere":
        return coords
    return metric_restore_stack(space, coords, repair=repair, log=log)


def _lengths(space: SpaceDescriptor, data: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Distances from points' ``data`` to points in :attr:`Panel.coords` form,
    shape (..., D), measured as :func:`distance` measures them point by point."""
    if space.kind == "sphere":
        return _sphere_angle(coords, data)
    diff = metric_embed_stack(space, data) - coords
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def _gsc_stack(
    panel: Panel, rows: Sequence[int], unit_w: np.ndarray, periods: slice,
    repair: bool, log: RepairLog | None,
) -> tuple[np.ndarray, np.ndarray]:
    """GSC for a stack of B pseudo-treated ``rows`` of the panel.

    Row ``b``'s synthetic outcomes in the P ``periods`` alone are the Frechet
    means of all J+1 units weighted by ``unit_w[b]`` (zero on itself): on the
    flat kinds the window of one matrix product over the units in all periods,
    on the sphere one batch of iterative means over the window's (row, period)
    pairs, bit for bit the full path's. They are restored and validated in
    one call each and measured against the rows' outcomes.

    Returns the synthetic points' data, shape (B, P, *data_shape), and
    their distances to the rows' outcomes, shape (B, P).
    """
    space, coords, B = panel.space, panel.coords[:, periods], len(rows)
    n, P = coords.shape[:2]
    if space.kind == "sphere":
        z = np.tile(coords.swapaxes(0, 1), (B, 1, 1))
        means = _sphere_mean_stack(z, np.repeat(unit_w, P, axis=0)).reshape(B, P, -1)
    else:  # over all periods: a window's own product would round otherwise
        means = (unit_w @ panel.coords.reshape(n, -1)).reshape(B, panel.n_periods, -1)[:, periods]
    data = _restore(space, means, repair, log)
    report = validate_stack(space, data.reshape((-1,) + space.data_shape))
    if report is not None:
        t = range(panel.n_periods)[periods][report[0] % P]
        raise SpaceError(f"synthetic outcome (time {t}) is invalid: {report[1]}")
    return data, _lengths(space, data, coords[rows])


def _effects(
    panel: Panel, data: np.ndarray, periods: Sequence[int], lengths: np.ndarray
) -> tuple[GeodesicEffect, ...]:
    """The treated unit's effects in ``periods``: from the synthetic points'
    ``data`` to its outcomes, with their ``lengths``."""
    space = panel.space
    return tuple(
        GeodesicEffect(ObjectPoint(space, x), ObjectPoint(space, panel.data[0, t]), length)
        for x, t, length in zip(data, periods, lengths)
    )


def _gsc_result(panel: Panel, weights: SimplexWeights, repair: bool) -> GscResult:
    """Synthetic outcomes for fitted unit weights, the controls' weighted
    Frechet mean in every period, with their effects and pre-period fit."""
    log, T0 = RepairLog(), panel.T0
    unit_w = np.append(0.0, weights.values)[None]
    (data,), (lengths,) = _gsc_stack(panel, [0], unit_w, slice(None), repair, log)
    effects = _effects(panel, data[T0:], panel.post_periods(), lengths[T0:])
    return GscResult(
        weights=weights,
        synthetic=tuple(ObjectPoint(panel.space, x) for x in data[:T0])
        + tuple(e.start for e in effects),
        effects=effects,
        pre_fit_rmse=float(np.sqrt(np.mean(lengths[:T0] ** 2))),
        repair_flags=tuple(log.events),
    )


def _unit_rows(panel: Panel, rows: Sequence[int], cfg: SolverConfig) -> np.ndarray:
    """Unit weights of ``rows`` as :func:`_weight_stack` gives them, from the
    panel's table under ``("unit", cfg)``: the rows missing from it are
    fitted as one stack and stored only if that fit succeeds."""
    key = ("unit", cfg)
    if missing := [j for j in rows if j not in panel._fits.get(key, {})]:
        fitted = zip(missing, _weight_stack(panel, missing, cfg))
        panel._fits[key] = panel._fits.get(key, {}) | dict(fitted)
    return np.array([panel._fits[key][j] for j in rows])


def _unit_weights(panel: Panel, cfg: SolverConfig) -> SimplexWeights:
    """Row 0's unit weights over the controls, stored on the panel."""
    return SimplexWeights(_unit_rows(panel, [0], cfg)[0, 1:])


def estimate_gsc(
    panel: Panel, cfg: SolverConfig | None = None, repair: bool = True
) -> GscResult:
    """Geodesic synthetic control.

    Chooses simplex weights over the control units that minimize the
    average squared distance to the treated unit before treatment, then
    reports the weighted Frechet mean of the controls in every period as
    the synthetic (untreated) outcome. Effects are the geodesics from the
    post-period synthetic outcomes to the observed ones.

    Flat outcome spaces are solved as exact quadratic programs in their
    charts. The sphere uses Gauss-Newton steps on the same objective, with
    the derivative of each weighted mean from the implicit function
    theorem; its weights carry the same optimality certificate. The panel
    stores the weights by config and the result by config and ``repair``.
    """
    key = ("gsc", cfg or SolverConfig(), repair)
    return panel._stored(key, lambda: _gsc_result(panel, _unit_weights(panel, key[1]), repair))


def estimate_gsc_with_covariates(
    panel: Panel,
    covs: CovariatePanel,
    cfg: SolverConfig | None = None,
    repair: bool = True,
) -> GscResult:
    """Geodesic synthetic control with weights fitted on covariates.

    The weights minimize the average squared product-metric distance
    between the treated unit's covariates and the weighted control
    combination over the pre-treatment window; the synthetic outcomes are
    then built on the outcome space with those weights.

    With flat components only, the fit is a quadratic program in their
    charts. A sphere component makes it a nonlinear least-squares problem,
    solved by Gauss-Newton as for sphere outcomes in :func:`estimate_gsc`;
    either way the weights carry the same optimality certificate.
    """
    cfg = cfg or SolverConfig()
    if covs.n_units != panel.n_units:
        raise SpaceError("covariate panel and outcome panel disagree on the number of units")
    if covs.n_periods > panel.T0:
        raise SpaceError("covariates may only cover the pre-treatment window")
    kinds = {s.kind for s in covs.spaces}
    if not kinds <= (FLAT_KINDS | {"sphere"}):
        raise SpaceError("covariate spaces must be flat or the sphere")

    # Isometric coordinates of the flat components, concatenated: (T, J+1, D).
    flat = np.concatenate(
        [np.zeros((covs.n_periods, covs.n_units, 0))]
        + [metric_embed_stack(s, covs._component(c)) for c, s in enumerate(covs.spaces)
           if s.kind in FLAT_KINDS],
        axis=-1,
    )
    if "sphere" not in kinds:
        weights, _ = solve_simplex_qp(stack_weight_qp(flat[:, 1:], flat[:, 0]), cfg)
    else:
        flat_jac = flat[:, 1:].transpose(0, 2, 1)
        sphere_parts = [
            _sphere_linearization(data[None, :, 1:], data[None, :, 0])
            for data in (covs._component(c) for c, s in enumerate(covs.spaces)
                         if s.kind == "sphere")
        ]

        def linearize(w: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Each period's residual row, as a stack of one: the flat
            components' ``C_t w - y_t`` followed by each sphere component's
            ``Log_m(y)``."""
            parts = [part(w, members) for part in sphere_parts]
            resid = [(flat_jac @ w[0] - flat[:, 0])[None]] + [r for r, _ in parts]
            jac = [flat_jac[None]] + [d for _, d in parts]
            return np.concatenate(resid, axis=2), np.concatenate(jac, axis=2)

        [fit] = solve_simplex_gauss_newton(linearize, panel.n_controls, cfg)
        if isinstance(fit, SolverError):
            raise fit
        weights = fit[0]
    return _gsc_result(panel, weights, repair)


# ---------------------------------------------------------------------------
# global Frechet regression and the augmented estimator


@dataclass(frozen=True)
class FrechetRegressionModel:
    """Global Frechet regression of object outcomes on Euclidean covariates.

    Stores the training covariates with their mean and covariance, and the
    isometric coordinates (:func:`metric_embed_stack`) of the training
    outcomes, shape (T, J, D). Predictions are the coordinate combinations
    ``(1/J) sum_j s_j(x) y_j`` with the linear weights
    ``s_j(x) = 1 + (X_j - mean)' Cov^{-1} (x - mean)``, which average to 1
    over the training units.
    """

    space: SpaceDescriptor
    covariates: np.ndarray
    covariate_mean: np.ndarray
    covariance: np.ndarray
    precision: np.ndarray
    outcome_coords: np.ndarray
    used_pseudo_inverse: bool

    @property
    def n_units(self) -> int:
        return int(self.covariates.shape[0])

    @property
    def n_periods(self) -> int:
        return len(self.outcome_coords)

    def weights(self, x: np.ndarray) -> np.ndarray:
        """Per-unit regression weights ``s_j(x) / J`` (they sum to 1)."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != self.covariate_mean.shape:
            raise SpaceError(f"expected {self.covariate_mean.size} covariates, got {x.size}")
        centered = self.covariates - self.covariate_mean
        s = 1.0 + centered @ (self.precision @ (x - self.covariate_mean))
        return s / self.n_units


def _fit_regression(
    space: SpaceDescriptor, coords: np.ndarray, x: np.ndarray, allow_pseudo_inverse: bool
) -> FrechetRegressionModel:
    """Global Frechet regression on outcome coordinates ``coords`` (T, J, D)
    and covariates ``x`` (J, k): the covariate moments and the model."""
    x_bar = x.mean(axis=0)
    centered = x - x_bar
    cov = centered.T @ centered / len(x)
    eigvals = np.linalg.eigvalsh(cov)
    singular = float(eigvals.min()) <= 1e-12 * max(float(eigvals.max()), 1.0)
    if singular and not allow_pseudo_inverse:
        raise SolverError("covariate covariance is singular and pseudo-inverse is disabled")
    precision = np.linalg.pinv(cov, hermitian=True) if singular else np.linalg.inv(cov)
    return FrechetRegressionModel(
        space=space,
        covariates=x,
        covariate_mean=x_bar,
        covariance=cov,
        precision=precision,
        outcome_coords=coords,
        used_pseudo_inverse=bool(singular),
    )


def _covariate_matrix(covariates: np.ndarray, n_units: int) -> np.ndarray:
    """Covariates as an (n_units, k) float matrix; a vector is one column."""
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != n_units:
        raise SpaceError(f"expected {n_units} covariate rows, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise SpaceError("covariates must be finite")
    return x


def fit_global_frechet_regression(
    outcomes: Sequence[Sequence[ObjectPoint]],
    covariates: np.ndarray,
    allow_pseudo_inverse: bool = True,
) -> FrechetRegressionModel:
    """Fit global Frechet regression on a flat-chart outcome space.

    Parameters
    ----------
    outcomes : sequence over periods of sequences over units
        Training outcomes; all must share one flat space.
    covariates : (J, k) array
        One Euclidean covariate vector per training unit.
    allow_pseudo_inverse : bool
        Use the Moore-Penrose inverse when the covariate covariance is
        singular (flagged on the model); raise otherwise.
    """
    if not outcomes or not outcomes[0]:
        raise SpaceError("regression needs at least one period and one unit")
    space = getattr(outcomes[0][0], "space", None)
    if space is not None and space.kind not in FLAT_KINDS:
        raise SpaceError("global Frechet regression requires a flat-chart space")
    n_units = len(outcomes[0])
    x = _covariate_matrix(covariates, n_units)
    for t, row in enumerate(outcomes):
        if len(row) != n_units:
            raise SpaceError(f"period {t} has {len(row)} outcomes, expected {n_units}")
        for j, point in enumerate(row):
            if not (isinstance(point, ObjectPoint) and point.space == space):
                raise SpaceError(f"outcome (period {t}, unit {j}) is not a point of the space")
    data = np.array([[p.data for p in row] for row in outcomes])
    report = validate_stack(space, data.reshape((-1,) + space.data_shape))
    if report is not None:
        t, j = divmod(report[0], n_units)
        raise SpaceError(f"outcome (period {t}, unit {j}) is invalid: {report[1]}")
    return _fit_regression(space, metric_embed_stack(space, data), x, allow_pseudo_inverse)


def predict_frechet_regression(
    model: FrechetRegressionModel,
    x: np.ndarray,
    t: int,
    repair: bool = True,
    log: RepairLog | None = None,
) -> ObjectPoint:
    """Predicted object outcome at covariate ``x`` for period index ``t``."""
    if not 0 <= t < model.n_periods:
        raise SpaceError(f"period index {t} outside 0..{model.n_periods - 1}")
    vec = model.weights(x) @ model.outcome_coords[t]
    return ObjectPoint(model.space, metric_restore_stack(model.space, vec, repair=repair, log=log))


def estimate_augmented_gsc(
    panel: Panel,
    covariates: np.ndarray,
    cfg: SolverConfig | None = None,
    allow_pseudo_inverse: bool = True,
    repair: bool = True,
) -> GscResult:
    """Regression-augmented geodesic synthetic control.

    Runs GSC, then corrects each post-period synthetic outcome by the
    transport that moves the weighted mean of the regression predictions at
    the control covariates onto the prediction at the treated covariates.
    In the panel's coordinates this adds the correction
    ``pred(x_treated) - sum_j w_j pred(x_j)`` to the synthetic coordinates,
    removing the first-order bias left by an imperfect covariate match.
    Both are combinations of the controls' coordinates, so the augmented
    synthetic outcome is the ``(w + a)``-combination with correction
    weights ``a = s(x_treated)/J - sum_j w_j s(x_j)/J``.

    Restricted to flat-chart outcome spaces because the regression weights
    can be negative, which only defines a combination in a linear chart.

    Parameters
    ----------
    panel : Panel
    covariates : (J+1, k) array
        Euclidean covariate vector per unit, treated first. The regression
        is trained on the control rows only.
    """
    cfg = cfg or SolverConfig()
    if panel.space.kind not in FLAT_KINDS:
        raise SpaceError("augmented GSC requires a flat-chart outcome space")
    x = _covariate_matrix(covariates, panel.n_units)

    base = estimate_gsc(panel, cfg, repair)
    w = base.weights.values
    controls = panel.coords[1:]
    model = _fit_regression(panel.space, controls.swapaxes(0, 1), x[1:], allow_pseudo_inverse)
    a = model.weights(x[0]) - w @ np.stack([model.weights(xj) for xj in x[1:]])

    log = RepairLog()
    log.events.extend(base.repair_flags)
    (data,), (lengths,) = _gsc_stack(
        panel, [0], np.append(0.0, w + a)[None], slice(panel.T0, None), repair, log
    )
    effects = _effects(panel, data, panel.post_periods(), lengths)
    correction = a @ controls[:, panel.T0 :].swapaxes(0, 1)
    return GscResult(
        weights=base.weights,
        synthetic=base.synthetic[: panel.T0] + tuple(e.start for e in effects),
        effects=effects,
        pre_fit_rmse=base.pre_fit_rmse,
        repair_flags=tuple(log.events),
        augmentation={
            "correction_lengths": np.linalg.norm(correction, axis=-1).tolist(),
            "used_pseudo_inverse": model.used_pseudo_inverse,
        },
    )


# ---------------------------------------------------------------------------
# synthetic difference-in-differences


def _post_means(panel: Panel) -> np.ndarray:
    """The units' uniform Frechet means over the post window, (J+1, D) coordinates."""
    post = panel.coords[:, panel.T0 :]
    w = np.full(post.shape[1], 1.0 / post.shape[1])
    return _sphere_mean_stack(post, w) if panel.space.kind == "sphere" else w @ post


def _did_stack(
    panel: Panel, rows: Sequence[int], unit_w: np.ndarray, time_w: np.ndarray,
    post_w: np.ndarray, repair: bool, log: RepairLog | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GSDID for a stack of B pseudo-treated ``rows`` of the panel.

    Row ``b`` weighs all J+1 units by ``unit_w[b]`` (zero on itself), its
    pre periods by ``time_w[b]`` and its post periods by ``post_w[b]``.
    Its four means have product weights over (unit, period) grids: on the
    flat kinds one matrix product contracts the units of all rows, then
    each row's period weights; on the sphere the rows' own means are one
    batch of iterative means over their periods, and the controls' means
    one batch over the whole grid.
    The controls' pre-to-post displacement is transported to the row's
    pre mean, and the effect runs from there to the row's post mean.

    Returns the means' data, shape (B, 2, 2, *data_shape), indexed by
    (own, controls) and (pre, post); the synthetic points' data; and the
    effect lengths, shape (B,).
    """
    space, coords, n, T, B = panel.space, panel.coords, panel.n_units, panel.n_periods, len(rows)
    unit_w = unit_w / unit_w.sum(axis=1, keepdims=True)
    periods = np.zeros((B, 2, T))
    periods[:, 0, : panel.T0], periods[:, 1, panel.T0 :] = time_w, post_w
    periods /= periods.sum(axis=2, keepdims=True)
    if space.kind == "sphere":
        own = _sphere_mean_stack(np.repeat(coords[rows], 2, axis=0), periods.reshape(2 * B, T))
        grids = (unit_w[:, None, :, None] * periods[:, :, None, :]).reshape(2 * B, n * T)
        controls = _sphere_mean_stack(coords.reshape(1, n * T, -1), grids)
        means = np.stack([own, controls]).reshape(2, B, 2, -1).swapaxes(0, 1)
    else:
        own = periods @ coords[rows]  # before the controls' contraction: one copy at a time
        means = np.stack([own, periods @ (unit_w @ coords.reshape(n, -1)).reshape(B, T, -1)], 1)
    data = _restore(space, means, repair, log)
    synthetic = _transport_stack(space, data[:, 1, 0], data[:, 1, 1], data[:, 0, 0], repair, log)
    points = np.concatenate([data.reshape((-1,) + space.data_shape), synthetic])
    report = validate_stack(space, points)
    if report is not None:
        names = ["treated_pre", "treated_post", "controls_pre", "controls_post"] * B
        name = (names + ["synthetic"] * B)[report[0]]
        raise SpaceError(f"GSDID {name} point is invalid: {report[1]}")
    return data, synthetic, _lengths(space, synthetic, means[:, 0, 1])


def _gsdid_result(
    panel: Panel, unit_weights: SimplexWeights, time_weights: SimplexWeights, repair: bool
) -> GsdidResult:
    """GSDID from fitted weights, with the post window weighted uniformly."""
    log = RepairLog()
    n_post = panel.n_periods - panel.T0
    means, synthetic, lengths = _did_stack(
        panel, [0], np.append(0.0, unit_weights.values)[None], time_weights.values[None],
        np.full((1, n_post), 1.0 / n_post), repair, log,
    )
    at = {"treated_pre": (0, 0), "controls_pre": (1, 0),
          "controls_post": (1, 1), "treated_post": (0, 1)}
    means = {name: ObjectPoint(panel.space, means[0][i]) for name, i in at.items()}
    synthetic = ObjectPoint(panel.space, synthetic[0])
    return GsdidResult(
        unit_weights=unit_weights,
        time_weights=time_weights,
        synthetic=synthetic,
        observed_post_mean=means["treated_post"],
        effect=GeodesicEffect(synthetic, means["treated_post"], lengths[0]),
        intermediates=MappingProxyType(means),
        repair_flags=tuple(log.events),
    )


def estimate_gsdid(
    panel: Panel, cfg: SolverConfig | None = None, repair: bool = True
) -> GsdidResult:
    """Geodesic synthetic difference-in-differences.

    Fits unit weights as in GSC and time weights that map each control's
    weighted pre-treatment combination to its post-treatment mean. The
    synthetic post outcome applies the control group's pre-to-post
    displacement (between the doubly weighted control means) to the
    treated unit's time-weighted pre mean, and the effect is the geodesic
    from that synthetic point to the treated post mean. The panel stores
    the unit weights and the result, as :func:`estimate_gsc`'s.
    """
    cfg = cfg or SolverConfig()
    return panel._stored(("gsdid", cfg, repair), lambda: _gsdid_result(
        panel, _unit_weights(panel, cfg),  # first: if both fits fail, theirs is the error raised
        SimplexWeights(_weight_stack(panel, [0], cfg, time=True)[0]), repair,
    ))


def estimate_gdid(panel: Panel, repair: bool = True) -> GsdidResult:
    """Geodesic difference-in-differences baseline: all weights uniform.

    Applies the uniform control group's pre-to-post displacement to the
    treated unit's uniform pre mean. Serves as the no-reweighting
    benchmark against which the synthetic variants are compared.
    """
    uniform_units = SimplexWeights(np.full(panel.n_controls, 1.0 / panel.n_controls))
    uniform_times = SimplexWeights(np.full(panel.T0, 1.0 / panel.T0))
    return _gsdid_result(panel, uniform_units, uniform_times, repair)


def estimate_gsdid_per_time(
    panel: Panel, cfg: SolverConfig | None = None, repair: bool = True
) -> list[GeodesicEffect]:
    """Per-period geodesic synthetic difference-in-differences effects.

    Time weights are refit against each post period's control outcomes, the
    unit weights are those the panel stores, and the synthetic point
    transports the treated pre mean by the displacement of the control means
    between the weighted pre window and that period. All are one GSDID stack.
    """
    cfg, post = cfg or SolverConfig(), panel.post_periods()
    unit = np.append(0.0, _unit_weights(panel, cfg).values)
    time = _weight_stack(panel, [0] * len(post), cfg, True, panel.coords[:, panel.T0 :])
    _, synthetic, lengths = _did_stack(
        panel, [0] * len(post), np.tile(unit, (len(post), 1)), time, np.eye(len(post)), repair, None
    )
    return list(_effects(panel, synthetic, post, lengths))


# ---------------------------------------------------------------------------
# placebo permutation tests


def _named(panel: Panel, j: int, fit: Callable[[], list[float]]) -> list[float]:
    """``fit()``, the statistics of unit ``j`` in the treated role; a
    failure is re-raised as a :class:`SolverError` that names the unit."""
    try:
        return fit()
    except (SolverError, SpaceError) as exc:
        raise SolverError(f"placebo fit failed for unit {panel.unit_labels[j]!r}: {exc}") from exc


def _donor_statistics(
    panel: Panel, method: Method, cfg: SolverConfig, repair: bool
) -> list[list[float]]:
    """Every control's placebo statistics, those of
    ``estimate_*(panel.with_treated_unit(j))`` up to rounding, from its stored
    unit weights and a stack each of GSDID time weights and statistics (GSC's
    of the post periods alone: an invalid pre-period point fails no placebo).
    If one fails, the controls are taken one by one, in panel order."""
    J, T0, T = panel.n_controls, panel.T0, panel.n_periods

    def statistics(units: list[int]) -> list[list[float]]:
        unit_w, B = _unit_rows(panel, units, cfg), len(units)
        if method == "gsdid":
            w = unit_w, _weight_stack(panel, units, cfg, True), np.full((B, T - T0), 1 / (T - T0))
            return _did_stack(panel, units, *w, repair, None)[2][:, None].tolist()
        return _gsc_stack(panel, units, unit_w, slice(T0, None), repair, None)[1].tolist()

    try:
        return statistics(list(range(1, J + 1)))
    except (SolverError, SpaceError):  # one by one, so that the first failure is raised
        return [_named(panel, j, lambda: statistics([j])[0]) for j in range(1, J + 1)]


def placebo_test(
    panel: Panel,
    method: Method = "gsc",
    cfg: SolverConfig | None = None,
    repair: bool = True,
) -> list[PlaceboReport] | PlaceboReport:
    """Placebo permutation test: refit with every unit in the treated role.

    Each unit in turn is treated as if it had received the intervention,
    with the actual treated unit joining the donor pool. The fit statistic
    is the post-period distance between the unit's observed outcome and
    its synthetic one. The p-value is the treated unit's max-rank among
    all statistics divided by the number of units, so it is invariant
    under relabeling of the controls and never smaller than 1/(J+1).

    The treated unit's statistics come from one ``estimate_*`` call on the
    panel, answered by its stored estimate if that ran, the controls' from
    their stored unit weights, which either method's test fits once, and
    stacks (:func:`_donor_statistics`); no kind refits a permuted panel.
    GSC's forms the donors' post-period points alone, bit for bit as in full.

    Returns one report per post period for ``method="gsc"`` (whose
    statistic is per-period) and a single report for ``method="gsdid"``
    (whose statistic pools the post window through the post mean).
    """
    cfg = cfg or SolverConfig()
    if method not in ("gsc", "gsdid"):
        raise SolverError(f"unknown placebo method {method!r}")
    n = panel.n_units

    def treated() -> list[float]:
        if method == "gsc":
            return [e.length for e in estimate_gsc(panel, cfg, repair).effects]
        return [estimate_gsdid(panel, cfg, repair).effect.length]

    per_unit = [_named(panel, 0, treated)] + _donor_statistics(panel, method, cfg, repair)
    reports = []
    for stats in np.array(per_unit).T:
        rank = int(np.sum(stats >= stats[0]))  # max-rank of the treated unit, row 0
        reports.append(PlaceboReport(statistics=stats, rank_of_treated=rank, p_value=rank / n))
    return reports if method == "gsc" else reports[0]

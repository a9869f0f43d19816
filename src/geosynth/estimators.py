"""Synthetic control estimators for metric-space-valued panels.

Implements the geodesic synthetic control method (GSC), its
covariate-weighted and regression-augmented variants (AGSC), geodesic
synthetic difference-in-differences (GSDID) with a per-period variant and
a uniform-weight geodesic DID baseline, and placebo permutation tests.

A panel holds one treated unit (row 0) and J control units observed over T
periods, the first T0 of them pre-treatment. It is validated and embedded
once, into a (J+1, T, D) coordinate tensor that every estimator and
placebo refit reads. All estimators are pure functions of (panel, config)
and never mutate their inputs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from .spaces import (
    ObjectPoint,
    RepairLog,
    SpaceDescriptor,
    SpaceError,
    FLAT_KINDS,
    _chart_backward,
    _sphere_angle,
    _sphere_log_stack,
    _sphere_mean_jacobian,
    _sphere_mean_stack,
    distance,
    flat_embed,
    flat_restore,
    metric_embed,
    metric_embed_stack,
    metric_restore,
    metric_restore_stack,
    transport,
    validate_point,
    validate_stack,
    weighted_frechet_mean,  # noqa: F401  (looked up here by geobench's tracer)
)
from .simplex_opt import (
    SimplexWeights,
    SolverConfig,
    SolverError,
    build_time_weight_qp,
    build_unit_weight_qp,
    solve_simplex_derivative_free,  # noqa: F401  (looked up here by geobench's tracer)
    solve_simplex_gauss_newton,
    solve_simplex_qp,
)

Method = Literal["gsc", "gsdid"]


@dataclass(frozen=True)
class Panel:
    """A panel of object-valued outcomes with a single treated unit.

    Parameters
    ----------
    space : SpaceDescriptor
        Common outcome space of all observations.
    outcomes : nested sequence of ObjectPoint, shape (J+1, T)
        Row 0 is the treated unit; rows 1..J are controls.
    T0 : int
        Number of pre-treatment periods, ``1 <= T0 < T``.
    unit_labels, time_labels : sequence of str, optional
        Display labels; generated when omitted.

    Construction validates all outcomes in one batched call. Estimators
    read slices of :attr:`coords`, the panel embedded once, and placebo
    refits permute its rows without validating again.
    """

    space: SpaceDescriptor
    outcomes: tuple[tuple[ObjectPoint, ...], ...]
    T0: int
    unit_labels: tuple[str, ...] = ()
    time_labels: tuple[str, ...] = ()
    _coords: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.outcomes)
        if len(rows) < 2:
            raise SpaceError("panel needs a treated unit and at least one control")
        t_len = len(rows[0])
        if t_len < 2 or any(len(row) != t_len for row in rows):
            raise SpaceError("all units must share the same number of periods (at least 2)")
        if not (1 <= int(self.T0) < t_len):
            raise SpaceError(f"T0 must satisfy 1 <= T0 < T={t_len}, got {self.T0}")
        for j, row in enumerate(rows):
            for t, point in enumerate(row):
                if not isinstance(point, ObjectPoint):
                    raise SpaceError(f"outcome ({j},{t}) is not an ObjectPoint")
                if point.space != self.space:
                    raise SpaceError(f"outcome ({j},{t}) belongs to a different space")
        object.__setattr__(self, "outcomes", rows)
        report = validate_stack(self.space, self._data().reshape((-1,) + self.space.data_shape))
        if report is not None:
            j, t = divmod(report[0], t_len)
            raise SpaceError(f"outcome (unit {j}, time {t}) is invalid: {report[1]}")
        units = tuple(self.unit_labels) or tuple(
            ["treated"] + [f"control_{j}" for j in range(1, len(rows))]
        )
        times = tuple(self.time_labels) or tuple(f"t{t + 1}" for t in range(t_len))
        if len(units) != len(rows):
            raise SpaceError(f"expected {len(rows)} unit labels, got {len(units)}")
        if len(times) != t_len:
            raise SpaceError(f"expected {t_len} time labels, got {len(times)}")
        object.__setattr__(self, "T0", int(self.T0))
        object.__setattr__(self, "unit_labels", tuple(str(u) for u in units))
        object.__setattr__(self, "time_labels", tuple(str(t) for t in times))

    @property
    def coords(self) -> np.ndarray:
        """Read-only (J+1, T, D) coordinates of the outcomes: the isometric
        chart (:func:`metric_embed_stack`) for the flat kinds and the unit
        vectors themselves for the sphere.

        Computed in one batched call on first use and cached, so a panel
        that no estimator reads holds no second copy of its data.
        """
        if self._coords is None:
            data = self._data()
            coords = data if self.space.kind == "sphere" else metric_embed_stack(self.space, data)
            coords.setflags(write=False)
            object.__setattr__(self, "_coords", coords)
        return self._coords

    def _data(self) -> np.ndarray:
        """The outcomes' data stacked into one (J+1, T, *data_shape) array."""
        return np.array([[point.data for point in row] for row in self.outcomes])

    @property
    def n_units(self) -> int:
        return len(self.outcomes)

    @property
    def n_controls(self) -> int:
        return len(self.outcomes) - 1

    @property
    def n_periods(self) -> int:
        return len(self.outcomes[0])

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
        """Panel with unit ``j`` moved to the treated slot.

        The remaining units keep their original relative order, so placebo
        fits see the same donor pool regardless of which unit is held out.
        """
        return self._permuted([j] + [i for i in range(self.n_units) if i != j])

    def _permuted(self, order: list[int]) -> "Panel":
        """This panel with its units in ``order``, built from the validated
        and embedded arrays without running the constructor again."""
        coords = self.coords[order]
        coords.setflags(write=False)
        panel = copy.copy(self)
        object.__setattr__(panel, "outcomes", tuple(self.outcomes[i] for i in order))
        object.__setattr__(panel, "unit_labels", tuple(self.unit_labels[i] for i in order))
        object.__setattr__(panel, "_coords", coords)
        return panel


@dataclass(frozen=True)
class CovariatePanel:
    """Object-valued covariates observed over the pre-treatment window.

    ``covariates[j][t][c]`` is unit ``j``'s covariate component ``c`` at pre
    period ``t``; component ``c`` lives in ``spaces[c]``.
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
                    report = validate_point(point)
                    if report is not None:
                        raise SpaceError(f"covariate ({j},{t},{c}) is invalid: {report}")
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "covariates", rows)

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


def geodesic_effect(start: ObjectPoint, end: ObjectPoint) -> GeodesicEffect:
    """Build a GeodesicEffect with its length computed from the metric."""
    return GeodesicEffect(start=start, end=end, length=distance(start, end))


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
    (the observed post mean, also exposed as ``observed_post_mean``).
    """

    unit_weights: SimplexWeights
    time_weights: SimplexWeights
    synthetic: ObjectPoint
    observed_post_mean: ObjectPoint
    effect: GeodesicEffect
    intermediates: dict[str, ObjectPoint]
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


def _sphere_batches(x: np.ndarray) -> np.ndarray:
    """(units, periods, d) sphere data as a contiguous (periods, units, d) stack."""
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def _sphere_linearization(
    z: np.ndarray, y: np.ndarray
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Residuals and Jacobians of ``mean_b d(m_b(w), y_b)^2`` on the sphere.

    ``m_b(w)`` is the ``w``-weighted Frechet mean of the points ``z[b]``
    (shape (B, n, d)), and ``y`` (shape (B, d)) holds the targets. At
    weights ``w`` the residual of row ``b`` is ``Log_{m_b}(y_b)``, the
    tangent vector from the mean to its target, so the mean of the squared
    residual norms is the objective. To first order it moves by ``-dm_b``,
    the implicit derivative of the mean.
    """

    def linearize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        means = _sphere_mean_stack(z, w)
        return _sphere_log_stack(means, y), -_sphere_mean_jacobian(z, w, means)

    return linearize


def _sphere_unit_linearization(
    panel: Panel,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Linearization of the sphere unit-weight objective: one row per pre
    period, the controls' weighted mean against the treated outcome."""
    pre = panel.coords[:, : panel.T0]
    return _sphere_linearization(_sphere_batches(pre[1:]), pre[0])


def _solve_unit_weights(panel: Panel, cfg: SolverConfig) -> tuple[SimplexWeights, float]:
    """Minimize the average squared pre-period distance over unit weights."""
    if panel.space.kind == "sphere":
        return solve_simplex_gauss_newton(
            _sphere_unit_linearization(panel), panel.n_controls, cfg
        )
    x = panel.coords
    blocks = [(x[0, t], x[1:, t].T) for t in panel.pre_periods()]
    return solve_simplex_qp(build_unit_weight_qp(blocks), cfg)


def _synthetic_effects(
    panel: Panel, data: np.ndarray, periods: Sequence[int]
) -> tuple[tuple[ObjectPoint, ...], tuple[GeodesicEffect, ...]]:
    """The synthetic outcomes ``data`` of ``periods``, validated in one call,
    and their effects: the distances to the treated unit, measured on the
    stacks as :func:`distance` measures them point by point."""
    space = panel.space
    report = validate_stack(space, data)
    if report is not None:
        raise SpaceError(f"synthetic outcome (time {periods[report[0]]}) is invalid: {report[1]}")
    treated = panel.coords[0, periods]
    if space.kind == "sphere":
        lengths = _sphere_angle(treated, data)
    else:
        diff = metric_embed_stack(space, data) - treated
        lengths = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    synthetic = tuple(ObjectPoint(space, x) for x in data)
    return synthetic, tuple(
        GeodesicEffect(start, panel.outcomes[0][t], length)
        for start, t, length in zip(synthetic, periods, lengths)
    )


def _gsc_result(panel: Panel, weights: SimplexWeights, repair: bool) -> GscResult:
    """Synthetic outcomes for fitted unit weights, the controls' weighted
    Frechet mean in every period, with their effects and pre-period fit."""
    space = panel.space
    log = RepairLog()
    if space.kind == "sphere":
        data = _sphere_mean_stack(_sphere_batches(panel.coords[1:]), weights.values)
    else:
        combos = np.einsum("j,jtd->td", weights.values, panel.coords[1:])
        data = metric_restore_stack(space, combos, repair=repair, log=log)
    synthetic, effects = _synthetic_effects(panel, data, range(panel.n_periods))
    sq = [e.length**2 for e in effects[: panel.T0]]
    return GscResult(
        weights=weights,
        synthetic=synthetic,
        effects=effects[panel.T0 :],
        pre_fit_rmse=float(np.sqrt(np.mean(sq))),
        repair_flags=tuple(log.events),
    )


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
    theorem; its weights carry the same optimality certificate.
    """
    cfg = cfg or SolverConfig()
    weights, _ = _solve_unit_weights(panel, cfg)
    return _gsc_result(panel, weights, repair)


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

    periods = range(covs.n_periods)
    flat_idx = [c for c, s in enumerate(covs.spaces) if s.kind != "sphere"]
    # Chart coordinates of the flat components, concatenated: (T, J+1, D).
    flat = np.array(
        [
            [
                np.concatenate([np.zeros(0)] + [metric_embed(row[t][c]) for c in flat_idx])
                for row in covs.covariates
            ]
            for t in periods
        ]
    )
    if "sphere" not in kinds:
        blocks = [(flat[t, 0], flat[t, 1:].T) for t in periods]
        weights, _ = solve_simplex_qp(build_unit_weight_qp(blocks), cfg)
    else:
        flat_jac = flat[:, 1:].transpose(0, 2, 1)
        sphere_parts = [
            _sphere_linearization(
                np.stack([[row[t][c].data for row in covs.covariates[1:]] for t in periods]),
                np.stack([covs.covariates[0][t][c].data for t in periods]),
            )
            for c, s in enumerate(covs.spaces)
            if s.kind == "sphere"
        ]

        def linearize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Each period's residual row: the flat components' ``C_t w - y_t``
            followed by each sphere component's ``Log_m(y)``."""
            parts = [part(w) for part in sphere_parts]
            resid = [flat_jac @ w - flat[:, 0]] + [r for r, _ in parts]
            jac = [flat_jac] + [d for _, d in parts]
            return np.concatenate(resid, axis=1), np.concatenate(jac, axis=1)

        weights, _ = solve_simplex_gauss_newton(linearize, panel.n_controls, cfg)
    return _gsc_result(panel, weights, repair)


# ---------------------------------------------------------------------------
# global Frechet regression and the augmented estimator


@dataclass(frozen=True)
class FrechetRegressionModel:
    """Global Frechet regression of object outcomes on Euclidean covariates.

    Stores the training covariates with their mean and covariance, and the
    chart coordinates of the training outcomes per period. Predictions are
    the chart combinations ``(1/J) sum_j s_j(x) y_j`` with the linear
    weights ``s_j(x) = 1 + (X_j - mean)' Cov^{-1} (x - mean)``, which
    average to 1 over the training units.
    """

    space: SpaceDescriptor
    covariates: np.ndarray
    covariate_mean: np.ndarray
    covariance: np.ndarray
    precision: np.ndarray
    outcome_charts: tuple[np.ndarray, ...]
    used_pseudo_inverse: bool

    @property
    def n_units(self) -> int:
        return int(self.covariates.shape[0])

    @property
    def n_periods(self) -> int:
        return len(self.outcome_charts)

    def weights(self, x: np.ndarray) -> np.ndarray:
        """Per-unit regression weights ``s_j(x) / J`` (they sum to 1)."""
        x = np.asarray(x, dtype=float).ravel()
        centered = self.covariates - self.covariate_mean
        s = 1.0 + centered @ (self.precision @ (x - self.covariate_mean))
        return s / self.n_units


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
    space = outcomes[0][0].space
    if space.kind not in FLAT_KINDS:
        raise SpaceError("global Frechet regression requires a flat-chart space")
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n_units = len(outcomes[0])
    if x.shape[0] != n_units:
        raise SpaceError(f"expected {n_units} covariate rows, got {x.shape[0]}")
    charts = []
    for t, row in enumerate(outcomes):
        if len(row) != n_units:
            raise SpaceError(f"period {t} has {len(row)} outcomes, expected {n_units}")
        charts.append(np.stack([flat_embed(p) for p in row]))
    x_bar = x.mean(axis=0)
    centered = x - x_bar
    cov = centered.T @ centered / n_units
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
        outcome_charts=tuple(charts),
        used_pseudo_inverse=bool(singular),
    )


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
    vec = model.weights(x) @ model.outcome_charts[t]
    return flat_restore(vec, model.space, repair=repair, log=log)


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
    In the chart this adds the correction
    ``pred(x_treated) - sum_j w_j pred(x_j)`` to the synthetic coordinates,
    removing the first-order bias left by an imperfect covariate match.

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
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != panel.n_units:
        raise SpaceError(f"expected {panel.n_units} covariate rows, got {x.shape[0]}")

    base = estimate_gsc(panel, cfg, repair)
    w = base.weights.values
    model = fit_global_frechet_regression(
        [[panel.outcomes[j][t] for j in range(1, panel.n_units)]
         for t in range(panel.n_periods)],
        x[1:],
        allow_pseudo_inverse=allow_pseudo_inverse,
    )
    pred_weights_treated = model.weights(x[0])
    pred_weights_controls = np.stack([model.weights(x[j]) for j in range(1, panel.n_units)])

    log = RepairLog()
    log.events.extend(base.repair_flags)
    post = list(panel.post_periods())
    corrected = []
    correction_lengths = []
    for t in post:
        charts = model.outcome_charts[t]
        pred_treated = pred_weights_treated @ charts
        pred_combo = (w @ pred_weights_controls) @ charts
        corrected.append(w @ charts + (pred_treated - pred_combo))
        correction_lengths.append(float(np.linalg.norm(pred_treated - pred_combo)))
    post_synthetic, effects = _synthetic_effects(
        panel, _chart_backward(panel.space, corrected, repair, log), post
    )
    return GscResult(
        weights=base.weights,
        synthetic=base.synthetic[: panel.T0] + post_synthetic,
        effects=effects,
        pre_fit_rmse=base.pre_fit_rmse,
        repair_flags=tuple(log.events),
        augmentation={
            "correction_lengths": correction_lengths,
            "used_pseudo_inverse": model.used_pseudo_inverse,
        },
    )


# ---------------------------------------------------------------------------
# synthetic difference-in-differences


def _post_means(panel: Panel) -> np.ndarray:
    """Per-unit uniform Frechet means over the post window, (J+1, D) coordinates."""
    post = panel.coords[:, panel.T0 :]
    uniform = np.full(post.shape[1], 1.0 / post.shape[1])
    if panel.space.kind == "sphere":
        return _sphere_mean_stack(post, uniform)
    return uniform @ post


def _solve_time_weights(
    panel: Panel, targets: np.ndarray, cfg: SolverConfig
) -> tuple[SimplexWeights, float]:
    """Time weights matching each control's target to its weighted pre-window.

    ``targets[j]`` holds the coordinates of control ``j``'s post mean (or of
    a single post outcome); the solution lambda minimizes the average
    squared distance between target and lambda-weighted pre-period
    combination across controls. On the sphere this is the unit-weight
    problem with the roles of units and periods swapped, and it is solved
    the same way.
    """
    pre = panel.coords[1:, : panel.T0]
    if panel.space.kind == "sphere":
        linearize = _sphere_linearization(np.ascontiguousarray(pre), targets)
        return solve_simplex_gauss_newton(linearize, panel.T0, cfg)
    return solve_simplex_qp(build_time_weight_qp(list(pre), list(targets)), cfg)


def _grid_mean(
    panel: Panel,
    unit_weights: np.ndarray,
    time_weights: np.ndarray,
    periods: Sequence[int],
    rows: Sequence[int],
) -> ObjectPoint:
    """Frechet mean over a (unit, period) grid with product weights."""
    x = panel.coords[np.ix_(rows, periods)]
    points = x.reshape(-1, x.shape[-1])
    weights = np.outer(unit_weights, time_weights).ravel()
    weights = weights / weights.sum()
    if panel.space.kind == "sphere":
        return ObjectPoint(panel.space, _sphere_mean_stack(points[None], weights)[0])
    return metric_restore(weights @ points, panel.space)


def _did_transport(
    panel: Panel,
    unit_weights: np.ndarray,
    time_weights: np.ndarray,
    periods: Sequence[int],
    period_weights: np.ndarray,
    repair: bool,
    log: RepairLog | None,
) -> tuple[dict[str, ObjectPoint], ObjectPoint]:
    """The treated unit's time-weighted pre mean, transported by the control
    group's displacement from its doubly weighted pre mean to its
    ``period_weights``-weighted mean over ``periods``.

    Returns the three means (``treated_pre``, ``controls_pre``,
    ``controls_post``) and the transported, synthetic point.
    """
    pre = list(panel.pre_periods())
    controls = list(range(1, panel.n_units))
    means = {
        "treated_pre": _grid_mean(panel, np.ones(1), time_weights, pre, [0]),
        "controls_pre": _grid_mean(panel, unit_weights, time_weights, pre, controls),
        "controls_post": _grid_mean(panel, unit_weights, period_weights, periods, controls),
    }
    synthetic = transport(
        means["controls_pre"], means["controls_post"], means["treated_pre"],
        repair=repair, log=log,
    )
    return means, synthetic


def _gsdid_core(
    panel: Panel,
    unit_weights: SimplexWeights,
    time_weights: SimplexWeights,
    post_mean: np.ndarray,
    repair: bool = True,
) -> GsdidResult:
    """GSDID from fitted weights and the coordinates of the treated post mean."""
    if panel.space.kind == "sphere":
        observed_post_mean = ObjectPoint(panel.space, post_mean)
    else:
        observed_post_mean = metric_restore(post_mean, panel.space)
    n_post = panel.n_periods - panel.T0
    log = RepairLog()
    means, synthetic = _did_transport(
        panel, unit_weights.values, time_weights.values, list(panel.post_periods()),
        np.full(n_post, 1.0 / n_post), repair, log,
    )
    return GsdidResult(
        unit_weights=unit_weights,
        time_weights=time_weights,
        synthetic=synthetic,
        observed_post_mean=observed_post_mean,
        effect=geodesic_effect(synthetic, observed_post_mean),
        intermediates={**means, "treated_post": observed_post_mean},
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
    from that synthetic point to the treated post mean.
    """
    cfg = cfg or SolverConfig()
    unit_weights, _ = _solve_unit_weights(panel, cfg)
    post_means = _post_means(panel)
    time_weights, _ = _solve_time_weights(panel, post_means[1:], cfg)
    return _gsdid_core(panel, unit_weights, time_weights, post_means[0], repair)


def estimate_gdid(panel: Panel, repair: bool = True) -> GsdidResult:
    """Geodesic difference-in-differences baseline: all weights uniform.

    Applies the uniform control group's pre-to-post displacement to the
    treated unit's uniform pre mean. Serves as the no-reweighting
    benchmark against which the synthetic variants are compared.
    """
    uniform_units = SimplexWeights(np.full(panel.n_controls, 1.0 / panel.n_controls))
    uniform_times = SimplexWeights(np.full(panel.T0, 1.0 / panel.T0))
    post_means = _post_means(panel)
    return _gsdid_core(panel, uniform_units, uniform_times, post_means[0], repair)


def estimate_gsdid_per_time(
    panel: Panel, cfg: SolverConfig | None = None, repair: bool = True
) -> list[GeodesicEffect]:
    """Per-period geodesic synthetic difference-in-differences effects.

    For each post period the time weights are refit against that single
    period's control outcomes, and the synthetic point transports the
    treated pre mean by the displacement of the control means between the
    weighted pre window and that period.
    """
    cfg = cfg or SolverConfig()
    unit_weights, _ = _solve_unit_weights(panel, cfg)
    effects = []
    for t in panel.post_periods():
        time_weights, _ = _solve_time_weights(panel, panel.coords[1:, t], cfg)
        _, synthetic = _did_transport(
            panel, unit_weights.values, time_weights.values, [t], np.ones(1), repair, None
        )
        effects.append(geodesic_effect(synthetic, panel.outcomes[0][t]))
    return effects


# ---------------------------------------------------------------------------
# placebo permutation tests


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

    Returns one report per post period for ``method="gsc"`` (whose
    statistic is per-period) and a single report for ``method="gsdid"``
    (whose statistic pools the post window through the post mean).
    """
    cfg = cfg or SolverConfig()
    if method not in ("gsc", "gsdid"):
        raise SolverError(f"unknown placebo method {method!r}")
    n = panel.n_units
    per_unit: list[list[float]] = []
    for j in range(n):
        pseudo = panel.with_treated_unit(j)
        try:
            if method == "gsc":
                per_unit.append([e.length for e in estimate_gsc(pseudo, cfg, repair).effects])
            else:
                per_unit.append([estimate_gsdid(pseudo, cfg, repair).effect.length])
        except (SolverError, SpaceError) as exc:
            raise SolverError(
                f"placebo fit failed for unit {panel.unit_labels[j]!r}: {exc}"
            ) from exc
    reports = []
    for stats in np.array(per_unit).T:
        rank = int(np.sum(stats >= stats[0]))  # max-rank of the treated unit, row 0
        reports.append(PlaceboReport(statistics=stats, rank_of_treated=rank, p_value=rank / n))
    return reports if method == "gsc" else reports[0]

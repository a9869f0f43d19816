"""Synthetic panel generators with exact counterfactual oracles.

Each scenario builds a panel whose treated unit follows a known untreated
trajectory, so estimator output can be compared against the truth. The
treated unit is constructed to satisfy the perfect pre-treatment fit
condition where the scenario calls for it: as a chart combination of the
controls in flat spaces, or as the intrinsic weighted mean on the sphere.
The mixing weights are recorded in ``truth`` together with the generating
parameters.

Each generator computes its untreated outcomes as one array of shape
(J+1, T, *data_shape), treated unit first, from whole arrays, and
:func:`_assemble` hands that array to the panel. A nonzero ``effect_size``
displaces the observed treated outcome after treatment along the geodesic
toward a fixed random target by that fraction, one stacked geodesic over
the post periods; the stored counterfactual keeps the untreated trajectory
as points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import Panel
from .spaces import (
    ObjectPoint,
    SpaceDescriptor,
    SpaceError,
    _eig_apply,
    _geodesic_stack,
    _logm_spd,
    _sphere_geodesic,
    laplacian_space,
    scalar_space,
    spd_space,
    sphere_space,
    weighted_frechet_mean,
)

SCENARIOS = ("network", "spd", "sphere", "scalar", "robustness_s2", "robustness_s3")


@dataclass(frozen=True)
class SimConfig:
    """Scenario selector and panel dimensions for the generators."""

    scenario: str
    T: int = 20
    T0: int = 19
    J: int = 20
    seed: int = 0
    effect_size: float = 0.0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise SpaceError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        for name in ("T", "T0", "J", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SpaceError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.seed < 0:
            raise SpaceError(f"seed must be nonnegative, got {self.seed}")
        if not (1 <= self.T0 < self.T):
            raise SpaceError(f"need 1 <= T0 < T, got T0={self.T0}, T={self.T}")
        if self.J < 2:
            raise SpaceError(f"need at least 2 control units, got J={self.J}")
        if not (0.0 <= float(self.effect_size) <= 1.0):
            raise SpaceError("effect_size is a geodesic fraction and must lie in [0, 1]")
        object.__setattr__(self, "effect_size", float(self.effect_size))


@dataclass(frozen=True)
class SimOutput:
    """A generated panel, the true untreated post outcomes, and the truth.

    ``counterfactual[i]`` is the untreated outcome of the treated unit at
    post period ``T0 + 1 + i`` (one-based). ``truth`` holds the generating
    parameters as plain arrays, keyed by meaning.
    """

    panel: Panel
    counterfactual: tuple[ObjectPoint, ...]
    truth: dict


def oracle_counterfactual(output: SimOutput, t: int) -> ObjectPoint:
    """Stored untreated treated-unit outcome at one-based period ``t``.

    Only post-treatment periods have a stored counterfactual; ``t`` must
    exceed the panel's ``T0``.
    """
    T0 = output.panel.T0
    T = output.panel.n_periods
    if not T0 < t <= T:
        raise SpaceError(f"counterfactual is stored for periods {T0 + 1}..{T}, got {t}")
    return output.counterfactual[t - T0 - 1]


def generate(cfg: SimConfig) -> SimOutput:
    """Dispatch to the scenario generator named in ``cfg``."""
    fn = {
        "network": gen_network_panel,
        "spd": gen_spd_panel,
        "sphere": gen_sphere_panel,
        "scalar": gen_scalar_panel,
        "robustness_s2": gen_robustness_panel,
        "robustness_s3": gen_robustness_panel,
    }[cfg.scenario]
    return fn(cfg)


def _assemble(
    space: SpaceDescriptor,
    data: np.ndarray,
    target: np.ndarray,
    cfg: SimConfig,
    truth: dict,
) -> SimOutput:
    """Pack panel + oracle + truth from the untreated outcome tensor ``data``,
    shape (J+1, T, *data_shape) with the treated unit first, displacing the
    treated post outcomes toward ``target`` by the effect fraction."""
    untreated = data[0, cfg.T0 :]
    counterfactual = tuple(ObjectPoint(space, point) for point in untreated)
    observed = data.copy()
    observed[0, cfg.T0 :] = _geodesic_stack(space, untreated, target, cfg.effect_size)
    panel = Panel(space=space, outcomes=observed, T0=cfg.T0)
    truth = {**truth, "effect_target": ObjectPoint(space, target).data}
    return SimOutput(panel=panel, counterfactual=counterfactual, truth=truth)


# ---------------------------------------------------------------------------
# network scenario


def network_edge_weight(t: float, j: float) -> float:
    """Shared edge weight of unit j's graph at time t.

    The sinusoidal common trend decays toward the unit-specific level
    ``(0.1 j - 0.5)^2`` at rate ``exp(-0.1 t)``.
    """
    s = math.sin(0.1 * math.pi * t)
    return s + math.exp(-0.1 * t) * ((0.1 * j - 0.5) ** 2 - s)


def _sbm_adjacency(rng: np.random.Generator, n_nodes: int = 10) -> np.ndarray:
    """Two equal communities; edge probabilities 0.75 within, 0.1 across."""
    half = n_nodes // 2
    prob = np.full((n_nodes, n_nodes), 0.1)
    prob[:half, :half] = 0.75
    prob[half:, half:] = 0.75
    upper = np.triu(rng.random((n_nodes, n_nodes)) < prob, k=1)
    return (upper | upper.T).astype(float)


def _laplacian_of(adj: np.ndarray) -> np.ndarray:
    return np.diag(adj.sum(axis=1)) - adj


def gen_network_panel(cfg: SimConfig) -> SimOutput:
    """Graph-Laplacian panel over a weighted stochastic block model.

    Each control unit draws a 10-node adjacency once; all its existing
    edges share the weight ``(1 - a_t) s_t + a_t u_j`` with decay
    ``a_t = exp(-0.1 t)``, common trend ``s_t = |sin(0.1 pi t)|`` and unit
    level ``u_j = (0.1 j - 0.5)^2`` (units are indexed from 2, the treated
    slot being constructed). The absolute value keeps edge weights, and
    hence the Laplacians, valid in the periods where the raw sine is
    negative; :func:`network_edge_weight` exposes the unmodified formula.

    The treated unit is the ``w*``-combination of the control Laplacians,
    which follows the geodesic ``(1 - a_t)(s_t M) + a_t U_1`` with
    ``M = sum_j w*_j L_j`` and ``U_1 = sum_j w*_j u_j L_j``.
    """
    rng = np.random.default_rng(cfg.seed)
    n_nodes = 10
    space = laplacian_space(n_nodes)
    t_grid = np.arange(1, cfg.T + 1, dtype=float)
    a = np.exp(-0.1 * t_grid)
    s = np.abs(np.sin(0.1 * np.pi * t_grid))

    laps = np.stack([_laplacian_of(_sbm_adjacency(rng, n_nodes)) for _ in range(cfg.J)])
    u = (0.1 * (np.arange(cfg.J) + 2) - 0.5) ** 2
    w_star = rng.dirichlet(np.ones(cfg.J))

    edge_weights = (1.0 - a) * s + a * u[:, None]
    controls = edge_weights[:, :, None, None] * laps[:, None]
    mix = np.einsum("j,jkl->kl", w_star, laps)
    u_treated = np.einsum("j,jkl->kl", w_star * u, laps)
    a3, s3 = a[:, None, None], s[:, None, None]
    treated = (1.0 - a3) * (s3 * mix) + a3 * u_treated
    data = np.concatenate([treated[None], controls])
    target = _laplacian_of(_sbm_adjacency(rng, n_nodes))
    truth = {
        "w_star": w_star,
        "alpha": a,
        "trend": s,
        "mu_treated": s3 * mix,
        "u_treated": u_treated,
        "u_controls": np.einsum("j,jkl->jkl", u, laps),
        "unit_levels": u,
        "adjacency_laplacians": laps,
    }
    return _assemble(space, data, target, cfg, truth)


# ---------------------------------------------------------------------------
# SPD scenario


def _wishart(rng: np.random.Generator, n: int = 10, df: int = 12, scale: float = 0.1) -> np.ndarray:
    """Wishart draw via the Bartlett decomposition; resamples non-PD draws."""
    for _ in range(100):
        a = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx] = np.sqrt(rng.chisquare(df - idx))
        rows, cols = np.tril_indices(n, k=-1)
        a[rows, cols] = rng.standard_normal(rows.size)
        w = scale * (a @ a.T)
        if np.linalg.eigvalsh(w).min() > 1e-8:
            return w
    raise SpaceError("failed to draw a positive-definite Wishart matrix")


def gen_spd_panel(cfg: SimConfig) -> SimOutput:
    """SPD panel under the Log-Euclidean geodesic model.

    ``Y_{j,t}`` sits at parameter ``alpha_t`` on the geodesic from the
    common trend ``mu_t = 0.1 t mu`` to the unit level
    ``U_j = exp((0.1 j - 0.5)^2) U`` (units indexed from 2), with ``mu``
    and ``U`` drawn from a Wishart distribution with 12 degrees of freedom
    and scale ``0.1 I``. The schedule ``alpha_t = log(0.1 (t + 1))`` is
    not a geodesic parameter for small ``t`` (it is nonpositive up to
    ``t = 9``), so values are clamped to ``[0.01, 0.99]`` and the clamped
    periods are recorded in ``truth["alpha_clamped"]``.

    The treated unit's latent ``U_1`` is the ``w*``-combination of the
    control levels in the log chart, giving perfect pre-treatment fit.
    The scales are symmetric about control 4 (``j = 5``), so controls 3 and
    5 (from J = 5), 2 and 6, and 1 and 7 are equal up to the rounding of
    their scales (e.g. 0.09 against 0.09000000000000002): nearly singular QPs.
    """
    rng = np.random.default_rng(cfg.seed)
    n = 10
    space = spd_space(n, metric="log_euclidean")
    t_grid = np.arange(1, cfg.T + 1, dtype=float)
    alpha_raw = np.log(0.1 * (t_grid + 1.0))
    alpha = np.clip(alpha_raw, 0.01, 0.99)
    clamped = [int(t) for t, raw in zip(t_grid, alpha_raw) if raw < 0.01 or raw > 0.99]

    mu = _wishart(rng, n)
    u_base = _wishart(rng, n)
    log_mu = _logm_spd(mu)
    log_u = _logm_spd(u_base)
    eye = np.eye(n)
    scales = (0.1 * (np.arange(cfg.J) + 2) - 0.5) ** 2
    log_u_controls = np.stack([log_u + c * eye for c in scales])
    w_star = rng.dirichlet(np.ones(cfg.J))
    log_u_treated = np.einsum("j,jkl->kl", w_star, log_u_controls)

    log_levels = np.concatenate([log_u_treated[None], log_u_controls])
    log_trend = np.array([math.log(0.1 * t) for t in t_grid])[:, None, None] * eye + log_mu
    a4 = alpha[:, None, None]
    data = _eig_apply((1.0 - a4) * log_trend + a4 * log_levels[:, None], np.exp)
    u_levels = _eig_apply(log_levels, np.exp)
    truth = {
        "w_star": w_star,
        "alpha": alpha,
        "alpha_clamped": clamped,
        "mu": mu,
        "u_base": u_base,
        "u_controls": u_levels[1:],
        "u_treated": u_levels[0],
        "unit_scales": scales,
    }
    return _assemble(space, data, _wishart(rng, n), cfg, truth)


# ---------------------------------------------------------------------------
# sphere scenario


def _orthant_unit(rng: np.random.Generator, center: np.ndarray, spread: float) -> np.ndarray:
    """Random unit vector near ``center`` staying inside the open orthant."""
    for _ in range(1000):
        v = center + spread * rng.standard_normal(center.size)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            v = v / norm
            if v.min() > 0.02:
                return v
    raise SpaceError("failed to sample a positive-orthant unit vector")


def gen_sphere_panel(cfg: SimConfig) -> SimOutput:
    """Compositional (sphere) panel under the exponential-map model.

    Outcomes are ``Y_{j,t} = Exp_{mu_t}(a_t Log_{mu_t}(U_j))`` with
    contractions ``a_t`` drawn uniformly from (0.3, 0.9), time anchors
    ``mu_t`` and unit levels ``U_j`` drawn near a common direction in the
    positive orthant. ``U_1`` is placed at the intrinsic ``w*``-weighted
    mean of the control levels, so the weighted tangent average of the
    controls at ``U_1`` vanishes. Draws whose images would leave the
    orthant are rejected and resampled.
    """
    rng = np.random.default_rng(cfg.seed)
    d = 3
    space = sphere_space(d)
    center = np.ones(d) / math.sqrt(d)
    a = rng.uniform(0.3, 0.9, size=cfg.T)

    u_controls = np.stack([_orthant_unit(rng, center, 0.08) for _ in range(cfg.J)])
    w_star = rng.dirichlet(np.ones(cfg.J))
    u_treated = weighted_frechet_mean(
        [ObjectPoint(space, u_controls[j]) for j in range(cfg.J)], w_star
    ).data

    levels = np.vstack([u_treated, u_controls])
    mus = []
    rows_by_time = []
    for i in range(cfg.T):
        for _ in range(1000):
            mu = _orthant_unit(rng, center, 0.15)
            pts = _sphere_geodesic(mu, levels, a[i])
            if pts.min() > 0.0:
                mus.append(mu)
                rows_by_time.append(pts)
                break
        else:
            raise SpaceError("failed to keep sphere outcomes inside the positive orthant")

    target = _orthant_unit(rng, center, 0.15)
    truth = {
        "w_star": w_star,
        "alpha": a,
        "mu": np.stack(mus),
        "u_controls": u_controls,
        "u_treated": u_treated,
    }
    return _assemble(space, np.stack(rows_by_time, axis=1), target, cfg, truth)


# ---------------------------------------------------------------------------
# scalar scenario


def _assemble_scalar(
    values: np.ndarray,
    treated_values: np.ndarray,
    rng: np.random.Generator,
    cfg: SimConfig,
    truth: dict,
) -> SimOutput:
    """Pack a scalar panel: control ``values`` (J, T), the treated row, and
    an effect target drawn last from ``rng``, each value repeated over the
    scalar space's grid."""
    space = scalar_space()
    rows = np.concatenate([treated_values[None], values])
    data = np.repeat(rows[..., None], space.dim, axis=-1)
    target = np.full(space.dim, 8.0 + rng.normal(0.0, 0.5))
    return _assemble(space, data, target, cfg, truth)


def gen_scalar_panel(cfg: SimConfig) -> SimOutput:
    """Noisy scalar panel with a perfect-fit treated combination.

    Controls follow unit-specific linear trends plus Gaussian noise; the
    treated unit is the exact ``w*``-combination of the observed control
    values in every period, so classic synthetic control applies.
    """
    rng = np.random.default_rng(cfg.seed)
    t_frac = np.arange(1, cfg.T + 1, dtype=float) / cfg.T
    intercepts = rng.uniform(0.0, 2.0, size=cfg.J)
    slopes = rng.uniform(-1.0, 1.0, size=cfg.J)
    noise = rng.normal(0.0, 0.05, size=(cfg.J, cfg.T))
    values = intercepts[:, None] + slopes[:, None] * t_frac[None, :] + noise
    w_star = rng.dirichlet(np.ones(cfg.J))
    treated_values = w_star @ values
    truth = {
        "w_star": w_star,
        "intercepts": intercepts,
        "slopes": slopes,
        "noise_sd": 0.05,
        "values": values,
    }
    return _assemble_scalar(values, treated_values, rng, cfg, truth)


# ---------------------------------------------------------------------------
# robustness scenarios


def gen_robustness_panel(cfg: SimConfig) -> SimOutput:
    """Scalar panels isolating the two assumptions behind the DID variants.

    ``robustness_s2``: controls follow ``u_j f(t)`` with the convex trend
    ``f(t) = 1 + (t/T)^2`` and the treated unit is the exact
    ``w*``-combination ``(w* . u) f(t)``. Unit-weight fit is perfect, but
    period-to-period changes are proportional to ``u_j``, so parallel
    trends fail; the draw is rejected until the uniform-mean gap
    ``|w* . u - mean(u)|`` times the pre/post trend gap exceeds 0.3,
    guaranteeing a visibly biased uniform-weight DID baseline.

    ``robustness_s3``: additive two-way structure ``u_j + v_t``. Every
    time shift is common, so parallel trends hold for any weighting, but
    the treated level ``u_1 = max(u) + 0.5`` lies outside the convex hull
    of the controls and no unit weighting can fit it.
    """
    rng = np.random.default_rng(cfg.seed)
    t_grid = np.arange(1, cfg.T + 1, dtype=float)

    if cfg.scenario == "robustness_s2":
        trend = 1.0 + (t_grid / cfg.T) ** 2
        gap = trend[cfg.T0 :].mean() - trend[: cfg.T0].mean()
        for _ in range(1000):
            u = rng.uniform(0.0, 2.0, size=cfg.J)
            w_star = rng.dirichlet(np.full(cfg.J, 0.3))
            if abs(float(w_star @ u) - float(u.mean())) * gap >= 0.3:
                break
        else:
            raise SpaceError("failed to draw a visibly non-parallel configuration")
        u_treated = float(w_star @ u)
        values = u[:, None] * trend[None, :]
        treated_values = u_treated * trend
        truth = {
            "assumption": "S2",
            "w_star": w_star,
            "u": u,
            "u_treated": u_treated,
            "trend": trend,
        }
    else:
        u = rng.uniform(0.0, 1.0, size=cfg.J)
        v = rng.normal(0.0, 1.0, size=cfg.T)
        u_treated = float(u.max()) + 0.5
        values = u[:, None] + v[None, :]
        treated_values = u_treated + v
        truth = {
            "assumption": "S3",
            "w_star": None,
            "u": u,
            "u_treated": u_treated,
            "time_effects": v,
        }

    return _assemble_scalar(values, treated_values, rng, cfg, truth)

"""Acceptance gate: one test per shipping criterion, each printing a
single pass/fail line with the measured value and its pinned tolerance."""

import time

import numpy as np
from scipy import stats

import geosynth as g
from geosynth.spaces import _sphere_angle
from helpers import (
    all_spaces,
    flat_spaces,
    unit_weight_qp,
    random_point,
    record_criterion,
    scalar_panel,
)
from test_simplex_opt import lattice_minimum


def identification_error(scenario: str, cfg: g.SolverConfig | None = None):
    """Distance between the GSC synthetic and the stored counterfactual at
    the single post period, plus the wall time of simulate + fit."""
    start = time.perf_counter()
    out = g.generate(g.SimConfig(scenario=scenario))
    res = g.estimate_gsc(out.panel, cfg or g.SolverConfig())
    elapsed = time.perf_counter() - start
    err = g.distance(res.synthetic[19], g.oracle_counterfactual(out, 20))
    return err, elapsed


def test_criterion_01_network_identification():
    err, elapsed = identification_error("network")
    ok = err <= 1e-6 and elapsed <= 10.0
    record_criterion(
        1, "network identification", ok,
        f"post-period error {err:.3e} (tol 1e-6), {elapsed:.1f}s (budget 10s)",
    )
    assert ok


def test_criterion_02_spd_identification():
    err, elapsed = identification_error("spd")
    ok = err <= 1e-6 and elapsed <= 10.0
    record_criterion(
        2, "spd log-euclidean identification", ok,
        f"post-period error {err:.3e} (tol 1e-6), {elapsed:.1f}s (budget 10s)",
    )
    assert ok


def test_criterion_03_sphere_identification():
    err, elapsed = identification_error("sphere", g.SolverConfig(restarts=8))
    ok = err <= 1e-4 and elapsed <= 60.0
    record_criterion(
        3, "sphere identification", ok,
        f"post-period error {err:.3e} (tol 1e-4), {elapsed:.1f}s (budget 60s)",
    )
    assert ok


def test_criterion_04_euclidean_reductions():
    rng = np.random.default_rng(0)
    worst_gap = -np.inf
    worst_sdid = 0.0
    for _ in range(20):
        values = rng.normal(size=(4, 8))
        panel = scalar_panel(values, T0=6)
        qp = unit_weight_qp(panel)
        res = g.estimate_gsc(panel)
        worst_gap = max(worst_gap, qp.objective(res.weights.values) - lattice_minimum(qp))
        did = g.estimate_gsdid(panel)
        lam, w, y = did.time_weights.values, did.unit_weights.values, values
        closed = lam @ y[0, :6] + (w @ y[1:, 6:].mean(axis=1) - w @ (y[1:, :6] @ lam))
        worst_sdid = max(worst_sdid, abs(did.synthetic.data[0] - closed))
    ok = worst_gap <= 1e-6 and worst_sdid <= 1e-10
    record_criterion(
        4, "euclidean reductions", ok,
        f"max objective gap to lattice {worst_gap:.3e} (tol 1e-6), "
        f"max closed-formula gap {worst_sdid:.3e} (tol 1e-10), 20 panels",
    )
    assert ok


def test_criterion_05_geometry_properties():
    rng = np.random.default_rng(1)
    worst_axiom = 0.0
    worst_transport = 0.0
    for space in all_spaces():
        for _ in range(200):
            a = random_point(space, rng)
            b = random_point(space, rng)
            d = g.distance(a, b)
            s, t = sorted(rng.uniform(0.0, 1.0, size=2))
            seg = g.distance(g.geodesic_eval(a, b, s), g.geodesic_eval(a, b, t))
            worst_axiom = max(worst_axiom, abs(seg - (t - s) * d) / (1.0 + d))
            moved = g.transport(a, b, a)
            worst_transport = max(worst_transport, g.distance(moved, b) / (1.0 + d))
    ok = worst_axiom <= 1e-9 and worst_transport <= 1e-9
    record_criterion(
        5, "geodesic and transport properties", ok,
        f"max scaled axiom gap {worst_axiom:.3e}, max scaled endpoint gap "
        f"{worst_transport:.3e} (tol 1e-9), 200 draws x 8 spaces",
    )
    assert ok


def test_criterion_06_scaling_identities():
    rng = np.random.default_rng(2)
    worst = 0.0
    for space in flat_spaces():
        mu = random_point(space, rng)
        u1 = random_point(space, rng)
        levels = [random_point(space, rng) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        uw = g.weighted_frechet_mean(levels, w)
        gap = g.distance(u1, uw)
        for alpha in (0.15, 0.5, 0.85, float(rng.uniform(0.1, 0.9))):
            lhs = g.distance(
                g.geodesic_eval(mu, u1, alpha), g.geodesic_eval(mu, uw, alpha)
            )
            worst = max(worst, abs(lhs - alpha * gap) / max(alpha * gap, 1e-12))
    ok = worst <= 1e-8
    record_criterion(
        6, "geodesic scaling identities", ok,
        f"max relative gap {worst:.3e} (tol 1e-8), 7 flat space kinds",
    )
    assert ok


def test_criterion_07_double_robustness():
    s2 = g.generate(g.SimConfig(scenario="robustness_s2"))
    s2_gsdid = g.estimate_gsdid(s2.panel).effect.length
    s2_gdid = g.estimate_gdid(s2.panel).effect.length
    s3 = g.generate(g.SimConfig(scenario="robustness_s3"))
    s3_gsdid = g.estimate_gsdid(s3.panel).effect.length
    s3_gsc = max(e.length for e in g.estimate_gsc(s3.panel).effects)
    ok = s2_gsdid <= 1e-6 and s2_gdid > 0.1 and s3_gsdid <= 1e-6 and s3_gsc > 0.1
    record_criterion(
        7, "double robustness", ok,
        f"nonparallel trends: gsdid {s2_gsdid:.3e} (tol 1e-6) vs uniform did "
        f"{s2_gdid:.3f} (>0.1); off-hull level: gsdid {s3_gsdid:.3e} (tol 1e-6) "
        f"vs gsc {s3_gsc:.3f} (>0.1)",
    )
    assert ok


def test_criterion_08_augmented_gsc():
    rng = np.random.default_rng(9)
    space = g.l2function_space(np.linspace(0.0, 1.0, 9))
    J, T, T0 = 6, 8, 6
    zc = rng.uniform(0.0, 1.0, size=J)
    z1 = 3.0
    a = rng.normal(size=(T, 9))
    b = rng.normal(size=(T, 9))
    outcomes = [tuple(g.ObjectPoint(space, a[t] + b[t] * z1) for t in range(T))]
    for j in range(J):
        outcomes.append(tuple(g.ObjectPoint(space, a[t] + b[t] * zc[j]) for t in range(T)))
    panel = g.Panel(space=space, outcomes=tuple(outcomes), T0=T0)
    covs = np.concatenate([[z1], zc])
    gsc_err = min(e.length for e in g.estimate_gsc(panel).effects)
    agsc_err = max(e.length for e in g.estimate_augmented_gsc(panel, covs).effects)

    values = rng.normal(size=(4, 6))
    spanel = scalar_panel(values, T0=4)
    scovs = rng.normal(size=(4, 2))
    sres = g.estimate_augmented_gsc(spanel, scovs)
    w = sres.weights.values
    zctl = scovs[1:]
    zbar = zctl.mean(axis=0)
    prec = np.linalg.inv((zctl - zbar).T @ (zctl - zbar) / 3)

    def mhat(x, t):
        s = 1.0 + (zctl - zbar) @ (prec @ (x - zbar))
        return float(s / 3 @ values[1:, t])

    formula_gap = max(
        abs(
            sres.synthetic[t].data[0]
            - mhat(scovs[0], t)
            - float(w @ (values[1:, t] - np.array([mhat(z, t) for z in zctl])))
        )
        for t in range(4, 6)
    )
    ok = agsc_err <= 1e-8 and gsc_err > 0.1 and formula_gap <= 1e-10
    record_criterion(
        8, "augmented gsc", ok,
        f"off-hull covariate design: agsc error {agsc_err:.3e} (tol 1e-8) vs gsc "
        f"{gsc_err:.3f} (>0.1); scalar regression formula gap {formula_gap:.3e} "
        f"(tol 1e-10)",
    )
    assert ok


def test_criterion_09_placebo_arithmetic():
    out = g.generate(g.SimConfig(scenario="scalar", J=19, effect_size=1.0, seed=3))
    panel = out.panel
    reports = g.placebo_test(panel, "gsc")
    p = reports[0].p_value
    rng = np.random.default_rng(4)
    perm = np.concatenate([[0], 1 + rng.permutation(19)])
    shuffled = g.Panel(
        space=panel.space,
        outcomes=tuple(panel.outcomes[j] for j in perm),
        T0=panel.T0,
    )
    p_perm = g.placebo_test(shuffled, "gsc")[0].p_value
    ok = p == 0.05 and p_perm == p
    record_criterion(
        9, "placebo rank arithmetic", ok,
        f"p-value {p!r} with 19 controls (expect exactly 0.05), "
        f"relabeled p-value {p_perm!r}",
    )
    assert ok


def _sphere_grid_minimum(points, weights):
    """Brute-force Frechet minimizer on the 2-sphere by zooming grid search."""
    center = np.array([np.pi / 4, np.pi / 2])
    span = np.array([2.0 * np.pi, np.pi])
    best = None
    for _ in range(5):
        phi = np.linspace(center[0] - span[0] / 2, center[0] + span[0] / 2, 241)
        psi = np.linspace(center[1] - span[1] / 2, center[1] + span[1] / 2, 241)
        pp, ss = np.meshgrid(phi, psi, indexing="ij")
        grid = np.stack(
            [np.sin(ss) * np.cos(pp), np.sin(ss) * np.sin(pp), np.cos(ss)], axis=-1
        )
        objective = sum(
            w * _sphere_angle(grid, p.data) ** 2 for w, p in zip(weights, points)
        )
        idx = np.unravel_index(np.argmin(objective), objective.shape)
        center = np.array([pp[idx], ss[idx]])
        best = grid[idx]
        span = span * (4.0 / 240.0)
    return best / np.linalg.norm(best)


def test_criterion_10_frechet_mean_oracles():
    sphere = g.sphere_space(3)
    e1 = g.ObjectPoint(sphere, np.array([1.0, 0.0, 0.0]))
    e2 = g.ObjectPoint(sphere, np.array([0.0, 1.0, 0.0]))
    mean = g.weighted_frechet_mean([e1, e2], np.array([0.5, 0.5]))
    brute = g.ObjectPoint(sphere, _sphere_grid_minimum([e1, e2], [0.5, 0.5]))
    sphere_gap = g.distance(mean, brute)

    levels = np.arange(1, 102) / 102.0
    wspace = g.wasserstein_space(101, grid=levels)
    q0 = g.ObjectPoint(wspace, stats.norm.ppf(levels, loc=0.0, scale=1.0))
    q2 = g.ObjectPoint(wspace, stats.norm.ppf(levels, loc=2.0, scale=1.0))
    wmean = g.weighted_frechet_mean([q0, q2], np.array([0.5, 0.5]))
    w_gap = float(np.abs(wmean.data - stats.norm.ppf(levels, loc=1.0, scale=1.0)).max())
    ok = sphere_gap <= 1e-6 and w_gap <= 1e-3
    record_criterion(
        10, "frechet mean oracles", ok,
        f"sphere mean vs zoomed grid search {sphere_gap:.3e} (tol 1e-6); "
        f"gaussian quantile mean vs shifted gaussian {w_gap:.3e} (tol 1e-3)",
    )
    assert ok

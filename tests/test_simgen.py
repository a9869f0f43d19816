"""Unit tests for the simulation scenario generators and their oracles."""

import dataclasses
import math

import numpy as np
import pytest

import geosynth as g
from geosynth import simgen, spaces
from geosynth.simgen import network_edge_weight


def panels_equal(a, b):
    if a.T0 != b.T0 or a.space != b.space:
        return False
    for row_a, row_b in zip(a.outcomes, b.outcomes):
        for pa, pb in zip(row_a, row_b):
            if not np.array_equal(pa.data, pb.data):
                return False
    return True


def max_pre_fit_gap(out):
    panel = out.panel
    w = out.truth["w_star"]
    gaps = []
    for t in panel.pre_periods():
        controls = [panel.outcomes[j][t] for j in range(1, panel.n_units)]
        mean = g.weighted_frechet_mean(controls, w)
        gaps.append(g.distance(panel.outcomes[0][t], mean))
    return max(gaps)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(g.SpaceError, match="scenario"):
        g.SimConfig(scenario="volcano")
    with pytest.raises(g.SpaceError, match="T0"):
        g.SimConfig(scenario="scalar", T=5, T0=5)
    with pytest.raises(g.SpaceError, match="control units"):
        g.SimConfig(scenario="scalar", J=1)
    with pytest.raises(g.SpaceError, match="effect_size"):
        g.SimConfig(scenario="scalar", effect_size=1.5)
    with pytest.raises(g.SpaceError, match="effect_size"):
        g.SimConfig(scenario="scalar", effect_size=-0.1)


@pytest.mark.parametrize(
    "fields",
    [dict(T=5.5, T0=3), dict(T=6, T0=3.0), dict(J=3.0), dict(J=True), dict(seed=1.5)],
    ids=["T", "T0", "J", "J-bool", "seed"],
)
def test_config_requires_integer_sizes_and_seed(fields):
    with pytest.raises(g.SpaceError, match="must be an integer"):
        g.SimConfig(scenario="scalar", **fields)


def test_config_requires_nonnegative_seed():
    with pytest.raises(g.SpaceError, match="seed must be nonnegative"):
        g.SimConfig(scenario="scalar", seed=-1)
    cfg = g.SimConfig(scenario="scalar", T=np.int64(4), T0=np.int64(3), J=np.int64(3))
    assert type(cfg.T) is type(cfg.T0) is type(cfg.J) is int


def test_generate_is_reproducible():
    cfg = g.SimConfig(scenario="scalar", T=8, T0=6, J=5, seed=42, effect_size=0.3)
    out1 = g.generate(cfg)
    out2 = g.generate(cfg)
    assert panels_equal(out1.panel, out2.panel)
    assert np.array_equal(out1.truth["w_star"], out2.truth["w_star"])
    assert not panels_equal(out1.panel, g.generate(g.SimConfig(scenario="scalar", T=8, T0=6, J=5, seed=43, effect_size=0.3)).panel)


def test_panel_dimensions_follow_config():
    cfg = g.SimConfig(scenario="spd", T=6, T0=4, J=3, seed=1)
    out = g.generate(cfg)
    assert out.panel.n_units == 4
    assert out.panel.n_periods == 6
    assert out.panel.T0 == 4
    assert len(out.counterfactual) == 2


# ---------------------------------------------------------------------------
# treatment displacement and oracle


@pytest.mark.parametrize("scenario", ["network", "spd", "sphere", "scalar"])
def test_zero_effect_leaves_treated_untouched(scenario):
    T = 6 if scenario == "sphere" else 10
    cfg = g.SimConfig(scenario=scenario, T=T, T0=T - 2, J=4, seed=3, effect_size=0.0)
    out = g.generate(cfg)
    for i, t in enumerate(out.panel.post_periods()):
        assert np.array_equal(out.panel.outcomes[0][t].data, out.counterfactual[i].data)


@pytest.mark.parametrize("scenario", ["spd", "scalar"])
def test_effect_size_is_a_geodesic_fraction(scenario):
    cfg = g.SimConfig(scenario=scenario, T=8, T0=6, J=4, seed=4, effect_size=0.4)
    out = g.generate(cfg)
    target = g.ObjectPoint(out.panel.space, out.truth["effect_target"])
    for i, t in enumerate(out.panel.post_periods()):
        natural = out.counterfactual[i]
        observed = out.panel.outcomes[0][t]
        full = g.distance(natural, target)
        assert g.distance(natural, observed) == pytest.approx(0.4 * full, rel=1e-9)


@pytest.mark.parametrize("scenario", g.SCENARIOS)
@pytest.mark.parametrize("effect", [0.0, 0.3, 1.0])
def test_displacement_is_the_geodesic_of_each_post_point(scenario, effect):
    cfg = g.SimConfig(scenario=scenario, T=6, T0=4, J=5, seed=2, effect_size=effect)
    out = g.generate(cfg)
    untreated = g.generate(dataclasses.replace(cfg, effect_size=0.0)).panel
    target = g.ObjectPoint(out.panel.space, out.truth["effect_target"])
    assert np.array_equal(out.panel.data[:, : cfg.T0], untreated.data[:, : cfg.T0])
    assert np.array_equal(out.panel.data[1:], untreated.data[1:])
    for i, t in enumerate(out.panel.post_periods()):
        # the geodesic written out for one point
        a = out.counterfactual[i]
        if effect in (0.0, 1.0):
            expected = (a, target)[int(effect)].data
        elif scenario == "sphere":
            expected = spaces._sphere_geodesic(a.data, target.data, effect)
        else:
            combo = (1.0 - effect) * g.metric_embed(a) + effect * g.metric_embed(target)
            expected = g.metric_restore(combo, a.space).data
        assert np.array_equal(out.panel.data[0, t], expected)
        assert np.array_equal(expected, g.geodesic_eval(a, target, effect).data)


def test_oracle_counterfactual_indexing():
    cfg = g.SimConfig(scenario="scalar", T=7, T0=5, J=3, seed=5, effect_size=0.8)
    out = g.generate(cfg)
    with pytest.raises(g.SpaceError, match="periods 6..7"):
        g.oracle_counterfactual(out, 5)
    with pytest.raises(g.SpaceError):
        g.oracle_counterfactual(out, 8)
    assert np.array_equal(g.oracle_counterfactual(out, 6).data, out.counterfactual[0].data)
    assert np.array_equal(g.oracle_counterfactual(out, 7).data, out.counterfactual[1].data)


@pytest.mark.parametrize("scenario", ["network", "spd"])
def test_oracle_matches_untreated_rerun(scenario):
    treated_cfg = g.SimConfig(scenario=scenario, T=8, T0=6, J=4, seed=6, effect_size=0.7)
    clean_cfg = g.SimConfig(scenario=scenario, T=8, T0=6, J=4, seed=6, effect_size=0.0)
    treated_out = g.generate(treated_cfg)
    clean_out = g.generate(clean_cfg)
    for t in (7, 8):
        oracle = g.oracle_counterfactual(treated_out, t)
        clean = clean_out.panel.outcomes[0][t - 1]
        assert g.distance(oracle, clean) <= 1e-12


# ---------------------------------------------------------------------------
# network scenario


def test_network_edge_weight_examples():
    assert network_edge_weight(0, 5) == 0.0
    # decay leaves only the unit level as t grows
    assert network_edge_weight(200.0, 9.0) == pytest.approx(
        math.sin(0.1 * math.pi * 200.0), abs=1e-8
    )
    s = math.sin(0.1 * math.pi * 3.0)
    expected = s + math.exp(-0.3) * ((0.2 - 0.5) ** 2 - s)
    assert network_edge_weight(3.0, 2.0) == pytest.approx(expected, rel=1e-12)


def test_network_panel_points_are_laplacians():
    out = g.generate(g.SimConfig(scenario="network", T=6, T0=5, J=4, seed=7))
    space = out.panel.space
    assert space.kind == "laplacian"
    for row in out.panel.outcomes:
        for p in row:
            assert g.validate_point(p) is None
            assert np.abs(p.data.sum(axis=1)).max() <= 1e-8
            off = p.data[~np.eye(10, dtype=bool)]
            assert off.max() <= 1e-12


def test_network_treated_is_exact_weight_combination():
    out = g.generate(g.SimConfig(scenario="network", T=8, T0=6, J=5, seed=8))
    assert max_pre_fit_gap(out) <= 1e-10


def assert_panel_matches_reference(out, cfg, controls, natural):
    """Bit-identity of a generated panel with reference outcomes written
    out per point: ``controls[j][i]`` and the treated ``natural[i]``, the
    post periods displaced toward the effect target by the effect size."""
    space = out.panel.space
    for j in range(cfg.J):
        for i in range(cfg.T):
            assert np.array_equal(out.panel.outcomes[j + 1][i].data, controls[j][i])
    target = g.ObjectPoint(space, out.truth["effect_target"])
    for i in range(cfg.T):
        if i < cfg.T0:
            expected = natural[i]
        else:
            assert np.array_equal(out.counterfactual[i - cfg.T0].data, natural[i])
            point = g.ObjectPoint(space, natural[i])
            expected = g.geodesic_eval(point, target, cfg.effect_size).data
        assert np.array_equal(out.panel.outcomes[0][i].data, expected)


def test_network_panel_matches_reference_formulas():
    # the docstring's edge weights, written out per point: the panel must
    # be bit-identical to these formulas applied to its truth
    cfg = g.SimConfig(scenario="network", T=7, T0=5, J=6, seed=13, effect_size=0.5)
    out = g.generate(cfg)
    truth = out.truth
    laps, u, a, s = (truth[k] for k in ("adjacency_laplacians", "unit_levels", "alpha", "trend"))
    controls = [
        [((1.0 - a[i]) * s[i] + a[i] * u[j]) * laps[j] for i in range(cfg.T)]
        for j in range(cfg.J)
    ]
    mix = np.einsum("j,jkl->kl", truth["w_star"], laps)
    u_treated = np.einsum("j,jkl->kl", truth["w_star"] * u, laps)
    assert np.array_equal(truth["u_treated"], u_treated)
    natural = [(1.0 - a[i]) * (s[i] * mix) + a[i] * u_treated for i in range(cfg.T)]
    assert_panel_matches_reference(out, cfg, controls, natural)


# ---------------------------------------------------------------------------
# SPD scenario


def test_spd_panel_is_positive_definite():
    out = g.generate(g.SimConfig(scenario="spd", T=6, T0=5, J=4, seed=9))
    assert out.panel.space.kind == "spd_log_euclidean"
    for row in out.panel.outcomes:
        for p in row:
            assert np.linalg.eigvalsh(p.data).min() > 0.0


@pytest.mark.parametrize("J", [60, 100])
def test_spd_panels_of_many_donors_generate_and_fit(J):
    """The SPD entries grow with J (to about 1e30 at J=100); the symmetry
    check scales with them, so these panels validate and both estimators
    fit."""
    for seed in range(3):
        panel = g.generate(g.SimConfig(scenario="spd", J=J, seed=seed)).panel
        assert panel.n_controls == J
        assert np.isfinite(g.estimate_gsc(panel).pre_fit_rmse)
        assert np.isfinite(g.estimate_gsdid(panel).effect.length)


def test_spd_geodesic_schedule():
    out = g.generate(g.SimConfig(scenario="spd", seed=10))
    alpha = out.truth["alpha"]
    assert alpha[18] == math.log(2.0)
    assert out.truth["alpha_clamped"] == list(range(1, 10))
    assert np.all(alpha[:9] == 0.01)
    assert np.all(alpha >= 0.01) and np.all(alpha <= 0.99)


def test_spd_treated_is_exact_weight_combination():
    out = g.generate(g.SimConfig(scenario="spd", T=8, T0=6, J=5, seed=11))
    assert max_pre_fit_gap(out) <= 1e-8


def test_spd_panel_matches_reference_eigen_formulas():
    # the generator's matrix logarithm and exponential, written out: the
    # panel must be bit-identical to these formulas applied to its truth
    def logm(x):
        vals, vecs = np.linalg.eigh((x + x.T) / 2.0)
        return (vecs * np.log(vals)) @ vecs.T

    def expm(x):
        vals, vecs = np.linalg.eigh((x + x.T) / 2.0)
        return (vecs * np.exp(vals)) @ vecs.T

    cfg = g.SimConfig(scenario="spd", T=7, T0=5, J=6, seed=13)
    out = g.generate(cfg)
    truth = out.truth
    eye = np.eye(10)
    log_mu = logm(truth["mu"])
    log_controls = np.stack([logm(truth["u_base"]) + c * eye for c in truth["unit_scales"]])
    log_treated = np.einsum("j,jkl->kl", truth["w_star"], log_controls)

    def point(log_level, i):
        alpha = truth["alpha"][i]
        log_trend = math.log(0.1 * (i + 1)) * eye + log_mu
        return expm((1.0 - alpha) * log_trend + alpha * log_level)

    for j in range(cfg.J):
        for i in range(cfg.T):
            assert np.array_equal(out.panel.outcomes[j + 1][i].data, point(log_controls[j], i))
    natural = [point(log_treated, i) for i in range(cfg.T)]
    for i in range(cfg.T0):
        assert np.array_equal(out.panel.outcomes[0][i].data, natural[i])
    for i in range(cfg.T0, cfg.T):
        assert np.array_equal(out.counterfactual[i - cfg.T0].data, natural[i])
    assert np.array_equal(truth["u_controls"], np.stack([expm(c) for c in log_controls]))
    assert np.array_equal(truth["u_treated"], expm(log_treated))


def test_spd_generate_applies_eigen_functions_in_batches(monkeypatch):
    # the panel's (J+1) x T charts go through one batched exponential, so a
    # default-size panel makes a handful of calls rather than one per point
    calls = []
    apply = spaces._eig_apply

    def counted(*args, **kwargs):
        calls.append(1)
        return apply(*args, **kwargs)

    monkeypatch.setattr(simgen, "_eig_apply", counted)
    monkeypatch.setattr(spaces, "_eig_apply", counted)
    g.generate(g.SimConfig(scenario="spd", J=20, T=20, effect_size=0.5))
    assert 0 < len(calls) <= 10


# ---------------------------------------------------------------------------
# sphere scenario


def test_sphere_panel_stays_in_positive_orthant():
    out = g.generate(g.SimConfig(scenario="sphere", T=5, T0=4, J=6, seed=12))
    assert out.panel.space.kind == "sphere"
    for row in out.panel.outcomes:
        for p in row:
            assert np.linalg.norm(p.data) == pytest.approx(1.0, abs=1e-12)
            assert p.data.min() > 0.0


def test_sphere_treated_level_is_stationary_mean():
    out = g.generate(g.SimConfig(scenario="sphere", T=5, T0=4, J=6, seed=13))
    space = out.panel.space
    u1 = g.ObjectPoint(space, out.truth["u_treated"])
    w = out.truth["w_star"]
    logs = [
        g.sphere_log(u1, g.ObjectPoint(space, uj)).vector
        for uj in out.truth["u_controls"]
    ]
    assert np.linalg.norm(np.einsum("j,jd->d", w, np.stack(logs))) <= 1e-8


# ---------------------------------------------------------------------------
# scalar and robustness scenarios


def test_scalar_treated_is_exact_weight_combination():
    out = g.generate(g.SimConfig(scenario="scalar", T=10, T0=8, J=5, seed=14))
    assert max_pre_fit_gap(out) <= 1e-12
    vals = out.truth["values"]
    assert vals.shape == (5, 10)
    for j in range(5):
        assert out.panel.outcomes[j + 1][3].data[0] == vals[j, 3]


def test_scalar_panel_matches_reference_formulas():
    # each value repeated over the scalar grid, the treated value the
    # w*-combination of the controls, written out per point
    cfg = g.SimConfig(scenario="scalar", T=7, T0=5, J=6, seed=13, effect_size=0.5)
    out = g.generate(cfg)
    values, w_star = out.truth["values"], out.truth["w_star"]
    dim = out.panel.space.dim
    controls = [[np.full(dim, float(v)) for v in row] for row in values]
    natural = [np.full(dim, float(v)) for v in w_star @ values]
    assert_panel_matches_reference(out, cfg, controls, natural)


def test_robustness_s2_breaks_parallel_trends_only():
    out = g.generate(g.SimConfig(scenario="robustness_s2", T=10, T0=8, J=6, seed=15))
    assert out.truth["assumption"] == "S2"
    assert max_pre_fit_gap(out) <= 1e-12
    u, w, trend = out.truth["u"], out.truth["w_star"], out.truth["trend"]
    gap = trend[8:].mean() - trend[:8].mean()
    assert abs(float(w @ u) - float(u.mean())) * gap >= 0.3


@pytest.mark.parametrize(
    ("J", "T0", "seeds"), [(100, 19, 5), (300, 19, 5), (30, 1, 10), (40, 1, 10)]
)
def test_robustness_s2_builds_at_many_donors(J, T0, seeds):
    """From J = 50 or so a Dirichlet(0.3) mix of the controls concentrates
    near their mean and 1000 draws can all fail; the generator then mixes
    only controls far enough above it, and the guarantee holds: simplex
    weights, a perfect unit fit and a uniform-weight DID biased by at least
    0.3. At T0 = 1 the bar is so high that some draws have no such control,
    and the generator raises."""
    raised = 0
    for seed in range(seeds):
        try:
            out = g.generate(g.SimConfig(scenario="robustness_s2", J=J, T0=T0, seed=seed))
        except g.SpaceError as exc:
            assert str(exc) == "failed to draw a visibly non-parallel configuration"
            raised += 1
            continue
        u, w, trend = out.truth["u"], out.truth["w_star"], out.truth["trend"]
        gap = trend[T0:].mean() - trend[:T0].mean()
        assert abs(float(w @ u) - float(u.mean())) * gap >= 0.3
        assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)
        assert max_pre_fit_gap(out) <= 1e-12
        assert g.estimate_gdid(out.panel).effect.length >= 0.3 - 1e-12
    assert raised == 0 if T0 > 1 else 0 < raised < seeds


def test_robustness_s3_puts_treated_outside_hull():
    out = g.generate(g.SimConfig(scenario="robustness_s3", T=10, T0=8, J=6, seed=16))
    assert out.truth["assumption"] == "S3"
    assert out.truth["w_star"] is None
    u, u1, v = out.truth["u"], out.truth["u_treated"], out.truth["time_effects"]
    assert u1 == u.max() + 0.5
    assert out.panel.outcomes[0][2].data[0] == pytest.approx(u1 + v[2], abs=1e-12)
    # no simplex weighting can close the level gap
    res = g.estimate_gsc(out.panel)
    assert res.pre_fit_rmse >= 0.5 - 1e-9
    # but shifts are common across units, so time differences match exactly
    y = np.array([[p.data[0] for p in row] for row in out.panel.outcomes])
    diffs = np.diff(y, axis=1)
    assert np.abs(diffs - diffs[0]).max() <= 1e-12

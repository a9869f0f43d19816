"""Unit tests for the GSC, augmented GSC, and GSDID estimators and the
placebo permutation test."""

import numpy as np
import pytest

import geosynth as g
from geosynth import estimators
from geosynth.estimators import (
    _solve_time_weights,
    _sphere_linearization,
    _sphere_unit_linearization,
    fit_global_frechet_regression,
    predict_frechet_regression,
)
from geosynth.simplex_opt import SolverError, kkt_residual
from helpers import all_spaces, panel_from_arrays, random_point, scalar_panel


def make_flat_panel(rng, space, J=4, T=7, T0=5):
    data = np.stack(
        [np.stack([random_point(space, rng).data for _ in range(T)]) for _ in range(J + 1)]
    )
    outcomes = tuple(
        tuple(g.ObjectPoint(space, data[j, t]) for t in range(T)) for j in range(J + 1)
    )
    return g.Panel(space=space, outcomes=outcomes, T0=T0)


# ---------------------------------------------------------------------------
# panel container


def test_panel_validation_names_unit_and_time():
    space = g.wasserstein_space(4, grid=[0.2, 0.4, 0.6, 0.8])
    good = g.ObjectPoint(space, np.array([0.0, 1.0, 2.0, 3.0]))
    bad = g.ObjectPoint(space, np.array([0.0, 2.0, 1.0, 3.0]))
    with pytest.raises(g.SpaceError, match=r"unit 1.*time 2|1.*2"):
        g.Panel(space=space, outcomes=((good, good, good), (good, good, bad)), T0=2)


def test_panel_rejects_bad_cutoff_and_shapes():
    space = g.l2function_space([0.0, 1.0])
    p = g.ObjectPoint(space, np.zeros(2))
    with pytest.raises(g.SpaceError):
        g.Panel(space=space, outcomes=((p, p), (p, p)), T0=2)
    with pytest.raises(g.SpaceError):
        g.Panel(space=space, outcomes=((p, p), (p,)), T0=1)
    with pytest.raises(g.SpaceError):
        g.Panel(space=space, outcomes=((p, p),), T0=1)


def test_panel_default_labels_and_views():
    space = g.l2function_space([0.0, 1.0])
    p = g.ObjectPoint(space, np.zeros(2))
    panel = g.Panel(space=space, outcomes=tuple((p, p, p) for _ in range(3)), T0=2)
    assert panel.unit_labels == ("treated", "control_1", "control_2")
    assert panel.time_labels == ("t1", "t2", "t3")
    assert list(panel.pre_periods()) == [0, 1]
    assert list(panel.post_periods()) == [2]
    swapped = panel.with_treated_unit(2)
    assert swapped.unit_labels[0] == "control_2"


@pytest.mark.parametrize("space", all_spaces(3), ids=lambda s: s.kind)
def test_panel_coords_are_embedded_once_and_permuted_by_placebo_refits(space, monkeypatch):
    panel = make_flat_panel(np.random.default_rng(5), space, J=3, T=4, T0=2)
    coords = panel.coords
    assert coords is panel.coords and not coords.flags.writeable
    for j, row in enumerate(panel.outcomes):
        for t, point in enumerate(row):
            expected = point.data if space.kind == "sphere" else g.metric_embed(point)
            assert np.array_equal(coords[j, t], expected)

    builds = []
    post_init = estimators.Panel.__post_init__
    monkeypatch.setattr(
        estimators.Panel, "__post_init__", lambda self: builds.append(self) or post_init(self)
    )
    swapped = panel.with_treated_unit(2)
    assert builds == []
    order = [2, 0, 1, 3]
    fresh = g.Panel(space=space, outcomes=tuple(panel.outcomes[i] for i in order), T0=2)
    assert len(builds) == 1
    assert swapped.outcomes == fresh.outcomes
    assert swapped.unit_labels == tuple(panel.unit_labels[i] for i in order)
    assert np.array_equal(swapped.coords, fresh.coords)
    assert not swapped.coords.flags.writeable


# ---------------------------------------------------------------------------
# geodesic synthetic control


def test_gsc_perfect_fit_control_recovered():
    rng = np.random.default_rng(0)
    space = g.l2function_space(np.linspace(0.0, 1.0, 6))
    J, T, T0 = 4, 7, 5
    data = rng.normal(size=(J, T, 6))
    rows = [[g.ObjectPoint(space, data[j, t]) for t in range(T)] for j in range(J)]
    treated = [rows[2][t] for t in range(T0)] + [
        g.ObjectPoint(space, data[2, t] + 1.0) for t in range(T0, T)
    ]
    panel = g.Panel(
        space=space,
        outcomes=tuple([tuple(treated)] + [tuple(r) for r in rows]),
        T0=T0,
    )
    res = g.estimate_gsc(panel)
    expect = np.zeros(J)
    expect[2] = 1.0
    assert np.abs(res.weights.values - expect).max() <= 1e-7
    assert res.pre_fit_rmse <= 1e-8
    for t in range(T0, T):
        assert g.distance(res.synthetic[t], rows[2][t]) <= 1e-7
    for effect, t in zip(res.effects, range(T0, T)):
        assert effect.length == pytest.approx(1.0, abs=1e-6)
        assert np.array_equal(effect.end.data, panel.outcomes[0][t].data)


def test_gsc_result_structure():
    rng = np.random.default_rng(1)
    panel = make_flat_panel(rng, g.spd_space(3, "log_euclidean"))
    res = g.estimate_gsc(panel)
    assert len(res.synthetic) == panel.n_periods
    assert len(res.effects) == panel.n_periods - panel.T0
    sq = [g.distance(panel.outcomes[0][t], res.synthetic[t]) ** 2 for t in panel.pre_periods()]
    assert res.pre_fit_rmse == pytest.approx(float(np.sqrt(np.mean(sq))), rel=1e-12)
    assert res.augmentation is None


@pytest.mark.parametrize("space", all_spaces(3), ids=lambda s: s.kind)
def test_gsc_lengths_and_fit_equal_point_distances(space):
    rng = np.random.default_rng(9)
    panel = make_flat_panel(rng, space, J=4, T=6, T0=4)
    treated = panel.outcomes[0]
    results = [g.estimate_gsc(panel)]
    if space.kind in ("spd_log_euclidean", "spd_log_cholesky", "wasserstein1d", "l2function"):
        # kinds whose chart has no cone that the regression correction could leave
        results.append(g.estimate_augmented_gsc(panel, rng.normal(size=(panel.n_units, 2))))
    for res in results:
        sq = [g.distance(treated[t], res.synthetic[t]) ** 2 for t in panel.pre_periods()]
        assert res.pre_fit_rmse == float(np.sqrt(np.mean(sq)))
        assert [e.length for e in res.effects] == [
            g.distance(res.synthetic[t], treated[t]) for t in panel.post_periods()
        ]
        assert [e.end for e in res.effects] == list(treated[panel.T0 :])


def test_invalid_synthetic_point_names_its_period(monkeypatch):
    panel = make_flat_panel(np.random.default_rng(2), g.spd_space(3), J=3, T=5, T0=3)
    restore = estimators.metric_restore_stack

    def negate_period_3(space, vecs, **kwargs):
        data = restore(space, vecs, **kwargs)
        data[3] = -data[3]
        return data

    monkeypatch.setattr(estimators, "metric_restore_stack", negate_period_3)
    with pytest.raises(
        g.SpaceError, match=r"synthetic outcome \(time 3\) is invalid: spd_frobenius: minimum"
    ):
        g.estimate_gsc(panel)


def test_gsc_scalar_reduction_matches_lattice():
    from test_simplex_opt import lattice_minimum
    from helpers import pre_qp_blocks

    rng = np.random.default_rng(2)
    values = rng.normal(size=(4, 8))
    panel = scalar_panel(values, T0=6)
    res = g.estimate_gsc(panel)
    qp = g.build_unit_weight_qp(pre_qp_blocks(panel))
    assert qp.objective(res.weights.values) <= lattice_minimum(qp) + 1e-6


def sphere_objective_and_gradient(linearize, w):
    """Objective F(w) = mean_t ||r_t||^2 and its gradient from the Jacobians."""
    resid, jac = linearize(w)
    value = float(np.mean(np.sum(resid * resid, axis=1)))
    grad = 2.0 * np.mean(np.einsum("td,tdn->tn", resid, jac), axis=0)
    return value, grad


def test_sphere_implicit_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    space = g.sphere_space(3)
    arrays = np.stack([[random_point(space, rng).data for _ in range(4)] for _ in range(6)])
    panel = panel_from_arrays(space, arrays, T0=3)
    # Unit weights over the five controls, and the time weights of one post
    # period: each control's three pre periods matched to its period-4 outcome.
    cases = [
        (_sphere_unit_linearization(panel), 5),
        (_sphere_linearization(arrays[1:, :3], arrays[1:, 3]), 3),
    ]
    for linearize, n in cases:
        w = rng.dirichlet(np.full(n, 3.0))
        _, grad = sphere_objective_and_gradient(linearize, w)
        # Central differences err by h^2 |F'''| / 6 plus the rounding error of
        # F divided by h. The tolerance h^2 admits |F'''| up to 6, well above
        # the scale of an objective bounded by (pi/2)^2; 1e-12 / h covers
        # rounding.
        h = 1e-3
        tol = h * h + 1e-12 / h
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                u = np.zeros(n)
                u[i], u[k] = 1.0, -1.0
                f_plus, _ = sphere_objective_and_gradient(linearize, w + h * u)
                f_minus, _ = sphere_objective_and_gradient(linearize, w - h * u)
                assert (f_plus - f_minus) / (2.0 * h) == pytest.approx(grad @ u, abs=tol)


def test_sphere_gsc_weights_are_certified_and_deterministic():
    cfg = g.SolverConfig()
    for seed in range(4):
        panel = g.generate(g.SimConfig(scenario="sphere", seed=seed)).panel
        res = g.estimate_gsc(panel, cfg)
        w = res.weights.values
        resid, jac = _sphere_unit_linearization(panel)(w)
        model = g.build_unit_weight_qp([(d @ w - r, d) for r, d in zip(resid, jac)])
        grad = model.gradient(w)
        assert kkt_residual(model, w) <= cfg.tol_kkt * (1.0 + np.linalg.norm(grad)), seed
        assert res.pre_fit_rmse == pytest.approx(np.sqrt(model.objective(w)), rel=1e-6)
        if seed == 0:
            assert np.array_equal(g.estimate_gsc(panel, cfg).weights.values, w)


def is_certified(linearize, w, cfg):
    """The Gauss-Newton certificate of ``w``: KKT residual of the linear model."""
    resid, jac = linearize(w)
    model = g.build_unit_weight_qp([(d @ w - r, d) for r, d in zip(resid, jac)])
    return kkt_residual(model, w) <= cfg.tol_kkt * (1.0 + np.linalg.norm(model.gradient(w)))


def record_gauss_newton_fits(monkeypatch):
    """Record (linearize, n, weights) for every Gauss-Newton fit an estimator runs."""
    fits = []
    solve = estimators.solve_simplex_gauss_newton

    def recording(linearize, n, cfg=None):
        weights, value = solve(linearize, n, cfg)
        fits.append((linearize, n, weights.values))
        return weights, value

    monkeypatch.setattr(estimators, "solve_simplex_gauss_newton", recording)
    return fits


def small_sphere_panel(seed, T=8, T0=5):
    return g.generate(g.SimConfig(scenario="sphere", seed=seed, J=6, T=T, T0=T0)).panel


def test_sphere_time_weights_are_certified(monkeypatch):
    fits = record_gauss_newton_fits(monkeypatch)
    cfg = g.SolverConfig()
    for seed in range(4):
        panel = small_sphere_panel(seed)
        fits.clear()
        g.estimate_gsdid(panel, cfg)
        g.estimate_gsdid_per_time(panel, cfg)
        time_fits = [(lin, w) for lin, n, w in fits if n == panel.T0]
        assert len(time_fits) == 1 + panel.n_periods - panel.T0, seed
        for linearize, w in time_fits:
            assert is_certified(linearize, w, cfg), seed


def test_sphere_gsdid_is_deterministic_and_relabel_invariant():
    panel = small_sphere_panel(1)
    first = g.estimate_gsdid(panel)
    again = g.estimate_gsdid(panel)
    assert np.array_equal(first.time_weights.values, again.time_weights.values)
    assert np.array_equal(first.synthetic.data, again.synthetic.data)
    per_time = [e.length for e in g.estimate_gsdid_per_time(panel)]
    assert per_time == [e.length for e in g.estimate_gsdid_per_time(panel)]

    perm = [0, 4, 2, 6, 1, 5, 3]
    arrays = np.stack([[p.data for p in panel.outcomes[j]] for j in perm])
    relabeled = panel_from_arrays(panel.space, arrays, panel.T0)
    assert g.estimate_gsdid(relabeled).effect.length == pytest.approx(
        first.effect.length, abs=1e-9
    )
    for effect, length in zip(g.estimate_gsdid_per_time(relabeled), per_time):
        assert effect.length == pytest.approx(length, abs=1e-9)


def test_gauss_newton_steps_below_the_rounding_of_the_objective():
    # Seed 32's first per-period time-weight fit reaches a point whose step
    # to the certified QP target predicts a decrease of about 4e-19, below
    # the rounding of F (about 7.5e-3). A strict Armijo test rejected every
    # step that moved w, and the fit ran out of steps without a certificate.
    panel = small_sphere_panel(32, T=6, T0=4)
    cfg = g.SolverConfig(max_iter=100)
    targets = [panel.outcomes[j][panel.T0] for j in range(1, panel.n_units)]
    z = np.stack([[p.data for p in row[: panel.T0]] for row in panel.controls])
    y = np.stack([p.data for p in targets])
    lam, _ = _solve_time_weights(panel, y, cfg)
    assert is_certified(_sphere_linearization(z, y), lam.values, cfg)
    assert len(g.estimate_gsdid_per_time(panel)) == 2


def test_sphere_gsdid_small_panel_sweep_does_not_raise():
    for seed in range(40):
        panel = small_sphere_panel(seed, T=6, T0=4)
        g.estimate_gsdid(panel)
        g.estimate_gsdid_per_time(panel)


# ---------------------------------------------------------------------------
# covariate-weighted GSC


def test_gsc_covariates_identical_gives_uniform():
    rng = np.random.default_rng(3)
    space = g.l2function_space(np.linspace(0, 1, 5))
    panel = make_flat_panel(rng, space, J=4)
    cspace = g.scalar_space()
    cv = g.ObjectPoint(cspace, np.full(cspace.dim, 0.7))
    covs = g.CovariatePanel(
        spaces=(cspace,),
        covariates=tuple(tuple((cv,) for _ in range(panel.T0)) for _ in range(5)),
    )
    res = g.estimate_gsc_with_covariates(panel, covs)
    assert np.array_equal(res.weights.values, np.full(4, 0.25))
    uniform_mean = g.weighted_frechet_mean(
        [panel.outcomes[j][panel.T0] for j in range(1, 5)], np.full(4, 0.25)
    )
    assert g.distance(res.synthetic[panel.T0], uniform_mean) <= 1e-12


def test_gsc_covariates_equal_outcomes_match_plain_gsc():
    rng = np.random.default_rng(4)
    space = g.l2function_space(np.linspace(0, 1, 5))
    panel = make_flat_panel(rng, space, J=4)
    covs = g.CovariatePanel(
        spaces=(space,),
        covariates=tuple(
            tuple((panel.outcomes[j][t],) for t in range(panel.T0))
            for j in range(panel.n_units)
        ),
    )
    res = g.estimate_gsc_with_covariates(panel, covs)
    base = g.estimate_gsc(panel)
    assert np.abs(res.weights.values - base.weights.values).max() <= 1e-12


def test_gsc_covariates_two_component_exact_match():
    rng = np.random.default_rng(5)
    space = g.l2function_space(np.linspace(0, 1, 5))
    panel = make_flat_panel(rng, space, J=4, T=7, T0=5)
    cspace = g.scalar_space()
    w_star = np.array([0.5, 0.5, 0.0, 0.0])
    base = rng.normal(size=(2, 4, panel.T0))  # component, control, period
    rows = []
    for j in range(panel.n_units):
        row = []
        for t in range(panel.T0):
            if j == 0:
                vals = [float(w_star @ base[c, :, t]) for c in range(2)]
            else:
                vals = [float(base[c, j - 1, t]) for c in range(2)]
            row.append(tuple(g.ObjectPoint(cspace, np.full(cspace.dim, v)) for v in vals))
        rows.append(tuple(row))
    covs = g.CovariatePanel(spaces=(cspace, cspace), covariates=tuple(rows))
    res = g.estimate_gsc_with_covariates(panel, covs)
    assert np.abs(res.weights.values - w_star).max() <= 1e-6


def test_gsc_sphere_covariates_equal_outcomes_match_plain_gsc():
    panel = small_sphere_panel(2)
    covs = g.CovariatePanel(
        spaces=(panel.space,),
        covariates=tuple(
            tuple((panel.outcomes[j][t],) for t in range(panel.T0))
            for j in range(panel.n_units)
        ),
    )
    res = g.estimate_gsc_with_covariates(panel, covs)
    base = g.estimate_gsc(panel)
    assert np.array_equal(res.weights.values, base.weights.values)
    for a, b in zip(res.synthetic, base.synthetic):
        assert np.array_equal(a.data, b.data)


def test_gsc_mixed_sphere_scalar_covariates_are_certified(monkeypatch):
    fits = record_gauss_newton_fits(monkeypatch)
    rng = np.random.default_rng(22)
    panel = small_sphere_panel(3)
    cspace = g.scalar_space()
    scalars = 0.3 * rng.normal(size=(panel.n_units, panel.T0))
    covs = g.CovariatePanel(
        spaces=(panel.space, cspace),
        covariates=tuple(
            tuple(
                (panel.outcomes[j][t], g.ObjectPoint(cspace, np.full(cspace.dim, scalars[j, t])))
                for t in range(panel.T0)
            )
            for j in range(panel.n_units)
        ),
    )
    cfg = g.SolverConfig()
    w = g.estimate_gsc_with_covariates(panel, covs, cfg).weights.values
    [(linearize, _, fitted)] = fits
    assert np.array_equal(fitted, w)
    assert is_certified(linearize, w, cfg)

    def objective(v):
        """Average squared product-metric distance, from the public API."""
        total = 0.0
        for t in range(panel.T0):
            for c in range(2):
                combo = g.weighted_frechet_mean(
                    [covs.covariates[j][t][c] for j in range(1, panel.n_units)], v
                )
                total += g.distance(combo, covs.covariates[0][t][c]) ** 2
        return total / panel.T0

    f_fit = objective(w)
    resid, _ = linearize(w)
    assert f_fit == pytest.approx(float(np.mean(np.sum(resid * resid, axis=1))), rel=1e-9)
    n = panel.n_controls
    for candidate in [np.full(n, 1.0 / n)] + list(np.eye(n)):
        assert f_fit <= objective(candidate) + 1e-12


# ---------------------------------------------------------------------------
# global Frechet regression


def test_gfr_at_covariate_mean_is_unweighted_mean():
    rng = np.random.default_rng(6)
    space = g.l2function_space(np.linspace(0, 1, 4))
    outs = [[g.ObjectPoint(space, rng.normal(size=4)) for _ in range(5)]]
    x = rng.normal(size=(5, 2))
    model = fit_global_frechet_regression(outs, x)
    pred = predict_frechet_regression(model, x.mean(axis=0), 0)
    mean = g.weighted_frechet_mean(outs[0], np.full(5, 0.2))
    assert g.distance(pred, mean) <= 1e-12


def test_gfr_reproduces_linear_model():
    space = g.scalar_space()
    x = np.array([0.0, 1.0, 2.0, 3.0])
    outs = [[g.ObjectPoint(space, np.full(space.dim, 0.5 + 2.0 * xi)) for xi in x]]
    model = fit_global_frechet_regression(outs, x)
    pred = predict_frechet_regression(model, np.array([7.5]), 0)
    assert pred.data[0] == pytest.approx(0.5 + 2.0 * 7.5, abs=1e-10)


def test_gfr_two_point_closed_form():
    space = g.scalar_space()
    outs = [[
        g.ObjectPoint(space, np.full(space.dim, 3.0)),
        g.ObjectPoint(space, np.full(space.dim, 5.0)),
    ]]
    model = fit_global_frechet_regression(outs, np.array([-1.0, 1.0]))
    pred = predict_frechet_regression(model, np.array([1.0]), 0)
    assert pred.data[0] == pytest.approx(5.0, abs=1e-12)
    weights = model.weights(np.array([1.0]))
    assert weights == pytest.approx([0.0, 1.0], abs=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_gfr_singular_covariance():
    space = g.scalar_space()
    outs = [[g.ObjectPoint(space, np.full(space.dim, float(v))) for v in (1, 2, 3)]]
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank one
    model = fit_global_frechet_regression(outs, x)
    assert model.used_pseudo_inverse
    with pytest.raises(SolverError):
        fit_global_frechet_regression(outs, x, allow_pseudo_inverse=False)


def test_gfr_rejects_sphere_outcomes():
    space = g.sphere_space(3)
    p = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(g.SpaceError):
        fit_global_frechet_regression([[p, p]], np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# augmented GSC


def test_agsc_equals_gsc_when_correction_vanishes():
    rng = np.random.default_rng(7)
    space = g.l2function_space(np.linspace(0, 1, 5))
    panel = make_flat_panel(rng, space, J=3)
    base = g.estimate_gsc(panel)
    # treated covariates equal to the fitted-weight combination of controls
    zc = rng.normal(size=(3, 2))
    z1 = base.weights.values @ zc
    covs = np.vstack([z1, zc])
    res = g.estimate_augmented_gsc(panel, covs)
    for t in range(panel.T0, panel.n_periods):
        assert g.distance(res.synthetic[t], base.synthetic[t]) <= 1e-9
    assert max(res.augmentation["correction_lengths"]) <= 1e-9


def test_agsc_scalar_reduction():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(4, 6))
    panel = scalar_panel(values, T0=4)
    covs = rng.normal(size=(4, 2))
    res = g.estimate_augmented_gsc(panel, covs)
    w = res.weights.values
    zc = covs[1:]
    zbar = zc.mean(axis=0)
    prec = np.linalg.inv((zc - zbar).T @ (zc - zbar) / 3)

    def mhat(x, t):
        s = 1.0 + (zc - zbar) @ (prec @ (x - zbar))
        return float(s / 3 @ values[1:, t])

    for t in range(4, 6):
        direct = mhat(covs[0], t) + float(
            w @ (values[1:, t] - np.array([mhat(z, t) for z in zc]))
        )
        assert res.synthetic[t].data[0] == pytest.approx(direct, abs=1e-10)


def test_agsc_corrects_flat_offset():
    rng = np.random.default_rng(9)
    space = g.l2function_space(np.linspace(0.0, 1.0, 9))
    J, T, T0 = 6, 8, 6
    zc = rng.uniform(0.0, 1.0, size=J)
    z1 = 3.0  # outside the control hull, unreachable by simplex weights
    a = rng.normal(size=(T, 9))
    b = rng.normal(size=(T, 9))
    outcomes = [tuple(g.ObjectPoint(space, a[t] + b[t] * z1) for t in range(T))]
    for j in range(J):
        outcomes.append(tuple(g.ObjectPoint(space, a[t] + b[t] * zc[j]) for t in range(T)))
    panel = g.Panel(space=space, outcomes=tuple(outcomes), T0=T0)
    covs = np.concatenate([[z1], zc])
    gsc = g.estimate_gsc(panel)
    agsc = g.estimate_augmented_gsc(panel, covs)
    assert min(e.length for e in gsc.effects) > 0.1
    assert max(e.length for e in agsc.effects) <= 1e-8


def test_agsc_rejects_sphere_panels():
    rng = np.random.default_rng(10)
    space = g.sphere_space(3)
    pts = [random_point(space, rng) for _ in range(3)]
    panel = g.Panel(
        space=space,
        outcomes=tuple((p, p, p) for p in pts),
        T0=2,
    )
    with pytest.raises(g.SpaceError):
        g.estimate_augmented_gsc(panel, np.arange(3.0))


# ---------------------------------------------------------------------------
# geodesic synthetic difference-in-differences


def test_gsdid_scalar_closed_formula():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(3, 4))
    panel = scalar_panel(values, T0=2)
    res = g.estimate_gsdid(panel)
    lam = res.time_weights.values
    w = res.unit_weights.values
    y = values
    synth = lam @ y[0, :2] + (w @ y[1:, 2:].mean(axis=1) - w @ (y[1:, :2] @ lam))
    assert res.synthetic.data[0] == pytest.approx(synth, abs=1e-10)
    assert res.observed_post_mean.data[0] == pytest.approx(y[0, 2:].mean(), abs=1e-12)
    assert res.effect.length == pytest.approx(abs(y[0, 2:].mean() - synth), abs=1e-10)
    assert set(res.intermediates) == {
        "treated_pre",
        "controls_pre",
        "controls_post",
        "treated_post",
    }
    assert np.array_equal(res.effect.start.data, res.synthetic.data)


def test_gdid_uniform_weights_formula():
    rng = np.random.default_rng(12)
    values = rng.normal(size=(4, 5))
    panel = scalar_panel(values, T0=3)
    res = g.estimate_gdid(panel)
    assert np.array_equal(res.unit_weights.values, np.full(3, 1 / 3))
    assert np.array_equal(res.time_weights.values, np.full(3, 1 / 3))
    y = values
    synth = y[0, :3].mean() + y[1:, 3:].mean() - y[1:, :3].mean()
    assert res.synthetic.data[0] == pytest.approx(synth, abs=1e-10)


def test_gsdid_per_time_matches_single_post_period():
    rng = np.random.default_rng(13)
    values = rng.normal(size=(4, 6))
    panel = scalar_panel(values, T0=5)
    single = g.estimate_gsdid(panel)
    per_time = g.estimate_gsdid_per_time(panel)
    assert len(per_time) == 1
    assert per_time[0].length == pytest.approx(single.effect.length, abs=1e-9)
    assert g.distance(per_time[0].start, single.synthetic) <= 1e-9


def test_gsdid_per_time_scalar_formula():
    rng = np.random.default_rng(14)
    values = rng.normal(size=(3, 4))
    panel = scalar_panel(values, T0=2)
    effects = g.estimate_gsdid_per_time(panel)
    assert len(effects) == 2
    y = values
    for k, t in enumerate((2, 3)):
        lam_qp = g.build_time_weight_qp(
            [y[j, :2].reshape(2, 1) for j in (1, 2)],
            [y[j, t].reshape(1) for j in (1, 2)],
        )
        lam, _ = g.solve_simplex_qp(lam_qp)
        w = g.estimate_gsc(panel).weights.values
        synth = lam.values @ y[0, :2] + (w @ y[1:, t] - w @ (y[1:, :2] @ lam.values))
        assert effects[k].start.data[0] == pytest.approx(synth, abs=1e-9)


def test_gsdid_zero_controls_reduce_to_treated_time_mean():
    rng = np.random.default_rng(15)
    space = g.l2function_space(np.linspace(0, 1, 5))
    zero = g.ObjectPoint(space, np.zeros(5))
    treated = [random_point(space, rng) for _ in range(4)]
    outcomes = [tuple(treated)] + [tuple([zero] * 4) for _ in range(3)]
    panel = g.Panel(space=space, outcomes=tuple(outcomes), T0=3)
    res = g.estimate_gsdid(panel)
    # both weight objectives are identically zero, so the tie-break keeps
    # the uniform candidates and the control adjustment vanishes
    assert np.array_equal(res.time_weights.values, np.full(3, 1 / 3))
    assert np.array_equal(res.unit_weights.values, np.full(3, 1 / 3))
    lam_mean = g.weighted_frechet_mean(treated[:3], np.full(3, 1 / 3))
    assert g.distance(res.synthetic, lam_mean) <= 1e-9


# ---------------------------------------------------------------------------
# placebo permutation test


def test_placebo_rank_arithmetic_small_panel():
    # identical pre histories make every placebo fit the uniform average of
    # the other two units, so the statistics are exact:
    # treated |0 - 5| = 5, control_1 |2 - 4| = 2, control_2 |8 - 1| = 7
    values = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, 0.0, 8.0],
        ]
    )
    panel = scalar_panel(values, T0=3)
    reports = g.placebo_test(panel, "gsc")
    assert len(reports) == 1
    report = reports[0]
    assert np.allclose(report.statistics, [5.0, 2.0, 7.0], atol=1e-12)
    assert report.rank_of_treated == 2
    assert report.p_value == pytest.approx(2.0 / 3.0)


def test_placebo_gsdid_single_report():
    rng = np.random.default_rng(16)
    values = rng.normal(size=(4, 6))
    panel = scalar_panel(values, T0=4)
    report = g.placebo_test(panel, "gsdid")
    assert report.statistics.shape == (4,)
    assert report.p_value == report.rank_of_treated / 4


def test_placebo_invariant_to_control_relabeling():
    rng = np.random.default_rng(17)
    values = rng.normal(size=(6, 7))
    values[0, 5:] += 5.0  # strong effect
    panel = scalar_panel(values, T0=5)
    p_before = [r.p_value for r in g.placebo_test(panel, "gsc")]
    perm = [0, 3, 1, 4, 2, 5]
    panel_perm = scalar_panel(values[perm], T0=5)
    p_after = [r.p_value for r in g.placebo_test(panel_perm, "gsc")]
    assert p_before == p_after
    assert p_before[0] == pytest.approx(1.0 / 6.0)


def test_placebo_failure_names_unit():
    out = g.generate(g.SimConfig(scenario="network", seed=7))
    with pytest.raises(SolverError, match="control_"):
        g.placebo_test(out.panel, "gsdid")


def test_placebo_rejects_unknown_method():
    values = np.zeros((3, 4))
    panel = scalar_panel(values, T0=3)
    with pytest.raises(SolverError):
        g.placebo_test(panel, "anova")

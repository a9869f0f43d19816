"""Unit tests for the GSC, augmented GSC, and GSDID estimators and the
placebo permutation test."""

import functools

import numpy as np
import pytest
from scipy.special import ndtri

import geosynth as g
from geosynth import estimators, simplex_opt, spaces
from geosynth.estimators import (
    _sphere_linearization,
    fit_global_frechet_regression,
    predict_frechet_regression,
)
from geosynth.simplex_opt import SolverError, kkt_residual
from helpers import (
    all_spaces,
    flat_spaces,
    panel_from_arrays,
    unit_weight_qp,
    random_point,
    scalar_panel,
)


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
    other = g.ObjectPoint(g.wasserstein_space(2, grid=[0.25, 0.75]), np.zeros(2))
    for bad in (other, np.zeros(2)):
        with pytest.raises(g.SpaceError, match=r"outcome \(1,0\) is not a point"):
            g.Panel(space=space, outcomes=((p, p), (bad, p)), T0=1)
    with pytest.raises(g.SpaceError, match="shape"):
        g.Panel(space=space, outcomes=np.zeros((2, 2, 3)), T0=1)


def test_panel_cutoff_must_be_an_integer():
    space = g.l2function_space([0.0, 1.0])
    row = tuple(g.ObjectPoint(space, np.full(2, float(t))) for t in range(5))
    for T0 in (2.5, True, "3"):
        with pytest.raises(g.SpaceError, match="T0 must be an integer"):
            g.Panel(space=space, outcomes=(row, row), T0=T0)
    panel = g.Panel(space=space, outcomes=(row, row), T0=np.int64(3))
    assert panel.T0 == 3 and type(panel.T0) is int


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


def test_with_treated_unit_rejects_an_index_outside_the_panel():
    panel = g.generate(g.SimConfig(scenario="scalar", seed=0, J=5, T=6, T0=4)).panel
    for j in (-1, panel.n_units):
        with pytest.raises(g.SpaceError, match=r"0\.\.5, got " + str(j)):
            panel.with_treated_unit(j)
    same = panel.with_treated_unit(0)
    assert np.array_equal(same.data, panel.data)
    assert (same.unit_labels, same.time_labels) == (panel.unit_labels, panel.time_labels)


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
    assert builds == [swapped]  # built and validated once, as a new panel
    order = [2, 0, 1, 3]
    fresh = g.Panel(space=space, outcomes=tuple(panel.outcomes[i] for i in order), T0=2)
    assert len(builds) == 2
    assert swapped.outcomes == fresh.outcomes
    assert swapped.unit_labels == tuple(panel.unit_labels[i] for i in order)
    assert np.array_equal(swapped.coords, fresh.coords)
    assert not swapped.coords.flags.writeable


@pytest.mark.parametrize("space", all_spaces(3), ids=lambda s: s.kind)
def test_panel_from_an_array_equals_the_panel_from_its_points(space):
    rng = np.random.default_rng(11)
    data = np.array([[random_point(space, rng).data for _ in range(5)] for _ in range(4)])
    labels = dict(unit_labels=("u0", "u1", "u2", "u3"), time_labels=tuple("abcde"))
    points = tuple(tuple(g.ObjectPoint(space, x) for x in row) for row in data)
    from_array = g.Panel(space=space, outcomes=data, T0=3, **labels)
    from_points = g.Panel(space=space, outcomes=points, T0=3, **labels)
    assert np.array_equal(from_array.data, data) and from_array.data is not data
    for a, b in [(from_array, from_points), (from_array.with_treated_unit(2),
                                              from_points.with_treated_unit(2))]:
        assert np.array_equal(a.data, b.data) and np.array_equal(a.coords, b.coords)
        assert (a.unit_labels, a.time_labels) == (b.unit_labels, b.time_labels)
        assert a.outcomes == b.outcomes
        if space.kind != "sphere":
            assert all(np.array_equal(x, y) for x, y in zip(a.grams, b.grams))


def test_panel_names_an_invalid_outcome_alike_from_an_array_and_from_points():
    space = g.wasserstein_space(4, grid=[0.2, 0.4, 0.6, 0.8])
    data = np.tile(np.arange(4.0), (3, 4, 1))
    data[2, 1] = [0.0, 2.0, 1.0, 3.0]
    points = tuple(tuple(g.ObjectPoint(space, x) for x in row) for row in data)
    messages = []
    for outcomes in (data, points):
        with pytest.raises(g.SpaceError, match=r"unit 2, time 1") as info:
            g.Panel(space=space, outcomes=outcomes, T0=2)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_panel_outcomes_are_read_only_views_of_its_array():
    space = g.spd_space(3, "log_euclidean")
    rng = np.random.default_rng(2)
    data = np.array([[random_point(space, rng).data for _ in range(4)] for _ in range(3)])
    panel = g.Panel(space=space, outcomes=data, T0=2)
    assert panel.outcomes is panel.outcomes and not panel.data.flags.writeable
    for j, row in enumerate(panel.outcomes):
        for t, point in enumerate(row):
            assert point.space is space and np.shares_memory(point.data, panel.data)
            assert np.array_equal(point.data, data[j, t]) and not point.data.flags.writeable
            with pytest.raises(ValueError):
                point.data[0, 0] = 1.0
    data[0, 0] = 0.0  # the caller's array is not the panel's
    assert np.array_equal(panel.outcomes[0][0].data, panel.data[0, 0])
    assert not np.array_equal(panel.data[0, 0], data[0, 0])


def test_loading_fitting_and_placebo_make_only_the_points_of_the_results(tmp_path, monkeypatch):
    panel = g.generate(g.SimConfig("spd", J=5, T=6, T0=4, seed=3, effect_size=0.5)).panel
    path = str(tmp_path / "panel.json")
    g.save_panel(panel, path)
    made, viewed = [], []
    post_init, outcomes = spaces.ObjectPoint.__post_init__, estimators.Panel.outcomes
    monkeypatch.setattr(
        spaces.ObjectPoint, "__post_init__", lambda self: made.append(self) or post_init(self)
    )
    monkeypatch.setattr(
        estimators.Panel, "outcomes",
        property(lambda self: viewed.append(self) or outcomes.func(self)),
    )
    loaded = g.load_panel(path)
    assert made == []
    result = g.estimate_gsc(loaded)
    returned = {id(p) for p in result.synthetic} | {id(e.end) for e in result.effects}
    assert len(made) == len(returned) and {id(p) for p in made} == returned
    # the placebo's treated statistics are the stored estimate: no more points
    reports = g.placebo_test(loaded, "gsc")
    assert len(made) == len(returned) and viewed == []
    assert [r.statistics[0] for r in reports] == [e.length for e in result.effects]


def test_panel_of_one_grid_descriptor_compares_no_grids(monkeypatch):
    space = g.wasserstein_space(11)
    data = np.sort(np.random.default_rng(4).normal(size=(3, 4, 11)), axis=-1)
    calls = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *a, **k: calls.append(a) or array_equal(*a, **k))
    panel_from_arrays(space, data, T0=2)
    assert calls == []


def assert_close_to_scale(actual, expected, rel):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * max(np.max(np.abs(expected)), 1e-300)


@pytest.mark.parametrize("space", flat_spaces(3), ids=lambda s: s.kind)
def test_weight_qps_from_the_panel_grams_match_per_block_assembly(space, monkeypatch):
    """The unit and time QPs that GSDID solves, assembled from the panel's
    cached Gram blocks, against ``stack_weight_qp`` on stacks embedded
    point by point."""
    panel = make_flat_panel(np.random.default_rng(11), space, J=5, T=7, T0=4)
    stacks = []
    solve_stack = simplex_opt._solve_qp_stack
    monkeypatch.setattr(
        simplex_opt, "_solve_qp_stack",
        lambda problems, cfg=None: stacks.append(problems) or solve_stack(problems, cfg),
    )
    g.estimate_gsdid(panel)
    # the unit QP over all J+1 units, the treated one held, then the time QP
    [unit_qp], [time_qp] = stacks
    qps = [unit_qp, time_qp]
    assert np.array_equal(qps[0].allowed, np.arange(panel.n_units) > 0)
    assert qps[1].allowed is None

    embedded = np.array([[g.metric_embed(p) for p in row] for row in panel.outcomes])
    time_qp = g.stack_weight_qp(embedded[1:, : panel.T0], embedded[1:, panel.T0 :].mean(axis=1))
    expected = [unit_weight_qp(panel), time_qp]
    rng = np.random.default_rng(3)
    for qp, ref in zip(qps, expected):
        face = slice(qp.n - ref.n, None)  # the unit QP's face: the controls
        assert_close_to_scale(qp.gram[face, face], ref.gram, 1e-12)
        assert_close_to_scale(qp.linear[face], ref.linear, 1e-12)
        assert qp.constant == pytest.approx(ref.constant, rel=1e-12)
        for w in rng.dirichlet(np.ones(ref.n), size=5):
            f = ref.objective(w)
            assert abs(qp.objective(np.append(np.zeros(qp.n - ref.n), w)) - f) <= 1e-12 * (1.0 + f)


def test_unit_qps_take_the_panel_gram_uncopied(monkeypatch):
    panel = make_flat_panel(np.random.default_rng(5), g.spd_space(3), J=4, T=6, T0=3)
    qps, stacks, pseudos = [], [], []
    solve, solve_qps = simplex_opt.solve_simplex_qp, estimators._solve_qps
    monkeypatch.setattr(
        simplex_opt, "solve_simplex_qp", lambda qp, cfg=None: qps.append(qp) or solve(qp, cfg)
    )
    monkeypatch.setattr(
        estimators, "_solve_qps",
        lambda problems, cfg=None: stacks.append(problems) or solve_qps(problems, cfg),
    )
    g.estimate_gsc(panel)
    assert len(qps) == 1 and qps[0].gram is panel.grams[0] and stacks == [qps]
    with_treated_unit = estimators.Panel.with_treated_unit
    monkeypatch.setattr(
        estimators.Panel, "with_treated_unit",
        lambda self, j: pseudos.append(with_treated_unit(self, j)) or pseudos[-1],
    )
    qps.clear()
    stacks.clear()
    g.placebo_test(panel, "gsc")
    # the treated row is the estimate stored on the panel, so no QP is
    # solved for it; the controls' unit QPs are one stack, each on the
    # panel's whole Gram, and no panel is permuted
    assert qps == []
    assert len(stacks) == 1 and len(stacks[0]) == panel.n_controls
    assert all(qp.gram is panel.grams[0] for qp in stacks[0])
    assert pseudos == []


@pytest.mark.parametrize("space", flat_spaces(3), ids=lambda s: s.kind)
def test_placebo_refits_carry_the_permuted_grams(space):
    panel = make_flat_panel(np.random.default_rng(7), space, J=4, T=6, T0=3)
    unit, time = panel.grams
    assert unit.shape == (5, 5) and time.shape == (5, 3, 3)
    assert not unit.flags.writeable and not time.flags.writeable
    for j in range(panel.n_units):
        order = [j] + [i for i in range(panel.n_units) if i != j]
        swapped = panel.with_treated_unit(j)
        fresh = g.Panel(space=space, outcomes=tuple(panel.outcomes[i] for i in order), T0=3)
        for carried, computed in zip(swapped.grams, fresh.grams):
            assert_close_to_scale(carried, computed, 1e-13)
            assert not carried.flags.writeable


@pytest.mark.parametrize("space", flat_spaces(3), ids=lambda s: s.kind)
def test_separable_grid_mean_equals_the_product_weighted_mean(space, monkeypatch):
    """The controls' pre mean of ``_did_stack``, contracted units first, against
    the Frechet mean with the product weights. Transport is stubbed to the
    identity: on these random panels it may leave the cone."""
    panel = make_flat_panel(np.random.default_rng(9), space, J=4, T=6, T0=3)
    rng = np.random.default_rng(4)
    unit_w, time_w = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3))
    monkeypatch.setattr(estimators, "_transport_stack", lambda space, a, b, omega, *_: omega)
    means, _, _ = estimators._did_stack(
        panel, [0], np.append(0.0, unit_w)[None], time_w[None], np.ones((1, 3)), True, None
    )
    points = [p for row in panel.controls for p in row[:3]]
    flat = g.weighted_frechet_mean(points, np.outer(unit_w, time_w).ravel())
    assert_close_to_scale(means[0, 1, 0], flat.data, 1e-13)


@pytest.mark.parametrize("scenario", ["network", "spd", "scalar", "robustness_s3", "sphere"])
def test_flat_gsdid_placebo_and_per_period_effects_permute_no_panel(scenario, monkeypatch):
    """No gsc or gsdid placebo and no per-period fit builds a permuted
    panel, on the sphere as on the flat kinds."""
    panel = g.generate(g.SimConfig(scenario=scenario, seed=0, J=8, T=8, T0=6)).panel
    held_out = []
    with_treated_unit = estimators.Panel.with_treated_unit
    monkeypatch.setattr(
        estimators.Panel, "with_treated_unit",
        lambda self, j: held_out.append(j) or with_treated_unit(self, j),
    )
    g.estimate_gsdid_per_time(panel)
    g.placebo_test(panel, "gsc")
    if scenario != "network":  # its gsdid placebo raises at control_1 (ROADMAP item 3)
        g.placebo_test(panel, "gsdid")
    assert held_out == []
    swapped = panel.with_treated_unit(1)
    assert held_out == [1] and swapped.unit_labels[:2] == ("control_1", "treated")


@pytest.mark.parametrize("space", flat_spaces(3), ids=lambda s: s.kind)
def test_panel_grams_are_computed_once_per_analysis_and_placebo(space, monkeypatch):
    computed = []
    grams = estimators.Panel.grams

    def counting(self):
        computed.append(self)
        return grams.func(self)

    counted = functools.cached_property(counting)  # counts only the computations
    counted.__set_name__(estimators.Panel, "grams")
    monkeypatch.setattr(estimators.Panel, "grams", counted)
    # Units constant over time: every transport is the identity, so GSDID
    # stays inside the cone of every kind.
    rng = np.random.default_rng(5)
    data = np.array([[random_point(space, rng).data] * 5 for _ in range(4)])
    panel = panel_from_arrays(space, data, 3)
    g.estimate_gsc(panel)
    g.estimate_gsdid(panel)
    g.estimate_gsdid_per_time(panel)
    assert len(computed) == 1 and computed[0] is panel
    fresh = panel_from_arrays(space, data, 3)
    g.placebo_test(fresh, "gsc")
    assert len(computed) == 2 and computed[1] is fresh


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
        data[0, 3] = -data[0, 3]  # the (1, T, 3, 3) synthetic stack of row 0
        return data

    monkeypatch.setattr(estimators, "metric_restore_stack", negate_period_3)
    with pytest.raises(
        g.SpaceError, match=r"synthetic outcome \(time 3\) is invalid: spd_frobenius: minimum"
    ):
        g.estimate_gsc(panel)


@pytest.mark.parametrize("point", ["treated_post", "synthetic"])
def test_invalid_gsdid_point_names_it(point, monkeypatch):
    """A GSDID mean or synthetic point that fails validation is named."""
    panel = make_flat_panel(np.random.default_rng(2), g.spd_space(3), J=3, T=5, T0=3)
    restore, transport = estimators._restore, estimators._transport_stack

    def negate_treated_post(space, coords, repair, log):
        data = restore(space, coords, repair, log)
        data[0, 0, 1] = -data[0, 0, 1]  # (row, own, post) of the (B, 2, 2, 3, 3) means
        return data

    if point == "treated_post":
        monkeypatch.setattr(estimators, "_restore", negate_treated_post)
    else:
        monkeypatch.setattr(estimators, "_transport_stack", lambda *a: -transport(*a))
    with pytest.raises(g.SpaceError, match=rf"GSDID {point} point is invalid: spd_frobenius"):
        g.estimate_gsdid(panel)


def test_invalid_augmented_point_names_its_period(monkeypatch):
    rng = np.random.default_rng(22)
    panel = near_panel(g.spd_space(3, "log_euclidean"), rng, J=4, T=7, T0=5)
    restore = estimators.metric_restore_stack

    def negate_period_6(space, vecs, **kwargs):
        data = restore(space, vecs, **kwargs)
        if data.shape[:2] == (1, 2):  # the (1, T - T0, 3, 3) post-period stack
            data[0, 1] = -data[0, 1]
        return data

    monkeypatch.setattr(estimators, "metric_restore_stack", negate_period_6)
    with pytest.raises(g.SpaceError, match=r"synthetic outcome \(time 6\) is invalid"):
        g.estimate_augmented_gsc(panel, rng.normal(size=(panel.n_units, 2)))


@pytest.mark.parametrize("size", [dict(J=8, T=8, T0=6), {}], ids=["small", "default"])
@pytest.mark.parametrize("scenario", ["network", "spd", "scalar", "robustness_s2", "robustness_s3"])
def test_flat_gsc_weights_match_the_unmasked_unit_qp(scenario, size):
    """GSC solves the unit QP over all J+1 units with the treated weight held
    at zero; its weights stay within 1e-10 of those of the J-unit QP on the
    controls' block of the panel's Gram, which sums in another order."""
    for seed in range(3):
        panel = g.generate(g.SimConfig(scenario=scenario, seed=seed, **size)).panel
        pre = panel.coords[:, : panel.T0]
        qp = simplex_opt._weight_qp(pre[1:].swapaxes(0, 1), pre[0], panel.grams[0][1:, 1:])
        ref, _ = g.solve_simplex_qp(qp)
        w = g.estimate_gsc(panel).weights.values
        assert np.max(np.abs(w - ref.values)) <= 1e-10, seed


def test_gsc_scalar_reduction_matches_lattice():
    from test_simplex_opt import lattice_minimum

    rng = np.random.default_rng(2)
    values = rng.normal(size=(4, 8))
    panel = scalar_panel(values, T0=6)
    res = g.estimate_gsc(panel)
    qp = unit_weight_qp(panel)
    assert qp.objective(res.weights.values) <= lattice_minimum(qp) + 1e-6


def sphere_objective_and_gradient(linearize, w):
    """Objective F(w) = mean_t ||r_t||^2 and its gradient from the Jacobians."""
    resid, jac = linearize(w)
    value = float(np.mean(np.sum(resid * resid, axis=1)))
    grad = 2.0 * np.mean(np.einsum("td,tdn->tn", resid, jac), axis=0)
    return value, grad


def member(linearize, i=0):
    """Member ``i`` of a stacked linearization, as a function of its weights."""
    return lambda w: tuple(a[0] for a in linearize(np.asarray(w)[None], np.array([i])))


def sphere_linearization(z, y):
    """The linearization of one sphere problem, a stack of one."""
    return member(_sphere_linearization(z[None], y[None]))


def unit_linearization(panel):
    """The sphere unit-weight problem: pre periods x controls."""
    pre = panel.coords[:, : panel.T0]
    return sphere_linearization(pre[1:].swapaxes(0, 1), pre[0])


def test_sphere_implicit_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    space = g.sphere_space(3)
    arrays = np.stack([[random_point(space, rng).data for _ in range(4)] for _ in range(6)])
    panel = panel_from_arrays(space, arrays, T0=3)
    # Unit weights over the five controls, and the time weights of one post
    # period: each control's three pre periods matched to its period-4 outcome.
    cases = [
        (unit_linearization(panel), 5),
        (sphere_linearization(arrays[1:, :3], arrays[1:, 3]), 3),
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
        resid, jac = unit_linearization(panel)(w)
        model = g.stack_weight_qp(jac.swapaxes(1, 2), jac @ w - resid)
        grad = model.gradient(w)
        assert kkt_residual(model, w) <= cfg.tol_kkt * (1.0 + np.linalg.norm(grad)), seed
        assert res.pre_fit_rmse == pytest.approx(np.sqrt(model.objective(w)), rel=1e-6)
        if seed == 0:
            assert np.array_equal(g.estimate_gsc(panel, cfg).weights.values, w)


def is_certified(linearize, w, cfg):
    """The Gauss-Newton certificate of ``w``: KKT residual of the linear model."""
    resid, jac = linearize(w)
    model = g.stack_weight_qp(jac.swapaxes(1, 2), jac @ w - resid)
    return kkt_residual(model, w) <= cfg.tol_kkt * (1.0 + np.linalg.norm(model.gradient(w)))


def record_gauss_newton_fits(monkeypatch):
    """Record (linearize, n, weights) for every Gauss-Newton fit an estimator
    runs, each member of a stacked run with its own linearization."""
    fits = []
    solve = estimators.solve_simplex_gauss_newton

    def recording(linearize, n, cfg=None, size=1):
        result = solve(linearize, n, cfg, size)
        fits.extend((member(linearize, i), n, fit[0].values) for i, fit in enumerate(result))
        return result

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


@pytest.mark.parametrize("scenario", ["sphere", "spd"])
def test_gsdid_time_weights_read_only_the_controls_post_means(scenario):
    """GSDID computes the post means of all J+1 units; a unit's post mean
    does not depend on the other rows, so they are the same bits as the
    controls' alone, and the treated row's time weights read only the
    controls' (a NaN in the treated unit's slot changes no bit)."""
    panel = g.generate(g.SimConfig(scenario=scenario, seed=2, J=6, T=8, T0=5)).panel
    every = estimators._post_means(panel)
    controls = g.Panel(space=panel.space, outcomes=panel.data[1:], T0=panel.T0)
    assert np.array_equal(estimators._post_means(controls), every[1:])
    targets = every.copy()
    targets[0] = np.nan
    time = estimators._weight_stack(panel, [0], g.SolverConfig(), True, targets[:, None])
    assert np.array_equal(g.estimate_gsdid(panel).time_weights.values, time[0])


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
    [(lam, _)] = simplex_opt.solve_simplex_gauss_newton(
        _sphere_linearization(z[None], y[None]), panel.T0, cfg
    )
    assert is_certified(sphere_linearization(z, y), lam.values, cfg)
    assert len(g.estimate_gsdid_per_time(panel)) == 2


@pytest.mark.parametrize("scenario", ["spd", "scalar", "sphere"])
def test_per_period_time_weights_equal_each_period_fitted_alone(scenario, monkeypatch):
    """The per-period time weights, one stack of QPs or one stacked
    Gauss-Newton run, are the same bits as each period's problem solved
    alone by the public solvers."""
    panel = g.generate(g.SimConfig(scenario=scenario, seed=1, J=8, T=9, T0=5)).panel
    stacked = []
    did_stack = estimators._did_stack
    monkeypatch.setattr(
        estimators, "_did_stack", lambda *a: stacked.append(a[3]) or did_stack(*a)
    )
    g.estimate_gsdid_per_time(panel)
    [time] = stacked
    pre, cfg = panel.coords[1:, : panel.T0], g.SolverConfig()
    assert len(time) == panel.n_periods - panel.T0
    for lam, t in zip(time, panel.post_periods()):
        y = panel.coords[1:, t]
        if scenario == "sphere":
            [(alone, _)] = simplex_opt.solve_simplex_gauss_newton(
                _sphere_linearization(pre[None], y[None]), panel.T0, cfg
            )
        else:
            gram = panel.grams[1][1:].mean(axis=0)
            alone, _ = g.solve_simplex_qp(simplex_opt._weight_qp(pre, y, gram), cfg)
        assert np.array_equal(lam, alone.values), t


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


def test_gsc_sphere_covariates_raise_an_uncertified_fit():
    """The covariate fit is a Gauss-Newton stack of one, whose failure comes
    back in place and is raised. The treated unit's covariates lie past the
    last control's on one great circle, so the fit's first step reaches
    that control's vertex and only a second step certifies it."""
    panel = small_sphere_panel(3)

    def point(angle, t):
        return g.ObjectPoint(
            panel.space, np.array([np.cos(angle), np.sin(angle) * np.cos(0.1 * t),
                                   np.sin(angle) * np.sin(0.1 * t)])
        )

    angles = [0.5] + [0.05 * j for j in range(1, panel.n_units)]
    covs = g.CovariatePanel(
        spaces=(panel.space,),
        covariates=tuple(tuple((point(a, t),) for t in range(panel.T0)) for a in angles),
    )
    with pytest.raises(SolverError, match="within 1 steps"):
        g.estimate_gsc_with_covariates(panel, covs, g.SolverConfig(max_iter=1))
    w = g.estimate_gsc_with_covariates(panel, covs, g.SolverConfig(max_iter=2)).weights.values
    assert np.array_equal(w, np.eye(panel.n_controls)[-1])


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


def test_gfr_rejects_an_outcome_from_another_space():
    rng = np.random.default_rng(13)
    chart, frobenius = g.spd_space(3, "log_euclidean"), g.spd_space(3)
    outs = [[random_point(chart, rng) for _ in range(4)] for _ in range(2)]
    x = rng.normal(size=(4, 2))
    outs[1][2] = g.ObjectPoint(frobenius, outs[1][2].data)
    with pytest.raises(g.SpaceError, match=r"outcome \(period 1, unit 2\) is not a point"):
        fit_global_frechet_regression(outs, x)
    for t, j in [(1, 2), (0, 0)]:  # raw data in place of a point
        outs[t][j] = outs[1][0].data
        with pytest.raises(g.SpaceError, match=rf"outcome \(period {t}, unit {j}\) is not a point"):
            fit_global_frechet_regression(outs, x)


def test_gfr_names_an_invalid_outcome():
    space = g.wasserstein_space(4, grid=[0.2, 0.4, 0.6, 0.8])
    outs = [[g.ObjectPoint(space, np.arange(4.0) + j) for j in range(3)] for _ in range(2)]
    outs[1][0] = g.ObjectPoint(space, np.array([0.0, 2.0, 1.0, 3.0]))
    with pytest.raises(
        g.SpaceError, match=r"outcome \(period 1, unit 0\) is invalid: wasserstein1d"
    ):
        fit_global_frechet_regression(outs, np.array([0.0, 1.0, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_regression_covariates_must_be_finite(bad):
    space = g.scalar_space()
    outs = [[g.ObjectPoint(space, np.full(space.dim, float(v))) for v in (1, 2, 3)]]
    x = np.array([[0.0, 1.0], [1.0, bad], [2.0, 0.5]])
    with pytest.raises(g.SpaceError, match="covariates must be finite"):
        fit_global_frechet_regression(outs, x)
    panel = make_flat_panel(np.random.default_rng(8), g.l2function_space([0.0, 1.0]), J=2)
    with pytest.raises(g.SpaceError, match="covariates must be finite"):
        g.estimate_augmented_gsc(panel, x)


def test_gfr_prediction_rejects_a_covariate_vector_of_the_wrong_length():
    space = g.scalar_space()
    outs = [[g.ObjectPoint(space, np.full(space.dim, float(v))) for v in (1, 2, 4)]]
    model = fit_global_frechet_regression(outs, np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]))
    for x in (np.array([1.0]), np.array([1.0, 2.0, 3.0])):
        with pytest.raises(g.SpaceError, match="expected 2 covariates"):
            predict_frechet_regression(model, x, 0)


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


@pytest.mark.parametrize(
    "space", [g.scalar_space(), g.l2function_space(np.linspace(0.0, 1.0, 7))],
    ids=["scalar", "l2function"],
)
def test_agsc_correction_lengths_are_metric_shifts(space):
    # The grid kinds' metric rescales the chart by square-root quadrature
    # weights; on the scalar space an unscaled length reads sqrt(2) too long.
    rng = np.random.default_rng(12)
    panel = make_flat_panel(rng, space, J=5, T=8, T0=5)
    gsc = g.estimate_gsc(panel)
    agsc = g.estimate_augmented_gsc(panel, rng.normal(size=(panel.n_units, 2)))
    lengths = agsc.augmentation["correction_lengths"]
    assert len(lengths) == panel.n_periods - panel.T0
    assert min(lengths) > 1e-3
    for k, length in enumerate(lengths):
        t = panel.T0 + k
        assert length == pytest.approx(g.distance(agsc.synthetic[t], gsc.synthetic[t]), abs=1e-12)


def near_panel(space, rng, J=5, T=8, T0=5, step=0.02):
    """Panel of points a short geodesic step from one interior point, so that
    the augmented combinations, whose weights can be negative, stay inside
    the cone of every flat kind."""
    if space.kind == "laplacian":
        base = g.ObjectPoint(space, space.dim * np.eye(space.dim) - 1.0)
    elif space.kind == "wasserstein1d":
        base = g.ObjectPoint(space, np.linspace(-2.0, 2.0, space.dim))
    else:
        base = random_point(space, rng)
    data = np.array([
        [g.geodesic_eval(base, random_point(space, rng), step).data for _ in range(T)]
        for _ in range(J + 1)
    ])
    return panel_from_arrays(space, data, T0)


@pytest.mark.parametrize("space", flat_spaces(3), ids=lambda s: s.kind)
def test_agsc_matches_the_chart_regression_reference(space):
    """Synthetic points, effect lengths and correction lengths of augmented
    GSC against global Frechet regression evaluated point by point in the
    chart: ``w @ Y_t + (s(x_0) - sum_j w_j s(x_j)) @ Y_t`` restored."""
    rng = np.random.default_rng(21)
    panel = near_panel(space, rng)
    x = rng.normal(size=(panel.n_units, 2))
    res = g.estimate_augmented_gsc(panel, x)
    w, xc, J = res.weights.values, x[1:], panel.n_controls
    centered = xc - xc.mean(axis=0)
    precision = np.linalg.inv(centered.T @ centered / J)

    def s(v):
        return (1.0 + centered @ (precision @ (v - xc.mean(axis=0)))) / J

    correction = s(x[0]) - sum(w_j * s(x_j) for w_j, x_j in zip(w, xc))
    lengths = res.augmentation["correction_lengths"]
    for k, t in enumerate(panel.post_periods()):
        charts = np.stack([g.metric_embed(row[t]) for row in panel.controls])
        reference = g.metric_restore(w @ charts + correction @ charts, space)
        assert_close_to_scale(res.synthetic[t].data, reference.data, 1e-12)
        expected = g.distance(reference, panel.outcomes[0][t])
        assert res.effects[k].length == pytest.approx(expected, rel=1e-12)
        assert lengths[k] == pytest.approx(np.linalg.norm(correction @ charts), rel=1e-12)


def test_agsc_embeds_only_the_panel_and_its_restored_points(monkeypatch):
    rng = np.random.default_rng(22)
    panel = near_panel(g.spd_space(3, "log_euclidean"), rng, J=4, T=7, T0=5)
    shapes = []
    embed = spaces.metric_embed_stack

    def counted(space, data):
        shapes.append(data.shape)
        return embed(space, data)

    monkeypatch.setattr(spaces, "metric_embed_stack", counted)
    monkeypatch.setattr(estimators, "metric_embed_stack", counted)
    g.estimate_augmented_gsc(panel, rng.normal(size=(panel.n_units, 2)))
    # panel.coords, GSC's synthetic stack, and the augmented post-period stack
    assert shapes == [(5, 7, 3, 3), (1, 7, 3, 3), (1, 2, 3, 3)]


def test_covariate_panel_names_the_invalid_covariate():
    quantiles = g.wasserstein_space(3, grid=[0.25, 0.5, 0.75])
    good = g.ObjectPoint(quantiles, np.array([0.0, 1.0, 2.0]))
    bad = g.ObjectPoint(quantiles, np.array([0.0, 2.0, 1.0]))
    scalar = g.ObjectPoint(g.scalar_space(), np.zeros(2))
    cells = [[(scalar, good) for _ in range(3)] for _ in range(4)]
    cells[2][1] = (scalar, bad)
    message = r"covariate \(2,1,1\) is invalid: wasserstein1d: quantile values must be"
    with pytest.raises(g.SpaceError, match=message):
        g.CovariatePanel(spaces=(g.scalar_space(), quantiles), covariates=cells)


def test_covariate_panel_needs_a_period():
    with pytest.raises(g.SpaceError, match="at least one period"):
        g.CovariatePanel(spaces=(g.scalar_space(),), covariates=((), (), ()))


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


def test_gsdid_means_honour_repair():
    """Quantile points that dip by less than the validation tolerance are
    valid, but so does every mean of them, which leaves the cone of
    nondecreasing quantiles: GSDID records the repair of each of its four
    means, and raises with repair off."""
    space = g.wasserstein_space(5)
    dip = np.array([0.0, 1.0, 1.0 - 5e-9, 2.0, 3.0])
    data = dip + np.random.default_rng(3).normal(size=(4, 6, 1))
    panel = panel_from_arrays(space, data, T0=4)
    note = "wasserstein1d: isotonic projection moved values by up to 5.000e-09"
    for fit in (g.estimate_gsdid, g.estimate_gdid):
        assert fit(panel).repair_flags == (note,) * 4
    for fit in (g.estimate_gsdid, g.estimate_gdid, g.estimate_gsdid_per_time):
        with pytest.raises(g.SpaceError, match="not nondecreasing and repair is off"):
            fit(panel, repair=False)


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
        # time weights: one block per control, its pre periods as the points
        lam_qp = g.stack_weight_qp(y[1:, :2, None], y[1:, t, None])
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


SCENARIOS = ["network", "spd", "sphere", "scalar", "robustness_s2", "robustness_s3"]


def rel_gap(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))


@pytest.mark.parametrize("size", [dict(J=8, T=8, T0=6), {}], ids=["small", "default"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_placebo_matches_per_refit_fits(scenario, size, monkeypatch):
    """Stacked donor fits against ``estimate_*(panel.with_treated_unit(j))``:
    the same ranks and p-values, statistics within the README's bound,
    donor weights within 1e-10 (the sphere's, each control's own problem
    in one stacked Gauss-Newton run, within 1e-12) and the treated row bit
    for bit."""
    stacks = []
    solve_qps = estimators._solve_qps
    solve_gauss_newton = estimators.solve_simplex_gauss_newton
    monkeypatch.setattr(
        estimators, "_solve_qps", lambda *a: stacks.append(solve_qps(*a)) or stacks[-1]
    )

    def gauss_newton(linearize, n, cfg=None, size=1):  # records the stacked runs
        fits = solve_gauss_newton(linearize, n, cfg, size)
        return stacks.append(fits) or fits

    monkeypatch.setattr(estimators, "solve_simplex_gauss_newton", gauss_newton)
    for seed in range(3):
        panel = g.generate(g.SimConfig(scenario=scenario, seed=seed, effect_size=0.5, **size)).panel
        J = panel.n_controls
        for method in ("gsc", "gsdid"):
            if scenario == "network" and method == "gsdid":
                continue  # raises SpaceError at control_1 (ROADMAP item 3)
            stacks.clear()
            reports = g.placebo_test(panel, method)
            reports = reports if method == "gsc" else [reports]
            # the treated row's weight fit comes first, then the controls': gsc
            # fits and stores the unit weights of row 0, then of the controls;
            # gsdid reads them all from the panel and fits only time weights
            placebo_stacks = stacks[:]
            refits = [
                (g.estimate_gsc if method == "gsc" else g.estimate_gsdid)(panel.with_treated_unit(j))
                for j in range(panel.n_units)
            ]
            if method == "gsc":
                ref = np.array([[e.length for e in r.effects] for r in refits])
                unit = [r.weights.values for r in refits]
            else:
                ref = np.array([[r.effect.length] for r in refits])
                unit = [r.unit_weights.values for r in refits]
            stats = np.array([r.statistics for r in reports]).T
            assert np.array_equal(stats[0], ref[0])
            assert rel_gap(ref, stats) <= 1e-11, (seed, method)
            ranks = [int(np.sum(col >= col[0])) for col in ref.T]
            assert [r.rank_of_treated for r in reports] == ranks, (seed, method)
            assert [r.p_value for r in reports] == [rank / panel.n_units for rank in ranks]
            [treated, fits] = placebo_stacks
            assert len(treated) == 1 and len(fits) == J
            table = panel._fits[("unit", g.SolverConfig())]
            bound = 1e-12 if scenario == "sphere" else 1e-10
            for j in range(1, J + 1):
                assert table[j][j] == 0.0
                assert np.max(np.abs(np.delete(table[j], j) - unit[j])) <= bound
                fitted = fits[j - 1][0].values
                if method == "gsc":  # the stored row is the stacked fit
                    stored = np.delete(table[j], j) if scenario == "sphere" else table[j]
                    assert np.array_equal(fitted, stored)
                else:
                    assert np.max(np.abs(fitted - refits[j].time_weights.values)) <= bound


def test_placebo_on_location_scale_quantiles_takes_few_active_set_iterations(monkeypatch):
    """Every unit of a location-scale quantile panel is an exact mixture of
    the others, so the donor QPs meet faces whose KKT systems are singular
    only to rounding. LU steps on such faces once cycled until max_iter
    (10,011 iterations on seeds 0 and 9 at J=50); a member back at a face
    minimizer now drops to minimum-norm faces."""
    solves = []
    face_solves = simplex_opt._face_solves
    monkeypatch.setattr(
        simplex_opt, "_face_solves", lambda *a: solves.append(1) or face_solves(*a)
    )
    for seed in (0, 9):
        solves.clear()
        reports = g.placebo_test(location_scale_quantile_panel(seed, J=50), "gsc")
        assert len(solves) < 100 and len(reports) == 2


def test_a_scalar_gsc_placebo_evaluates_one_certificate_per_fitted_member(monkeypatch):
    """On a fresh default-size scalar panel the GSC placebo fits J+1 unit
    QPs, row 0's and the donors', and evaluates one KKT certificate for
    each: none of these fits ties the uniform point, which would add one."""
    certificates, members = [], []
    residual, stack = simplex_opt.kkt_residual, simplex_opt._solve_qp_stack
    monkeypatch.setattr(
        simplex_opt, "kkt_residual", lambda *a: certificates.append(1) or residual(*a)
    )
    monkeypatch.setattr(
        simplex_opt, "_solve_qp_stack", lambda p, cfg=None: members.extend(p) or stack(p, cfg)
    )
    for seed in range(3):
        certificates.clear()
        members.clear()
        g.placebo_test(g.generate(g.SimConfig(scenario="scalar", seed=seed)).panel, "gsc")
        assert len(members) == 21 and len(certificates) == 21, seed


def location_scale_quantile_panel(seed, J, T=8, T0=6):
    """Gaussian quantile functions on a 21-point grid whose location and
    scale follow one shared path over the T periods."""
    rng = np.random.default_rng(seed)
    space = g.wasserstein_space(21)
    m, s = 70.0 + np.cumsum(rng.normal(0.2, 0.4, size=T)), rng.uniform(0.9, 1.1, size=T)
    mu, sigma = rng.normal(0.0, 3.0, size=J + 1), rng.uniform(8.0, 14.0, size=J + 1)
    data = m[:, None] + s[:, None] * (mu[:, None, None] + sigma[:, None, None] * ndtri(space.grid))
    return panel_from_arrays(space, data, T0)


def assert_gsc_donor_statistics_are_the_full_paths_post_window(panel):
    cfg, J = g.SolverConfig(), panel.n_controls
    stats = np.array(estimators._donor_statistics(panel, "gsc", cfg, True))
    unit_w = estimators._unit_rows(panel, range(1, J + 1), cfg)
    full = estimators._gsc_stack(panel, range(1, J + 1), unit_w, slice(None), True, None)[1]
    assert np.array_equal(stats, full[:, panel.T0 :])


@pytest.mark.parametrize("size", [dict(J=8, T=8, T0=6), {}], ids=["small", "default"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_gsc_donor_statistics_are_the_full_paths_post_window_bit_for_bit(scenario, size):
    """The GSC placebo forms its donors' synthetic points in the post window
    only; their distances are those of the full path's post window."""
    for seed in range(3):
        panel = g.generate(g.SimConfig(scenario=scenario, seed=seed, effect_size=0.5, **size)).panel
        assert_gsc_donor_statistics_are_the_full_paths_post_window(panel)


def test_quantile_gsc_donor_statistics_are_the_full_paths_post_window_bit_for_bit():
    panel = location_scale_quantile_panel(3, J=20)
    assert_gsc_donor_statistics_are_the_full_paths_post_window(panel)


def gsc_placebo_panel(kind):
    if kind == "wasserstein1d":
        return location_scale_quantile_panel(1, J=6)
    return g.generate(g.SimConfig(scenario=kind, seed=1, J=6, T=8, T0=6)).panel


@pytest.mark.parametrize("kind", ["scalar", "spd", "sphere", "wasserstein1d"])
def test_gsc_placebo_restores_and_validates_only_the_donors_post_period_points(kind, monkeypatch):
    """The treated row restores its synthetic point in every period, the J
    donors theirs in the T - T0 post periods alone."""
    panel = gsc_placebo_panel(kind)
    J, T, T0 = panel.n_controls, panel.n_periods, panel.T0
    points = {"_restore": [], "validate_stack": []}  # the shapes of the stacks of points
    point_axes = {"_restore": 1, "validate_stack": len(panel.space.data_shape)}

    def recording(name, original):
        def record(space, stack, *args):
            points[name].append(stack.shape[: stack.ndim - point_axes[name]])
            return original(space, stack, *args)
        return record

    for name in points:
        monkeypatch.setattr(estimators, name, recording(name, getattr(estimators, name)))
    g.placebo_test(panel, "gsc")
    assert points["_restore"] == [(1, T), (J, T - T0)]
    assert points["validate_stack"] == [(T,), (J * (T - T0),)]


def fail_controls_5_and_3(scenario, method, monkeypatch):
    """A restore that refuses the post-period synthetic outcomes (gsc, from
    T0 = 6 on) or the post mean (gsdid) of controls 5 and 3 fails the
    placebo test at control 3."""
    panel = g.generate(g.SimConfig(scenario=scenario, seed=0, J=8, T=8, T0=6)).panel
    poisoned = [
        np.array([p.data for p in g.estimate_gsc(panel.with_treated_unit(j)).synthetic[6:]])
        if method == "gsc" else g.estimate_gsdid(panel.with_treated_unit(j)).observed_post_mean.data
        for j in (5, 3)
    ]
    restore = estimators._restore

    def failing(space, coords, repair, log):
        data = restore(space, coords, repair, log)
        rows = data.reshape((-1,) + poisoned[0].shape)
        if any(np.allclose(row, bad, rtol=0.0, atol=1e-9) for row in rows for bad in poisoned):
            raise g.SpaceError("restore refused")
        return data

    monkeypatch.setattr(estimators, "_restore", failing)
    with pytest.raises(SolverError, match="unit 'control_3': restore refused"):
        g.placebo_test(panel, method)


@pytest.mark.parametrize("method", ["gsc", "gsdid"])
def test_placebo_donor_failure_names_the_first_failing_unit(method, monkeypatch):
    fail_controls_5_and_3("scalar", method, monkeypatch)


@pytest.mark.parametrize("method", ["gsc", "gsdid"])
def test_sphere_placebo_donor_failure_names_the_first_failing_unit(method, monkeypatch):
    fail_controls_5_and_3("sphere", method, monkeypatch)


def test_an_invalid_post_period_donor_point_names_its_unit_and_period(monkeypatch):
    """The donors' window starts at T0: a point refused in it is named by
    its own period, time 4 here, and not by its place in the window."""
    panel = make_flat_panel(np.random.default_rng(2), g.spd_space(3), J=3, T=6, T0=3)
    bad = g.estimate_gsc(panel.with_treated_unit(2)).synthetic[4].data
    restore = estimators.metric_restore_stack

    def negate_the_bad_point(space, vecs, **kwargs):
        data = restore(space, vecs, **kwargs)
        hit = np.all(np.isclose(data, bad, rtol=0.0, atol=1e-9), axis=(-2, -1))
        data[hit] = -data[hit]
        return data

    monkeypatch.setattr(estimators, "metric_restore_stack", negate_the_bad_point)
    with pytest.raises(
        SolverError,
        match=r"unit 'control_2': synthetic outcome \(time 4\) is invalid: spd_frobenius: minimum",
    ):
        g.placebo_test(panel, "gsc")


def refuse_unit_fits_of_controls_5_and_3(panel, monkeypatch):
    """A stacked weight solver that returns a SolverError in place of the
    unit-weight fits of controls 5 and 3."""
    refused = SolverError("weight fit refused")
    if panel.space.kind == "sphere":  # a member is known by its target, the unit's pre periods
        poisoned, targets = panel.coords[[5, 3], : panel.T0], []
        linearization = estimators._sphere_linearization
        solve = estimators.solve_simplex_gauss_newton
        monkeypatch.setattr(
            estimators, "_sphere_linearization",
            lambda z, y: targets.append(y) or linearization(z, y),
        )

        def failing(linearize, n, cfg=None, size=1):
            fits = solve(linearize, n, cfg, size)
            return [
                refused if any(np.array_equal(y, bad) for bad in poisoned) else fit
                for y, fit in zip(targets[-1], fits)
            ]

        monkeypatch.setattr(estimators, "solve_simplex_gauss_newton", failing)
    else:  # a unit QP is known by its face, which holds the unit's own weight at zero
        solve_qps = estimators._solve_qps

        def failing(problems, cfg=None):
            fits = solve_qps(problems, cfg)
            return [
                refused if qp.allowed is not None and not (qp.allowed[5] and qp.allowed[3])
                else fit
                for qp, fit in zip(problems, fits)
            ]

        monkeypatch.setattr(estimators, "_solve_qps", failing)


@pytest.mark.parametrize("scenario", ["scalar", "sphere"])
@pytest.mark.parametrize("method", ["gsc", "gsdid"])
def test_placebo_donor_weight_fit_failure_names_the_first_failing_unit(
    scenario, method, monkeypatch
):
    """A refused unit-weight fit of controls 5 and 3 fails the placebo test
    at control 3."""
    panel = g.generate(g.SimConfig(scenario=scenario, seed=0, J=8, T=8, T0=6)).panel
    refuse_unit_fits_of_controls_5_and_3(panel, monkeypatch)
    with pytest.raises(SolverError, match="unit 'control_3': weight fit refused"):
        g.placebo_test(panel, method)


def test_placebo_failure_names_unit():
    out = g.generate(g.SimConfig(scenario="network", seed=7))
    with pytest.raises(SolverError, match="control_"):
        g.placebo_test(out.panel, "gsdid")


def test_placebo_rejects_unknown_method():
    values = np.zeros((3, 4))
    panel = scalar_panel(values, T0=3)
    with pytest.raises(SolverError):
        g.placebo_test(panel, "anova")


# ---------------------------------------------------------------------------
# estimates stored on the panel


ESTIMATES = {"gsc": g.estimate_gsc, "gsdid": g.estimate_gsdid}


def record_fit_work(monkeypatch):
    """Names of the weight solves, restores and validations that the
    estimators run, in call order."""
    calls = []
    for name in ("_solve_qps", "solve_simplex_gauss_newton", "_restore", "validate_stack"):
        original = getattr(estimators, name)
        monkeypatch.setattr(
            estimators, name,
            functools.partial(lambda f, n, *a, **k: calls.append(n) or f(*a, **k), original, name),
        )
    return calls


@pytest.mark.parametrize("method", ["gsc", "gsdid"])
@pytest.mark.parametrize("scenario", ["scalar", "spd", "sphere"])
def test_a_second_estimate_returns_the_stored_result_and_fits_nothing(
    scenario, method, monkeypatch
):
    panel = g.generate(g.SimConfig(scenario=scenario, seed=1, J=6, T=8, T0=6)).panel
    calls = record_fit_work(monkeypatch)
    first = ESTIMATES[method](panel)
    solver = "solve_simplex_gauss_newton" if scenario == "sphere" else "_solve_qps"
    assert solver in calls and "_restore" in calls and "validate_stack" in calls
    calls.clear()
    assert ESTIMATES[method](panel) is first
    assert ESTIMATES[method](panel, g.SolverConfig(), True) is first  # the normalised key
    assert calls == []


@pytest.mark.parametrize("method", ["gsc", "gsdid"])
@pytest.mark.parametrize("scenario", ["scalar", "spd", "sphere"])
def test_placebo_after_an_estimate_fits_only_the_donors(scenario, method, monkeypatch):
    out = g.generate(g.SimConfig(scenario=scenario, seed=2, J=6, T=8, T0=6, effect_size=0.5))
    fresh = g.Panel(out.panel.space, out.panel.data, out.panel.T0)
    panel = out.panel
    ESTIMATES[method](panel)
    rows, weight_stack = [], estimators._weight_stack
    monkeypatch.setattr(
        estimators, "_weight_stack",
        lambda panel, r, cfg, time=False, *a: rows.append((list(r), time))
        or weight_stack(panel, r, cfg, time, *a),
    )
    reports = g.placebo_test(panel, method)
    donors = list(range(1, panel.n_units))
    roles = [False] if method == "gsc" else [False, True]  # unit weights, then gsdid's time weights
    assert rows == [(donors, time) for time in roles]
    rows.clear()
    expected = g.placebo_test(fresh, method)
    assert rows == [([0], time) for time in roles] + [(donors, time) for time in roles]
    if method == "gsdid":
        reports, expected = [reports], [expected]
    assert len(reports) == len(expected)
    for got, want in zip(reports, expected):
        assert np.array_equal(got.statistics, want.statistics)
        assert got.rank_of_treated == want.rank_of_treated and got.p_value == want.p_value


@pytest.mark.parametrize("method", ["gsc", "gsdid"])
def test_another_config_or_repair_fits_anew(method, monkeypatch):
    panel = g.generate(g.SimConfig(scenario="spd", seed=0, J=5, T=7, T0=5)).panel
    estimate = ESTIMATES[method]
    calls = record_fit_work(monkeypatch)
    first = estimate(panel)
    results = [
        estimate(panel, g.SolverConfig(tol_kkt=1e-9)),
        estimate(panel, g.SolverConfig(max_iter=500)),
        estimate(panel, None, False),
    ]
    assert all(r is not first for r in results)
    # row 0's unit weights once per config (``repair`` keys only results), and
    # gsdid's time weights once per result
    solves = 3 if method == "gsc" else 3 + 4
    assert calls.count("_solve_qps") == solves
    ESTIMATES["gsdid" if method == "gsc" else "gsc"](panel)  # the other method's own key
    # gsdid adds its time weights, gsc nothing
    assert calls.count("_solve_qps") == solves + (method == "gsc")
    calls.clear()
    assert estimate(panel, g.SolverConfig(tol_kkt=1e-9)) is results[0]
    assert estimate(panel, repair=False) is results[2]
    assert calls == []


def test_a_panel_with_another_treated_unit_shares_no_stored_fit(monkeypatch):
    panel = g.generate(g.SimConfig(scenario="scalar", seed=3, J=5, T=7, T0=5)).panel
    first = g.estimate_gsc(panel)
    calls = record_fit_work(monkeypatch)
    for j in (0, 2):
        swapped = panel.with_treated_unit(j)
        assert swapped._fits == {} and swapped._fits is not panel._fits
        calls.clear()
        result = g.estimate_gsc(swapped)
        assert result is not first and "_solve_qps" in calls
    assert g.estimate_gsc(panel) is first and len(panel._fits) == 2  # unit weights and result


@pytest.mark.parametrize("method", ["gsc", "gsdid"])
def test_a_failed_fit_is_not_stored(method, monkeypatch):
    panel = g.generate(g.SimConfig(scenario="scalar", seed=4, J=5, T=7, T0=5)).panel
    attempts, restore = [], estimators._restore

    def refusing(*args):
        attempts.append(1)
        raise g.SpaceError("restore refused")

    monkeypatch.setattr(estimators, "_restore", refusing)
    # the unit weights' fit succeeds and stays stored; the failed result is not stored
    for n in (1, 2):  # a failing fit raises again on every call
        with pytest.raises(g.SpaceError, match="restore refused"):
            ESTIMATES[method](panel)
        assert len(attempts) == n and set(panel._fits) == {("unit", g.SolverConfig())}
    with pytest.raises(SolverError, match="unit 'treated': restore refused"):
        g.placebo_test(panel, method)
    monkeypatch.setattr(estimators, "_restore", restore)
    result = ESTIMATES[method](panel)
    assert ESTIMATES[method](panel) is result and len(panel._fits) == 2


@pytest.mark.parametrize("scenario", ["scalar", "sphere"])
@pytest.mark.parametrize("method", ["gsc", "gsdid"])
def test_a_refused_donor_unit_fit_is_never_stored(scenario, method, monkeypatch):
    """The unit weights of the rows fitted before control 3's refused fit
    stay stored, and a second placebo test fits from control 3 on again
    and raises the same error."""
    panel = g.generate(g.SimConfig(scenario=scenario, seed=0, J=8, T=8, T0=6)).panel
    refuse_unit_fits_of_controls_5_and_3(panel, monkeypatch)
    rows, weight_stack = [], estimators._weight_stack
    monkeypatch.setattr(
        estimators, "_weight_stack",
        lambda panel, r, cfg, time=False, *a: rows.extend([] if time else [list(r)])
        or weight_stack(panel, r, cfg, time, *a),
    )
    for fitted in ([[0], list(range(1, 9)), [1], [2], [3]], [list(range(3, 9)), [3]]):
        with pytest.raises(SolverError, match="unit 'control_3': weight fit refused"):
            g.placebo_test(panel, method)
        assert rows == fitted  # the rows whose unit weights were fitted: all, then one by one
        assert set(panel._fits[("unit", g.SolverConfig())]) == {0, 1, 2}
        rows.clear()


@pytest.mark.parametrize("scenario", ["scalar", "spd", "sphere"])
def test_placebo_tests_share_the_donors_unit_weights(scenario, monkeypatch):
    """A second GSC placebo test fits nothing, and a GSDID placebo test after
    it fits only time weights: the J donors' and row 0's; a GSC placebo test
    after a GSDID one fits nothing. Each report equals a fresh panel's."""
    data = g.generate(g.SimConfig(scenario=scenario, seed=3, J=6, T=8, T0=5, effect_size=0.5))
    space, T0 = data.panel.space, data.panel.T0
    gsc_first, gsdid_first = (g.Panel(space, data.panel.data, T0) for _ in "ab")
    expected = {
        method: g.placebo_test(g.Panel(space, data.panel.data, T0), method)
        for method in ("gsc", "gsdid")
    }
    calls = record_fit_work(monkeypatch)
    solved = record_weight_targets(monkeypatch)
    solvers = {"_solve_qps", "solve_simplex_gauss_newton"}

    def placebo(panel, method, n_solved):
        calls.clear(), solved.clear()
        reports, want = g.placebo_test(panel, method), expected[method]
        assert len(solved) == n_solved and bool(solvers & set(calls)) == (n_solved > 0)
        for got, want in zip(*([r] if method == "gsdid" else r for r in (reports, want))):
            assert np.array_equal(got.statistics, want.statistics)
            assert got.rank_of_treated == want.rank_of_treated and got.p_value == want.p_value
        return solved[:]

    J = data.panel.n_controls
    placebo(gsc_first, "gsc", J + 1)
    placebo(gsc_first, "gsc", 0)
    time_targets = placebo(gsc_first, "gsdid", J + 1)
    D = gsc_first.coords.shape[-1]
    assert all(y.shape == (J, D) for y in time_targets)  # time problems: a unit's is (T0, D)
    assert sum(np.array_equal(y, estimators._post_means(gsc_first)[1:]) for y in time_targets) == 1
    placebo(gsdid_first, "gsdid", 2 * (J + 1))
    placebo(gsdid_first, "gsc", 0)


def record_weight_targets(monkeypatch):
    """The target of every weight problem member solved, in call order: a
    unit problem's is its row's pre-period coordinates, a time problem's the
    other units' targets. Flat problems are known by the QP, sphere ones by
    the linearization of their stack."""
    targets, solved = {}, []
    weight_qp, linearization = estimators._weight_qp, estimators._sphere_linearization
    solve_qps, gauss_newton = estimators._solve_qps, estimators.solve_simplex_gauss_newton

    def tagging(build):
        def tagged(z, y, *args):
            problem = build(z, y, *args)
            targets[id(problem)] = problem, y  # the problem kept alive, so its id stays its own
            return problem

        return tagged

    def solving_qps(problems, cfg=None):
        solved.extend(targets[id(qp)][1] for qp in problems)
        return solve_qps(problems, cfg)

    def solving_gauss_newton(linearize, n, cfg=None, size=1):
        solved.extend(targets[id(linearize)][1])
        return gauss_newton(linearize, n, cfg, size)

    monkeypatch.setattr(estimators, "_weight_qp", tagging(weight_qp))
    monkeypatch.setattr(estimators, "_sphere_linearization", tagging(linearization))
    monkeypatch.setattr(estimators, "_solve_qps", solving_qps)
    monkeypatch.setattr(estimators, "solve_simplex_gauss_newton", solving_gauss_newton)
    return solved


@pytest.mark.parametrize("scenario", ["scalar", "spd", "sphere"])
def test_one_analysis_solves_each_rows_unit_problem_once(scenario, monkeypatch):
    """GSC, GSDID, per-period GSDID and both placebo tests on one panel solve
    each row's unit problem once and row 0's time problem for the post means
    once."""
    sim = g.SimConfig(scenario=scenario, seed=2, J=6, T=8, T0=5, effect_size=0.5)
    panel = g.generate(sim).panel
    solved = record_weight_targets(monkeypatch)
    g.estimate_gsc(panel)
    g.estimate_gsdid(panel)
    g.estimate_gsdid_per_time(panel)
    g.placebo_test(panel, "gsc")
    g.placebo_test(panel, "gsdid")

    def solves(target):
        return sum(y.shape == target.shape and np.array_equal(y, target) for y in solved)

    J, P = panel.n_controls, panel.n_periods - panel.T0
    units = panel.coords[:, : panel.T0]
    for target in units:  # each row's unit problem once (spd's rows 2 and 6 share a target)
        assert solves(target) == sum(np.array_equal(target, other) for other in units)
    assert solves(estimators._post_means(panel)[1:]) == 1  # row 0's time problem
    # then a time problem per post period, and the donors' unit and (gsdid) time problems
    assert len(solved) == 2 + P + 2 * J


def analysis_outputs():
    """Each step of an analysis of a panel: its outputs as arrays."""

    def gsc(r):
        return [r.weights.values, [x.data for x in r.synthetic], [e.length for e in r.effects]]

    def gsdid(r):
        means = [x.data for x in r.intermediates.values()]
        return [r.unit_weights.values, r.time_weights.values, r.synthetic.data, means]

    def placebo(reports):
        reports = reports if isinstance(reports, list) else [reports]
        return [x for r in reports for x in (r.statistics, [r.rank_of_treated, r.p_value])]

    return {
        "gsc": lambda panel: gsc(g.estimate_gsc(panel)),
        "gsdid": lambda panel: gsdid(g.estimate_gsdid(panel)) + [g.estimate_gsdid(panel).effect.length],
        "per_time": lambda panel: [
            [e.start.data for e in g.estimate_gsdid_per_time(panel)],
            [e.length for e in g.estimate_gsdid_per_time(panel)],
        ],
        "placebo_gsc": lambda panel: placebo(g.placebo_test(panel, "gsc")),
        "placebo_gsdid": lambda panel: placebo(g.placebo_test(panel, "gsdid")),
    }


@pytest.mark.parametrize("scenario", ["scalar", "spd", "sphere"])
def test_outputs_do_not_depend_on_the_order_that_fills_the_store(scenario):
    data = g.generate(g.SimConfig(scenario=scenario, seed=4, J=6, T=8, T0=5, effect_size=0.5))
    forward, backward = (g.Panel(data.panel.space, data.panel.data, data.panel.T0) for _ in "ab")
    steps = analysis_outputs()
    first = {name: step(forward) for name, step in steps.items()}
    last = {name: step(backward) for name, step in reversed(steps.items())}
    for name in steps:
        assert len(first[name]) == len(last[name])
        for a, b in zip(first[name], last[name]):
            assert np.array_equal(a, b), name


def test_gsdid_intermediates_are_read_only():
    panel = g.generate(g.SimConfig(scenario="scalar", seed=5, J=5, T=7, T0=5)).panel
    for result in (g.estimate_gsdid(panel), g.estimate_gdid(panel)):
        point = result.intermediates["treated_pre"]
        with pytest.raises(TypeError):
            result.intermediates["treated_pre"] = result.synthetic
        with pytest.raises(TypeError):
            del result.intermediates["controls_pre"]
        assert result.intermediates["treated_pre"] is point and len(result.intermediates) == 4

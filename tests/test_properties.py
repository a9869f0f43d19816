"""Property tests over all eight space kinds.

Covers permutation invariance of the Frechet mean, equivariance of GSC
and GSDID under relabelling the controls, edge-case panels (one control,
one pre period, duplicated controls, constant panels) and exact
identification on a Wasserstein location-scale panel. Examples are drawn
by hypothesis in derandomized mode, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import geosynth as g
from helpers import all_spaces, panel_from_arrays, random_point

SPACES = all_spaces(3)
KINDS = [s.kind for s in SPACES]
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def examples(n: int) -> settings:
    return settings(derandomize=True, max_examples=n, deadline=None, database=None)


def interior_point(space: g.SpaceDescriptor, rng: np.random.Generator) -> np.ndarray:
    """Data of a random point well inside its space's feasible set.

    Panels of such points keep every transport of GSDID feasible: weighted
    differences of them stay far from the boundary of the cone, the orthant
    or the monotone quantile functions.
    """
    kind, n = space.kind, space.dim
    if kind == "laplacian":
        adj = np.triu(1.0 + 0.2 * rng.random((n, n)), 1)
        adj = adj + adj.T
        return np.diag(adj.sum(axis=1)) - adj
    if kind == "sphere":
        v = 1.0 + 0.3 * rng.random(n)
        return v / np.linalg.norm(v)
    if kind == "wasserstein1d":
        return 0.3 * rng.normal() + (1.0 + 0.2 * rng.random()) * ndtri(space.grid)
    if kind == "l2function":
        return np.sin(2.0 * np.pi * space.grid) + 0.3 * rng.normal(size=n)
    a = 0.1 * rng.normal(size=(n, n))
    return np.eye(n) + (a + a.T) / 2.0


def interior_data(space, rng, units: int, periods: int) -> np.ndarray:
    return np.array(
        [[interior_point(space, rng) for _ in range(periods)] for _ in range(units)]
    )


def data_scale(data: np.ndarray) -> float:
    return 1.0 + float(np.abs(data).max())


# ---------------------------------------------------------------------------
# Frechet means


@pytest.mark.parametrize("space", SPACES, ids=KINDS)
@examples(15)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=6))
def test_frechet_mean_is_invariant_under_permuting_the_points(space, seed, n):
    rng = np.random.default_rng(seed)
    points = [random_point(space, rng) for _ in range(n)]
    w = rng.dirichlet(np.ones(n))
    perm = rng.permutation(n)
    mean = g.weighted_frechet_mean(points, w)
    permuted = g.weighted_frechet_mean([points[i] for i in perm], w[perm])
    scale = data_scale(np.stack([p.data for p in points]))
    assert g.distance(mean, permuted) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# relabelling the controls


@pytest.mark.parametrize("space", SPACES, ids=KINDS)
@examples(4)
@given(seed=SEEDS)
def test_gsc_and_gsdid_are_equivariant_under_relabelling_the_controls(space, seed):
    rng = np.random.default_rng(seed)
    J, T, T0 = 3, 5, 3
    data = interior_data(space, rng, J + 1, T)
    perm = rng.permutation(J)
    panel = panel_from_arrays(space, data, T0)
    relabelled = panel_from_arrays(space, data[np.r_[0, 1 + perm]], T0)

    gsc, gsc_relabelled = g.estimate_gsc(panel), g.estimate_gsc(relabelled)
    assert np.allclose(gsc_relabelled.weights.values, gsc.weights.values[perm], atol=1e-7)
    for a, b in zip(gsc.effects, gsc_relabelled.effects):
        assert a.length == pytest.approx(b.length, abs=1e-9)

    did, did_relabelled = g.estimate_gsdid(panel), g.estimate_gsdid(relabelled)
    assert np.allclose(
        did_relabelled.unit_weights.values, did.unit_weights.values[perm], atol=1e-7
    )
    assert np.allclose(did_relabelled.time_weights.values, did.time_weights.values, atol=1e-7)
    assert did.effect.length == pytest.approx(did_relabelled.effect.length, abs=1e-9)


# ---------------------------------------------------------------------------
# edge-case panels


@pytest.mark.parametrize("space", SPACES, ids=KINDS)
@examples(3)
@given(seed=SEEDS)
def test_single_control_is_its_own_synthetic(space, seed):
    rng = np.random.default_rng(seed)
    data = interior_data(space, rng, 2, 4)
    panel = panel_from_arrays(space, data, 2)
    gsc = g.estimate_gsc(panel)
    assert gsc.weights.values.tolist() == [1.0]
    for t, point in enumerate(gsc.synthetic):
        assert g.distance(point, panel.outcomes[1][t]) <= 1e-9 * data_scale(data)
    did = g.estimate_gsdid(panel)
    assert did.unit_weights.values.tolist() == [1.0]
    assert np.isfinite(did.effect.length)


@pytest.mark.parametrize("space", SPACES, ids=KINDS)
@examples(3)
@given(seed=SEEDS)
def test_one_pre_period_panels(space, seed):
    rng = np.random.default_rng(seed)
    data = interior_data(space, rng, 4, 3)
    panel = panel_from_arrays(space, data, 1)
    gsc = g.estimate_gsc(panel)
    assert gsc.weights.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(gsc.effects) == 2
    did = g.estimate_gsdid(panel)
    assert did.time_weights.values.tolist() == [1.0]
    assert np.isfinite(did.effect.length)


@pytest.mark.parametrize("space", SPACES, ids=KINDS)
@examples(3)
@given(seed=SEEDS)
def test_duplicated_control_splits_its_weight(space, seed):
    rng = np.random.default_rng(seed)
    data = interior_data(space, rng, 4, 5)
    duplicated = np.concatenate([data, data[1:2]])
    base = g.estimate_gsc(panel_from_arrays(space, data, 3))
    dup = g.estimate_gsc(panel_from_arrays(space, duplicated, 3))
    w, v = base.weights.values, dup.weights.values
    assert v[0] + v[3] == pytest.approx(w[0], abs=1e-7)
    assert np.allclose(v[1:3], w[1:3], atol=1e-7)
    for a, b in zip(base.effects, dup.effects):
        assert a.length == pytest.approx(b.length, abs=1e-9)


@pytest.mark.parametrize("space", SPACES, ids=KINDS)
@examples(3)
@given(seed=SEEDS, units=st.integers(min_value=2, max_value=5))
def test_constant_panel_has_zero_effects(space, seed, units):
    rng = np.random.default_rng(seed)
    point = interior_point(space, rng)
    data = np.broadcast_to(point, (units, 4) + point.shape)
    panel = panel_from_arrays(space, data, 2)
    tol = 1e-9 * data_scale(point)
    gsc = g.estimate_gsc(panel)
    assert all(e.length <= tol for e in gsc.effects)
    assert gsc.pre_fit_rmse <= tol
    assert g.estimate_gsdid(panel).effect.length <= tol
    assert g.estimate_gdid(panel).effect.length <= tol


# ---------------------------------------------------------------------------
# identification on distributions


@examples(6)
@given(
    seed=SEEDS,
    J=st.integers(min_value=5, max_value=30),
    T0=st.integers(min_value=2, max_value=8),
    shift=st.floats(min_value=-3.0, max_value=3.0),
)
def test_wasserstein_location_scale_panel_is_identified(seed, J, T0, shift):
    """Quantiles ``Q_jt(p) = m_t + s_t (mu_j + sigma_j z(p))``; the treated
    unit's untreated quantiles are a mix of five donors, which in one
    dimension is their Wasserstein barycenter, and after T0 they shift by
    ``shift``. GSC must return that mix as the counterfactual and effects of
    length ``|shift|``."""
    rng = np.random.default_rng(seed)
    T = T0 + 3
    space = g.wasserstein_space(41)
    z = ndtri(space.grid)
    m = 70.0 + np.cumsum(rng.normal(0.2, 0.4, size=T))
    s = rng.uniform(0.9, 1.1, size=T)
    mu = rng.normal(0.0, 3.0, size=J)
    sigma = rng.uniform(8.0, 14.0, size=J)
    mix = np.zeros(J)
    mix[rng.choice(J, size=5, replace=False)] = rng.dirichlet(np.ones(5))
    donors = m[:, None] + s[:, None] * (mu[:, None, None] + sigma[:, None, None] * z)
    untreated = m[:, None] + s[:, None] * (mix @ mu + (mix @ sigma) * z)
    treated = untreated + shift * (np.arange(T) >= T0)[:, None]
    panel = panel_from_arrays(space, np.concatenate([treated[None], donors]), T0)

    gsc = g.estimate_gsc(panel)
    synthetic = np.array([p.data for p in gsc.synthetic])
    assert np.abs(synthetic - untreated).max() <= 1e-9 * (1.0 + np.abs(untreated).max())
    for effect in gsc.effects:
        assert effect.length == pytest.approx(abs(shift), abs=1e-9 * (1.0 + abs(shift)))

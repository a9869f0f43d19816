"""Unit tests for space descriptors, charts, distances, geodesics, means,
transport maps, and the numerical repair protocol."""

import math

import numpy as np
import pytest

import geosynth as g
from geosynth.spaces import (
    RepairLog,
    metric_restore,
    metric_restore_stack,
    metric_weight_sqrt,
    validate_stack,
)
from helpers import all_spaces, flat_spaces, random_point


# ---------------------------------------------------------------------------
# descriptors and validation


def test_descriptor_rejects_unknown_kind():
    with pytest.raises(g.SpaceError):
        g.SpaceDescriptor(kind="hyperbolic", dim=3)


def test_descriptor_grid_rules():
    with pytest.raises(g.SpaceError):
        g.SpaceDescriptor(kind="wasserstein1d", dim=3, grid=[0.2, 0.2, 0.8])
    with pytest.raises(g.SpaceError):
        g.SpaceDescriptor(kind="wasserstein1d", dim=3, grid=[0.0, 0.5, 0.9])
    with pytest.raises(g.SpaceError):
        g.SpaceDescriptor(kind="laplacian", dim=3, grid=[0.1, 0.5, 0.9])
    with pytest.raises(g.SpaceError):
        g.SpaceDescriptor(kind="spd_power", dim=3)
    with pytest.raises(g.SpaceError):
        g.spd_power_space(3, -1.0)


def test_descriptor_equality_and_hash():
    a = g.wasserstein_space(11)
    b = g.wasserstein_space(11)
    c = g.wasserstein_space(13)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert g.spd_space(3) != g.spd_space(3, "log_euclidean")


def test_validate_identity_matrix_is_not_a_laplacian():
    space = g.laplacian_space(4)
    report = g.validate_point(g.ObjectPoint(space, np.eye(4)))
    assert report is not None and "sum to 0" in report


def test_validate_zero_matrix_is_a_laplacian():
    space = g.laplacian_space(4)
    assert g.validate_point(g.ObjectPoint(space, np.zeros((4, 4)))) is None


def test_validate_sphere_points():
    space = g.sphere_space(3)
    assert g.validate_point(g.ObjectPoint(space, np.array([1.0, 0.0, 0.0]))) is None
    report = g.validate_point(g.ObjectPoint(space, np.array([0.5, 0.5, 0.5])))
    assert report is not None and "norm" in report
    report = g.validate_point(g.ObjectPoint(space, np.array([-0.6, 0.8, 0.0])))
    assert report is not None and "nonnegative" in report


def test_validate_spd_and_quantiles():
    spd = g.spd_space(3)
    assert g.validate_point(g.ObjectPoint(spd, -np.eye(3))) is not None
    assert g.validate_point(g.ObjectPoint(spd, np.eye(3))) is None
    ws = g.wasserstein_space(4, grid=[0.2, 0.4, 0.6, 0.8])
    assert g.validate_point(g.ObjectPoint(ws, np.array([0.0, 1.0, 0.5, 2.0]))) is not None


@pytest.mark.parametrize("space", all_spaces(), ids=lambda s: s.kind)
def test_validate_stack_names_the_first_invalid_point(space):
    rng = np.random.default_rng(11)
    stack = np.stack([random_point(space, rng).data for _ in range(6)])
    assert validate_stack(space, stack) is None
    assert validate_stack(space, stack[:0]) is None
    broken = stack.copy()
    broken[4, ...] = np.nan
    assert validate_stack(space, broken) == (4, f"{space.kind}: entries must be finite")
    if space.kind == "l2function":
        return
    # negating a point breaks its cone, orthant or monotonicity
    broken[2:4] = -stack[2:4]
    expected = g.validate_point(g.ObjectPoint(space, broken[2]))
    assert expected is not None
    assert validate_stack(space, broken) == (2, expected)
    broken[1, ...] = np.inf
    assert validate_stack(space, broken)[0] == 1


def test_object_point_shape_check():
    with pytest.raises(g.SpaceError):
        g.ObjectPoint(g.laplacian_space(3), np.zeros(3))


def test_tangent_vector_must_be_orthogonal():
    space = g.sphere_space(3)
    base = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0]))
    g.TangentVector(base, np.array([0.0, 2.0, 0.0]))
    with pytest.raises(g.SpaceError):
        g.TangentVector(base, np.array([1.0, 1.0, 0.0]))


# ---------------------------------------------------------------------------
# distances


def test_distance_constant_functions():
    space = g.l2function_space(np.linspace(0.0, 2.0, 7))
    a = g.ObjectPoint(space, np.full(7, 1.25))
    b = g.ObjectPoint(space, np.full(7, -0.75))
    assert g.distance(a, b) == pytest.approx(2.0, abs=1e-12)


def test_distance_two_point_grid():
    space = g.l2function_space([0.0, 1.0])
    a = g.ObjectPoint(space, np.array([0.0, 0.0]))
    b = g.ObjectPoint(space, np.array([3.0, 4.0]))
    assert g.distance(a, b) == pytest.approx(math.sqrt(0.5 * 9 + 0.5 * 16), abs=1e-12)


def test_distance_sphere_quarter_circle():
    space = g.sphere_space(4)
    e1 = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0, 0.0]))
    e2 = g.ObjectPoint(space, np.array([0.0, 1.0, 0.0, 0.0]))
    assert g.distance(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_distance_wasserstein_location_shift():
    space = g.wasserstein_space(51)
    rng = np.random.default_rng(1)
    base = np.sort(rng.normal(size=51))
    a = g.ObjectPoint(space, base)
    b = g.ObjectPoint(space, base + 1.75)
    assert g.distance(a, b) == pytest.approx(1.75, abs=1e-12)


def test_distance_log_euclidean_example():
    space = g.spd_space(2, "log_euclidean")
    a = g.ObjectPoint(space, np.eye(2))
    b = g.ObjectPoint(space, math.e**2 * np.eye(2))
    assert g.distance(a, b) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_distance_space_mismatch():
    a = g.ObjectPoint(g.l2function_space([0.0, 1.0]), np.zeros(2))
    b = g.ObjectPoint(g.l2function_space([0.0, 2.0]), np.zeros(2))
    with pytest.raises(g.SpaceError):
        g.distance(a, b)


def test_product_distance():
    space = g.l2function_space(np.linspace(0.0, 1.0, 5))
    a = g.ObjectPoint(space, np.full(5, 0.0))
    b = g.ObjectPoint(space, np.full(5, 3.0))
    c = g.ObjectPoint(space, np.full(5, 4.0))
    zero = g.ObjectPoint(space, np.zeros(5))
    assert g.product_distance([a], [b]) == pytest.approx(g.distance(a, b))
    assert g.product_distance([a, b], [a, b]) == 0.0
    assert g.product_distance([zero, zero], [b, c]) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(g.SpaceError):
        g.product_distance([a], [b, c])


def test_fisher_rao_distance():
    x = np.linspace(0.0, 1.0, 201)
    f = np.full_like(x, 1.0)
    assert g.fisher_rao_distance(f, f, x) == pytest.approx(0.0, abs=1e-12)

    # disjoint supports on a shared grid
    x2 = np.linspace(0.0, 4.0, 4001)
    f1 = np.where(x2 <= 1.0, 1.0, 0.0)
    f2 = np.where(x2 >= 3.0, 1.0, 0.0)
    f1 = f1 / np.trapezoid(f1, x2)
    f2 = f2 / np.trapezoid(f2, x2)
    assert g.fisher_rao_distance(f1, f2, x2) == pytest.approx(math.pi / 2, abs=1e-12)

    # uniforms on [0,1] and [0.5,1.5]: affinity is the 0.5 overlap
    x3 = np.linspace(0.0, 1.5, 3001)
    u1 = np.where(x3 <= 1.0, 1.0, 0.0)
    u2 = np.where(x3 >= 0.5, 1.0, 0.0)
    u1 = u1 / np.trapezoid(u1, x3)
    u2 = u2 / np.trapezoid(u2, x3)
    assert g.fisher_rao_distance(u1, u2, x3) == pytest.approx(math.pi / 3, abs=2e-3)

    with pytest.raises(g.SpaceError):
        g.fisher_rao_distance(2 * f, f, x)


# ---------------------------------------------------------------------------
# charts


def test_log_euclidean_chart_of_identity_is_zero():
    space = g.spd_space(3, "log_euclidean")
    coords = g.flat_embed(g.ObjectPoint(space, np.eye(3)))
    assert np.allclose(coords, 0.0, atol=1e-15)


def test_log_cholesky_chart_example():
    space = g.spd_space(2, "log_cholesky")
    coords = g.flat_embed(g.ObjectPoint(space, np.diag([4.0, 9.0])))
    assert coords == pytest.approx([0.0, math.log(2.0), math.log(3.0)], abs=1e-12)


def test_chart_roundtrip_all_flat_spaces():
    rng = np.random.default_rng(7)
    for space in flat_spaces():
        for _ in range(100):
            p = random_point(space, rng)
            back = g.flat_restore(g.flat_embed(p), space)
            assert g.distance(p, back) <= 1e-9 * (1.0 + g.distance(p, p) + np.abs(p.data).max())
        p = random_point(space, rng)
        back = metric_restore(g.metric_embed(p), space)
        assert g.distance(p, back) <= 1e-9


def test_flat_restore_rejects_bad_coords():
    space = g.spd_space(3)
    with pytest.raises(g.SpaceError):
        g.flat_restore(np.zeros(5), space)
    with pytest.raises(g.SpaceError):
        g.flat_restore(np.full(9, np.nan), space)
    with pytest.raises(g.SpaceError, match="must have length 5"):
        metric_restore(np.zeros(4), g.wasserstein_space(5))
    with pytest.raises(g.SpaceError):
        g.flat_embed(g.ObjectPoint(g.sphere_space(3), np.array([1.0, 0.0, 0.0])))


REPAIRABLE = ("laplacian", "spd_frobenius", "spd_power", "wasserstein1d")


def _outside(space, vec, eps):
    """Metric coordinates ``vec`` moved about ``eps`` out of the feasible set."""
    if space.kind not in REPAIRABLE:
        return vec
    if space.kind == "wasserstein1d":
        q = vec / metric_weight_sqrt(space)
        q[5] = q[6] + eps
        return q * metric_weight_sqrt(space)
    n = space.dim
    a = vec.reshape(n, n).copy()
    if space.kind == "laplacian":
        a[0, 1] = a[1, 0] = eps
    else:  # the chart is the (powered) matrix itself
        a -= (np.linalg.eigvalsh(a)[0] + eps) * np.eye(n)
    return a.ravel()


@pytest.mark.parametrize("space", flat_spaces(), ids=lambda s: s.kind)
def test_metric_restore_stack_matches_per_point_restore(space):
    rng = np.random.default_rng(11)
    feasible = np.stack([g.metric_embed(random_point(space, rng)) for _ in range(5)])
    near = feasible.copy()  # rows 1 and 3 need a repair within the budget
    near[1], near[3] = _outside(space, near[1], 3e-7), _outside(space, near[3], 5e-7)
    far = near.copy()  # and row 4 one beyond it (isotonic repair has no budget)
    far[4] = _outside(space, far[4], 10.0)
    outcomes = []
    for vecs in (feasible, near, far):
        for repair in (True, False):
            point_log, stack_log = RepairLog(), RepairLog()
            try:
                expected = np.stack([metric_restore(v, space, repair, point_log).data for v in vecs])
            except g.SpaceError as exc:
                with pytest.raises(g.SpaceError) as info:
                    metric_restore_stack(space, vecs, repair, stack_log)
                assert str(info.value) == str(exc)
                outcomes.append("raised")
            else:
                restored = metric_restore_stack(space, vecs, repair, stack_log)
                assert restored.tobytes() == expected.tobytes()
                outcomes.append(len(point_log.events))
            assert stack_log.events == point_log.events
    if space.kind not in REPAIRABLE:
        assert outcomes == [0] * 6
    else:
        beyond = 3 if space.kind == "wasserstein1d" else "raised"
        assert outcomes == [0, 0, 2, "raised", beyond, "raised"]


def test_quadrature_weights_normalized():
    for space in (g.wasserstein_space(17), g.l2function_space(np.linspace(0, 3, 9))):
        w = g.quadrature_weights(space)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(w > 0)
        # computed once per descriptor and shared, so callers cannot modify it
        assert g.quadrature_weights(space) is w and not w.flags.writeable
    with pytest.raises(g.SpaceError):
        g.quadrature_weights(g.laplacian_space(3))


def test_metric_embed_matches_distance_on_grids():
    rng = np.random.default_rng(3)
    space = g.l2function_space(np.linspace(0.0, 1.0, 13))
    a, b = random_point(space, rng), random_point(space, rng)
    gap = np.linalg.norm(g.metric_embed(a) - g.metric_embed(b))
    assert gap == pytest.approx(g.distance(a, b), rel=1e-12)


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_endpoints_exact():
    rng = np.random.default_rng(11)
    for space in all_spaces():
        a, b = random_point(space, rng), random_point(space, rng)
        assert np.array_equal(g.geodesic_eval(a, b, 0.0).data, a.data)
        assert np.array_equal(g.geodesic_eval(a, b, 1.0).data, b.data)
    with pytest.raises(g.SpaceError):
        g.geodesic_eval(a, b, 1.5)


def test_geodesic_sphere_midpoint():
    space = g.sphere_space(4)
    e1 = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0, 0.0]))
    e2 = g.ObjectPoint(space, np.array([0.0, 1.0, 0.0, 0.0]))
    mid = g.geodesic_eval(e1, e2, 0.5)
    assert mid.data == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0], abs=1e-15)


def test_geodesic_log_euclidean_midpoint():
    space = g.spd_space(2, "log_euclidean")
    a = g.ObjectPoint(space, np.eye(2))
    b = g.ObjectPoint(space, math.e**2 * np.eye(2))
    mid = g.geodesic_eval(a, b, 0.5)
    assert mid.data == pytest.approx(math.e * np.eye(2), abs=1e-12)


def test_geodesic_axiom_all_spaces():
    rng = np.random.default_rng(13)
    params = [0.0, 0.25, 0.5, 0.75, 1.0]
    for space in all_spaces():
        for _ in range(25):
            a, b = random_point(space, rng), random_point(space, rng)
            d = g.distance(a, b)
            for s in params:
                for t in params:
                    gap = g.distance(g.geodesic_eval(a, b, s), g.geodesic_eval(a, b, t))
                    assert abs(gap - abs(t - s) * d) <= 1e-9 * (1.0 + d), space.kind


def test_geodesic_antipodal_sphere_raises():
    space = g.sphere_space(3)
    a = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0]))
    b = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0]))
    # antipodal pairs cannot both be valid orthant points; check via raw call
    from geosynth.spaces import _sphere_geodesic

    with pytest.raises(g.SpaceError):
        _sphere_geodesic(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), 0.5)
    assert np.array_equal(_sphere_geodesic(a.data, b.data, 0.3), a.data)


# ---------------------------------------------------------------------------
# Frechet means


def test_mean_of_identical_points():
    rng = np.random.default_rng(17)
    for space in all_spaces():
        p = random_point(space, rng)
        mean = g.weighted_frechet_mean([p, p, p], [0.2, 0.5, 0.3])
        assert np.array_equal(mean.data, p.data)


def test_mean_flat_closed_form_and_optimality():
    rng = np.random.default_rng(19)
    for space in flat_spaces():
        points = [random_point(space, rng) for _ in range(5)]
        w = rng.dirichlet(np.ones(5))
        mean = g.weighted_frechet_mean(points, w)
        fmin = sum(wi * g.distance(mean, p) ** 2 for wi, p in zip(w, points))
        for q in points:
            fq = sum(wi * g.distance(q, p) ** 2 for wi, p in zip(w, points))
            assert fmin <= fq + 1e-10
        for _ in range(100):
            q = random_point(space, rng)
            fq = sum(wi * g.distance(q, p) ** 2 for wi, p in zip(w, points))
            assert fmin <= fq + 1e-10


def test_mean_wasserstein_of_two_gaussians():
    from scipy.stats import norm

    space = g.wasserstein_space(101)
    grid = space.grid
    q0 = g.ObjectPoint(space, norm.ppf(grid, loc=0.0, scale=1.0))
    q2 = g.ObjectPoint(space, norm.ppf(grid, loc=2.0, scale=1.0))
    mean = g.weighted_frechet_mean([q0, q2], [0.5, 0.5])
    assert np.abs(mean.data - norm.ppf(grid, loc=1.0, scale=1.0)).max() <= 1e-3


def test_mean_sphere_of_two_axes():
    space = g.sphere_space(3)
    e1 = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0]))
    e2 = g.ObjectPoint(space, np.array([0.0, 1.0, 0.0]))
    mean = g.weighted_frechet_mean([e1, e2], [0.5, 0.5])
    assert mean.data == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], abs=1e-10)


def test_mean_sphere_stationarity():
    rng = np.random.default_rng(23)
    space = g.sphere_space(4)
    points = [random_point(space, rng) for _ in range(6)]
    w = rng.dirichlet(np.ones(6))
    mean = g.weighted_frechet_mean(points, w)
    grad = sum(wi * g.sphere_log(mean, p).vector for wi, p in zip(w, points))
    assert np.linalg.norm(grad) <= 2e-10
    fmin = sum(wi * g.distance(mean, p) ** 2 for wi, p in zip(w, points))
    for _ in range(100):
        q = random_point(space, rng)
        fq = sum(wi * g.distance(q, p) ** 2 for wi, p in zip(w, points))
        assert fmin <= fq + 1e-10


def test_mean_weight_validation():
    space = g.l2function_space([0.0, 1.0])
    p = g.ObjectPoint(space, np.zeros(2))
    q = g.ObjectPoint(space, np.ones(2))
    with pytest.raises(g.SpaceError):
        g.weighted_frechet_mean([p, q], [0.9, 0.3])
    with pytest.raises(g.SpaceError):
        g.weighted_frechet_mean([p, q], [1.2, -0.2])
    with pytest.raises(g.SpaceError):
        g.weighted_frechet_mean([], [])


# ---------------------------------------------------------------------------
# sphere exponential and logarithm


def test_sphere_log_of_base_is_zero():
    space = g.sphere_space(3)
    b = g.ObjectPoint(space, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(g.sphere_log(b, b).vector, 0.0, atol=1e-15)


def test_sphere_exp_quarter_circle():
    space = g.sphere_space(4)
    e1 = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0, 0.0]))
    v = g.TangentVector(e1, np.array([0.0, math.pi / 2, 0.0, 0.0]))
    out = g.sphere_exp(e1, v)
    assert out.data == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-15)


def test_sphere_exp_log_roundtrip():
    rng = np.random.default_rng(29)
    space = g.sphere_space(5)
    for _ in range(50):
        base, target = random_point(space, rng), random_point(space, rng)
        v = g.sphere_log(base, target)
        assert v.norm == pytest.approx(g.distance(base, target), abs=1e-12)
        back = g.sphere_exp(base, v)
        assert np.abs(back.data - target.data).max() <= 1e-10


def test_sphere_log_antipodal_raises():
    from geosynth.spaces import sphere_log

    space = g.sphere_space(3)
    # antipodal handling checked through the raw helper since valid orthant
    # points are never antipodal
    base = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0]))
    bad = g.ObjectPoint.__new__(g.ObjectPoint)
    object.__setattr__(bad, "space", space)
    arr = np.array([-1.0, 0.0, 0.0])
    arr.setflags(write=False)
    object.__setattr__(bad, "data", arr)
    with pytest.raises(g.SpaceError):
        sphere_log(base, bad)


# ---------------------------------------------------------------------------
# transport


def test_transport_endpoint_and_identity():
    rng = np.random.default_rng(31)
    for space in all_spaces():
        for _ in range(30):
            a, b, w = (random_point(space, rng) for _ in range(3))
            d = g.distance(a, b)
            assert g.distance(g.transport(a, b, a), b) <= 1e-9 * (1.0 + d), space.kind
            same = g.transport(a, a, w)
            scale = 1.0 + float(np.abs(w.data).max())
            assert g.distance(same, w) <= 1e-9 * scale, space.kind


def test_transport_wasserstein_uniform_shift():
    space = g.wasserstein_space(101)
    p = space.grid
    alpha = g.ObjectPoint(space, p.copy())          # Unif[0, 1]
    beta = g.ObjectPoint(space, 2.0 + p)            # Unif[2, 3]
    omega = g.ObjectPoint(space, 5.0 + p)           # Unif[5, 6]
    out = g.transport(alpha, beta, omega)
    assert np.abs(out.data - (7.0 + p)).max() <= 1e-9


def test_transport_spd_power_example():
    space = g.spd_power_space(2, 2.0)
    alpha = g.ObjectPoint(space, np.eye(2))
    beta = g.ObjectPoint(space, 2.0 * np.eye(2))
    omega = g.ObjectPoint(space, 3.0 * np.eye(2))
    out = g.transport(alpha, beta, omega)
    # charts are squares: (9 + 4 - 1)^(1/2) = sqrt(12)
    assert out.data == pytest.approx(math.sqrt(12.0) * np.eye(2), abs=1e-12)


def test_transport_sphere_radial_displacement_raises():
    space = g.sphere_space(3)
    alpha = g.ObjectPoint(space, np.array([1.0, 0.0, 0.0]))
    beta = g.ObjectPoint(space, np.array([1.0, 1.0, 0.0]) / math.sqrt(2))
    omega = g.ObjectPoint(space, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(g.SpaceError):
        g.transport(alpha, beta, omega)


def test_transport_quantile_outputs_stay_monotone():
    rng = np.random.default_rng(37)
    space = g.wasserstein_space(41)
    for _ in range(50):
        a, b, w = (random_point(space, rng) for _ in range(3))
        for point in (
            g.transport(a, b, w),
            g.geodesic_eval(a, b, 0.37),
            g.weighted_frechet_mean([a, b, w], [0.5, 0.25, 0.25]),
        ):
            assert g.validate_point(point) is None


# ---------------------------------------------------------------------------
# repair protocol


def test_laplacian_repair_within_budget_flags():
    space = g.laplacian_space(3)

    def lap(w01, w02, w12):
        a = np.array([[0.0, w01, w02], [w01, 0.0, w12], [w02, w12, 0.0]])
        return np.diag(a.sum(axis=1)) - a

    omega = g.ObjectPoint(space, lap(0.0, 1.0, 1.0))
    alpha = g.ObjectPoint(space, lap(0.5 + 1e-7, 1.0, 1.0))
    beta = g.ObjectPoint(space, lap(0.5, 1.0, 1.0))
    log = RepairLog()
    out = g.transport(alpha, beta, omega, log=log)
    assert g.validate_point(out) is None
    assert log.flagged and "laplacian" in log.events[0]
    with pytest.raises(g.SpaceError):
        g.transport(alpha, beta, omega, repair=False)


def test_laplacian_repair_beyond_budget_raises():
    space = g.laplacian_space(3)

    def lap(w01, w02, w12):
        a = np.array([[0.0, w01, w02], [w01, 0.0, w12], [w02, w12, 0.0]])
        return np.diag(a.sum(axis=1)) - a

    omega = g.ObjectPoint(space, lap(0.0, 1.0, 1.0))
    alpha = g.ObjectPoint(space, lap(0.3, 1.0, 1.0))
    beta = g.ObjectPoint(space, lap(0.1, 1.0, 1.0))
    with pytest.raises(g.SpaceError):
        g.transport(alpha, beta, omega)


def test_spd_repair_within_budget_flags():
    space = g.spd_space(2, "frobenius")
    omega = g.ObjectPoint(space, np.diag([2.0, 1e-9]))
    alpha = g.ObjectPoint(space, np.diag([1.0, 7e-9]))
    beta = g.ObjectPoint(space, np.diag([1.0, 1e-9]))
    log = RepairLog()
    out = g.transport(alpha, beta, omega, log=log)
    assert g.validate_point(out) is None
    assert log.flagged
    with pytest.raises(g.SpaceError):
        g.transport(alpha, beta, omega, repair=False)


def test_spd_repair_beyond_budget_raises():
    space = g.spd_space(2, "frobenius")
    omega = g.ObjectPoint(space, np.diag([2.0, 1e-9]))
    alpha = g.ObjectPoint(space, np.diag([1.0, 0.5]))
    beta = g.ObjectPoint(space, np.diag([1.0, 1e-9]))
    with pytest.raises(g.SpaceError):
        g.transport(alpha, beta, omega)


def test_isotonic_repair_flags():
    space = g.wasserstein_space(5, grid=[0.1, 0.3, 0.5, 0.7, 0.9])
    log = RepairLog()
    out = g.flat_restore(np.array([0.0, 1.0, 0.5, 2.0, 3.0]), space, log=log)
    assert g.validate_point(out) is None
    assert log.flagged and "isotonic" in log.events[0]
    with pytest.raises(g.SpaceError):
        g.flat_restore(np.array([0.0, 1.0, 0.5, 2.0, 3.0]), space, repair=False)


# ---------------------------------------------------------------------------
# scaling identity of the geodesic factor model


def test_scaling_identity_flat_spaces():
    rng = np.random.default_rng(41)
    for space in flat_spaces():
        for _ in range(20):
            mu = random_point(space, rng)
            u1 = random_point(space, rng)
            uw = random_point(space, rng)
            alpha = float(rng.uniform(0.05, 0.95))
            lhs = g.distance(g.geodesic_eval(mu, u1, alpha), g.geodesic_eval(mu, uw, alpha))
            rhs = alpha * g.distance(u1, uw)
            assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-12), space.kind

"""Unit tests for the simplex-constrained weight solvers."""

import itertools

import numpy as np
import pytest
from scipy.optimize import nnls

import geosynth as g
from geosynth.simplex_opt import (
    SimplexQp,
    SimplexWeights,
    SolverError,
    _active_set_finish,
    kkt_residual,
    project_simplex,
    solve_simplex_gauss_newton,
)
from helpers import flat_spaces, pre_qp_blocks, random_point, scalar_panel


def lattice_minimum(qp: SimplexQp, step: float = 0.01) -> float:
    """Exhaustive minimum over the simplex lattice (n up to 3)."""
    n = qp.n
    k = round(1.0 / step)
    best = np.inf
    if n == 1:
        return qp.objective(np.array([1.0]))
    if n == 2:
        for i in range(k + 1):
            w = np.array([i, k - i]) / k
            best = min(best, qp.objective(w))
        return best
    for i, j in itertools.product(range(k + 1), range(k + 1)):
        if i + j <= k:
            w = np.array([i, j, k - i - j]) / k
            best = min(best, qp.objective(w))
    return best


# ---------------------------------------------------------------------------
# weight container


def test_simplex_weights_invariants():
    w = SimplexWeights(np.array([0.25, 0.75]))
    assert len(w) == 2
    with pytest.raises(SolverError):
        SimplexWeights(np.array([0.5, 0.4]))
    with pytest.raises(SolverError):
        SimplexWeights(np.array([1.2, -0.2]))
    with pytest.raises(SolverError):
        SimplexWeights(np.array([]))


def test_project_simplex():
    out = project_simplex(np.array([0.5, 0.5, 0.5]))
    assert out == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    out = project_simplex(np.array([10.0, 0.0, -5.0]))
    assert out == pytest.approx([1.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=6) * 3
        w = project_simplex(v)
        assert w.min() >= 0 and w.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# problem builders


def test_unit_qp_perfect_fit_control():
    rng = np.random.default_rng(1)
    blocks = []
    for _ in range(4):
        c = rng.normal(size=(5, 3))
        blocks.append((c[:, 1].copy(), c))
    qp = g.build_unit_weight_qp(blocks)
    assert qp.objective(np.array([0.0, 1.0, 0.0])) <= 1e-16


def test_unit_qp_scalar_interpolation():
    # controls at 0 and 1, treated at 0.3: w = (0.7, 0.3) fits exactly
    qp = g.build_unit_weight_qp([(np.array([0.3]), np.array([[0.0, 1.0]]))])
    assert qp.objective(np.array([0.7, 0.3])) <= 1e-16
    w, val = g.solve_simplex_qp(qp)
    assert w.values == pytest.approx([0.7, 0.3], abs=1e-9)
    assert val <= 1e-16


def test_unit_qp_objective_matches_distances():
    rng = np.random.default_rng(2)
    for space in flat_spaces():
        points = np.array(
            [[random_point(space, rng) for _ in range(3)] for _ in range(5)]
        )
        panel = g.Panel(
            space=space,
            outcomes=tuple(tuple(row) for row in points),
            T0=2,
        )
        qp = g.build_unit_weight_qp(pre_qp_blocks(panel))
        for _ in range(50):
            w = rng.dirichlet(np.ones(4))
            direct = 0.0
            for t in range(2):
                mean = g.weighted_frechet_mean([points[j][t] for j in range(1, 5)], w)
                direct += g.distance(points[0][t], mean) ** 2
            direct /= 2.0
            assert qp.objective(w) == pytest.approx(direct, rel=1e-10, abs=1e-12), space.kind


def test_time_qp_stationary_controls_constant_objective():
    rng = np.random.default_rng(3)
    rows = [np.tile(rng.normal(size=4), (3, 1)) for _ in range(2)]
    post = [row[0] for row in rows]
    qp = g.build_time_weight_qp(rows, post)
    vals = [qp.objective(rng.dirichlet(np.ones(3))) for _ in range(10)]
    assert np.ptp(vals) <= 1e-14


def test_time_qp_scalar_midpoint():
    qp = g.build_time_weight_qp([np.array([[0.0], [2.0]])], [np.array([1.0])])
    lam, val = g.solve_simplex_qp(qp)
    assert lam.values == pytest.approx([0.5, 0.5], abs=1e-9)
    assert val <= 1e-16


def test_time_qp_vertex_evaluation():
    rng = np.random.default_rng(4)
    rows = [rng.normal(size=(3, 4)) for _ in range(5)]
    post = [rng.normal(size=4) for _ in range(5)]
    qp = g.build_time_weight_qp(rows, post)
    for s in range(3):
        e = np.eye(3)[s]
        direct = np.mean([np.sum((post[j] - rows[j][s]) ** 2) for j in range(5)])
        assert qp.objective(e) == pytest.approx(direct, rel=1e-12)


def test_qp_requires_symmetry():
    with pytest.raises(SolverError):
        SimplexQp(gram=np.array([[1.0, 0.5], [0.0, 1.0]]), linear=np.zeros(2), constant=0.0)


# ---------------------------------------------------------------------------
# quadratic program solver


def test_qp_vertex_solution():
    qp = SimplexQp(gram=np.eye(3), linear=np.eye(3)[0], constant=1.0)
    w, val = g.solve_simplex_qp(qp)
    assert w.values == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_qp_constant_objective_returns_uniform():
    qp = SimplexQp(gram=np.zeros((4, 4)), linear=np.zeros(4), constant=2.0)
    w, val = g.solve_simplex_qp(qp)
    assert np.array_equal(w.values, np.full(4, 0.25))
    assert val == 2.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_qp_two_unit_problems_within_rounding_of_the_uniform_point(sign):
    # gram a^2 [[1, -1], [-1, 1]] and linear +-1e-10 [1, -1] put the minimizer
    # 1e-10 / a^2 from the uniform point, whose own gradient fails the bound
    mixing = np.array([[1.0, -1.0], [-1.0, 1.0]])
    linear = sign * np.array([1e-10, -1e-10])
    uniform = np.full(2, 0.5)
    # a = 100 with a constant the weights cannot change: the certified
    # active-set point ties the uncertified uniform point and wins the tie
    qp = SimplexQp(gram=100.0**2 * mixing, linear=linear, constant=1.0)
    assert kkt_residual(qp, uniform) > 1e-10 * (1.0 + np.linalg.norm(qp.gradient(uniform)))
    w, val = g.solve_simplex_qp(qp)
    assert kkt_residual(qp, w.values) <= 1e-10 * (1.0 + np.linalg.norm(qp.gradient(w.values)))
    assert val == qp.objective(uniform) == 1.0
    assert w.values == pytest.approx(uniform, abs=1e-14)
    # a = 1e4: the face solve rounds both coordinates to zero; the active-set
    # loop stops at its feasible point instead of normalizing a zero vector,
    # and the solve fails the certificate cleanly, because no double within
    # rounding of the minimizer meets the absolute 1e-10 bound there
    qp = SimplexQp(gram=1e4**2 * mixing, linear=linear, constant=0.0)
    vertex = np.eye(2)[int(np.argmin(np.diag(qp.gram) - 2.0 * qp.linear))]
    finish = _active_set_finish(qp, vertex, lambda w: False, 100)
    assert np.all(finish >= 0.0) and finish.sum() == 1.0
    with pytest.raises(SolverError, match="KKT residual"):
        g.solve_simplex_qp(qp)


def test_qp_matches_lattice_on_random_problems():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for _ in range(20):
            a = rng.normal(size=(n + 2, n))
            gram = a.T @ a
            linear = rng.normal(size=n)
            qp = SimplexQp(gram=gram, linear=linear, constant=0.0)
            w, val = g.solve_simplex_qp(qp)
            assert val <= lattice_minimum(qp) + 1e-8
            assert kkt_residual(qp, w.values) <= 1e-10 * (
                1.0 + np.linalg.norm(qp.gradient(w.values))
            )


def test_qp_rank_deficient_exactness():
    # one-dimensional column space: the solver must still find an exact
    # interpolating weight through the active-set polish
    rng = np.random.default_rng(6)
    direction = rng.normal(size=7)
    levels = np.array([0.0, 1.0, 3.0, 6.0])
    blocks = [(2.0 * direction, np.outer(direction, levels))]
    qp = g.build_unit_weight_qp(blocks)
    w, val = g.solve_simplex_qp(qp)
    assert val <= 1e-14
    assert float(w.values @ levels) == pytest.approx(2.0, abs=1e-7)


def sphere_tangent_qp(seed: int) -> SimplexQp:
    """Tangent QP (1/T0) sum_t ||sum_j w_j Log_{y_t}(z_jt)||^2 of a sphere scenario.

    Its gram has rank far below the number of controls, so the exact
    finish of the QP solver has to cope with a singular face system.
    """
    panel = g.generate(g.SimConfig(scenario="sphere", seed=seed)).panel
    blocks = []
    for t in panel.pre_periods():
        y = panel.outcomes[0][t]
        c = np.stack(
            [g.sphere_log(y, panel.outcomes[j][t]).vector for j in range(1, panel.n_units)]
        ).T
        blocks.append((np.zeros(c.shape[0]), c))
    return g.build_unit_weight_qp(blocks)


def test_qp_certified_on_rank_deficient_sphere_tangent_qp():
    qp = sphere_tangent_qp(seed=0)
    w, val = g.solve_simplex_qp(qp)
    grad = qp.gradient(w.values)
    assert kkt_residual(qp, w.values) <= 1e-10 * (1.0 + np.linalg.norm(grad))
    assert val == pytest.approx(qp.objective(w.values))


def stress_problem(
    kind: str, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares factor and target of one hard simplex QP."""
    m = 40
    if kind == "rank_deficient":
        r = max(1, n // 4)
        a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        return a, rng.normal(size=m)
    if kind == "duplicated":
        base = rng.normal(size=(m, max(2, n // 2)))
        a = base[:, rng.integers(0, base.shape[1], size=n)]
        return a, a @ rng.dirichlet(np.ones(n)) + 0.1 * rng.normal(size=m)
    if kind == "near_rank_one":
        a = np.outer(rng.normal(size=m), rng.normal(size=n)) + 1e-7 * rng.normal(size=(m, n))
        return a, rng.normal(size=m)
    if kind == "constant":
        return np.tile(rng.normal(size=(m, 1)), (1, n)), rng.normal(size=m)
    # off hull: the target lies far outside the convex hull of the columns
    a = rng.normal(size=(m, n))
    return a, a.mean(axis=1) + 10.0 * rng.normal(size=m)


@pytest.mark.parametrize(
    "seed, kind",
    enumerate(["rank_deficient", "duplicated", "near_rank_one", "constant", "off_hull"]),
)
def test_qp_stress_certified_and_no_worse_than_nnls(seed, kind):
    # reference: nonnegative least squares with the sum-to-one constraint
    # as a heavily weighted extra row, normalized onto the simplex
    rng = np.random.default_rng(seed)
    for n in (3, 20, 100, 300):
        for _ in range(2):
            a, b = stress_problem(kind, n, rng)
            qp = g.build_unit_weight_qp([(b, a)])
            w, val = g.solve_simplex_qp(qp)
            grad = qp.gradient(w.values)
            assert kkt_residual(qp, w.values) <= 1e-10 * (1.0 + np.linalg.norm(grad)), (kind, n)
            ref, _ = nnls(np.vstack([a, np.full((1, n), 1e4)]), np.append(b, 1e4),
                          maxiter=50 * n)
            ref_val = qp.objective(ref / ref.sum())
            assert val <= ref_val * (1.0 + 1e-9) + 1e-14 * qp.constant, (kind, n)


def test_qp_budget_exhausted_raises():
    # the optimum has three support coordinates, so reaching it from a
    # vertex takes two releases; one active-set iteration must fail loudly
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 3))
    qp = g.build_unit_weight_qp([(a @ np.array([0.5, 0.3, 0.2]), a)])
    with pytest.raises(SolverError):
        g.solve_simplex_qp(qp, g.SolverConfig(max_iter=1))
    w, val = g.solve_simplex_qp(qp)
    assert w.values == pytest.approx([0.5, 0.3, 0.2], abs=1e-9)
    assert val <= 1e-20


def test_qp_determinism():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 4))
    qp = SimplexQp(gram=a.T @ a, linear=rng.normal(size=4), constant=1.0)
    w1, v1 = g.solve_simplex_qp(qp)
    w2, v2 = g.solve_simplex_qp(qp)
    assert np.array_equal(w1.values, w2.values) and v1 == v2


# ---------------------------------------------------------------------------
# Gauss-Newton solver


def test_gauss_newton_affine_residuals_match_qp():
    # affine residuals make the Gauss-Newton model exact: the solver must
    # reach the QP optimum with the QP certificate
    rng = np.random.default_rng(11)
    factors = rng.normal(size=(3, 4, 5))
    targets = rng.normal(size=(3, 4))

    def linearize(w):
        return np.einsum("tdn,n->td", factors, w) - targets, factors

    w, val = solve_simplex_gauss_newton(linearize, 5)
    qp = g.build_unit_weight_qp(list(zip(targets, factors)))
    w_qp, val_qp = g.solve_simplex_qp(qp)
    assert val == pytest.approx(qp.objective(w.values), rel=1e-12)
    assert val <= val_qp + 1e-12
    assert kkt_residual(qp, w.values) <= 1e-10 * (1.0 + np.linalg.norm(qp.gradient(w.values)))


def test_gauss_newton_constant_objective_returns_uniform():
    def linearize(w):
        return np.ones((2, 3)), np.zeros((2, 3, 4))

    w, val = solve_simplex_gauss_newton(linearize, 4)
    assert np.array_equal(w.values, np.full(4, 0.25))
    assert val == 3.0


def test_gauss_newton_rejects_non_finite():
    def linearize(w):
        return np.full((1, 2), np.nan), np.zeros((1, 2, 3))

    with pytest.raises(SolverError):
        solve_simplex_gauss_newton(linearize, 3)


def test_gauss_newton_reports_uncertified_budget():
    # a nonconvex residual needs more than one step; a budget of one step
    # must fail loudly rather than return an uncertified point
    def linearize(w):
        resid = np.array([[np.sin(3.0 * w[0]) - 0.5]])
        return resid, np.array([[[3.0 * np.cos(3.0 * w[0]), 0.0]]])

    with pytest.raises(SolverError):
        solve_simplex_gauss_newton(linearize, 2, g.SolverConfig(max_iter=1))
    w, val = solve_simplex_gauss_newton(linearize, 2)
    assert np.sin(3.0 * w.values[0]) == pytest.approx(0.5, abs=1e-9)


def test_gauss_newton_raises_when_an_accepted_step_leaves_w_unchanged():
    # The model's target lies about 1e-7 from the uniform start, but the
    # objective rises off the start by a cliff the model cannot see, so the
    # line search halves until the trial rounds back to the start. Within
    # a few ulps of F that trial is accepted; it makes no progress, and
    # the next step would repeat it.
    start = np.full(2, 0.5)
    jac = np.array([[[1.0, -1.0], [0.0, 0.0]]])
    calls = []

    def linearize(w):
        calls.append(w)
        drift = 2e-7 if np.array_equal(w, start) else 1.0
        return np.array([[drift, 1e-5]]), jac

    with pytest.raises(SolverError, match="unchanged"):
        solve_simplex_gauss_newton(linearize, 2, g.SolverConfig(max_iter=200))
    # one evaluation at the start plus one halving line search, far from
    # the 200-step budget (which would take about 6,600 evaluations)
    assert len(calls) <= 40


# ---------------------------------------------------------------------------
# derivative-free solver


def test_derivative_free_quadratic_target():
    target = np.array([0.2, 0.3, 0.5])

    def objective(w):
        return float(np.sum((w - target) ** 2))

    w, val = g.solve_simplex_derivative_free(objective, 3)
    assert np.abs(w.values - target).max() <= 1e-5
    assert val <= 1e-10


def test_derivative_free_constant_returns_uniform():
    w, val = g.solve_simplex_derivative_free(lambda w: 3.5, 4)
    assert np.array_equal(w.values, np.full(4, 0.25))
    assert val == 3.5


def test_derivative_free_sphere_mean_recovery():
    space = g.sphere_space(3)
    rng = np.random.default_rng(8)
    center = np.ones(3) / np.sqrt(3)
    controls = []
    for _ in range(3):
        v = center + 0.35 * rng.normal(size=3)
        v = np.abs(v)
        controls.append(g.ObjectPoint(space, v / np.linalg.norm(v)))
    w_star = np.array([0.55, 0.3, 0.15])
    treated = g.weighted_frechet_mean(controls, w_star)

    def objective(w):
        mean = g.weighted_frechet_mean(controls, np.maximum(w, 0.0) / np.sum(np.maximum(w, 0.0)))
        return g.distance(treated, mean) ** 2

    w, val = g.solve_simplex_derivative_free(objective, 3, g.SolverConfig(seed=1))
    assert val <= 1e-8
    assert np.abs(w.values - w_star).max() <= 1e-3


def test_derivative_free_rejects_non_finite():
    with pytest.raises(SolverError):
        g.solve_simplex_derivative_free(lambda w: float("nan"), 3)


def test_derivative_free_determinism():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))

    def objective(w):
        return float(w @ (a.T @ a) @ w)

    w1, v1 = g.solve_simplex_derivative_free(objective, 4, g.SolverConfig(seed=3))
    w2, v2 = g.solve_simplex_derivative_free(objective, 4, g.SolverConfig(seed=3))
    assert np.array_equal(w1.values, w2.values) and v1 == v2


def test_scm_reduction_matches_lattice():
    rng = np.random.default_rng(10)
    for _ in range(5):
        values = rng.normal(size=(4, 6))
        panel = scalar_panel(values, T0=4)
        qp = g.build_unit_weight_qp(pre_qp_blocks(panel))
        w, val = g.solve_simplex_qp(qp)
        assert val <= lattice_minimum(qp) + 1e-6

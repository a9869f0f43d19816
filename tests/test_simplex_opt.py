"""Unit tests for the simplex-constrained weight solvers."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import nnls
from scipy.special import ndtri

import geosynth as g
from geosynth import simplex_opt
from geosynth.simplex_opt import (
    SimplexQp,
    SimplexWeights,
    SolverError,
    _active_set,
    _certified,
    _solve_qp_stack,
    kkt_residual,
    project_simplex,
    solve_simplex_gauss_newton,
)
from helpers import flat_spaces, random_point, scalar_panel, unit_weight_qp


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
    z = rng.normal(size=(4, 5, 3)).swapaxes(1, 2)
    qp = g.stack_weight_qp(z, z[:, 1])
    assert qp.objective(np.array([0.0, 1.0, 0.0])) <= 1e-16


def test_unit_qp_scalar_interpolation():
    # controls at 0 and 1, treated at 0.3: w = (0.7, 0.3) fits exactly
    qp = g.stack_weight_qp(np.array([[[0.0], [1.0]]]), np.array([[0.3]]))
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
        qp = unit_weight_qp(panel)
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
    # the weight QP in the time role: one block per control, its (T0, D)
    # pre-period coordinates as the points and its post outcome as target
    rows = np.stack([np.tile(rng.normal(size=4), (3, 1)) for _ in range(2)])
    qp = g.stack_weight_qp(rows, rows[:, 0])
    vals = [qp.objective(rng.dirichlet(np.ones(3))) for _ in range(10)]
    assert np.ptp(vals) <= 1e-14


def test_time_qp_scalar_midpoint():
    qp = g.stack_weight_qp(np.array([[[0.0], [2.0]]]), np.array([[1.0]]))
    lam, val = g.solve_simplex_qp(qp)
    assert lam.values == pytest.approx([0.5, 0.5], abs=1e-9)
    assert val <= 1e-16


def test_time_qp_vertex_evaluation():
    rng = np.random.default_rng(4)
    rows = np.stack([rng.normal(size=(3, 4)) for _ in range(5)])
    post = np.stack([rng.normal(size=4) for _ in range(5)])
    qp = g.stack_weight_qp(rows, post)
    for s in range(3):
        e = np.eye(3)[s]
        direct = np.mean([np.sum((post[j] - rows[j][s]) ** 2) for j in range(5)])
        assert qp.objective(e) == pytest.approx(direct, rel=1e-12)


def stack_roles(role: str, coords: np.ndarray, T0: int) -> tuple[np.ndarray, np.ndarray]:
    """Strided views of a (J+1, T, D) coordinate tensor in one weight role:
    unit weights match the controls to the treated unit in each pre period,
    time weights match each control's pre periods to its post mean."""
    if role == "unit":
        return coords[1:, :T0].swapaxes(0, 1), coords[0, :T0]
    return coords[1:, :T0], coords[1:, T0:].mean(axis=1)


@pytest.mark.parametrize("role", ["unit", "time"])
def test_stack_qp_objective_is_the_mean_squared_residual(role):
    rng = np.random.default_rng(12)
    coords = rng.normal(size=(6, 7, 3))
    z, y = stack_roles(role, coords, T0=4)
    assert not z.flags.c_contiguous
    qp = g.stack_weight_qp(z, y)
    assert np.shares_memory(qp.factor, coords)
    for w in rng.dirichlet(np.ones(z.shape[1]), size=10):
        direct = np.mean([np.sum((y[b] - w @ z[b]) ** 2) for b in range(len(z))])
        assert qp.objective(w) == pytest.approx(direct, rel=1e-12)
        expanded = w @ qp.gram @ w - 2.0 * qp.linear @ w + qp.constant
        assert expanded == pytest.approx(direct, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("role", ["unit", "time"])
def test_stack_qp_takes_a_precomputed_gram(role):
    rng = np.random.default_rng(13)
    coords = rng.normal(size=(6, 7, 3))
    z, y = stack_roles(role, coords, T0=4)
    computed = g.stack_weight_qp(z, y)
    gram = np.einsum("bnd,bmd->nm", z, z) / len(z)
    given = simplex_opt._weight_qp(z, y, gram)
    assert np.allclose(given.gram, computed.gram, rtol=1e-12, atol=1e-14)
    assert np.array_equal(given.linear, computed.linear)
    assert given.constant == computed.constant
    assert np.shares_memory(given.factor, coords)
    assert given.gram is gram  # a given Gram is used as it is, uncopied
    w = rng.dirichlet(np.ones(z.shape[1]))
    assert given.objective(w) == computed.objective(w)
    assert np.allclose(given.gradient(w), computed.gradient(w), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize(
    "stacks, targets, message",
    [
        (np.zeros((2, 3, 4)), np.zeros((2, 5)), "inconsistent"),
        (np.zeros((3, 4)), np.zeros((1, 4)), "inconsistent"),
    ],
    ids=["mismatched_targets", "two_dimensional_stack"],
)
def test_stack_qp_rejects_inconsistent_shapes(stacks, targets, message):
    with pytest.raises(SolverError, match=message):
        g.stack_weight_qp(stacks, targets)


# ---------------------------------------------------------------------------
# quadratic program solver


def test_qp_vertex_solution():
    qp = g.stack_weight_qp(np.eye(3)[None], np.eye(3)[:1])
    w, val = g.solve_simplex_qp(qp)
    assert w.values == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_qp_constant_objective_returns_uniform():
    qp = g.stack_weight_qp(np.zeros((1, 4, 2)), np.ones((1, 2)))
    w, val = g.solve_simplex_qp(qp)
    assert np.array_equal(w.values, np.full(4, 0.25))
    assert val == 2.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_qp_two_unit_problems_within_rounding_of_the_uniform_point(sign):
    # points +-a against a target 1e-10 / a: gram a^2 [[1, -1], [-1, 1]] and
    # linear +-1e-10 [1, -1] put the minimizer 1e-10 / a^2 from the uniform
    # point, whose own gradient fails the bound
    linear = sign * np.array([1e-10, -1e-10])
    uniform = np.full(2, 0.5)
    # a = 100 with a second coordinate the weights cannot change (objective
    # 1.0): the certified active-set point ties the uncertified uniform point
    # and wins the tie
    a = 100.0
    qp = g.stack_weight_qp(np.array([[[a, 0.0], [-a, 0.0]]]), np.array([[linear[0] / a, 1.0]]))
    assert kkt_residual(qp, uniform) > 1e-10 * (1.0 + np.linalg.norm(qp.gradient(uniform)))
    w, val = g.solve_simplex_qp(qp)
    assert kkt_residual(qp, w.values) <= 1e-10 * (1.0 + np.linalg.norm(qp.gradient(w.values)))
    assert val == qp.objective(uniform) == 1.0
    assert w.values == pytest.approx(uniform, abs=1e-14)
    # a = 1e4: the face solve rounds both coordinates to zero; the active-set
    # loop stops at its feasible point instead of normalizing a zero vector,
    # and the solve fails the certificate cleanly, because no double within
    # rounding of the minimizer meets the absolute 1e-10 bound there
    a = 1e4
    qp = g.stack_weight_qp(np.array([[[a], [-a]]]), np.array([[linear[0] / a]]))
    vertex = np.eye(2)[int(np.argmin(np.diag(qp.gram) - 2.0 * qp.linear))]
    [finish], _ = _active_set([qp], [vertex], -1.0, 100)  # a negative tol never certifies
    assert np.all(finish >= 0.0) and finish.sum() == 1.0
    with pytest.raises(SolverError, match="KKT residual"):
        g.solve_simplex_qp(qp)


def test_qp_matches_lattice_on_random_problems():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for _ in range(20):
            a = rng.normal(size=(n + 2, n))
            qp = g.stack_weight_qp(a.T[None], rng.normal(size=(1, n + 2)))
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
    qp = g.stack_weight_qp(np.outer(levels, direction)[None], 2.0 * direction[None])
    w, val = g.solve_simplex_qp(qp)
    assert val <= 1e-14
    assert float(w.values @ levels) == pytest.approx(2.0, abs=1e-7)


def sphere_tangent_qp(seed: int) -> SimplexQp:
    """Tangent QP (1/T0) sum_t ||sum_j w_j Log_{y_t}(z_jt)||^2 of a sphere scenario.

    Its gram has rank far below the number of controls, so the exact
    finish of the QP solver has to cope with a singular face system.
    """
    panel = g.generate(g.SimConfig(scenario="sphere", seed=seed)).panel
    logs = np.stack([
        [g.sphere_log(panel.outcomes[0][t], panel.outcomes[j][t]).vector
         for j in range(1, panel.n_units)]
        for t in panel.pre_periods()
    ])
    return g.stack_weight_qp(logs, np.zeros((logs.shape[0], logs.shape[2])))


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
            qp = g.stack_weight_qp(a.T[None], b[None])
            w, val = g.solve_simplex_qp(qp)
            grad = qp.gradient(w.values)
            assert kkt_residual(qp, w.values) <= 1e-10 * (1.0 + np.linalg.norm(grad)), (kind, n)
            ref, _ = nnls(np.vstack([a, np.full((1, n), 1e4)]), np.append(b, 1e4),
                          maxiter=50 * n)
            ref_val = qp.objective(ref / ref.sum())
            assert val <= ref_val * (1.0 + 1e-9) + 1e-14 * qp.constant, (kind, n)


STRESS_KINDS = ["rank_deficient", "duplicated", "near_rank_one", "constant", "off_hull"]


@pytest.mark.parametrize("n", [3, 20, 100])
def test_qp_stack_members_are_certified_and_equal_their_solo_solves(n):
    rng = np.random.default_rng(n)
    problems = []
    for kind in STRESS_KINDS * 2:
        a, b = stress_problem(kind, n, rng)
        problems.append(g.stack_weight_qp(a.T[None], b[None]))
    for qp, (w, val) in zip(problems, _solve_qp_stack(problems)):
        grad = qp.gradient(w.values)
        assert kkt_residual(qp, w.values) <= 1e-10 * (1.0 + np.linalg.norm(grad))
        solo, solo_val = g.solve_simplex_qp(qp)
        assert np.array_equal(w.values, solo.values) and val == solo_val


def test_qp_stack_with_a_duplicated_donor_reaches_the_minimum_norm_fallback(monkeypatch):
    # integer data keep the Gram exact, so the face of two identical donors
    # is exactly singular and its LU fails; started on that face, the
    # member takes the minimum-norm solve while the rest of the stack does
    # not notice
    rng = np.random.default_rng(3)
    a = rng.integers(-5, 6, size=(8, 5)).astype(float)
    a[:, 1] = a[:, 0]
    dup = g.stack_weight_qp(a.T[None], (a @ np.array([0.0, 0.0, 0.5, 0.25, 0.25]))[None])
    others = [g.stack_weight_qp(x.T[None], y[None]) for x, y in
              (stress_problem(kind, 5, rng) for kind in STRESS_KINDS)]
    problems = [dup] + others
    starts = [np.array([0.5, 0.5, 0.0, 0.0, 0.0])] + [np.eye(5)[0]] * len(others)
    fallbacks = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(
        np.linalg, "lstsq", lambda *a, **k: fallbacks.append(a[0].shape) or lstsq(*a, **k)
    )
    finishes, _ = _active_set(problems, starts, 1e-10, 100)
    assert (3, 3) in fallbacks
    for qp, start, finish in zip(problems, starts, finishes):
        assert kkt_residual(qp, finish) <= 1e-10 * (1.0 + np.linalg.norm(qp.gradient(finish)))
        assert np.array_equal(finish, _active_set([qp], [start], 1e-10, 100)[0][0])


def test_qp_stack_holds_disallowed_weights_at_zero():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 4))
    qp = g.stack_weight_qp(a.T[None], (a @ np.array([0.5, 0.3, 0.0, 0.2]))[None])
    allowed = np.arange(4) != 2
    masked = dataclasses.replace(qp, allowed=allowed)
    [(w, val)] = _solve_qp_stack([masked])
    ref, ref_val = g.solve_simplex_qp(g.stack_weight_qp(a[:, allowed].T[None], qp.target))
    assert len(w) == 4 and w.values[2] == 0.0
    assert np.max(np.abs(w.values[allowed] - ref.values)) <= 1e-12
    assert val <= 1e-20 and ref_val <= 1e-20
    [failed] = _solve_qp_stack([masked], g.SolverConfig(max_iter=1))
    assert isinstance(failed, SolverError)


def test_masked_qp_through_solve_simplex_qp_is_certified_over_its_face():
    """A lone masked problem solves through ``solve_simplex_qp``: its held
    weights stay exactly zero and ``kkt_residual`` certifies it over its
    face, though over the whole simplex a held weight would still pay."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(9, 6))
    qp = g.stack_weight_qp(a.T[None], (a @ np.array([0.6, 0.0, 0.1, 0.0, 0.3, 0.0]))[None])
    for allowed in (np.arange(6) != 0, np.arange(6) % 2 == 1):
        masked = dataclasses.replace(qp, allowed=allowed)
        w, val = g.solve_simplex_qp(masked)
        assert len(w) == 6 and np.all(w.values[~allowed] == 0.0)
        face_grad = masked.gradient(w.values)[allowed]
        assert kkt_residual(masked, w.values) <= 1e-10 * (1.0 + np.linalg.norm(face_grad))
        assert kkt_residual(qp, w.values) > 1e-3  # the whole simplex's certificate fails
        ref, ref_val = g.solve_simplex_qp(g.stack_weight_qp(a[:, allowed].T[None], qp.target))
        assert np.max(np.abs(w.values[allowed] - ref.values)) <= 1e-12
        assert val == pytest.approx(ref_val, rel=1e-12)


def screened_problems(rng: np.random.Generator) -> list[SimplexQp]:
    """Stress QPs of several sizes, each whole and on a random masked face
    of at least two coordinates."""
    problems = []
    for kind, n in itertools.product(STRESS_KINDS, (3, 8, 40)):
        a, b = stress_problem(kind, n, rng)
        qp = g.stack_weight_qp(a.T[None], b[None])
        allowed = rng.random(n) < 0.6
        allowed[rng.choice(n, size=2, replace=False)] = True
        problems += [qp, dataclasses.replace(qp, allowed=allowed)]
    return problems


def best_vertex(qp: SimplexQp) -> np.ndarray:
    """The start :func:`_solve_qp_stack` gives a problem."""
    mask = np.ones(qp.n, dtype=bool) if qp.allowed is None else qp.allowed
    return np.eye(qp.n)[np.argmin(np.where(mask, np.diag(qp.gram) - 2.0 * qp.linear, np.inf))]


@pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-6])
def test_a_certificate_the_release_gradient_rules_out_fails(tol, monkeypatch):
    """Wherever the active set skips a certificate because its release
    candidate rules it out, the certificate fails: at every point the
    solver settles on, on seeded random QPs whole and on masked faces."""
    screen, ruled_out = simplex_opt._cannot_certify, []

    def recorded(w, support, grad, drop, tol):
        out = screen(w, support, grad, drop, tol)
        if out:
            ruled_out.append(_certified(qp, w, tol, grad))
        return out

    monkeypatch.setattr(simplex_opt, "_cannot_certify", recorded)
    for qp in screened_problems(np.random.default_rng(21)):
        _solve_qp_stack([qp], g.SolverConfig(tol_kkt=tol))
    assert len(ruled_out) > 50 and not any(ruled_out)


def test_the_release_gradient_bounds_the_kkt_residual():
    """At random points of random faces, the release candidate's bound
    holds; at the largest tolerance the screen still rules out, the
    certificate fails, and at the smallest one the certificate holds at,
    the screen rules nothing out."""
    rng = np.random.default_rng(22)
    screen, checked = simplex_opt._cannot_certify, 0
    for qp in screened_problems(rng):
        face = np.flatnonzero(np.ones(qp.n, dtype=bool) if qp.allowed is None else qp.allowed)
        for size in range(1, face.size):
            support = np.sort(rng.choice(face, size=size, replace=False))
            w = np.zeros(qp.n)
            w[support] = rng.dirichlet(np.ones(size))
            if w[support].min() <= 0.0:
                continue
            grad = qp.gradient(w)
            others = face[~np.isin(face, support)]
            drop = float(np.min(grad[others] - float(grad[support].sum()) / size))
            residual = kkt_residual(qp, w, grad)
            bound = -drop / np.sqrt(1.0 + 1.0 / size)
            assert residual >= bound * (1.0 - 1e-9) - 1e-12 * np.abs(grad).max()
            holds = residual / (1.0 + np.linalg.norm(grad[face])) * (1.0 + 1e-9)
            assert _certified(qp, w, holds, grad)
            assert not screen(w, support, grad, drop, holds)
            if screen(w, support, grad, drop, 0.0):
                low, high = 0.0, 1.0  # bisect for the largest tol the screen rules out
                while screen(w, support, grad, drop, high):
                    high *= 2.0
                for _ in range(100):
                    mid = 0.5 * (low + high)
                    low, high = (mid, high) if screen(w, support, grad, drop, mid) else (low, mid)
                assert not _certified(qp, w, low, grad)
                checked += 1
    assert checked > 100


def test_a_stacked_member_finishes_and_certifies_as_its_lone_run():
    """Each member of a stack reaches its lone run's point bit for bit and
    reports the same certified flag, which is the certificate at that
    point."""
    problems = screened_problems(np.random.default_rng(23))
    starts = [best_vertex(qp) for qp in problems]
    finishes, certified = _active_set(problems, starts, 1e-10, 10000)
    assert sum(certified) > len(problems) // 2
    for qp, start, finish, done in zip(problems, starts, finishes, certified):
        [lone], [lone_done] = _active_set([qp], [start], 1e-10, 10000)
        assert np.array_equal(finish, lone) and done == lone_done
        assert done == _certified(qp, finish, 1e-10)


def test_each_fit_evaluates_one_certificate_and_one_more_for_a_uniform_tie(monkeypatch):
    """A stack of fits certifies each member once, at the point where its
    active set stopped; a constant objective, whose finish point ties the
    uniform point, certifies the uniform point too."""
    calls = []
    monkeypatch.setattr(
        simplex_opt, "kkt_residual", lambda *a: calls.append(1) or kkt_residual(*a)
    )
    rng = np.random.default_rng(24)
    problems = [g.stack_weight_qp(x.T[None], y[None]) for x, y in
                (stress_problem(kind, 20, rng) for kind in ("off_hull", "duplicated") * 5)]
    results = _solve_qp_stack(problems)
    assert len(calls) == len(problems) and not any(isinstance(r, SolverError) for r in results)
    calls.clear()
    w, _ = g.solve_simplex_qp(g.stack_weight_qp(np.ones((1, 4, 2)), np.ones((1, 2))))
    assert len(calls) == 2 and np.array_equal(w.values, np.full(4, 0.25))


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol_kkt", float("inf")),
        ("max_iter", 2.5),
        ("max_iter", True),
        ("max_iter", np.float64(3.0)),
        ("restarts", 2.5),
        ("restarts", True),
        ("seed", -1),
        ("seed", float("inf")),
        ("seed", 1.5),
        ("seed", True),
    ],
)
def test_solver_config_rejects_values_it_cannot_run(field, value):
    with pytest.raises(SolverError, match="tol_kkt must be positive and finite"):
        g.SolverConfig(**{field: value})


def test_solver_config_takes_numpy_integers():
    cfg = g.SolverConfig(max_iter=np.int64(50), restarts=np.int32(2), seed=np.uint8(0))
    assert (cfg.max_iter, cfg.restarts, cfg.seed) == (50, 2, 0)


def test_qp_budget_exhausted_raises():
    # the optimum has three support coordinates, so reaching it from a
    # vertex takes two releases; one active-set iteration must fail loudly
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 3))
    qp = g.stack_weight_qp(a.T[None], (a @ np.array([0.5, 0.3, 0.2]))[None])
    with pytest.raises(SolverError):
        g.solve_simplex_qp(qp, g.SolverConfig(max_iter=1))
    w, val = g.solve_simplex_qp(qp)
    assert w.values == pytest.approx([0.5, 0.3, 0.2], abs=1e-9)
    assert val <= 1e-20


def test_qp_determinism():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 4))
    qp = g.stack_weight_qp(a.T[None], rng.normal(size=(1, 5)))
    w1, v1 = g.solve_simplex_qp(qp)
    w2, v2 = g.solve_simplex_qp(qp)
    assert np.array_equal(w1.values, w2.values) and v1 == v2


# ---------------------------------------------------------------------------
# the objective on the support and the uniform point's screen


def whole_objective(qp: SimplexQp, w: np.ndarray) -> float:
    """The residual form over the whole stack, zero weights included."""
    resid = qp.target - w @ qp.factor
    return (1.0 / len(qp.target)) * float(np.vdot(resid, resid))


def test_the_objective_on_the_support_matches_the_whole_stack():
    """``objective`` contracts only the points of nonzero weight, within a
    few ulps of the residual over the whole stack: on strided stacks of
    either role, on masked faces and where every weight is positive."""
    rng = np.random.default_rng(31)
    eps, partial = np.finfo(float).eps, 0
    for trial in range(300):
        J, T0, D = rng.integers(2, 60), rng.integers(1, 12), rng.integers(1, 30)
        coords = rng.normal(size=(J + 1, T0 + 2, D)) * 10.0 ** rng.uniform(-3, 3)
        qp = g.stack_weight_qp(*stack_roles(("unit", "time")[trial % 2], coords, T0))
        face = np.ones(qp.n, dtype=bool)
        if trial % 3 == 0:
            face = rng.random(qp.n) < 0.7
            face[rng.integers(qp.n)] = True
            qp = dataclasses.replace(qp, allowed=face)
        size = rng.integers(1, face.sum() + 1)
        w = np.zeros(qp.n)
        w[rng.choice(np.flatnonzero(face), size, replace=False)] = rng.dirichlet(np.ones(size))
        whole = whole_objective(qp, w)
        partial += bool(np.any(w == 0.0))
        assert abs(qp.objective(w) - whole) <= 8.0 * eps * whole, trial
    assert 200 < partial < 300


def quantile_panel(J: int, seed: int, T: int = 20, T0: int = 19) -> g.Panel:
    """Quantile functions on a 51-point grid, ``m_t + s_t (mu_j + sigma_j
    z(p))`` with ``z`` the normal quantile function; the treated unit mixes
    five donors, so its unit fit is perfect, and shifts by 2 after ``T0``."""
    rng = np.random.default_rng(seed)
    space = g.wasserstein_space(51)
    m, s = 70.0 + np.cumsum(rng.normal(0.2, 0.4, size=T)), rng.uniform(0.9, 1.1, size=T)
    mu, sigma = rng.normal(0.0, 3.0, size=J), rng.uniform(8.0, 14.0, size=J)
    mix = np.zeros(J)
    mix[rng.choice(J, size=5, replace=False)] = rng.dirichlet(np.ones(5))
    mu, sigma = np.append(mix @ mu, mu), np.append(mix @ sigma, sigma)
    data = m[:, None] + s[:, None] * (mu[:, None, None] + sigma[:, None, None] * ndtri(space.grid))
    data[0, T0:] += 2.0
    return g.Panel(space, data, T0)


def with_and_without_the_screen(monkeypatch, solve) -> tuple:
    """``solve()``'s output and certificate count with the screen run on
    every problem, however small, and how many uniform points it ruled out;
    then the output and count with the screen off, both points' residuals
    formed over the whole stack."""
    calls, ruled_out = [], []
    tie_break = simplex_opt._tie_break

    def screened_tie_break(problem, u, w):
        out = tie_break(problem, u, w)
        ruled_out.append(out[0] == np.inf)
        return out

    def unscreened_tie_break(problem, u, w):
        return whole_objective(problem, u), whole_objective(problem, w)

    with monkeypatch.context() as patch:
        patch.setattr(simplex_opt, "kkt_residual", lambda *a: calls.append(1) or kkt_residual(*a))
        patch.setattr(simplex_opt, "_SCREEN_MIN", -np.inf)
        patch.setattr(simplex_opt, "_tie_break", screened_tie_break)
        screened = solve(), len(calls)
        calls.clear()
        patch.setattr(simplex_opt, "_tie_break", unscreened_tie_break)
        return screened, (solve(), len(calls)), sum(ruled_out)


def fit_records(results: list, problems: list[SimplexQp]) -> list:
    """Each fit's weights, whether they are its face's uniform point, or
    its error text."""
    records = []
    for qp, result in zip(problems, results):
        if isinstance(result, SolverError):
            records.append(str(result))
            continue
        face = np.ones(qp.n, dtype=bool) if qp.allowed is None else qp.allowed
        w = result[0].values
        records.append((w.tobytes(), np.array_equal(w, face / face.sum())))
    return records


def test_the_screen_changes_no_weight_winner_or_certificate(monkeypatch):
    """With the uniform point's screen off, every fit returns the same
    weights from the same winning point after as many certificates: on 240
    random QPs (whole, on masked faces, perfect fits), near ties, constant
    objectives and a failing fit."""
    problems = []
    for seed in range(7):
        problems += screened_problems(np.random.default_rng(40 + seed))
    rng = np.random.default_rng(47)
    for n in rng.integers(2, 60, size=30):  # perfect fits of sparse mixes
        a, mix = rng.normal(size=(rng.integers(1, 40), n)), np.zeros(n)
        mix[rng.choice(n, size=min(n, 4), replace=False)] = rng.dirichlet(np.ones(min(n, 4)))
        problems.append(g.stack_weight_qp(a.T[None], (a @ mix)[None]))
    ties = [  # the two-unit test's near ties and failing fit, and constant objectives
        g.stack_weight_qp(np.array([[[100.0, 0.0], [-100.0, 0.0]]]), np.array([[1e-12, 1.0]])),
        g.stack_weight_qp(np.array([[[100.0, 0.0], [-100.0, 0.0]]]), np.array([[-1e-12, 1.0]])),
        g.stack_weight_qp(np.array([[[1e4], [-1e4]]]), np.array([[1e-14]])),
        g.stack_weight_qp(np.zeros((1, 4, 2)), np.ones((1, 2))),
        g.stack_weight_qp(np.ones((1, 4, 2)), np.ones((1, 2))),
    ]

    def compare(group):
        return with_and_without_the_screen(
            monkeypatch, lambda: fit_records(_solve_qp_stack(group), group)
        )

    on, off, ruled_out = compare(problems)
    assert on == off and ruled_out > len(problems) // 2
    on, off, ruled_out = compare(ties)
    assert on == off and ruled_out == 0
    assert sum(isinstance(record, str) for record in on[0]) == 1  # the failing fit


def test_the_uniform_point_is_ruled_out_only_where_it_loses_on_the_whole_stack(monkeypatch):
    """At random points of random faces, the tie break either rules the
    uniform point out, where its expanded form exceeds the point's objective
    and its residual over the whole stack exceeds the point's, or returns
    both points' residuals over the whole stack; on stacks this small it
    does the latter unless made to screen them."""
    rng, cases = np.random.default_rng(48), []
    for qp in screened_problems(rng) + screened_problems(rng):
        face = np.ones(qp.n, dtype=bool) if qp.allowed is None else qp.allowed
        u, w = face / face.sum(), np.zeros(qp.n)
        size = rng.integers(1, face.sum() + 1)
        w[rng.choice(np.flatnonzero(face), size, replace=False)] = rng.dirichlet(np.ones(size))
        cases.append((qp, u, w))
        assert simplex_opt._tie_break(qp, u, w) == (whole_objective(qp, u), whole_objective(qp, w))
    monkeypatch.setattr(simplex_opt, "_SCREEN_MIN", -np.inf)
    ruled_out = 0
    for qp, u, w in cases:
        f_u, f_w = simplex_opt._tie_break(qp, u, w)
        if f_u == np.inf:
            ruled_out += 1
            assert f_w == qp.objective(w) < u @ qp.gram @ u - 2.0 * qp.linear @ u + qp.constant
            assert whole_objective(qp, w) < whole_objective(qp, u)
        else:
            assert (f_u, f_w) == (whole_objective(qp, u), whole_objective(qp, w))
    assert 10 < ruled_out < len(cases) - 10


@pytest.mark.parametrize("method", ["gsc", "gsdid"])
def test_the_screen_changes_no_quantile_placebo(method, monkeypatch):
    """A J=50 quantile panel's placebo, on fresh panels, has the same
    statistics, ranks and p-values, after as many certificates, with the
    uniform point's screen off; on it the screen rules out every uniform
    point."""

    def report():
        reports = g.placebo_test(quantile_panel(50, seed=0), method)
        reports = reports if method == "gsc" else [reports]
        return [(r.statistics.tobytes(), r.rank_of_treated, r.p_value) for r in reports]

    on, off, ruled_out = with_and_without_the_screen(monkeypatch, report)
    assert on == off and ruled_out >= 51


@pytest.mark.parametrize("method", ["gsc", "gsdid"])
def test_a_quantile_placebo_forms_one_residual_per_fit_on_its_support(method, monkeypatch):
    """Each fit of a J=50 quantile panel's placebo forms one residual, at
    its finish point and over its support, plus one where normalizing moved
    its weights; the screen rules out every uniform point, so no fit forms
    a residual over the whole stack."""
    objectives, whole, moved = [], [], []
    objective, tie_break, normalized = (
        SimplexQp.objective, simplex_opt._tie_break, simplex_opt._normalized
    )

    def counted_tie_break(problem, u, w):
        out = tie_break(problem, u, w)
        whole.append(out[0] != np.inf)
        return out

    def counted_normalized(w):
        out = normalized(w)
        moved.append(not np.array_equal(out.values, w))
        return out

    monkeypatch.setattr(SimplexQp, "objective", lambda *a: objectives.append(1) or objective(*a))
    monkeypatch.setattr(simplex_opt, "_tie_break", counted_tie_break)
    monkeypatch.setattr(simplex_opt, "_normalized", counted_normalized)
    g.placebo_test(quantile_panel(50, seed=0), method)
    assert len(whole) >= 51 and not any(whole)
    assert len(objectives) == len(whole) + sum(moved)


# ---------------------------------------------------------------------------
# Gauss-Newton solver


def test_gauss_newton_affine_residuals_match_qp():
    # affine residuals make the Gauss-Newton model exact: the solver must
    # reach the QP optimum with the QP certificate
    rng = np.random.default_rng(11)
    factors = rng.normal(size=(3, 4, 5))
    targets = rng.normal(size=(3, 4))

    def linearize(w, members):
        return (np.einsum("tdn,n->td", factors, w[0]) - targets)[None], factors[None]

    [(w, val)] = solve_simplex_gauss_newton(linearize, 5)
    qp = g.stack_weight_qp(factors.swapaxes(1, 2), targets)
    w_qp, val_qp = g.solve_simplex_qp(qp)
    assert val == pytest.approx(qp.objective(w.values), rel=1e-12)
    assert val <= val_qp + 1e-12
    assert kkt_residual(qp, w.values) <= 1e-10 * (1.0 + np.linalg.norm(qp.gradient(w.values)))


def test_gauss_newton_constant_objective_returns_uniform():
    def linearize(w, members):
        return np.ones((1, 2, 3)), np.zeros((1, 2, 3, 4))

    [(w, val)] = solve_simplex_gauss_newton(linearize, 4)
    assert np.array_equal(w.values, np.full(4, 0.25))
    assert val == 3.0


def test_gauss_newton_certifies_one_weight_on_its_first_step():
    # with n = 1 the simplex is a point: every member returns it and its
    # objective, even on a budget of one step
    resid = np.random.default_rng(3).normal(size=(3, 2, 4))

    def linearize(w, members):
        return resid[members], np.ones((len(members), 2, 4, 1))

    for cfg in (None, g.SolverConfig(max_iter=1)):
        results = solve_simplex_gauss_newton(linearize, 1, cfg, size=3)
        for m, (w, val) in enumerate(results):
            assert np.array_equal(w.values, [1.0])
            assert val == float(np.mean(np.sum(resid[m] * resid[m], axis=1)))


def test_gauss_newton_rejects_non_finite():
    def linearize(w, members):
        return np.full((1, 1, 2), np.nan), np.zeros((1, 1, 2, 3))

    [result] = solve_simplex_gauss_newton(linearize, 3)  # in place: a stack of one never raises
    assert isinstance(result, SolverError) and "not finite" in str(result)


def test_gauss_newton_reports_uncertified_budget():
    # a nonconvex residual needs more than one step; a budget of one step
    # must fail loudly rather than return an uncertified point
    def linearize(w, members):
        resid = np.array([[[np.sin(3.0 * w[0, 0]) - 0.5]]])
        return resid, np.array([[[[3.0 * np.cos(3.0 * w[0, 0]), 0.0]]]])

    [failed] = solve_simplex_gauss_newton(linearize, 2, g.SolverConfig(max_iter=1))
    assert isinstance(failed, SolverError)
    [(w, val)] = solve_simplex_gauss_newton(linearize, 2)
    assert np.sin(3.0 * w.values[0]) == pytest.approx(0.5, abs=1e-9)


def test_gauss_newton_raises_when_an_accepted_step_leaves_w_unchanged():
    # The model's target lies about 1e-7 from the uniform start, but the
    # objective rises off the start by a cliff the model cannot see, so the
    # line search halves until the trial rounds back to the start. Within
    # a few ulps of F that trial is accepted; it makes no progress, and
    # the next step would repeat it.
    start = np.full(2, 0.5)
    jac = np.array([[[[1.0, -1.0], [0.0, 0.0]]]])
    calls = []

    def linearize(w, members):
        calls.append(w)
        drift = 2e-7 if np.array_equal(w[0], start) else 1.0
        return np.array([[[drift, 1e-5]]]), jac

    [failed] = solve_simplex_gauss_newton(linearize, 2, g.SolverConfig(max_iter=200))
    assert isinstance(failed, SolverError) and "unchanged" in str(failed)
    # one evaluation at the start plus one halving line search, far from
    # the 200-step budget (which would take about 6,600 evaluations)
    assert len(calls) <= 40


def test_gauss_newton_stack_members_match_single_fits_and_fail_in_place():
    # nonconvex residuals r_t = sin(A_t w) - b_t, so members take different
    # numbers of steps; members 1 and 4 stall near their optimum, and
    # member 2's residuals are not finite
    rng = np.random.default_rng(12)
    factors = rng.normal(size=(5, 3, 2, 4))
    targets = rng.uniform(-0.5, 0.5, size=(5, 3, 2))
    calls = []

    def residuals(m, w):
        inner = factors[m] @ w
        resid = np.sin(inner) - targets[m] + (np.nan if m == 2 else 0.0)
        return resid, np.cos(inner)[..., None] * factors[m]

    def stacked(w, members):
        calls.append(len(members))
        parts = [residuals(m, wm) for m, wm in zip(members, w)]
        return tuple(np.array(a) for a in zip(*parts))

    def alone(m):  # member m as a stack of one
        return lambda w, _: tuple(a[None] for a in residuals(m, w[0]))

    results = solve_simplex_gauss_newton(stacked, 4, size=5)
    assert "not finite" in str(results[2])
    for m in (1, 4):  # they stall on their own too, with the same message
        [single] = solve_simplex_gauss_newton(alone(m), 4)
        assert isinstance(single, SolverError) and "stalled" in str(single)
        assert str(results[m]) == str(single)
    for m in (0, 3):
        [(w, val)] = solve_simplex_gauss_newton(alone(m), 4)
        assert np.array_equal(results[m][0].values, w.values) and results[m][1] == val
    # every step linearizes the live members in one call
    assert calls[0] == 5 and len(calls) < sum(calls)


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
        qp = unit_weight_qp(panel)
        w, val = g.solve_simplex_qp(qp)
        assert val <= lattice_minimum(qp) + 1e-6

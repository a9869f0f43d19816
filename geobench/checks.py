"""Correctness checks computed apart from the program.

Every check recomputes what it needs from the raw panel values with its
own numpy/scipy code: Gram matrices, projected gradients, sphere
logarithms and means, matrix logarithms. None of them calls into
``geosynth`` and none compares against stored output. A check that does
not hold raises :class:`CheckError`, which fails the operation it guards.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# simplex optimality


def tangent_cone_residual(grad: np.ndarray, w: np.ndarray) -> float:
    """Norm of ``-grad`` projected onto the simplex tangent cone at ``w``.

    The cone holds the directions that sum to zero and are nonnegative
    where ``w`` is zero. The projection is ``d_i = -g_i - mu`` on the
    support and ``max(-g_i - mu, 0)`` off it, with ``mu`` the root of the
    decreasing function ``sum(d)``; it is found by bisection.
    """
    v = -np.asarray(grad, dtype=float)
    active = np.asarray(w) <= 0.0

    def total(mu: float) -> float:
        d = v - mu
        return float(np.sum(np.where(active, np.maximum(d, 0.0), d)))

    lo, hi = float(v.min()) - 1.0, float(v.max()) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, abs(mid)):
            break
    mu = 0.5 * (lo + hi)
    d = v - mu
    d = np.where(active, np.maximum(d, 0.0), d)
    return float(np.linalg.norm(d))


def check_simplex(w: np.ndarray, n: int, what: str) -> None:
    w = np.asarray(w, dtype=float)
    require(w.shape == (n,), f"{what}: expected {n} weights, got shape {w.shape}")
    require(bool(np.all(w >= 0.0)), f"{what}: negative weight {w.min():.3e}")
    require(abs(float(w.sum()) - 1.0) <= 1e-12, f"{what}: weights sum to {w.sum()!r}")


# ---------------------------------------------------------------------------
# scalar synthetic control and SDID


def scalar_unit_problem(controls_pre: np.ndarray, treated_pre: np.ndarray):
    """Gram matrix and linear term of ``(1/T0) ||y - X' w||^2``.

    ``controls_pre`` is (J, T0), ``treated_pre`` is (T0,).
    """
    t0 = treated_pre.size
    gram = controls_pre @ controls_pre.T / t0
    linear = controls_pre @ treated_pre / t0
    return gram, linear


def check_scalar_weights(
    w: np.ndarray, controls_pre: np.ndarray, treated_pre: np.ndarray, tol_kkt: float
) -> None:
    """Certificate and optimality of scalar synthetic-control unit weights."""
    n = controls_pre.shape[0]
    check_simplex(w, n, "scalar unit weights")
    gram, linear = scalar_unit_problem(controls_pre, treated_pre)
    grad = 2.0 * (gram @ w - linear)
    residual = tangent_cone_residual(grad, w)
    bound = tol_kkt * (1.0 + float(np.linalg.norm(grad)))
    require(
        residual <= bound,
        f"unit weights miss the projected-gradient certificate: {residual:.3e} > {bound:.3e}",
    )
    # Independent solve: NNLS with the sum-to-one row weighted heavily.
    t0 = treated_pre.size
    big = 1e4 * (1.0 + float(np.abs(controls_pre).max()))
    a = np.vstack([controls_pre.T / np.sqrt(t0), big * np.ones((1, n))])
    b = np.append(treated_pre / np.sqrt(t0), big)
    ref, _ = nnls(a, b, maxiter=50 * n)
    ref = ref / ref.sum()

    def objective(v: np.ndarray) -> float:
        r = treated_pre - controls_pre.T @ v
        return float(r @ r) / t0

    ours, theirs = objective(w), objective(ref)
    require(
        ours <= theirs + 1e-12 * (1.0 + theirs),
        f"unit-weight objective {ours:.6e} is worse than an independent NNLS solve {theirs:.6e}",
    )


def check_sdid_formula(
    synthetic: float,
    unit_w: np.ndarray,
    time_w: np.ndarray,
    treated_pre: np.ndarray,
    controls_pre: np.ndarray,
    controls_post_mean: np.ndarray,
) -> None:
    """Closed SDID form ``lam' y0_pre + w' (ybar_post - Y_pre lam)``."""
    expected = float(time_w @ treated_pre + unit_w @ (controls_post_mean - controls_pre @ time_w))
    require(
        abs(synthetic - expected) <= 1e-10,
        f"gsdid synthetic {synthetic!r} differs from the SDID formula {expected!r}",
    )


# ---------------------------------------------------------------------------
# sphere


def sphere_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Arc length between unit vectors along the last axis (atan2 form)."""
    dot = np.sum(a * b, axis=-1)
    cross = np.linalg.norm(b - dot[..., None] * a, axis=-1)
    return np.arctan2(cross, dot)


def sphere_log(base: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Logarithm map ``Log_base(z)`` along the last axis, broadcasting."""
    dot = np.sum(base * z, axis=-1, keepdims=True)
    u = z - dot * base
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    theta = np.arctan2(norm, dot)
    return np.where(norm > 0.0, theta / np.where(norm > 0.0, norm, 1.0), 0.0) * u


def sphere_mean(z: np.ndarray, w: np.ndarray, tol: float = 1e-15) -> np.ndarray:
    """Weighted Frechet means of ``z`` (B, J, d) by the fixed-point map.

    ``m <- Exp_m(sum_j w_j Log_m(z_j) / sum_j w_j)``, iterated until the
    step stops shrinking. The weights need not sum to one, and may be
    slightly negative, as finite differences require.
    """
    w = np.asarray(w, dtype=float) / float(np.sum(w))
    m = np.einsum("j,bjd->bd", w, z)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    last = np.inf
    for _ in range(200):
        step = np.einsum("j,bjd->bd", w, sphere_log(m[:, None, :], z))
        size = float(np.linalg.norm(step, axis=1).max())
        theta = np.linalg.norm(step, axis=1, keepdims=True)
        safe = np.where(theta > 0.0, theta, 1.0)
        m = np.cos(theta) * m + np.sin(theta) * step / safe
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        if size <= tol or size >= last:
            break
        last = size
    return m


def check_sphere_mean_condition(synthetic: np.ndarray, controls: np.ndarray, w: np.ndarray) -> None:
    """First-order condition ``sum_j w_j Log_m(z_jt) = 0`` at every period.

    ``synthetic`` is (T, d), ``controls`` is (T, J, d).
    """
    grad = np.einsum("j,tjd->td", w, sphere_log(synthetic[:, None, :], controls))
    worst = float(np.linalg.norm(grad, axis=1).max())
    require(worst <= 1e-9, f"synthetic sphere point misses the mean condition by {worst:.3e}")


FD_STEP = 1e-5
FD_EVAL_ERROR = 1e-15


def sphere_unit_objective(w: np.ndarray, controls_pre: np.ndarray, treated_pre: np.ndarray) -> float:
    """``(1/T0) sum_t d(m_t(w), y_t)^2`` with the benchmark's own mean."""
    means = sphere_mean(controls_pre, w)
    return float(np.mean(sphere_angle(means, treated_pre) ** 2))


def sphere_gradient_bound(grad: np.ndarray, tol_kkt: float, n: int) -> float:
    """Allowed projected-gradient norm for a central-difference gradient.

    The solver certifies ``tol_kkt (1 + |g|)``. A central difference with
    step ``h`` adds a truncation error of order ``h^2`` and a rounding
    error of order ``eps / h`` per coordinate, where ``eps`` bounds the
    error of one objective evaluation; both are taken with a factor 10
    over ``sqrt(n)`` coordinates.
    """
    h = FD_STEP
    per_coord = h * h + FD_EVAL_ERROR / h
    return tol_kkt * (1.0 + float(np.linalg.norm(grad))) + 10.0 * np.sqrt(n) * per_coord


def check_sphere_unit_gradient(
    w: np.ndarray, controls_pre: np.ndarray, treated_pre: np.ndarray, tol_kkt: float
) -> float:
    """Projected gradient of the unit objective by central differences."""
    n = w.size
    check_simplex(w, n, "sphere unit weights")
    grad = np.empty(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = FD_STEP
        grad[j] = (
            sphere_unit_objective(w + e, controls_pre, treated_pre)
            - sphere_unit_objective(w - e, controls_pre, treated_pre)
        ) / (2.0 * FD_STEP)
    residual = tangent_cone_residual(grad, w)
    bound = sphere_gradient_bound(grad, tol_kkt, n)
    require(
        residual <= bound,
        f"sphere unit weights: projected finite-difference gradient {residual:.3e} > {bound:.3e}",
    )
    return residual


def check_sphere_transport_length(
    synthetic: np.ndarray, treated_pre: np.ndarray, controls_pre: np.ndarray,
    controls_post: np.ndarray,
) -> None:
    """Transport keeps the displacement length: ``d(tp, syn) = d(cp, cq)``."""
    moved = float(sphere_angle(treated_pre, synthetic))
    shift = float(sphere_angle(controls_pre, controls_post))
    require(
        abs(moved - shift) <= 1e-9,
        f"gsdid synthetic is {moved:.12g} from treated_pre, expected {shift:.12g}",
    )


SPHERE_ORACLE_BOUND = 5e-3


def check_sphere_oracle(synthetic_post: np.ndarray, counterfactual: np.ndarray) -> float:
    """Post-period error of the sphere gsc counterfactual against the oracle."""
    err = float(sphere_angle(synthetic_post, counterfactual).max())
    require(
        err <= SPHERE_ORACLE_BOUND,
        f"sphere counterfactual error {err:.3e} exceeds {SPHERE_ORACLE_BOUND:.0e}",
    )
    return err


# ---------------------------------------------------------------------------
# distributions


def check_quantiles_equal(got: np.ndarray, expected: np.ndarray, what: str) -> None:
    scale = 1.0 + float(np.abs(expected).max())
    gap = float(np.abs(np.asarray(got) - expected).max())
    require(gap <= 1e-9 * scale, f"{what}: quantiles differ from the model by {gap:.3e}")


def check_lengths_equal(lengths, expected: float, what: str) -> None:
    lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
    gap = float(np.abs(lengths - expected).max())
    require(gap <= 1e-9 * (1.0 + abs(expected)), f"{what}: {lengths} differ from {expected!r}")


# ---------------------------------------------------------------------------
# SPD under the log-Euclidean metric


def spd_log(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return (vecs * np.log(vals)) @ vecs.T


def log_euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(spd_log(a) - spd_log(b)))


def check_effect_lengths(lengths, expected, what: str) -> None:
    lengths = np.asarray(lengths, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(lengths.shape == expected.shape, f"{what}: {lengths.size} effects, expected {expected.size}")
    gap = float(np.abs(lengths - expected).max())
    require(gap <= 1e-6, f"{what}: effect lengths {lengths} differ from {expected} by {gap:.3e}")

"""Simplex-constrained weight solvers.

Synthetic-control weights live on the probability simplex. In every flat
chart the weight problem is a convex quadratic program. On the sphere it is
a nonlinear least-squares problem, solved by Gauss-Newton steps whose
subproblems are such quadratic programs. Every estimator fit uses one of
these two solvers, so every fitted weight vector carries the same KKT
certificate. A derivative-free Nelder-Mead solver remains for objectives
given only as a black box; no estimator calls it. This module provides the
solvers plus the builders that assemble the quadratic programs from chart
coordinates of panel outcomes.

The quadratic objective convention is ``q(w) = w' G w - 2 l' w + c``.
Problems built from panel data keep the underlying least-squares factors so
the objective can be evaluated in residual form, which avoids the
catastrophic cancellation the expanded quadratic form suffers near a
perfect fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize


class SolverError(RuntimeError):
    """Raised when an optimization fails to produce a certified solution."""


@dataclass(frozen=True)
class SimplexWeights:
    """A point of the probability simplex: nonnegative values summing to 1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.values, dtype=float).ravel()
        if w.size == 0:
            raise SolverError("weights must be nonempty")
        if not np.all(np.isfinite(w)):
            raise SolverError("weights must be finite")
        if float(w.min()) < 0.0:
            raise SolverError(f"weights must be nonnegative, min is {w.min():.3e}")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise SolverError(f"weights must sum to 1, got {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "values", w)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplexWeights):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))


def _normalized(w: np.ndarray) -> SimplexWeights:
    w = np.maximum(np.asarray(w, dtype=float), 0.0)
    total = float(w.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise SolverError("cannot normalize weights with nonpositive total")
    return SimplexWeights(w / total)


@dataclass(frozen=True)
class SimplexQp:
    """Convex quadratic objective ``q(w) = w' gram w - 2 linear' w + constant``.

    When built from least squares over panel coordinates, the factors
    ``factor``, ``target`` and ``scale`` are retained with
    ``q(w) = scale * || factor w - target ||^2`` and evaluation uses this
    residual form.
    """

    gram: np.ndarray
    linear: np.ndarray
    constant: float
    factor: np.ndarray | None = None
    target: np.ndarray | None = None
    scale: float | None = None

    def __post_init__(self) -> None:
        gram = np.array(self.gram, dtype=float)
        linear = np.array(self.linear, dtype=float).ravel()
        n = linear.size
        if gram.shape != (n, n):
            raise SolverError(f"gram must be {n}x{n}, got {gram.shape}")
        if np.max(np.abs(gram - gram.T)) > 1e-10 * (1.0 + np.max(np.abs(gram))):
            raise SolverError("gram matrix must be symmetric")
        gram = (gram + gram.T) / 2.0
        gram.setflags(write=False)
        linear.setflags(write=False)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "constant", float(self.constant))
        if self.factor is not None:
            factor = np.array(self.factor, dtype=float)
            target = np.array(self.target, dtype=float).ravel()
            if factor.shape != (target.size, n):
                raise SolverError("factor/target dimensions are inconsistent")
            factor.setflags(write=False)
            target.setflags(write=False)
            object.__setattr__(self, "factor", factor)
            object.__setattr__(self, "target", target)
            object.__setattr__(self, "scale", float(self.scale))

    @property
    def n(self) -> int:
        return int(self.linear.size)

    def objective(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        if self.factor is not None:
            resid = self.factor @ w - self.target
            return self.scale * float(resid @ resid)
        return float(w @ self.gram @ w - 2.0 * self.linear @ w + self.constant)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.gram @ np.asarray(w, dtype=float) - self.linear)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets shared by the simplex solvers.

    ``tol_kkt`` bounds the projected-gradient certificate of the QP and
    Gauss-Newton solvers, and ``max_iter`` caps iterations per run
    (active-set iterations for the QP, steps for Gauss-Newton). ``restarts``
    (the number of Nelder-Mead runs) and ``seed`` (its random starts) feed
    only the derivative-free solver, which no estimator uses; they are kept
    because configurations set them and result files record them.
    """

    tol_kkt: float = 1e-10
    max_iter: int = 10000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.tol_kkt > 0 and self.max_iter > 0 and self.restarts > 0):
            raise SolverError("tolerances and iteration budgets must be positive")


def _stacked_least_squares(
    blocks: Sequence[tuple[np.ndarray, np.ndarray]], scale: float
) -> SimplexQp:
    """Assemble scale * sum_t ||y_t - C_t w||^2 as a SimplexQp."""
    mats = []
    vecs = []
    n = None
    for y, c in blocks:
        y = np.asarray(y, dtype=float).ravel()
        c = np.asarray(c, dtype=float)
        if c.ndim != 2 or c.shape[0] != y.size:
            raise SolverError(
                f"coordinate block shapes are inconsistent: target {y.shape}, matrix {c.shape}"
            )
        if n is None:
            n = c.shape[1]
        elif c.shape[1] != n:
            raise SolverError("all blocks must share the same number of columns")
        mats.append(c)
        vecs.append(y)
    factor = np.vstack(mats)
    target = np.concatenate(vecs)
    gram = scale * (factor.T @ factor)
    linear = scale * (factor.T @ target)
    constant = scale * float(target @ target)
    return SimplexQp(
        gram=gram, linear=linear, constant=constant, factor=factor, target=target, scale=scale
    )


def build_unit_weight_qp(
    pre_periods: Sequence[tuple[np.ndarray, np.ndarray]],
) -> SimplexQp:
    """Quadratic program for unit weights from pre-treatment chart coordinates.

    Parameters
    ----------
    pre_periods : sequence of (treated_vector, control_matrix)
        One entry per pre-treatment period ``t``: the treated unit's chart
        coordinates ``y_t`` (length D) and a D x J matrix whose columns are
        the control units' chart coordinates at that period.

    Returns
    -------
    SimplexQp
        Objective ``(1/T0) sum_t || y_t - C_t w ||^2``, the average squared
        distance between the treated unit and the w-weighted control
        combination over the pre-treatment window.
    """
    if not pre_periods:
        raise SolverError("at least one pre-treatment period is required")
    return _stacked_least_squares(list(pre_periods), 1.0 / len(pre_periods))


def build_time_weight_qp(
    controls_pre: Sequence[np.ndarray],
    controls_post_mean: Sequence[np.ndarray],
) -> SimplexQp:
    """Quadratic program for time weights from per-control chart coordinates.

    Parameters
    ----------
    controls_pre : sequence of (T0, D) arrays
        Row ``t`` of entry ``j`` holds control ``j``'s chart coordinates in
        pre period ``t``.
    controls_post_mean : sequence of (D,) arrays
        Chart coordinates of control ``j``'s Frechet mean over the post
        window.

    Returns
    -------
    SimplexQp
        Objective ``(1/J) sum_j || m_j - P_j' lambda ||^2`` where ``m_j`` is
        the post mean and the columns of ``P_j'`` are the pre-period
        coordinates: the average squared distance between each control's
        post mean and its lambda-weighted pre-period combination.
    """
    if len(controls_pre) != len(controls_post_mean) or not controls_pre:
        raise SolverError("need matching, nonempty pre and post-mean sequences")
    blocks = []
    for pre, post in zip(controls_pre, controls_post_mean):
        pre = np.asarray(pre, dtype=float)
        if pre.ndim != 2:
            raise SolverError("each control's pre coordinates must be a (T0, D) array")
        blocks.append((np.asarray(post, dtype=float), pre.T))
    return _stacked_least_squares(blocks, 1.0 / len(controls_pre))


# ---------------------------------------------------------------------------
# exact QP solver


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort algorithm)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    k = ks[u - css / ks > 0][-1]
    tau = css[k - 1] / k
    return np.maximum(v - tau, 0.0)


def _tangent_cone_projection(v: np.ndarray, zero_mask: np.ndarray) -> np.ndarray:
    """Project ``v`` onto the tangent cone of the simplex.

    The cone at ``w`` consists of directions that sum to zero and are
    nonnegative on the active set ``zero_mask``. The projection solves a
    one-dimensional piecewise-linear equation for the multiplier of the
    sum constraint, exactly, by scanning the sorted breakpoints.
    """
    free = ~zero_mask
    n_free = int(free.sum())
    if n_free == 0:
        raise SolverError("tangent cone projection requires at least one free coordinate")
    total = float(v[free].sum())
    count = n_free
    bp = np.sort(v[zero_mask])[::-1]
    mu = total / count
    if bp.size and mu < bp[0]:
        for i in range(bp.size):
            total += float(bp[i])
            count += 1
            mu = total / count
            nxt = bp[i + 1] if i + 1 < bp.size else -np.inf
            if nxt <= mu <= bp[i]:
                break
    d = v - mu
    d[zero_mask & (d < 0)] = 0.0
    return d


def kkt_residual(problem: SimplexQp, w: np.ndarray) -> float:
    """Norm of the negative gradient projected onto the simplex tangent cone."""
    g = problem.gradient(w)
    d = _tangent_cone_projection(-g, np.asarray(w) <= 0.0)
    return float(np.linalg.norm(d))


def _active_set_finish(
    problem: SimplexQp,
    w: np.ndarray,
    certified: Callable[[np.ndarray], bool],
    max_iter: int,
) -> np.ndarray:
    """Primal active-set method started from the feasible point ``w``.

    The working set is the zero coordinates of ``w``. Each iteration takes
    the exact minimizing step on the current face (a minimum-norm solve of
    the face KKT system, so rank-deficient gram matrices are handled), cut
    short by a ratio test at the first coordinate that would turn negative;
    that coordinate joins the working set. When the face is flat to
    working precision along a descent direction (the residual of that
    solve), the step instead follows that direction to the boundary,
    provided an exact line search along it would not stop first. At the
    face minimizer the zero coordinate with the most
    negative reduced gradient is released. Stops once ``certified`` holds
    or no release would lower the objective. See Nocedal & Wright,
    Numerical Optimization, ch. 16.
    """
    w = np.array(w, dtype=float)
    free = w > 0.0
    for _ in range(max_iter):
        support = np.flatnonzero(free)
        k = support.size
        g = problem.gradient(w)
        face = 2.0 * problem.gram[np.ix_(support, support)]
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = face
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.append(-g[support], 0.0)
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        if not np.all(np.isfinite(sol)):
            break
        step, cap = sol[:k], 1.0
        ray = (rhs - kkt @ sol)[:k]
        ray -= ray.mean()  # keep the step on the plane sum(w) = 1
        slope = float(g[support] @ ray)
        if slope < 0.0 and np.any(ray < 0.0):
            reach = float(np.min(-w[support[ray < 0.0]] / ray[ray < 0.0]))
            if reach > 0.0 and -slope > float(ray @ face @ ray) * reach:
                step, cap = ray, np.inf
        shrinking = step < 0.0
        ratios = -w[support[shrinking]] / step[shrinking]
        alpha = min(cap, float(ratios.min())) if ratios.size else cap
        trial = w.copy()
        trial[support] += alpha * step
        if alpha < cap:
            blocking = support[shrinking][int(np.argmin(ratios))]
            trial[blocking] = 0.0
            free[blocking] = False
        trial = np.maximum(trial, 0.0)
        if not trial.sum() > 0.0:
            break  # the face solve lost every coordinate to rounding: keep w
        w = trial / trial.sum()
        if alpha < cap:
            continue
        if certified(w):
            break
        g = problem.gradient(w)
        reduced = np.where(free, np.inf, g - float(g[support].mean()))
        j = int(np.argmin(reduced))
        if reduced[j] >= 0.0:
            break
        free[j] = True
    return w


def solve_simplex_qp(
    problem: SimplexQp, cfg: SolverConfig | None = None
) -> tuple[SimplexWeights, float]:
    """Minimize a convex quadratic over the probability simplex.

    Runs the primal active-set method of :func:`_active_set_finish` from
    the best vertex, ``argmin_i (G_ii - 2 l_i)``. Each release adds one
    coordinate to the support, as in Lawson and Hanson's NNLS, so a fit
    costs about one small face KKT solve per support coordinate. The
    returned point carries a stationarity certificate: the norm of the
    negative gradient projected onto the simplex tangent cone is at most
    ``tol_kkt * (1 + |gradient|)``.

    Ties are broken deterministically: the uniform point wins when the
    active-set point does not improve on it strictly, so a constant
    objective returns exactly uniform weights, unless the uniform point
    fails the certificate and the active-set point ties it.

    Raises
    ------
    SolverError
        If the point reached is not certified within ``max_iter``
        active-set iterations.
    """
    cfg = cfg or SolverConfig()
    n = problem.n
    if n == 1:
        w = np.array([1.0])
        return SimplexWeights(w), problem.objective(w)

    def certified(w: np.ndarray) -> bool:
        g = problem.gradient(w)
        res = kkt_residual(problem, w)
        return res <= cfg.tol_kkt * (1.0 + float(np.linalg.norm(g)))

    best = np.full(n, 1.0 / n)
    vertex = np.zeros(n)
    vertex[int(np.argmin(np.diag(problem.gram) - 2.0 * problem.linear))] = 1.0
    finish = _active_set_finish(problem, vertex, certified, cfg.max_iter)
    f_best, f_finish = problem.objective(best), problem.objective(finish)
    if f_finish < f_best or (f_finish == f_best and not certified(best)):
        best = finish
    if not certified(best):
        raise SolverError(
            f"simplex QP failed to reach KKT residual {cfg.tol_kkt:.1e} "
            f"within {cfg.max_iter} iterations"
        )
    weights = _normalized(best)
    return weights, problem.objective(weights.values)


# ---------------------------------------------------------------------------
# Gauss-Newton solver


def solve_simplex_gauss_newton(
    linearize: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    n: int,
    cfg: SolverConfig | None = None,
) -> tuple[SimplexWeights, float]:
    """Minimize a nonlinear least-squares objective over the probability simplex.

    The objective is ``F(w) = (1/T) sum_t ||r_t(w)||^2``. ``linearize(w)``
    returns the residuals ``r`` of shape (T, D) and their Jacobians ``D``
    of shape (T, D, n), so that ``r_t(v) ~ r_t(w) + D_t (v - w)``. Each step
    minimizes that linear model over the simplex with
    :func:`solve_simplex_qp`, then backtracks on the true ``F`` until the
    Armijo condition holds to within a few ulps of ``F``. The iteration
    starts at the uniform point.

    The model's gradient at ``w`` is the gradient of ``F``, so the returned
    point carries the certificate of the QP solver: the norm of the negative
    gradient of ``F`` projected onto the simplex tangent cone is at most
    ``tol_kkt * (1 + |gradient|)``. A problem whose objective is constant
    returns exactly uniform weights.

    Raises
    ------
    SolverError
        If the certificate is not met within ``max_iter`` steps, the line
        search stalls, an accepted step leaves the weights unchanged (the
        next step would repeat it), or the residuals are not finite.
    """
    cfg = cfg or SolverConfig()
    if n < 1:
        raise SolverError("need at least one weight")

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        resid, jac = linearize(w)
        if not (np.all(np.isfinite(resid)) and np.all(np.isfinite(jac))):
            raise SolverError("residuals or Jacobians are not finite")
        return float(np.mean(np.sum(resid * resid, axis=1))), resid, jac

    w = np.full(n, 1.0 / n)
    fval, resid, jac = evaluate(w)
    if n == 1:
        return SimplexWeights(w), fval
    for _ in range(cfg.max_iter):
        model = build_unit_weight_qp(
            [(d_t @ w - r_t, d_t) for r_t, d_t in zip(resid, jac)]
        )
        grad = model.gradient(w)
        if kkt_residual(model, w) <= cfg.tol_kkt * (1.0 + float(np.linalg.norm(grad))):
            return SimplexWeights(w), fval
        target, _ = solve_simplex_qp(model, cfg)
        step = target.values - w
        slope = float(grad @ step)
        # A few ulps of F of slack: near the optimum the predicted decrease
        # can fall below F's rounding, and a strict test would then reject
        # every step that still moves w.
        slack = 8.0 * np.finfo(float).eps * abs(fval)
        alpha = 1.0
        while slope < 0.0 and alpha >= 1e-10:
            trial = _normalized(w + alpha * step).values
            f_trial, r_trial, j_trial = evaluate(trial)
            if f_trial <= fval + 1e-4 * alpha * slope + slack:
                if np.array_equal(trial, w):
                    raise SolverError(
                        f"Gauss-Newton step left the weights unchanged at objective "
                        f"{fval:.3e} before reaching KKT residual {cfg.tol_kkt:.1e}"
                    )
                w, fval, resid, jac = trial, f_trial, r_trial, j_trial
                break
            alpha *= 0.5
        else:
            raise SolverError(
                f"Gauss-Newton line search stalled at objective {fval:.3e} "
                f"before reaching KKT residual {cfg.tol_kkt:.1e}"
            )
    raise SolverError(
        f"Gauss-Newton failed to reach KKT residual {cfg.tol_kkt:.1e} "
        f"within {cfg.max_iter} steps"
    )


# ---------------------------------------------------------------------------
# derivative-free solver


def _softmax_weights(x: np.ndarray) -> np.ndarray:
    z = np.append(x, 0.0)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def solve_simplex_derivative_free(
    objective: Callable[[np.ndarray], float],
    n: int,
    cfg: SolverConfig | None = None,
) -> tuple[SimplexWeights, float]:
    """Minimize a black-box objective over the probability simplex.

    The simplex interior is reparameterized by additive log-ratio
    coordinates (n - 1 free coordinates, weights recovered by a softmax)
    and searched with Nelder-Mead. Runs ``cfg.restarts`` times: once from
    the uniform point, then from random starts, with the final up-to-three
    runs re-polishing the best point found so far using fresh initial
    simplices of decreasing scale. Each run stops when the search simplex
    diameter falls below 1e-9 or after ``max_iter`` iterations.

    The uniform point and all vertices (shrunk into the interior by
    delta = 1e-6) are always probed, and the best candidate is selected
    with strict improvement, uniform first, so a constant objective
    returns exactly uniform weights. Identical inputs and seed give
    bit-identical output.

    Raises
    ------
    SolverError
        If the objective returns a non-finite value.
    """
    cfg = cfg or SolverConfig()
    if n < 1:
        raise SolverError("need at least one weight")

    def f_weights(w: np.ndarray) -> float:
        val = float(objective(w))
        if not np.isfinite(val):
            raise SolverError(f"objective returned a non-finite value at {w!r}")
        return val

    uniform = np.full(n, 1.0 / n)
    if n == 1:
        w = np.array([1.0])
        return SimplexWeights(w), f_weights(w)

    def f_alr(x: np.ndarray) -> float:
        return f_weights(_softmax_weights(x))

    rng = np.random.default_rng(cfg.seed)
    dim = n - 1
    n_runs = cfg.restarts
    n_polish = min(3, n_runs - 1)
    polish_scales = [1e-2, 1e-4, 1e-6][:n_polish]
    options = {
        "xatol": 1e-9,
        "fatol": np.inf,
        "maxiter": cfg.max_iter,
        "maxfev": 10 * cfg.max_iter,
    }

    best_x = np.zeros(dim)
    best_val = f_alr(best_x)
    for run in range(n_runs):
        run_options = dict(options)
        if run == 0:
            x0 = np.zeros(dim)
        elif run < n_runs - n_polish:
            x0 = rng.normal(size=dim)
        else:
            x0 = best_x.copy()
            scale = polish_scales[run - (n_runs - n_polish)]
            sim = np.repeat(x0[None, :], dim + 1, axis=0)
            sim[1:] += scale * np.eye(dim)
            run_options["initial_simplex"] = sim
        res = minimize(f_alr, x0, method="Nelder-Mead", options=run_options)
        if np.all(np.isfinite(res.x)) and res.fun < best_val:
            best_x, best_val = res.x, float(res.fun)

    delta = 1e-6
    candidates = [uniform, _softmax_weights(best_x)]
    eye = np.eye(n)
    candidates.extend((1.0 - delta) * eye[i] + delta * uniform for i in range(n))

    best_w = candidates[0]
    best_fw = f_weights(best_w)
    for cand in candidates[1:]:
        val = f_weights(cand)
        if val < best_fw:
            best_w, best_fw = cand, val
    weights = _normalized(best_w)
    return weights, f_weights(weights.values)

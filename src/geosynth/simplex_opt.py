"""Simplex-constrained weight solvers.

Synthetic-control weights live on the probability simplex. In every flat
chart the weight problem is a convex quadratic program. On the sphere it is
a nonlinear least-squares problem, solved by Gauss-Newton steps whose
subproblems are such quadratic programs. Every estimator fit uses one of
these two solvers, so every fitted weight vector carries the same KKT
certificate. A derivative-free Nelder-Mead solver remains for objectives
given only as a black box; no estimator calls it.

There is one weight problem, in two roles: match the weighted combination
of n points to a target in each of B blocks. Unit weights match the
controls to the treated unit in each pre-treatment period; time weights
match each control's pre-treatment periods to its post-treatment target.
:func:`stack_weight_qp`, the one builder, assembles that problem for
either role from a (B, n, D) stack of chart coordinates; Gauss-Newton
builds its subproblems with it, from a stack of Jacobians. The flat fits
take their Gram matrix (the one part that costs more than a pass over the
stack) from the panel's cached Gram blocks, uncopied, through :func:`_weight_qp`.

A problem keeps the stack, a view of the panel's coordinates, and its
targets; ``q(w) = w' G w - 2 l' w + c`` is its expanded form. It evaluates
the objective in residual form, ``mean_b |y_b - w @ z_b|^2``, which avoids
the catastrophic cancellation the expanded form suffers near a perfect fit.

Both solvers run a stack of problems at once: a placebo test's donor fits
are one stack, and a single fit is a stack of one. Each member keeps its
own support, step, line search and certificate; each active-set iteration
solves the members' face systems with one stacked LU call per face size,
and each Gauss-Newton step linearizes all live members in one call and
solves their model QPs as one stack. A member's weights never depend on
the rest of its stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)


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
    """Least squares ``q(w) = (1/B) sum_b || target_b - w @ factor_b ||^2``
    over a (B, n, D) stack and its (B, D) targets, as :func:`stack_weight_qp`
    builds and checks it; the record keeps what it is given, uncopied. Its
    expanded form ``w' gram w - 2 linear' w + constant`` gives the gradient.
    ``allowed``, a boolean mask or ``None`` (all), is the face it is solved
    over: its other weights stay zero, at full length, and out of its certificate.
    """

    factor: np.ndarray
    target: np.ndarray
    gram: np.ndarray
    linear: np.ndarray
    constant: float
    allowed: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.linear.size)

    def objective(self, w: np.ndarray) -> float:
        resid = self.target - np.asarray(w, dtype=float) @ self.factor
        return (1.0 / len(self.target)) * float(np.vdot(resid, resid))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.gram @ np.asarray(w, dtype=float) - self.linear)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets shared by the simplex solvers.

    ``tol_kkt``, positive and finite, bounds the projected-gradient
    certificate of the QP and Gauss-Newton solvers, and ``max_iter``, a
    positive integer, caps iterations per run (active-set iterations for
    the QP, steps for Gauss-Newton). ``restarts`` (the number of
    Nelder-Mead runs) and ``seed`` (its random starts, nonnegative) feed
    only the derivative-free solver, which no estimator uses; they are kept
    because configurations set them and result files record them.
    """

    tol_kkt: float = 1e-10
    max_iter: int = 10000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        counts = all(  # numpy integers count, bools do not
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least
            for v, least in ((self.max_iter, 1), (self.restarts, 1), (self.seed, 0))
        )
        if not (0 < self.tol_kkt < np.inf and counts):
            raise SolverError(
                "tol_kkt must be positive and finite, max_iter and restarts positive "
                "integers, and seed a nonnegative integer"
            )


def stack_weight_qp(stacks: np.ndarray, targets: np.ndarray) -> SimplexQp:
    """Objective ``(1/B) sum_b || y_b - w @ z_b ||^2`` over a (B, n, D) stack
    ``z`` of chart coordinates (any strided view, not copied) and its (B, D)
    targets ``y``: the average squared distance between each target and its
    w-weighted combination, with its Gram ``(1/B) sum_b z_b z_b'``.
    """
    z, y = np.asarray(stacks, dtype=float), np.asarray(targets, dtype=float)
    if z.ndim != 3 or y.shape != (z.shape[0], z.shape[2]):
        raise SolverError("factor/target dimensions are inconsistent")
    flat = z.swapaxes(0, 1).reshape(z.shape[1], -1)
    return _weight_qp(z, y, (1.0 / z.shape[0]) * (flat @ flat.T))


def _weight_qp(z: np.ndarray, y: np.ndarray, gram: np.ndarray, allowed=None) -> SimplexQp:
    """The QP of :func:`stack_weight_qp` from a stack, targets and Gram that
    come checked, over the face ``allowed``: a panel's estimators pass its
    cached Gram blocks here, uncopied, in place of computing them."""
    scale = 1.0 / z.shape[0]
    linear = scale * np.einsum("bnd,bd->n", z, y)
    return SimplexQp(z, y, gram, linear, scale * float(np.vdot(y, y)), allowed)


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
    free = v[~zero_mask]
    if free.size == 0:
        raise SolverError("tangent cone projection requires at least one free coordinate")
    total, count = float(free.sum()), free.size
    mu = total / count
    bp = v[zero_mask]
    if bp.size and mu < bp.max():
        bp = np.sort(bp)[::-1]
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


def kkt_residual(problem: SimplexQp, w: np.ndarray, gradient: np.ndarray | None = None) -> float:
    """Norm of the negative gradient (computed here unless given) projected
    onto the tangent cone at ``w`` of the problem's face of the simplex."""
    w, g = np.asarray(w), problem.gradient(w) if gradient is None else gradient
    if problem.allowed is not None:
        w, g = w[problem.allowed], g[problem.allowed]
    d = _tangent_cone_projection(-g, w <= 0.0)
    return float(np.sqrt(d @ d))


def _certified(problem: SimplexQp, w: np.ndarray, tol: float, g=None) -> bool:
    """The certificate every weight fit carries: ``kkt_residual`` at most
    ``tol * (1 + |gradient|)`` over the problem's face, from the gradient
    ``g`` at ``w`` when the caller has it."""
    g = problem.gradient(w) if g is None else g
    face = g if problem.allowed is None else g[problem.allowed]
    return kkt_residual(problem, w, g) <= tol * (1.0 + float(np.sqrt(face @ face)))


def _cannot_certify(
    w: np.ndarray, support: np.ndarray, g: np.ndarray, drop: float, tol: float
) -> bool:
    """Whether ``drop = g_j - mean(g_S)``, for a zero coordinate ``j`` of
    the face, proves :func:`_certified` false at ``w`` (gradient ``g``),
    positive on its ``support`` S. By Moreau, with the unit tangent
    direction ``(e_j - 1_S/|S|) / sqrt(1 + 1/|S|)``, ``kkt_residual >=
    -drop / sqrt(1 + 1/|S|)``; this must exceed twice the certificate's
    bound plus ``8 n^2 eps |g|`` of rounding (the whole gradient's norm
    and length bound the face's)."""
    norm = math.sqrt(float(g @ g))
    limit = 2.0 * tol * (1.0 + norm) + 8.0 * g.size**2 * _EPS * norm
    return -drop > limit * math.sqrt(1.0 + 1.0 / support.size) and w[support].min() > 0.0


def _face_solves(kkt: np.ndarray, rhs: np.ndarray, lu: bool) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of the face KKT systems ``kkt[r] x = rhs[r]`` and which
    came from LU. LAPACK factors each matrix of a stack on its own, so no
    solution depends on the others. Where LU fails (a singular system or a
    non-finite solution), or everywhere unless ``lu``, the minimum-norm
    least-squares solution stands in."""
    try:
        sol = np.linalg.solve(kkt, rhs[..., None])[..., 0] if lu else np.full(rhs.shape, np.nan)
    except np.linalg.LinAlgError:  # a singular system: solve each on its own
        sol = np.full(rhs.shape, np.nan)
        for r in range(len(kkt)):
            try:
                sol[r] = np.linalg.solve(kkt[r : r + 1], rhs[r : r + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
    exact = np.isfinite(sol).all(axis=1)
    if not exact.all():
        for r in np.flatnonzero(~exact):
            sol[r] = np.linalg.lstsq(kkt[r], rhs[r], rcond=None)[0]
    return sol, exact


def _active_set(
    problems: list[SimplexQp], starts: list[np.ndarray], tol: float, max_iter: int,
    lu: bool = True,
) -> tuple[list[np.ndarray], list[bool]]:
    """Primal active-set method on a stack of problems, each started from
    its feasible point ``starts[i]`` on its face; see Nocedal & Wright,
    Numerical Optimization, ch. 16. Returns each member's finish point and
    whether it stopped certified there.

    Each member keeps its own working set (its zero coordinates), ratio
    test, certificate and release rule; members with faces of one size
    share a face solve (:func:`_face_solves`) and a vectorized ratio test,
    computed row by row as alone. A step goes to the face minimizer, cut
    short where a coordinate would turn negative, which joins the working
    set. On a face solved by least squares and flat to working precision
    along a descent direction (the solve's residual), the step follows that
    direction to the boundary unless an exact line search would stop first.
    At the face minimizer the allowed zero coordinate with the most
    negative reduced gradient is released. A member stops once
    :func:`_certified` holds at ``tol``, no release would lower its
    objective, or, on LU faces, it is back at a face minimizer it has left,
    which exact steps never do (an LU step on a face singular to rounding).
    The certificate is skipped where the release candidate proves it
    false (:func:`_cannot_certify`), so a fit evaluates it about once,
    where it stops.
    """
    ws = [np.array(w, dtype=float) for w in starts]
    free = [w > 0.0 for w in ws]
    grads = [p.gradient(w) for p, w in zip(problems, ws)]
    seen: list[set] = [set() for _ in problems]
    certified = [False] * len(problems)
    live = list(range(len(problems)))
    for _ in range(max_iter):
        supports = {i: free[i].nonzero()[0] for i in live}
        sizes: dict[int, list[int]] = {}
        for i in live:
            sizes.setdefault(supports[i].size, []).append(i)
        going, settled = [], []
        for k, members in sizes.items():
            S = [supports[i] for i in members]
            kkt = np.zeros((len(members), k + 1, k + 1))
            kkt[:, :k, :k] = [2.0 * problems[i].gram[s[:, None], s] for i, s in zip(members, S)]
            kkt[:, :k, k] = kkt[:, k, :k] = 1.0
            rhs = np.zeros((len(members), k + 1))
            rhs[:, :k] = [-grads[i][s] for i, s in zip(members, S)]
            w_s = np.array([ws[i][s] for i, s in zip(members, S)])
            sol, exact = _face_solves(kkt, rhs, lu)
            ok, step, cap = exact, sol[:, :k], np.ones(len(members))
            if not exact.all():  # least-squares faces
                ok = np.isfinite(sol).all(axis=1)
                step = np.where(ok[:, None], step, 0.0)
            for r in np.flatnonzero(ok & ~exact):
                ray = (rhs[r] - kkt[r] @ sol[r])[:k]
                ray -= ray.mean()  # keep the step on the plane sum(w) = 1
                slope, down = float(rhs[r, :k] @ ray), ray < 0.0  # rhs: the negative gradient
                if slope > 0.0 and down.any():
                    reach = float(np.min(-w_s[r][down] / ray[down]))
                    if reach > 0.0 and slope > float(ray @ kkt[r, :k, :k] @ ray) * reach:
                        step[r], cap[r] = ray, np.inf
            shrinking = step < 0.0
            ratios = np.where(shrinking, w_s, np.inf) / np.where(shrinking, -step, 1.0)
            alpha, blocking = np.minimum(cap, ratios.min(axis=1)), ratios.argmin(axis=1)
            blocked = alpha < cap
            trial = w_s + alpha[:, None] * step
            trial[blocked, blocking[blocked]] = 0.0
            trial = np.maximum(trial, 0.0)
            total = trial.sum(axis=1)
            moved = ok & (total > 0.0)  # else the solve lost every coordinate to rounding
            trial /= np.where(moved, total, 1.0)[:, None]
            for r in np.flatnonzero(moved):
                i, s = members[r], S[r]
                ws[i][s] = trial[r]
                grads[i] = problems[i].gradient(ws[i])
                if blocked[r]:
                    free[i][s[blocking[r]]] = False
                (going if blocked[r] else settled).append(i)
        for i in settled:
            g, s, problem = grads[i], supports[i], problems[i]
            closed = free[i] if problem.allowed is None else free[i] | ~problem.allowed
            reduced = np.where(closed, np.inf, g - float(g[s].sum()) / s.size)
            j = int(np.argmin(reduced))
            if not _cannot_certify(ws[i], s, g, float(reduced[j]), tol):
                certified[i] = _certified(problem, ws[i], tol, g)
            face = free[i].tobytes()
            if certified[i] or (lu and face in seen[i]):
                continue  # certified, or back at a face minimizer: LU faces lost to rounding
            seen[i].add(face)
            if reduced[j] < 0.0:
                free[i][j] = True
                going.append(i)
        live = going
        if not live:
            break
    return ws, certified


def _solve_qp_stack(problems: list[SimplexQp], cfg: SolverConfig | None = None) -> list:
    """:func:`solve_simplex_qp` on a stack of problems at once: each one's
    ``(weights, objective)``, or in its place the :class:`SolverError` it
    fails with. A finish point :func:`_active_set` stopped certified at is
    not certified again, and the uniform point only where it wins or ties."""
    cfg = cfg or SolverConfig()
    results: list = [None] * len(problems)
    starts, uniforms = {}, {}
    for i, problem in enumerate(problems):
        mask = np.ones(problem.n, dtype=bool) if problem.allowed is None else problem.allowed
        vertex = np.argmin(np.where(mask, np.diag(problem.gram) - 2.0 * problem.linear, np.inf))
        starts[i], uniforms[i] = (np.arange(problem.n) == vertex) * 1.0, mask / mask.sum()
    pending = list(starts)
    for lu in (True, False):  # a member uncertified on LU faces retries on minimum-norm ones
        finishes, stopped = _active_set(
            [problems[i] for i in pending], [starts[i] for i in pending],
            cfg.tol_kkt, cfg.max_iter, lu,
        )
        for i, finish, done in zip(pending, finishes, stopped):
            problem, best = problems[i], uniforms[i]
            f_best, f_finish = problem.objective(best), problem.objective(finish)
            tie = f_finish == f_best
            ok = tie and _certified(problem, best, cfg.tol_kkt)  # a certified uniform point wins
            if f_finish < f_best or (tie and not ok):
                best, f_best = finish, f_finish
                ok = done or _certified(problem, best, cfg.tol_kkt)
            elif not ok:
                ok = _certified(problem, best, cfg.tol_kkt)
            if ok:
                weights = _normalized(best)
                same = np.array_equal(weights.values, best)
                results[i] = weights, f_best if same else problem.objective(weights.values)
            else:
                results[i] = SolverError(
                    f"simplex QP failed to reach KKT residual {cfg.tol_kkt:.1e} "
                    f"within {cfg.max_iter} iterations"
                )
        pending = [i for i in pending if isinstance(results[i], SolverError)]
        if not pending:
            break
    return results


def solve_simplex_qp(
    problem: SimplexQp, cfg: SolverConfig | None = None
) -> tuple[SimplexWeights, float]:
    """Minimize a convex quadratic over the probability simplex.

    Runs the primal active-set method of :func:`_active_set`, as a stack of
    one, from the best vertex, ``argmin_i (G_ii - 2 l_i)`` over the
    problem's face (``allowed``). Each release adds one coordinate to the
    support, as in Lawson and Hanson's NNLS, so a fit costs about one small
    face KKT solve per support coordinate. The returned point carries a
    stationarity certificate: the norm of the negative gradient projected
    onto the tangent cone of the face is at most ``tol_kkt * (1 + |gradient|)``.

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
    [result] = _solve_qp_stack([problem], cfg)
    if isinstance(result, SolverError):
        raise result
    return result


def _solve_qps(problems: list[SimplexQp], cfg: SolverConfig | None = None) -> list:
    """Each problem's ``(weights, objective)`` or its :class:`SolverError`,
    as :func:`_solve_qp_stack` gives them: a lone problem through
    :func:`solve_simplex_qp`, the name geobench's tracer counts."""
    if len(problems) != 1:
        return _solve_qp_stack(problems, cfg) if problems else []
    try:
        return [solve_simplex_qp(problems[0], cfg)]
    except SolverError as exc:
        return [exc]


# ---------------------------------------------------------------------------
# Gauss-Newton solver


def solve_simplex_gauss_newton(
    linearize: Callable, n: int, cfg: SolverConfig | None = None, size: int = 1
) -> list:
    """Minimize a stack of ``size`` nonlinear least-squares objectives
    ``F(w) = (1/T) sum_t ||r_t(w)||^2`` over the probability simplex; like
    :func:`_solve_qp_stack`, return each member's ``(weights, objective)``,
    or in its place the :class:`SolverError` it fails with.

    ``linearize(w, members)`` returns the residuals ``r`` (M, T, D) and
    their Jacobians ``D`` (M, T, D, n) of the members ``members`` (an index
    array) at their weights ``w`` (M, n): ``r_t(v) ~ r_t(w) + D_t (v - w)``.
    Each step minimizes the live members' linear models over the simplex
    as one stack of QPs, then backtracks on each true ``F`` until the Armijo
    condition holds to within a few ulps of ``F``. Every member starts at
    the uniform point; its weights never depend on the rest of its stack.

    The model's gradient at ``w`` is the gradient of ``F``, so a returned
    point carries the QP solver's certificate: the norm of the negative
    gradient of ``F`` projected onto the simplex tangent cone is at most
    ``tol_kkt * (1 + |gradient|)``. A constant objective returns exactly
    uniform weights. A member fails if the certificate is not met within
    ``max_iter`` steps, the line search stalls, an accepted step leaves its
    weights unchanged (the next step would repeat it), or its residuals are
    not finite.
    """
    cfg = cfg or SolverConfig()
    if n < 1:
        raise SolverError("need at least one weight")
    short = f"before reaching KKT residual {cfg.tol_kkt:.1e}"
    results: list = [None] * size

    def evaluate(members: np.ndarray, w: np.ndarray) -> dict:
        """``{member: (w, F, r, D)}`` where the residuals and Jacobians are
        finite; the other members fail."""
        found = {}
        for i, w_i, resid, jac in zip(members, w, *linearize(w, members)):
            if np.all(np.isfinite(resid)) and np.all(np.isfinite(jac)):
                found[i] = w_i, float(np.mean(np.sum(resid * resid, axis=1))), resid, jac
            else:
                results[i] = SolverError("residuals or Jacobians are not finite")
        return found

    live = evaluate(np.arange(size), np.full((size, n), 1.0 / n))
    for _ in range(cfg.max_iter):
        if not live:
            break
        models, steps, moved, alpha = {}, {}, {}, 1.0
        for i, (w, fval, resid, jac) in live.items():
            models[i] = stack_weight_qp(jac.swapaxes(1, 2), jac @ w - resid)
            if _certified(models[i], w, cfg.tol_kkt):
                results[i] = SimplexWeights(w), fval
                del models[i]
        for i, target in zip(models, _solve_qps(list(models.values()), cfg)):
            if isinstance(target, SolverError):
                results[i] = target
                continue
            step = target[0].values - live[i][0]
            slope = float(models[i].gradient(live[i][0]) @ step)
            if slope < 0.0:  # else the line search stalls at once
                steps[i] = step, slope
        while steps and alpha >= 1e-10:
            trials = {i: _normalized(live[i][0] + alpha * s).values for i, (s, _) in steps.items()}
            found = evaluate(np.fromiter(trials, int), np.array(list(trials.values())))
            for i, (_, slope) in list(steps.items()):
                w, fval = live[i][:2]
                # A few ulps of F of slack: near the optimum the predicted
                # decrease can fall below F's rounding, and a strict test
                # would then reject every step that still moves w.
                slack = 8.0 * np.finfo(float).eps * abs(fval)
                if i not in found:  # not finite: failed in evaluate
                    del steps[i]
                elif found[i][1] <= fval + 1e-4 * alpha * slope + slack:
                    del steps[i]
                    if np.array_equal(found[i][0], w):
                        results[i] = SolverError(
                            f"Gauss-Newton step left the weights unchanged at objective "
                            f"{fval:.3e} {short}"
                        )
                    else:
                        moved[i] = found[i]
            alpha *= 0.5
        for i in models.keys() - moved.keys():
            if results[i] is None:
                results[i] = SolverError(
                    f"Gauss-Newton line search stalled at objective {live[i][1]:.3e} {short}"
                )
        live = moved
    for i in live:
        results[i] = SolverError(
            f"Gauss-Newton failed to reach KKT residual {cfg.tol_kkt:.1e} "
            f"within {cfg.max_iter} steps"
        )
    return results


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
    from scipy.optimize import minimize

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

"""Shared test utilities: random valid points, panel builders, reporting."""

from __future__ import annotations

import numpy as np

import geosynth as g

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, name: str, passed: bool, detail: str) -> None:
    """Collect one pass/fail line per acceptance criterion for the summary."""
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d} {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def random_point(space: g.SpaceDescriptor, rng: np.random.Generator) -> g.ObjectPoint:
    """A random valid point of the given space."""
    kind = space.kind
    if kind == "laplacian":
        n = space.dim
        adj = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.6)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        return g.ObjectPoint(space, np.diag(adj.sum(axis=1)) - adj)
    if kind == "sphere":
        v = rng.uniform(0.05, 1.0, size=space.dim)
        return g.ObjectPoint(space, v / np.linalg.norm(v))
    if kind in ("spd_frobenius", "spd_log_euclidean", "spd_power", "spd_log_cholesky"):
        n = space.dim
        b = rng.normal(size=(n, n))
        return g.ObjectPoint(space, b @ b.T + 0.5 * np.eye(n))
    if kind == "wasserstein1d":
        q = np.sort(rng.normal(size=space.dim))
        return g.ObjectPoint(space, q + np.arange(space.dim) * 1e-9)
    if kind == "l2function":
        return g.ObjectPoint(space, rng.normal(size=space.dim))
    raise ValueError(f"no generator for kind {kind!r}")


def all_spaces(n: int = 4) -> list[g.SpaceDescriptor]:
    """One representative descriptor per registered space kind."""
    return [
        g.laplacian_space(6),
        g.sphere_space(n),
        g.spd_space(n, "frobenius"),
        g.spd_space(n, "log_euclidean"),
        g.spd_power_space(n, 0.5),
        g.spd_space(n, "log_cholesky"),
        g.wasserstein_space(31),
        g.l2function_space(np.linspace(0.0, 1.0, 17)),
    ]


def flat_spaces(n: int = 4) -> list[g.SpaceDescriptor]:
    return [s for s in all_spaces(n) if s.kind != "sphere"]


def scalar_panel(values: np.ndarray, T0: int) -> g.Panel:
    """Panel of constant functions representing plain scalar outcomes.

    ``values`` has shape (units, periods) with the treated unit first.
    """
    space = g.scalar_space()
    values = np.asarray(values, dtype=float)
    outcomes = tuple(
        tuple(g.ObjectPoint(space, np.full(space.dim, values[j, t])) for t in range(values.shape[1]))
        for j in range(values.shape[0])
    )
    return g.Panel(space=space, outcomes=outcomes, T0=T0)


def panel_from_arrays(space: g.SpaceDescriptor, arrays: np.ndarray, T0: int) -> g.Panel:
    """Panel from raw point data of shape (units, periods, *point shape)."""
    outcomes = tuple(
        tuple(g.ObjectPoint(space, arrays[j, t]) for t in range(arrays.shape[1]))
        for j in range(arrays.shape[0])
    )
    return g.Panel(space=space, outcomes=outcomes, T0=T0)


def unit_weight_qp(panel: g.Panel) -> g.SimplexQp:
    """The unit-weight QP from coordinates embedded point by point: a
    (T0, J, D) stack of the controls in each pre period, the treated unit
    as each period's target."""
    pre = panel.pre_periods()
    y = np.stack([g.metric_embed(panel.outcomes[0][t]) for t in pre])
    z = np.stack(
        [[g.metric_embed(panel.outcomes[j][t]) for j in range(1, panel.n_units)] for t in pre]
    )
    return g.stack_weight_qp(z, y)

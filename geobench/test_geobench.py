"""Tests of the benchmark itself.

Each check is fed a deliberately wrong answer and must reject it; the
traced run's exact counts must repeat. Run from the repository root with
``python3 -m pytest geobench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from geosynth import estimators, simgen  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    TOL_KKT, DistributionDonors, SphereComposition, _scalar_values, _sphere_array,
    quantile_panel,
)


def _shift_mass(w: np.ndarray, amount: float) -> np.ndarray:
    """Move ``amount`` of weight from the largest coordinate to the smallest."""
    v = w.copy()
    v[int(np.argmax(v))] -= amount
    v[int(np.argmin(v))] += amount
    return v


@pytest.fixture(scope="module")
def scalar():
    panel = simgen.generate(simgen.SimConfig("scalar", J=8, T=10, T0=9, seed=3)).panel
    pre, post = list(panel.pre_periods()), list(panel.post_periods())
    return {
        "panel": panel,
        "gsc": estimators.estimate_gsc(panel),
        "gsdid": estimators.estimate_gsdid(panel),
        "controls_pre": _scalar_values(panel.controls, pre),
        "treated_pre": _scalar_values([panel.treated], pre)[0],
        "post_mean": _scalar_values(panel.controls, post).mean(axis=1),
    }


@pytest.fixture(scope="module")
def sphere():
    sim = simgen.generate(simgen.SimConfig("sphere", J=5, T=5, T0=4, seed=2, effect_size=0.5))
    panel = sim.panel
    pre = list(panel.pre_periods())
    return {
        "panel": panel,
        "gsc": estimators.estimate_gsc(panel),
        "gsdid": estimators.estimate_gsdid(panel),
        "controls": _sphere_array(panel.controls, range(panel.n_periods)),
        "controls_pre": _sphere_array(panel.controls, pre),
        "treated_pre": _sphere_array([panel.treated], pre)[:, 0],
    }


def test_scalar_weights_reject_perturbed_weights(scalar):
    w = scalar["gsc"].weights.values
    args = (scalar["controls_pre"], scalar["treated_pre"], TOL_KKT)
    checks.check_scalar_weights(w, *args)
    with pytest.raises(CheckError):
        checks.check_scalar_weights(_shift_mass(w, 1e-4), *args)


def test_sdid_formula_rejects_shifted_synthetic(scalar):
    did = scalar["gsdid"]
    args = (did.unit_weights.values, did.time_weights.values, scalar["treated_pre"],
            scalar["controls_pre"], scalar["post_mean"])
    value = float(did.synthetic.data[0])
    checks.check_sdid_formula(value, *args)
    with pytest.raises(CheckError):
        checks.check_sdid_formula(value + 1e-8, *args)


def _rotate(x: np.ndarray, angle: float) -> np.ndarray:
    """Move the unit vector ``x`` by ``angle`` along a fixed tangent direction."""
    u = np.roll(x, 1) - (np.roll(x, 1) @ x) * x
    u /= np.linalg.norm(u)
    return np.cos(angle) * x + np.sin(angle) * u


def test_sphere_mean_condition_rejects_shifted_point(sphere):
    w = sphere["gsc"].weights.values
    synthetic = np.array([p.data for p in sphere["gsc"].synthetic])
    checks.check_sphere_mean_condition(synthetic, sphere["controls"], w)
    synthetic[1] = _rotate(synthetic[1], 1e-6)
    with pytest.raises(CheckError):
        checks.check_sphere_mean_condition(synthetic, sphere["controls"], w)


def test_sphere_gradient_rejects_perturbed_weights(sphere):
    w = sphere["gsc"].weights.values
    args = (sphere["controls_pre"], sphere["treated_pre"], TOL_KKT)
    checks.check_sphere_unit_gradient(w, *args)
    with pytest.raises(CheckError):
        checks.check_sphere_unit_gradient(_shift_mass(w, 1e-2), *args)


def test_sphere_transport_length_rejects_shifted_synthetic(sphere):
    did = sphere["gsdid"]
    parts = [did.intermediates[k].data for k in ("treated_pre", "controls_pre", "controls_post")]
    checks.check_sphere_transport_length(did.synthetic.data, *parts)
    with pytest.raises(CheckError):
        checks.check_sphere_transport_length(_rotate(did.synthetic.data, 1e-6), *parts)


def test_quantile_checks_reject_wrong_answers():
    data = quantile_panel(np.random.default_rng(4), 12, 6, 4, 2.0)
    gsc = estimators.estimate_gsc(data.panel)
    synthetic = np.array([p.data for p in gsc.synthetic])
    checks.check_quantiles_equal(synthetic, data.untreated, "gsc")
    checks.check_lengths_equal([e.length for e in gsc.effects], 2.0, "effects")
    synthetic[-1] += 1e-6
    with pytest.raises(CheckError):
        checks.check_quantiles_equal(synthetic, data.untreated, "gsc")
    with pytest.raises(CheckError):
        checks.check_lengths_equal([e.length for e in gsc.effects], 2.0 + 1e-6, "effects")


def test_spd_effect_lengths_reject_swapped_lengths():
    sim = simgen.generate(simgen.SimConfig("spd", J=4, T=6, T0=4, seed=1, effect_size=0.5))
    target = sim.truth["effect_target"]
    expected = np.array([0.5 * checks.log_euclidean_distance(cf.data, target)
                         for cf in sim.counterfactual])
    lengths = [e.length for e in estimators.estimate_gsc(sim.panel).effects]
    checks.check_effect_lengths(lengths, expected, "gsc")
    assert abs(expected[0] - expected[1]) > 1e-3
    with pytest.raises(CheckError):
        checks.check_effect_lengths(lengths[::-1], expected, "gsc")


class _SmallDistribution(DistributionDonors):
    J_FIT, J_PLACEBO, T, T0 = 12, 4, 6, 4


class _SmallSphere(SphereComposition):
    J, T, T0 = 4, 5, 4


@pytest.mark.parametrize("cls", [_SmallDistribution, _SmallSphere])
def test_traced_counts_repeat(cls):
    seen = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            rounds, attempted, failed, correct = run.run_analyses(cls(7), tracer=tracer)
        assert (attempted, failed, correct) == (2, 0, True)
        seen.append((tracer.counts, tracer.calls))
    assert seen[0] == seen[1]
    assert seen[0][1]["simplex_opt.qp"] > 0
    assert seen[0][0]["estimators.placebo.refits"] > 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = run.layer_metrics(tracer, rounds, list(spec), attempted)
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    assert metrics["trace.analysis_ref"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "geobench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "geobench/run.py", "--workload", "spd_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

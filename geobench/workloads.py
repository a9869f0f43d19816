"""The four workloads: inputs from a seed, one analysis, and its checks.

Each workload is a closed loop with one client: analyses of generated
panels run back to back. An analysis makes its calls into ``geosynth``
through :class:`Clock`, which times the reference kernel right before
each call, and then runs the independent checks of :mod:`checks` on the
outputs, outside the timed calls. Inputs are generated in set-up where
the workload has a fixed pool, else per analysis outside the timed calls.

The program's functions are looked up on their modules at call time
(``estimators.estimate_gsc``), the same names that the traced run wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from geosynth import cli_io, estimators, simgen, spaces
from geosynth.simplex_opt import SolverConfig

import checks
from kernel import time_kernel
from tracing import ROOT_SPAN, Stopwatch

TOL_KKT = SolverConfig().tol_kkt


def child_seed(*keys: int) -> int:
    """A 32-bit seed drawn from the workload seed and an analysis index."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass
class Timing:
    """Times of one analysis and of the kernel runs between its calls.

    ``estimate`` is the point-estimate step, ``placebo`` the mean of the
    placebo calls and ``analysis`` all timed calls together, in seconds.
    """

    seconds: dict
    kernel_s: list


KERNEL_REPS = 3


class Clock:
    """Times calls into the program, with kernel runs between the calls.

    ``call(tag, fn, ...)`` attributes the call's time to ``tag``
    (``"estimate"``, ``"placebo"`` or ``None`` for neither). When a
    :class:`Stopwatch` is attached as ``watch``, the times it measured
    inside the call are attributed instead. With a tracer each call also
    becomes a root span; the kernel runs stay outside the spans.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.watch = None
        self.kernel_s: list[float] = []
        self.seconds = {"estimate": 0.0, "placebo": [], "analysis": 0.0}

    def call(self, tag, fn, *args, **kwargs):
        self.kernel_s.extend(time_kernel() for _ in range(KERNEL_REPS))
        span = contextlib.nullcontext() if self.tracer is None else self.tracer.span(ROOT_SPAN)
        before = dict(self.watch.seconds) if self.watch else {}
        with span:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
        if self.watch:
            parts = {k: v - before[k] for k, v in self.watch.seconds.items() if v > before[k]}
        else:
            parts = {tag: elapsed} if tag else {}
        self.seconds["analysis"] += elapsed
        self.seconds["estimate"] += parts.get("estimate", 0.0)
        if "placebo" in parts:
            self.seconds["placebo"].append(parts["placebo"])
        return result

    def finish(self) -> Timing:
        """Close the analysis with one more set of kernel runs and total its calls."""
        self.kernel_s.extend(time_kernel() for _ in range(KERNEL_REPS))
        placebo = self.seconds["placebo"]
        seconds = dict(self.seconds, placebo=sum(placebo) / max(len(placebo), 1))
        return Timing(seconds=seconds, kernel_s=self.kernel_s)


def relabel(panel: estimators.Panel, rng: np.random.Generator) -> estimators.Panel:
    """The panel with its control units in a random order."""
    perm = rng.permutation(panel.n_controls)
    outcomes = (panel.outcomes[0],) + tuple(panel.outcomes[1 + j] for j in perm)
    return estimators.Panel(space=panel.space, outcomes=outcomes, T0=panel.T0)


class Workload:
    """One workload; subclasses define inputs, analysis and checks.

    A workload with a ``POOL`` analyses a fixed pool of generated panels,
    built during set-up, in whole rounds of one analysis per panel. The
    seed relabels the control units of every analysed panel, which must
    not change any result. The pool is fixed because the time of one
    analysis varies by up to a factor of two from panel to panel (with
    the number of gradient steps each weight fit takes), while a run has
    room for only a few analyses: panels drawn from the seed would make
    the run-to-run spread a property of the draw rather than of the code.

    A workload with ``PAIRED`` set has a check that compares two analyses
    of one panel; the traced run analyses one such pair, and ``analyze``
    receives the first analysis's record as ``partner``.
    """

    name = ""
    POOL = 0
    PAIRED = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool = [self.make(pool_seed) for pool_seed in range(self.POOL)]

    @property
    def round_size(self) -> int:
        return self.POOL or 1

    def make(self, pool_seed: int):
        """One pool entry, generated from ``pool_seed``."""
        raise NotImplementedError

    def relabel(self, item, rng: np.random.Generator):
        raise NotImplementedError

    def inputs(self, key: int, repeat: bool):
        """Pool entry ``key mod POOL``, relabelled by a draw from (seed, key, repeat)."""
        rng = np.random.default_rng(child_seed(self.seed, key, int(repeat)))
        return self.relabel(self.pool[key % self.POOL], rng)

    def analyze(self, inputs, clock: Clock, partner):
        """Run one analysis, check it, and return a record for a partner."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scalar_placebo


def _scalar_values(rows, periods) -> np.ndarray:
    return np.array([[row[t].data[0] for t in periods] for row in rows])


class ScalarPlacebo(Workload):
    """Scalar SCM/SDID with placebo inference for both (simgen ``scalar``).

    The two analyses of a pair see the same panel under two relabellings
    of its controls, and the p-values must agree.
    """

    name = "scalar_placebo"
    POOL = 1
    PAIRED = True
    J, T, T0, EFFECT = 19, 20, 19, 1.0

    def _panel(self, seed: int, J: int, T: int, T0: int) -> estimators.Panel:
        cfg = simgen.SimConfig("scalar", T=T, T0=T0, J=J, seed=seed, effect_size=self.EFFECT)
        return simgen.generate(cfg).panel

    def make(self, pool_seed: int):
        return self._panel(pool_seed, self.J, self.T, self.T0)

    def relabel(self, panel, rng):
        return relabel(panel, rng)

    def analyze(self, panel, clock: Clock, partner):
        def step():
            return estimators.estimate_gsc(panel), estimators.estimate_gsdid(panel)

        gsc, did = clock.call("estimate", step)
        reports = clock.call("placebo", estimators.placebo_test, panel, "gsc")
        report = clock.call("placebo", estimators.placebo_test, panel, "gsdid")

        pre, post = list(panel.pre_periods()), list(panel.post_periods())
        controls_pre = _scalar_values(panel.controls, pre)
        treated_pre = _scalar_values([panel.treated], pre)[0]
        checks.check_scalar_weights(gsc.weights.values, controls_pre, treated_pre, TOL_KKT)
        checks.check_sdid_formula(
            float(did.synthetic.data[0]), did.unit_weights.values, did.time_weights.values,
            treated_pre, controls_pre, _scalar_values(panel.controls, post).mean(axis=1),
        )
        p_values = [r.p_value for r in reports] + [report.p_value]
        expected = 1.0 / panel.n_units
        checks.require(
            all(p == expected for p in p_values),
            f"placebo p-values {p_values} are not exactly 1/(J+1) = {expected!r}",
        )
        if partner is not None:
            checks.require(
                p_values == partner,
                f"p-values {p_values} changed under relabelling from {partner}",
            )
        return p_values

    def warm_up(self) -> None:
        panel = self._panel(0, 4, 5, 4)
        for method in ("gsc", "gsdid"):
            estimators.placebo_test(panel, method)
        estimators.estimate_gsc(panel)
        estimators.estimate_gsdid(panel)


# ---------------------------------------------------------------------------
# sphere_composition


def _sphere_array(rows, periods) -> np.ndarray:
    """(len(periods), len(rows), d) array of sphere data."""
    return np.array([[row[t].data for row in rows] for t in periods])


class SphereComposition(Workload):
    """Compositions on the sphere (simgen ``sphere``): gsc, gsdid, gsc placebo."""

    name = "sphere_composition"
    POOL = 2
    J, T, T0, EFFECT = 6, 6, 4, 0.5

    def make(self, pool_seed: int):
        cfg = simgen.SimConfig(
            "sphere", T=self.T, T0=self.T0, J=self.J, seed=pool_seed, effect_size=self.EFFECT
        )
        sim = simgen.generate(cfg)
        return sim.panel, np.array([p.data for p in sim.counterfactual])

    def relabel(self, item, rng):
        panel, counterfactual = item
        return relabel(panel, rng), counterfactual

    def analyze(self, inputs, clock: Clock, partner):
        panel, counterfactual = inputs

        def step():
            return estimators.estimate_gsc(panel), estimators.estimate_gsdid(panel)

        gsc, did = clock.call("estimate", step)
        clock.call("placebo", estimators.placebo_test, panel, "gsc")

        w = gsc.weights.values
        synthetic = np.array([p.data for p in gsc.synthetic])
        everything = list(range(panel.n_periods))
        checks.check_sphere_mean_condition(synthetic, _sphere_array(panel.controls, everything), w)
        pre = list(panel.pre_periods())
        checks.check_sphere_unit_gradient(
            w, _sphere_array(panel.controls, pre), _sphere_array([panel.treated], pre)[:, 0],
            TOL_KKT,
        )
        parts = {k: p.data for k, p in did.intermediates.items()}
        checks.check_sphere_transport_length(
            did.synthetic.data, parts["treated_pre"], parts["controls_pre"], parts["controls_post"]
        )
        checks.check_sphere_oracle(synthetic[panel.T0:], counterfactual)
        return None

    def warm_up(self) -> None:
        cfg = simgen.SimConfig("sphere", T=4, T0=3, J=3, seed=0, effect_size=self.EFFECT)
        panel = simgen.generate(cfg).panel
        estimators.estimate_gsc(panel)
        estimators.estimate_gsdid(panel)
        estimators.placebo_test(panel, "gsc")


# ---------------------------------------------------------------------------
# distribution_donors


@dataclass(frozen=True)
class QuantilePanel:
    panel: estimators.Panel
    untreated: np.ndarray  # (T, G) treated quantiles without treatment
    shift: float


def quantile_panel(rng: np.random.Generator, J: int, T: int, T0: int, shift: float,
                   n_grid: int = 101) -> QuantilePanel:
    """Age-at-death-like quantile panel under a location-scale factor model.

    ``Q_jt(p) = m_t + s_t (mu_j + sigma_j z(p))`` with ``z`` the standard
    normal quantile function, a drifting period location ``m_t`` and a
    period scale ``s_t``. The treated unit's untreated quantiles are the
    ``w*``-mix of five random donors, which in one dimension is the
    Wasserstein barycenter; after ``T0`` they shift by ``shift``.
    """
    space = spaces.wasserstein_space(n_grid)
    z = ndtri(space.grid)
    m = 70.0 + np.cumsum(rng.normal(0.2, 0.4, size=T))
    s = rng.uniform(0.9, 1.1, size=T)
    mu = rng.normal(0.0, 3.0, size=J)
    sigma = rng.uniform(8.0, 14.0, size=J)
    w_star = np.zeros(J)
    w_star[rng.choice(J, size=min(5, J), replace=False)] = rng.dirichlet(np.ones(min(5, J)))
    level = m[:, None] + s[:, None] * (mu[:, None, None] + sigma[:, None, None] * z)  # (J, T, G)
    untreated = m[:, None] + s[:, None] * (w_star @ mu + (w_star @ sigma) * z)
    observed = untreated + shift * (np.arange(T) >= T0)[:, None]
    rows = [observed] + list(level)
    outcomes = tuple(tuple(spaces.ObjectPoint(space, row[t]) for t in range(T)) for row in rows)
    return QuantilePanel(estimators.Panel(space=space, outcomes=outcomes, T0=T0), untreated, shift)


class DistributionDonors(Workload):
    """Wasserstein quantile panels with hundreds of donors (own generator)."""

    name = "distribution_donors"
    POOL = 2
    J_FIT, J_PLACEBO, T, T0 = 200, 15, 20, 16

    def make(self, pool_seed: int):
        rng = np.random.default_rng(pool_seed)
        shift = float(rng.uniform(1.0, 3.0))
        fit = quantile_panel(rng, self.J_FIT, self.T, self.T0, shift)
        placebo = quantile_panel(rng, self.J_PLACEBO, self.T, self.T0, shift)
        return fit, placebo

    def relabel(self, item, rng):
        return tuple(
            QuantilePanel(relabel(q.panel, rng), q.untreated, q.shift) for q in item
        )

    def analyze(self, inputs, clock: Clock, partner):
        fit, small = inputs
        panel = fit.panel

        def step():
            return (
                estimators.estimate_gsc(panel),
                estimators.estimate_gsdid(panel),
                estimators.estimate_gsdid_per_time(panel),
            )

        gsc, did, per_time = clock.call("estimate", step)
        reports = clock.call("placebo", estimators.placebo_test, small.panel, "gsc")

        c = abs(fit.shift)
        checks.check_quantiles_equal(
            np.array([p.data for p in gsc.synthetic]), fit.untreated, "gsc counterfactual"
        )
        checks.check_lengths_equal([e.length for e in gsc.effects], c, "gsc effects")
        checks.check_lengths_equal(did.effect.length, c, "gsdid effect")
        checks.check_lengths_equal([e.length for e in per_time], c, "per-time effects")
        checks.check_lengths_equal(
            [r.statistics[0] for r in reports], c, "treated placebo statistics"
        )
        return None

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        tiny = quantile_panel(rng, 6, 5, 3, 1.0).panel
        estimators.estimate_gsc(tiny)
        estimators.estimate_gsdid(tiny)
        estimators.estimate_gsdid_per_time(tiny)
        estimators.placebo_test(tiny, "gsc")


# ---------------------------------------------------------------------------
# spd_cli


class SpdCli(Workload):
    """The command-line loop on SPD log-Euclidean panels, through ``run_cli``.

    ``simulate -> gsc --placebo -> gsdid -> result JSON``. Every analysis
    simulates a fresh panel from a seed drawn from the workload seed: the
    time of this loop hardly varies from panel to panel. The second
    analysis of a pair reruns the loop with the same simulation seed and
    must write result files byte-identical to the first's.
    """

    name = "spd_cli"
    PAIRED = True
    EFFECT = 0.5

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.workdir = workdir

    def inputs(self, key: int, repeat: bool):
        return child_seed(self.seed, key)

    def expected_lengths(self, sim_seed: int) -> np.ndarray:
        """``effect_size x d_LE(counterfactual, target)`` for each post period."""
        out = simgen.generate(simgen.SimConfig("spd", seed=sim_seed, effect_size=self.EFFECT))
        target = out.truth["effect_target"]
        return np.array([
            self.EFFECT * checks.log_euclidean_distance(cf.data, target)
            for cf in out.counterfactual
        ])

    def _loop(self, clock: Clock, sim_seed: int, sizes=(), placebo=("--placebo",)):
        panel = os.path.join(self.workdir, "panel.json")
        out_gsc = os.path.join(self.workdir, "gsc.json")
        out_did = os.path.join(self.workdir, "gsdid.json")
        commands = [
            ["simulate", "--scenario", "spd", "--seed", str(sim_seed),
             "--effect-size", str(self.EFFECT), "--out", panel, *sizes],
            ["gsc", "--panel", panel, "--out", out_gsc, *placebo],
            ["gsdid", "--panel", panel, "--out", out_did],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = clock.call(None, cli_io.run_cli, argv)
            checks.require(code == 0, f"geosynth {argv[0]} exited with code {code}")

        def read():
            files = {}
            for path in (out_gsc, out_did):
                with open(path, "rb") as fh:
                    files[os.path.basename(path)] = fh.read()
            return files

        return clock.call(None, read)

    def analyze(self, sim_seed, clock: Clock, partner):
        clock.watch = Stopwatch()
        with clock.watch.installed():
            files = self._loop(clock, sim_seed)

        expected = self.expected_lengths(sim_seed)
        gsc = json.loads(files["gsc.json"])
        did = json.loads(files["gsdid.json"])
        checks.check_effect_lengths([e["length"] for e in gsc["effects"]], expected, "gsc")
        checks.check_effect_lengths(
            [e["length"] for e in did["effects"]], expected[-1:], "gsdid"
        )
        if partner is not None:
            checks.require(files == partner, "a second run of the loop wrote different bytes")
        return files

    def warm_up(self) -> None:
        self._loop(Clock(), 0, sizes=("--J", "3", "--T", "4", "--T0", "3"), placebo=())


WORKLOADS = {
    cls.name: cls for cls in (ScalarPlacebo, SphereComposition, DistributionDonors, SpdCli)
}

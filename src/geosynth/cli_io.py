"""Panel and result file formats plus the command-line front end.

Files are JSON documents with an explicit ``format_version``. Saving is
deterministic: keys are emitted in sorted order and floats with 17
significant digits, so identical inputs produce byte-identical files.
Loading validates every invariant and reports the offending unit/time
index in its error messages.

Exit codes of the command line: 0 success, 2 validation or file error,
3 solver failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from .estimators import (
    CovariatePanel,
    GeodesicEffect,
    GscResult,
    GsdidResult,
    Panel,
    PlaceboReport,
    estimate_augmented_gsc,
    estimate_gsc,
    estimate_gsc_with_covariates,
    estimate_gsdid,
    estimate_gsdid_per_time,
    placebo_test,
)
from .simgen import SCENARIOS, SimConfig, generate
from .simplex_opt import SolverConfig, SolverError
from .spaces import (
    ObjectPoint,
    SpaceDescriptor,
    SpaceError,
    distance,
    validate_point,  # noqa: F401  (looked up here by geobench's tracer)
    weighted_frechet_mean,
)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_USAGE = 64


class FileFormatError(ValueError):
    """Raised when a document fails structural or invariant validation."""


# ---------------------------------------------------------------------------
# deterministic JSON emission

_FLOAT_FORMATS = np.array(["%.17g", "%.1f"], dtype=object)


def _float_format(x: float) -> str:
    """The placeholder of one float: ``%.1f`` for an integer value below 1e16
    in magnitude, else 17 significant digits."""
    if not math.isfinite(x):
        raise FileFormatError(f"cannot serialize non-finite number {x!r}")
    return "%.1f" if x.is_integer() and abs(x) < 1e16 else "%.17g"


def _json_block(items: Sequence[str], indent: int, brackets: str = "[]") -> str:
    """Serialized items inside ``brackets``, one per line, indented one level."""
    if not items:
        return brackets
    child = "\n" + "  " * (indent + 1)
    return brackets[0] + child + ("," + child).join(items) + "\n" + "  " * indent + brackets[1]


def _float_array_template(arr: np.ndarray, indent: int, values: list) -> str:
    """The template of ``arr.tolist()``, built for the flat array at once:
    each float's placeholder, by :func:`_float_format`'s rule, then the
    separator that closes the rows ending at that float and opens the next."""
    flat = arr.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        _float_format(float(flat[np.argmin(finite)]))  # raises
    if arr.ndim == 0 or flat.size == 0:
        return _template(arr.tolist(), indent, values)
    values.extend(flat.tolist())
    small_int = (flat == np.trunc(flat)) & (np.abs(flat) < 1e16)
    d, pad = arr.ndim, ["\n" + "  " * (indent + k) for k in range(arr.ndim + 1)]
    opens, closes = ["[" + pad[k + 1] for k in range(d)], [pad[k] + "]" for k in range(d)]
    seps = np.array([  # after a float that ends the last c rows
        "".join(closes[d - c :][::-1]) + "," + pad[d - c] + "".join(opens[d - c :])
        for c in range(d)
    ], dtype=object)
    ends = sum(np.arange(1, flat.size) % math.prod(arr.shape[k:]) == 0 for k in range(1, d))
    parts = np.empty(2 * flat.size - 1, dtype=object)
    parts[0::2], parts[1::2] = _FLOAT_FORMATS[small_int.view(np.uint8)], seps[ends]
    return "".join(opens) + "".join(parts.tolist()) + "".join(closes[::-1])


def _template(obj: Any, indent: int, values: list) -> str:
    """:func:`canonical_json`'s text of ``obj`` with each float replaced by its
    placeholder and appended to ``values``, and every other ``%`` doubled."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        values.append(float(obj))
        return _float_format(values[-1])
    if isinstance(obj, str):
        return json.dumps(obj).replace("%", "%%")
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _float_array_template(obj, indent, values)
        return _template(obj.tolist(), indent, values)
    if isinstance(obj, (list, tuple)):
        return _json_block([_template(v, indent + 1, values) for v in obj], indent)
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise FileFormatError(f"document keys must be strings, got {key!r}")
            item = _template(obj[key], indent + 1, values)
            parts.append(json.dumps(key).replace("%", "%%") + ": " + item)
        return _json_block(parts, indent, "{}")
    raise FileFormatError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Serialize with sorted keys and fixed float formatting.

    Floats use 17 significant digits, enough to round-trip IEEE doubles
    exactly, so repeated saves of the same data are byte-identical. One
    traversal builds a template, with a ``%`` placeholder for each float,
    and the list of those floats in document order; one ``%`` operation then
    formats them all. A float array gives the same bytes as its nested lists.
    """
    values: list[float] = []
    return _template(obj, indent, values) % tuple(values)


def _write_document(doc: dict, path: str) -> None:
    """Format ``doc`` first, so a document that cannot be written leaves an
    existing file at ``path`` untouched."""
    text = canonical_json(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _read_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FileFormatError(
            f"{path}: unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    return doc


# ---------------------------------------------------------------------------
# space and point encoding


def space_to_doc(space: SpaceDescriptor) -> dict:
    doc: dict[str, Any] = {"kind": space.kind, "dim": space.dim}
    if space.power_p is not None:
        doc["power_p"] = space.power_p
    if space.grid is not None:
        doc["grid"] = space.grid.tolist()
    return doc


def space_from_doc(doc: Any, where: str) -> SpaceDescriptor:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: space block must be an object")
    try:
        return SpaceDescriptor(
            kind=doc.get("kind"),
            dim=doc.get("dim"),
            power_p=doc.get("power_p"),
            grid=doc.get("grid"),
        )
    except (SpaceError, TypeError) as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def decode_point(space: SpaceDescriptor, entry: Any, where: str) -> ObjectPoint:
    """Decode one point, checking its shape and finiteness; its value
    invariants are checked once, by the panel that receives it."""
    arr = _float_array(entry)
    if arr is None or arr.shape != space.data_shape:
        raise FileFormatError(
            f"{where}: expected a numeric array of shape {space.data_shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"{where}: entries must be finite")
    return ObjectPoint(space, arr)


def _float_array(entry: Any) -> np.ndarray | None:
    """``entry`` as a float array, or ``None`` when it is not numeric."""
    try:
        return np.asarray(entry, dtype=float)
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# panel files


def panel_to_doc(panel: Panel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "type": "panel",
        "space": space_to_doc(panel.space),
        "T0": panel.T0,
        "unit_labels": list(panel.unit_labels),
        "time_labels": list(panel.time_labels),
        "outcomes": panel.data,
    }


def save_panel(panel: Panel, path: str) -> None:
    """Write a panel document (deterministic JSON)."""
    _write_document(panel_to_doc(panel), path)


def panel_from_doc(doc: dict, origin: str) -> Panel:
    if doc.get("type") != "panel":
        raise FileFormatError(f"{origin}: expected a panel document, got type {doc.get('type')!r}")
    space = space_from_doc(doc.get("space"), f"{origin}: space")
    outcomes = doc.get("outcomes")
    if not isinstance(outcomes, list) or len(outcomes) < 2:
        raise FileFormatError(f"{origin}: outcomes must list at least two units")
    batch = _float_array(outcomes)
    if batch is None or batch.shape[2:] != space.data_shape or not np.isfinite(batch).all():
        for j, row in enumerate(outcomes):  # decode point by point, to name the offender
            if not isinstance(row, list) or not row:
                raise FileFormatError(
                    f"{origin}: outcomes[{j}] must be a nonempty list over periods"
                )
            for t, entry in enumerate(row):
                decode_point(space, entry, f"{origin}: outcomes[{j}][{t}] (unit {j}, time {t})")
        raise FileFormatError(f"{origin}: all units must share the same number of periods")
    t0 = doc.get("T0")
    if type(t0) is not int:
        raise FileFormatError(f"{origin}: T0 must be an integer")
    labels = {}
    for key in ("unit_labels", "time_labels"):
        value = doc.get(key, [])
        if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
            raise FileFormatError(f"{origin}: {key} must be a list of strings")
        labels[key] = tuple(value)
    try:
        return Panel(
            space=space,
            outcomes=batch,
            T0=t0,
            unit_labels=labels["unit_labels"],
            time_labels=labels["time_labels"],
        )
    except SpaceError as exc:
        raise FileFormatError(f"{origin}: {exc}") from exc


def load_panel(path: str) -> Panel:
    """Read and validate a panel document."""
    doc = _read_document(path)
    if doc.get("type") == "panel" and "covariates" in doc:
        _covariates_from_doc(doc["covariates"], f"{path}: covariates")
    return panel_from_doc(doc, path)


# ---------------------------------------------------------------------------
# covariate files


def covariates_to_doc(covs: CovariatePanel | np.ndarray) -> dict:
    if isinstance(covs, CovariatePanel):
        return {
            "format_version": FORMAT_VERSION,
            "type": "covariates_panel",
            "spaces": [space_to_doc(s) for s in covs.spaces],
            "covariates": [
                [[p.data for p in cell] for cell in row] for row in covs.covariates
            ],
        }
    arr = np.asarray(covs, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return {
        "format_version": FORMAT_VERSION,
        "type": "covariates_euclidean",
        "vectors": arr.tolist(),
    }


def save_covariates(covs: CovariatePanel | np.ndarray, path: str) -> None:
    _write_document(covariates_to_doc(covs), path)


def _covariates_from_doc(doc: Any, origin: str) -> CovariatePanel | np.ndarray:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{origin}: covariates block must be an object")
    kind = doc.get("type")
    if kind == "covariates_euclidean":
        arr = _float_array(doc.get("vectors"))
        if arr is None:
            raise FileFormatError(f"{origin}: vectors must be a numeric matrix")
        if arr.ndim != 2 or not np.all(np.isfinite(arr)):
            raise FileFormatError(f"{origin}: vectors must be a finite 2-D matrix")
        return arr
    if kind == "covariates_panel":
        spaces = doc.get("spaces")
        if not isinstance(spaces, list) or not spaces:
            raise FileFormatError(f"{origin}: spaces must be a nonempty list")
        space_objs = tuple(
            space_from_doc(s, f"{origin}: spaces[{c}]") for c, s in enumerate(spaces)
        )
        cells = doc.get("covariates")
        if not isinstance(cells, list):
            raise FileFormatError(f"{origin}: covariates must be nested lists")
        rows = []
        for j, row in enumerate(cells):
            if not isinstance(row, list):
                raise FileFormatError(f"{origin}: covariates[{j}] must be a list over periods")
            new_row = []
            for t, cell in enumerate(row):
                if not isinstance(cell, list) or len(cell) != len(space_objs):
                    raise FileFormatError(
                        f"{origin}: covariates[{j}][{t}] must list {len(space_objs)} components"
                    )
                new_row.append(
                    tuple(
                        decode_point(
                            space_objs[c],
                            entry,
                            f"{origin}: covariates[{j}][{t}][{c}]",
                        )
                        for c, entry in enumerate(cell)
                    )
                )
            rows.append(tuple(new_row))
        try:
            return CovariatePanel(spaces=space_objs, covariates=tuple(rows))
        except SpaceError as exc:
            raise FileFormatError(f"{origin}: {exc}") from exc
    raise FileFormatError(
        f"{origin}: type must be 'covariates_panel' or 'covariates_euclidean', got {kind!r}"
    )


def load_covariates(path: str) -> CovariatePanel | np.ndarray:
    """Read a covariates file, or the covariates block of a panel file."""
    doc = _read_document(path)
    if doc.get("type") == "panel":
        if "covariates" not in doc:
            raise FileFormatError(f"{path}: panel document has no covariates block")
        return _covariates_from_doc(doc["covariates"], path)
    return _covariates_from_doc(doc, path)


# ---------------------------------------------------------------------------
# result files


def _effect_to_doc(effect: GeodesicEffect, time_label: str) -> dict:
    return {
        "time_label": time_label,
        "length": effect.length,
        "start": effect.start.data,
        "end": effect.end.data,
    }


def _placebo_to_doc(report: PlaceboReport, unit_labels: Sequence[str]) -> dict:
    return {
        "unit_labels": list(unit_labels),
        "statistics": report.statistics.tolist(),
        "rank_of_treated": report.rank_of_treated,
        "p_value": report.p_value,
    }


def result_document(
    method: str,
    result: GscResult | GsdidResult | list[GeodesicEffect],
    panel: Panel,
    cfg: SolverConfig,
    placebo: list[PlaceboReport] | PlaceboReport | None = None,
) -> dict:
    """Assemble the serializable result document for any estimator output."""
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "type": "result",
        "method": method,
        "space": space_to_doc(panel.space),
        "unit_labels": list(panel.unit_labels),
        "time_labels": list(panel.time_labels),
        "T0": panel.T0,
        "config": {
            "tol_kkt": cfg.tol_kkt,
            "max_iter": cfg.max_iter,
            "restarts": cfg.restarts,
            "seed": cfg.seed,
        },
    }
    post_labels = [panel.time_labels[t] for t in panel.post_periods()]
    if isinstance(result, GscResult):
        doc["weights"] = result.weights.values.tolist()
        doc["synthetic"] = [p.data for p in result.synthetic]
        doc["effects"] = [
            _effect_to_doc(e, lab) for e, lab in zip(result.effects, post_labels)
        ]
        doc["pre_fit_rmse"] = result.pre_fit_rmse
        doc["repair_flags"] = list(result.repair_flags)
        if result.augmentation is not None:
            doc["augmentation"] = dict(result.augmentation)
    elif isinstance(result, GsdidResult):
        doc["weights"] = result.unit_weights.values.tolist()
        doc["time_weights"] = result.time_weights.values.tolist()
        doc["synthetic"] = result.synthetic.data
        doc["observed_post_mean"] = result.observed_post_mean.data
        doc["effects"] = [_effect_to_doc(result.effect, "post_mean")]
        doc["intermediates"] = {
            key: p.data for key, p in result.intermediates.items()
        }
        doc["repair_flags"] = list(result.repair_flags)
    elif isinstance(result, list) and all(isinstance(e, GeodesicEffect) for e in result):
        doc["effects"] = [_effect_to_doc(e, lab) for e, lab in zip(result, post_labels)]
    else:
        raise FileFormatError(f"cannot serialize result of type {type(result).__name__}")
    if placebo is not None:
        if isinstance(placebo, PlaceboReport):
            doc["placebo"] = _placebo_to_doc(placebo, panel.unit_labels)
        else:
            doc["placebo"] = [
                {"time_label": lab, **_placebo_to_doc(rep, panel.unit_labels)}
                for rep, lab in zip(placebo, post_labels)
            ]
    return doc


def save_result(
    result: GscResult | GsdidResult | list[GeodesicEffect],
    path: str,
    panel: Panel,
    cfg: SolverConfig,
    method: str,
    placebo: list[PlaceboReport] | PlaceboReport | None = None,
) -> None:
    """Serialize an estimator result deterministically."""
    _write_document(result_document(method, result, panel, cfg, placebo), path)


# ---------------------------------------------------------------------------
# plot series


def emit_plot_series(
    result: GscResult | GsdidResult,
    panel: Panel,
    path: str,
    placebo: list[PlaceboReport] | PlaceboReport | None = None,
) -> None:
    """Write long-format rows (unit, time, statistic, value) for plotting.

    Covers the pre-treatment fit distances, the post-period effect
    lengths, and placebo statistics when given. Tab-separated with a
    header row; values carry 17 significant digits.
    """
    rows: list[tuple[str, str, str, float]] = []
    treated_label = panel.unit_labels[0]
    if isinstance(result, GscResult):
        if len(result.synthetic) != panel.n_periods:
            raise FileFormatError("result does not match the panel: period count differs")
        if result.synthetic[0].space != panel.space:
            raise FileFormatError("result does not match the panel: different space")
        for t in panel.pre_periods():
            d = distance(panel.outcomes[0][t], result.synthetic[t])
            rows.append((treated_label, panel.time_labels[t], "pre_fit_distance", d))
        for effect, t in zip(result.effects, panel.post_periods()):
            rows.append((treated_label, panel.time_labels[t], "effect_length", effect.length))
    elif isinstance(result, GsdidResult):
        if result.synthetic.space != panel.space:
            raise FileFormatError("result does not match the panel: different space")
        rows.append((treated_label, "post_mean", "effect_length", result.effect.length))
    else:
        raise FileFormatError(f"cannot plot result of type {type(result).__name__}")
    if placebo is not None:
        reports = [placebo] if isinstance(placebo, PlaceboReport) else list(placebo)
        post_labels = (
            ["post_mean"]
            if isinstance(placebo, PlaceboReport)
            else [panel.time_labels[t] for t in panel.post_periods()]
        )
        for report, lab in zip(reports, post_labels):
            for j, value in enumerate(report.statistics):
                rows.append((panel.unit_labels[j], lab, "placebo_statistic", float(value)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit\ttime\tstatistic\tvalue\n")
        for unit, time, stat, value in rows:
            fh.write(f"{unit}\t{time}\t{stat}\t{_float_format(value) % value}\n")


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with the usage code on bad flags."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _repair_flag(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _positive(cast):
    """An argparse type: a finite number parsed by ``cast`` that exceeds 0."""

    def parse(value: str):
        number = cast(value)
        if not (math.isfinite(number) and number > 0):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {value!r}")
        return number

    parse.__name__ = cast.__name__  # argparse's "invalid float value" message names it
    return parse


def _seed(value: str) -> int:
    """An argparse type: a nonnegative integer."""
    seed = int(value)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value!r}")
    return seed


_seed.__name__ = "int"  # argparse's "invalid int value" message names it


@functools.cache  # argparse parsers are not changed by parsing; build one per process
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_positive(float), default=1e-10,
                        help="KKT tolerance for the weight solvers")
    common.add_argument("--max-iter", type=_positive(int), default=10000,
                        help="iteration budget per solver run")
    common.add_argument("--seed", type=_seed, default=0,
                        help="seed for simulation, recorded in result files")
    common.add_argument("--repair", type=_repair_flag, default=True, metavar="on|off",
                        help="allow numerical repairs within budget (default on)")

    parser = _Parser(prog="geosynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="generate a synthetic panel file")
    p_sim.add_argument("--scenario", required=True, choices=SCENARIOS)
    p_sim.add_argument("--out", required=True, help="output panel path")
    p_sim.add_argument("--T", type=int, default=20)
    p_sim.add_argument("--T0", type=int, default=19)
    p_sim.add_argument("--J", type=int, default=20)
    p_sim.add_argument("--effect-size", type=float, default=0.0)

    p_gsc = sub.add_parser("gsc", parents=[common], help="geodesic synthetic control")
    p_gsc.add_argument("--panel", required=True)
    p_gsc.add_argument("--out", required=True)
    exclusive = p_gsc.add_mutually_exclusive_group()  # the placebo test is plain GSC's
    exclusive.add_argument("--covariates", default=None,
                           help="object-valued covariate file for weight fitting")
    exclusive.add_argument("--placebo", action="store_true")

    p_agsc = sub.add_parser("agsc", parents=[common],
                            help="regression-augmented geodesic synthetic control")
    p_agsc.add_argument("--panel", required=True)
    p_agsc.add_argument("--covariates", required=True,
                        help="Euclidean covariate file (one vector per unit)")
    p_agsc.add_argument("--out", required=True)

    p_did = sub.add_parser("gsdid", parents=[common],
                           help="geodesic synthetic difference-in-differences")
    p_did.add_argument("--panel", required=True)
    p_did.add_argument("--out", required=True)
    exclusive = p_did.add_mutually_exclusive_group()  # the placebo test pools the post window
    exclusive.add_argument("--per-time", action="store_true")
    exclusive.add_argument("--placebo", action="store_true")

    p_val = sub.add_parser("validate", parents=[common], help="validate a panel file")
    p_val.add_argument("--panel", required=True)

    p_fm = sub.add_parser("frechet-mean", parents=[common],
                          help="weighted Frechet mean of the panel's units per period")
    p_fm.add_argument("--panel", required=True)
    p_fm.add_argument("--weights", required=True,
                      help="comma-separated weights over all units, or 'uniform'")
    p_fm.add_argument("--out", default=None, help="optional output path (default stdout)")

    return parser


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(tol_kkt=args.tol, max_iter=args.max_iter, seed=args.seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(
        scenario=args.scenario,
        T=args.T,
        T0=args.T0,
        J=args.J,
        seed=args.seed,
        effect_size=args.effect_size,
    )
    output = generate(cfg)
    save_panel(output.panel, args.out)
    print(f"wrote {args.out}: scenario={cfg.scenario} J={cfg.J} T={cfg.T} T0={cfg.T0}")
    return EXIT_OK


def _cmd_gsc(args: argparse.Namespace) -> int:
    panel = load_panel(args.panel)
    cfg = _solver_config(args)
    if args.covariates is not None:
        covs = load_covariates(args.covariates)
        if not isinstance(covs, CovariatePanel):
            raise FileFormatError(
                f"{args.covariates}: the gsc command needs object-valued covariates "
                "(type 'covariates_panel')"
            )
        result = estimate_gsc_with_covariates(panel, covs, cfg, repair=args.repair)
    else:
        result = estimate_gsc(panel, cfg, repair=args.repair)
    placebo = placebo_test(panel, "gsc", cfg, repair=args.repair) if args.placebo else None
    save_result(result, args.out, panel, cfg, "gsc", placebo)
    print(f"wrote {args.out}: pre_fit_rmse={result.pre_fit_rmse:.6g}")
    return EXIT_OK


def _cmd_agsc(args: argparse.Namespace) -> int:
    panel = load_panel(args.panel)
    cfg = _solver_config(args)
    covs = load_covariates(args.covariates)
    if isinstance(covs, CovariatePanel):
        raise FileFormatError(
            f"{args.covariates}: the agsc command needs Euclidean covariates "
            "(type 'covariates_euclidean')"
        )
    result = estimate_augmented_gsc(panel, covs, cfg, repair=args.repair)
    save_result(result, args.out, panel, cfg, "agsc")
    print(f"wrote {args.out}: pre_fit_rmse={result.pre_fit_rmse:.6g}")
    return EXIT_OK


def _cmd_gsdid(args: argparse.Namespace) -> int:
    panel = load_panel(args.panel)
    cfg = _solver_config(args)
    if args.per_time:
        effects = estimate_gsdid_per_time(panel, cfg, repair=args.repair)
        save_result(effects, args.out, panel, cfg, "gsdid_per_time")
        lengths = ", ".join(f"{e.length:.6g}" for e in effects)
        print(f"wrote {args.out}: per-period effect lengths [{lengths}]")
    else:
        placebo = placebo_test(panel, "gsdid", cfg, repair=args.repair) if args.placebo else None
        result = estimate_gsdid(panel, cfg, repair=args.repair)
        save_result(result, args.out, panel, cfg, "gsdid", placebo)
        print(f"wrote {args.out}: effect length {result.effect.length:.6g}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    panel = load_panel(args.panel)
    print(
        f"{args.panel}: valid panel, space={panel.space.kind}, "
        f"units={panel.n_units}, periods={panel.n_periods}, T0={panel.T0}"
    )
    return EXIT_OK


def _cmd_frechet_mean(args: argparse.Namespace) -> int:
    panel = load_panel(args.panel)
    n = panel.n_units
    if args.weights == "uniform":
        weights = np.full(n, 1.0 / n)
    else:
        try:
            weights = np.array([float(x) for x in args.weights.split(",")])
        except ValueError as exc:
            raise FileFormatError(f"--weights: {exc}") from exc
        if weights.size != n:
            raise FileFormatError(f"--weights: expected {n} values, got {weights.size}")
    means = [
        weighted_frechet_mean([panel.outcomes[j][t] for j in range(n)], weights)
        for t in range(panel.n_periods)
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "type": "frechet_means",
        "space": space_to_doc(panel.space),
        "time_labels": list(panel.time_labels),
        "weights": weights.tolist(),
        "means": [p.data for p in means],
    }
    if args.out is None:
        print(canonical_json(doc))
    else:
        _write_document(doc, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "gsc": _cmd_gsc,
        "agsc": _cmd_agsc,
        "gsdid": _cmd_gsdid,
        "validate": _cmd_validate,
        "frechet-mean": _cmd_frechet_mean,
    }
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return handlers[args.command](args)
    except (FileFormatError, SpaceError) as exc:
        print(f"geosynth {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"geosynth {args.command}: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))

"""Unit and end-to-end tests for the file formats and the command line."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import geosynth as g
from geosynth import cli_io
from geosynth.cli_io import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    EXIT_VALIDATION,
    FileFormatError,
    canonical_json,
    emit_plot_series,
    load_covariates,
    load_panel,
    panel_to_doc,
    result_document,
    run_cli,
    save_covariates,
    save_panel,
    save_result,
)
from helpers import random_point, scalar_panel


def panel_of(space, data, T0):
    outcomes = tuple(
        tuple(g.ObjectPoint(space, data[j][t]) for t in range(len(data[0])))
        for j in range(len(data))
    )
    return g.Panel(space=space, outcomes=outcomes, T0=T0)


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1.5, "a": [1.0, 2.25], "c": {"y": True, "x": None}})
    b = canonical_json({"c": {"x": None, "y": True}, "a": [1.0, 2.25], "b": 1.5})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_canonical_json_float_formatting():
    text = canonical_json({"v": [2.0, 0.1, 1e-17]})
    assert '"v"' in text
    assert "2.0" in text
    assert "0.10000000000000001" in text
    parsed = json.loads(text)
    assert parsed["v"] == [2.0, 0.1, 1e-17]


def test_canonical_json_rejects_non_finite():
    with pytest.raises(FileFormatError, match="finite"):
        canonical_json({"v": math.inf})
    with pytest.raises(FileFormatError, match="finite"):
        canonical_json([math.nan])


def test_canonical_json_round_trips_doubles():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=64)) + [2.0**-1074, 1e308, -0.0]
    parsed = json.loads(canonical_json(values))
    assert all(a == b for a, b in zip(parsed, values))


def _as_lists(doc):
    """``doc`` with every array replaced by its nested lists."""
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_lists(value) for value in doc]
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def test_canonical_json_arrays_are_byte_identical_to_lists():
    values = np.array([
        -0.0, 1e16 - 2, 1e16, 1e16 + 2, 5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, 0.1, 1 / 3, 3.0, -7.0, 2.0**53,
    ])
    arrays = [
        values, values.reshape(3, 4), values.reshape(2, 3, 2), np.arange(4),
        np.array(0.5), np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)),
    ]
    for arr in arrays:
        for indent in (0, 2):
            assert canonical_json(arr, indent) == canonical_json(arr.tolist(), indent)
    assert canonical_json(values[:5]) == (
        "[\n  -0.0,\n  9999999999999998.0,\n  10000000000000000,\n"
        "  10000000000000002,\n  4.9406564584124654e-324\n]"
    )
    for bad in (np.array([1.0, math.nan]), np.array([[2.0, -math.inf], [math.inf, 0.0]])):
        messages = []
        for obj in (bad, bad.tolist()):
            with pytest.raises(FileFormatError, match="finite") as info:
                canonical_json(obj)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def _reference_json(obj, indent=0):
    """Canonical JSON written value by value: each float formatted on its
    own, each list and object joined level by level."""

    def block(items, indent, brackets="[]"):
        if not items:
            return brackets
        child = "\n" + "  " * (indent + 1)
        return brackets[0] + child + ("," + child).join(items) + "\n" + "  " * indent + brackets[1]

    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise FileFormatError(f"cannot serialize non-finite number {obj!r}")
        return format(obj, ".1f" if obj.is_integer() and abs(obj) < 1e16 else ".17g")
    if isinstance(obj, list):
        return block([_reference_json(v, indent + 1) for v in obj], indent)
    items = [json.dumps(k) + ": " + _reference_json(obj[k], indent + 1) for k in sorted(obj)]
    return block(items, indent, "{}")


def _assert_written_as_reference(doc, indent=0):
    """``canonical_json(doc)`` equals the value-by-value reference on the
    document of lists, and raises the same error when the reference does."""
    try:
        expected = _reference_json(_as_lists(doc), indent)
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as info:
            canonical_json(doc, indent)
        assert str(info.value) == str(exc)
        return
    assert canonical_json(doc, indent) == expected
    assert canonical_json(_as_lists(doc), indent) == expected


def test_canonical_json_escapes_percent_in_keys_and_strings(tmp_path):
    doc = {"%s": "%%", "a%d": ["%", "100%", 1.5, "%(x)s"], "%%": {"%.17g": 2.0}, "n": 3}
    _assert_written_as_reference(doc)
    assert json.loads(canonical_json(doc)) == doc
    panel = scalar_panel(np.arange(6.0).reshape(2, 3), T0=2)
    labelled = g.Panel(
        space=panel.space, outcomes=panel.data, T0=2,
        unit_labels=("a%s", "%%"), time_labels=("%", "t%d", "%.1f"),
    )
    path = str(tmp_path / "labels.json")
    save_panel(labelled, path)
    assert load_panel(path).unit_labels == ("a%s", "%%")
    assert load_panel(path).time_labels == ("%", "t%d", "%.1f")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == _reference_json(_as_lists(panel_to_doc(labelled))) + "\n"


def test_canonical_json_arrays_mixing_integer_and_other_values():
    rng = np.random.default_rng(7)
    edges = [-0.0, 0.0, 1e16 - 2, 1e16, 1e16 + 2, -1e16 + 2, 5e-324, -5e-324, 0.5, 2.0**53, 7.0]
    values = np.concatenate([edges, np.round(rng.normal(size=37) * 1e3), rng.normal(size=40)])
    rng.shuffle(values)
    for arr in (values, values.reshape(8, 11), values.reshape(2, 4, 11), values.reshape(1, 88, 1)):
        for indent in (0, 1, 3):
            _assert_written_as_reference(arr, indent)
    _assert_written_as_reference({"a": values.reshape(4, 22), "b": [values[:3], 4.0]}, 2)


def test_canonical_json_zero_dimensional_and_empty_arrays():
    for arr in (np.array(2.0), np.array(-0.0), np.array(0.1), np.zeros(0), np.zeros((0, 3)),
                np.zeros((3, 0)), np.zeros((2, 0, 2)), np.zeros((2, 3, 0))):
        _assert_written_as_reference(arr, 1)
        _assert_written_as_reference({"v": [arr, arr], "w": arr})


def test_canonical_json_names_the_first_non_finite_value_in_document_order():
    docs = [
        {"a": [1.0, math.inf], "b": math.nan},
        {"b": np.array([math.nan]), "a": [2.0, -math.inf]},
        {"a": np.array([[0.0, math.inf], [math.nan, 1.0]]), "b": math.nan},
        [np.array([1.0, 2.0]), np.array([3.0, -math.inf, math.nan]), math.nan],
        {"x": [{"y": np.array([math.inf])}, math.nan]},
    ]
    for doc, first in zip(docs, ["inf", "-inf", "inf", "-inf", "inf"]):
        with pytest.raises(FileFormatError, match=f"non-finite number {first}$"):
            canonical_json(doc)
        _assert_written_as_reference(doc)


@pytest.mark.parametrize("scenario", g.SCENARIOS)
def test_saved_files_equal_documents_of_lists(scenario, tmp_path):
    panel = g.generate(g.SimConfig(scenario, J=5, T=5, T0=3, seed=1, effect_size=0.5)).panel
    cfg = g.SolverConfig()
    gsc, placebo = g.estimate_gsc(panel), g.placebo_test(panel, "gsc")
    did = g.estimate_gsdid(panel)
    path = str(tmp_path / "out.json")
    for save, doc in [
        (lambda: save_panel(panel, path), panel_to_doc(panel)),
        (
            lambda: save_result(gsc, path, panel, cfg, "gsc", placebo),
            result_document("gsc", gsc, panel, cfg, placebo),
        ),
        (lambda: save_result(did, path, panel, cfg, "gsdid"), result_document("gsdid", did, panel, cfg)),
    ]:
        save()
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == canonical_json(_as_lists(doc)) + "\n"


# ---------------------------------------------------------------------------
# panel files


@pytest.mark.parametrize(
    "space",
    [
        g.laplacian_space(4),
        g.wasserstein_space(5, grid=np.linspace(0.1, 0.9, 5)),
        g.spd_power_space(3, 0.5),
        g.sphere_space(3),
    ],
    ids=lambda s: s.kind,
)
def test_panel_round_trip(space, tmp_path):
    rng = np.random.default_rng(1)
    data = [[random_point(space, rng).data for _ in range(4)] for _ in range(3)]
    panel = panel_of(space, data, T0=3)
    path = str(tmp_path / "panel.json")
    save_panel(panel, path)
    back = load_panel(path)
    assert back.space == panel.space
    assert back.T0 == panel.T0
    assert back.unit_labels == panel.unit_labels
    assert back.time_labels == panel.time_labels
    for row_a, row_b in zip(panel.outcomes, back.outcomes):
        for pa, pb in zip(row_a, row_b):
            assert np.array_equal(pa.data, pb.data)


def test_panel_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    space = g.l2function_space(np.linspace(0, 1, 4))
    data = [[random_point(space, rng).data for _ in range(3)] for _ in range(3)]
    panel = panel_of(space, data, T0=2)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_panel(panel, p1)
    save_panel(panel, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_load_panel_names_offending_unit_and_time(tmp_path):
    doc = {
        "format_version": 1,
        "type": "panel",
        "space": {"kind": "wasserstein1d", "dim": 4, "grid": [0.2, 0.4, 0.6, 0.8]},
        "T0": 2,
        "outcomes": [
            [[0.0, 1.0, 2.0, 3.0]] * 3,
            [[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0]],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=r"unit 1, time 2"):
        load_panel(str(path))


def test_load_panel_rejects_bad_cutoff_and_version(tmp_path):
    base = {
        "format_version": 1,
        "type": "panel",
        "space": {"kind": "l2function", "dim": 2, "grid": [0.0, 1.0]},
        "T0": 3,
        "outcomes": [[[0.0, 0.0]] * 3, [[0.0, 0.0]] * 3],
    }
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(base))
    with pytest.raises(FileFormatError, match="T0"):
        load_panel(str(path))
    base["format_version"] = 9
    path.write_text(json.dumps(base))
    with pytest.raises(FileFormatError, match="format_version"):
        load_panel(str(path))


@pytest.mark.parametrize(
    "field, value", [("T0", True), ("format_version", True), ("format_version", 1.0), ("dim", True)]
)
def test_file_integers_must_be_json_integers(tmp_path, capsys, field, value):
    # with 1 x 1 matrices, each of these values would read as the integer 1
    doc = {
        "format_version": 1,
        "type": "panel",
        "space": {"kind": "spd_frobenius", "dim": 1},
        "T0": 1,
        "outcomes": [[[[1.0]], [[2.0]]], [[[1.0]], [[3.0]]]],
    }
    (doc["space"] if field == "dim" else doc)[field] = value
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=field):
        load_panel(str(path))
    code, _, err = run(capsys, "validate", "--panel", str(path))
    assert code == EXIT_VALIDATION and field in err


@pytest.mark.parametrize(
    "space, text",
    [
        ({"kind": "spd_power", "dim": 1, "power_p": math.inf}, "Infinity"),
        ({"kind": "spd_power", "dim": 1, "power_p": "abc"}, None),
        ({"kind": "spd_power", "dim": 1, "power_p": "0.5"}, None),
        ({"kind": "spd_power", "dim": 1, "power_p": True}, None),
        ({"kind": "l2function", "dim": 3, "grid": [0, 1, math.inf]}, "1e999"),
        ({"kind": "l2function", "dim": 3, "grid": ["a", 1, 2]}, None),
    ],
    ids=["infinite_power", "text_power", "numeric_text_power", "bool_power",
         "infinite_grid", "text_grid"],
)
def test_cli_rejects_space_parameters_that_are_not_finite_numbers(tmp_path, capsys, space, text):
    """Python's json reads ``Infinity`` and ``1e999`` as infinity; such a
    space, like one with text or a bool for a number, is a file error."""
    point = [[1.0]] if space["kind"] == "spd_power" else [0.0, 0.0, 0.0]
    doc = {
        "format_version": 1, "type": "panel", "space": space, "T0": 1,
        "outcomes": [[point, point], [point, point]],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc).replace("Infinity", text or "Infinity"))
    with pytest.raises(FileFormatError, match="space"):
        load_panel(str(path))
    for argv in (["validate"], ["gsc", "--out", str(tmp_path / "res.json")]):
        code, _, err = run(capsys, *argv, "--panel", str(path))
        assert code == EXIT_VALIDATION and str(path) in err, argv
    assert not (tmp_path / "res.json").exists()


def test_load_panel_reports_json_position(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text('{\n  "format_version": 1,\n  "oops"\n}\n')
    with pytest.raises(FileFormatError, match=r"line 4"):
        load_panel(str(path))
    with pytest.raises(FileFormatError, match="cannot read"):
        load_panel(str(tmp_path / "absent.json"))


def test_load_panel_rejects_non_finite_entries(tmp_path):
    doc = {
        "format_version": 1,
        "type": "panel",
        "space": {"kind": "l2function", "dim": 2, "grid": [0.0, 1.0]},
        "T0": 1,
        "outcomes": [[[0.0, 0.0], [0.0, None]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc).replace("null", "NaN"))
    with pytest.raises(FileFormatError, match=r"\(unit 0, time 1\): entries must be finite"):
        load_panel(str(path))


# ---------------------------------------------------------------------------
# covariate files


def test_euclidean_covariates_round_trip(tmp_path):
    arr = np.array([[1.5, -2.0], [0.0, 0.25], [3.0, 4.0]])
    path = str(tmp_path / "covs.json")
    save_covariates(arr, path)
    back = load_covariates(path)
    assert isinstance(back, np.ndarray)
    assert np.array_equal(back, arr)
    save_covariates(np.array([1.0, 2.0, 3.0]), path)
    assert load_covariates(path).shape == (3, 1)


def test_object_covariates_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    cspace = g.scalar_space()
    fspace = g.l2function_space(np.linspace(0, 1, 3))
    covs = g.CovariatePanel(
        spaces=(cspace, fspace),
        covariates=tuple(
            tuple(
                (
                    g.ObjectPoint(cspace, np.full(cspace.dim, float(j + t))),
                    random_point(fspace, rng),
                )
                for t in range(2)
            )
            for j in range(3)
        ),
    )
    path = str(tmp_path / "covs.json")
    save_covariates(covs, path)
    back = load_covariates(path)
    assert isinstance(back, g.CovariatePanel)
    assert back.spaces == covs.spaces
    for row_a, row_b in zip(covs.covariates, back.covariates):
        for cell_a, cell_b in zip(row_a, row_b):
            for pa, pb in zip(cell_a, cell_b):
                assert np.array_equal(pa.data, pb.data)


def test_load_covariates_rejects_unknown_type(tmp_path):
    path = tmp_path / "covs.json"
    path.write_text(json.dumps({"format_version": 1, "type": "covariates_tensor"}))
    with pytest.raises(FileFormatError, match="covariates_panel"):
        load_covariates(str(path))


# ---------------------------------------------------------------------------
# result files and plot series


def test_result_files_are_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    panel = scalar_panel(rng.normal(size=(4, 6)), T0=4)
    res = g.estimate_gsc(panel)
    cfg = g.SolverConfig()
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    save_result(res, p1, panel, cfg, "gsc")
    save_result(res, p2, panel, cfg, "gsc")
    assert open(p1, "rb").read() == open(p2, "rb").read()
    doc = json.loads(open(p1).read())
    assert doc["type"] == "result"
    assert doc["method"] == "gsc"
    assert len(doc["weights"]) == 3
    assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-12)
    assert len(doc["effects"]) == 2
    assert {"time_label", "length", "start", "end"} <= set(doc["effects"][0])


def test_gsdid_result_document_fields(tmp_path):
    rng = np.random.default_rng(5)
    panel = scalar_panel(rng.normal(size=(4, 6)), T0=4)
    res = g.estimate_gsdid(panel)
    report = g.placebo_test(panel, "gsdid")
    path = str(tmp_path / "r.json")
    save_result(res, path, panel, g.SolverConfig(), "gsdid", report)
    doc = json.loads(open(path).read())
    assert doc["method"] == "gsdid"
    assert len(doc["time_weights"]) == 4
    assert set(doc["intermediates"]) == {
        "treated_pre",
        "controls_pre",
        "controls_post",
        "treated_post",
    }
    assert doc["placebo"]["p_value"] == pytest.approx(report.p_value)
    assert len(doc["placebo"]["statistics"]) == 4
    assert doc["placebo"]["unit_labels"][0] == "treated"


def test_emit_plot_series_rows(tmp_path):
    values = np.array(
        [
            [1.0, 2.0, 3.0, 4.0, 9.0],
            [1.0, 2.0, 3.0, 4.0, 5.0],
            [0.0, 1.0, 5.0, 2.0, 3.0],
        ]
    )
    panel = scalar_panel(values, T0=4)
    res = g.estimate_gsc(panel)
    placebo = g.placebo_test(panel, "gsc")
    path = str(tmp_path / "plot.tsv")
    emit_plot_series(res, panel, path, placebo)
    lines = open(path).read().splitlines()
    assert lines[0] == "unit\ttime\tstatistic\tvalue"
    rows = [line.split("\t") for line in lines[1:]]
    pre = [r for r in rows if r[2] == "pre_fit_distance"]
    eff = [r for r in rows if r[2] == "effect_length"]
    plc = [r for r in rows if r[2] == "placebo_statistic"]
    assert len(pre) == 4 and len(eff) == 1 and len(plc) == 3
    assert all(float(r[3]) <= 1e-6 for r in pre)
    assert float(eff[0][3]) == pytest.approx(4.0, abs=1e-8)
    assert {r[0] for r in plc} == {"treated", "control_1", "control_2"}


def test_emit_plot_series_checks_panel_match(tmp_path):
    rng = np.random.default_rng(6)
    panel = scalar_panel(rng.normal(size=(3, 5)), T0=4)
    other = scalar_panel(rng.normal(size=(3, 7)), T0=4)
    res = g.estimate_gsc(panel)
    with pytest.raises(FileFormatError, match="does not match"):
        emit_plot_series(res, other, str(tmp_path / "p.tsv"))


def test_emit_plot_series_gsdid_rows(tmp_path):
    panel = scalar_panel(np.random.default_rng(16).normal(size=(4, 6)), T0=4)
    res = g.estimate_gsdid(panel)
    report = g.placebo_test(panel, "gsdid")
    path = str(tmp_path / "plot.tsv")
    for placebo in (None, report):
        emit_plot_series(res, panel, path, placebo)
        lines = open(path).read().splitlines()
        assert lines[0] == "unit\ttime\tstatistic\tvalue"
        rows = [line.split("\t") for line in lines[1:]]
        assert rows[0][:3] == ["treated", "post_mean", "effect_length"]
        assert float(rows[0][3]) == res.effect.length
        if placebo is None:
            assert len(rows) == 1
            continue
        # one post_mean row per unit, in panel order
        assert [r[:3] for r in rows[1:]] == [
            [label, "post_mean", "placebo_statistic"] for label in panel.unit_labels
        ]
        assert [float(r[3]) for r in rows[1:]] == report.statistics.tolist()
    other = g.Panel(g.sphere_space(3), np.tile([1.0, 0.0, 0.0], (4, 6, 1)), T0=4)
    with pytest.raises(FileFormatError, match="does not match the panel: different space"):
        emit_plot_series(res, other, str(tmp_path / "p.tsv"))


# ---------------------------------------------------------------------------
# command line, end to end


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_simulate_validate_gsc(tmp_path, capsys):
    panel_path = str(tmp_path / "panel.json")
    out1 = str(tmp_path / "res1.json")
    out2 = str(tmp_path / "res2.json")
    code, out, _ = run(
        capsys, "simulate", "--scenario", "scalar", "--out", panel_path,
        "--T", "10", "--T0", "8", "--J", "5", "--seed", "1",
    )
    assert code == EXIT_OK and "wrote" in out
    code, out, _ = run(capsys, "validate", "--panel", panel_path)
    assert code == EXIT_OK and "valid panel" in out and "units=6" in out
    code, _, _ = run(capsys, "gsc", "--panel", panel_path, "--out", out1)
    assert code == EXIT_OK
    doc = json.loads(open(out1).read())
    assert doc["pre_fit_rmse"] <= 1e-6
    assert all(e["length"] <= 1e-6 for e in doc["effects"])
    code, _, _ = run(capsys, "gsc", "--panel", panel_path, "--out", out2)
    assert code == EXIT_OK
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cli_gsc_placebo_and_effect(tmp_path, capsys):
    panel_path = str(tmp_path / "panel.json")
    out = str(tmp_path / "res.json")
    code, _, _ = run(
        capsys, "simulate", "--scenario", "scalar", "--out", panel_path,
        "--T", "8", "--T0", "7", "--J", "4", "--seed", "2", "--effect-size", "0.6",
    )
    assert code == EXIT_OK
    code, _, _ = run(capsys, "gsc", "--panel", panel_path, "--out", out, "--placebo")
    assert code == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["effects"][0]["length"] > 0.1
    assert isinstance(doc["placebo"], list) and len(doc["placebo"]) == 1
    block = doc["placebo"][0]
    assert len(block["statistics"]) == 5
    assert block["p_value"] == pytest.approx(block["rank_of_treated"] / 5)


@pytest.mark.parametrize("scenario", ["spd", "sphere"])
def test_cli_placebo_results_equal_unshared_fits_byte_for_byte(scenario, tmp_path, capsys):
    """``gsc --placebo`` and ``gsdid --placebo`` take the treated row from
    the estimate stored on their panel; their files equal a rerun's and
    those written from an estimate and a placebo test on separately loaded
    panels."""
    panel_path = str(tmp_path / "panel.json")
    code, _, _ = run(
        capsys, "simulate", "--scenario", scenario, "--out", panel_path,
        "--T", "7", "--T0", "5", "--J", "6", "--seed", "3", "--effect-size", "0.5",
    )
    assert code == EXIT_OK
    for method, estimate in (("gsc", g.estimate_gsc), ("gsdid", g.estimate_gsdid)):
        outs = [str(tmp_path / f"{method}_{i}.json") for i in range(3)]
        for out in outs[:2]:
            code, _, _ = run(capsys, method, "--placebo", "--panel", panel_path, "--out", out)
            assert code == EXIT_OK
        result = estimate(load_panel(panel_path))
        placebo = g.placebo_test(load_panel(panel_path), method)
        save_result(result, outs[2], load_panel(panel_path), g.SolverConfig(), method, placebo)
        first = open(outs[0], "rb").read()
        assert all(open(out, "rb").read() == first for out in outs[1:])


def test_cli_gsdid_per_time_matches_single(tmp_path, capsys):
    panel_path = str(tmp_path / "panel.json")
    code, _, _ = run(
        capsys, "simulate", "--scenario", "scalar", "--out", panel_path,
        "--T", "8", "--T0", "7", "--J", "4", "--seed", "3", "--effect-size", "0.4",
    )
    assert code == EXIT_OK
    single = str(tmp_path / "single.json")
    per_time = str(tmp_path / "per.json")
    assert run(capsys, "gsdid", "--panel", panel_path, "--out", single)[0] == EXIT_OK
    assert (
        run(capsys, "gsdid", "--panel", panel_path, "--out", per_time, "--per-time")[0]
        == EXIT_OK
    )
    d1 = json.loads(open(single).read())
    d2 = json.loads(open(per_time).read())
    assert d2["method"] == "gsdid_per_time"
    assert d2["effects"][0]["length"] == pytest.approx(
        d1["effects"][0]["length"], abs=1e-9
    )


def test_cli_frechet_mean_stdout_and_file(tmp_path, capsys):
    rng = np.random.default_rng(7)
    panel_path = str(tmp_path / "panel.json")
    save_panel(scalar_panel(rng.normal(size=(3, 4)), T0=3), panel_path)
    code, out, _ = run(
        capsys, "frechet-mean", "--panel", panel_path, "--weights", "uniform"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["type"] == "frechet_means"
    assert len(doc["means"]) == 4
    out_path = str(tmp_path / "means.json")
    code, out, _ = run(
        capsys, "frechet-mean", "--panel", panel_path,
        "--weights", "0.5,0.25,0.25", "--out", out_path,
    )
    assert code == EXIT_OK and "wrote" in out
    assert json.loads(open(out_path).read())["weights"] == [0.5, 0.25, 0.25]
    code, _, err = run(
        capsys, "frechet-mean", "--panel", panel_path, "--weights", "0.5,0.5"
    )
    assert code == EXIT_VALIDATION and "expected 3 values" in err


@pytest.mark.parametrize(
    "space", [g.sphere_space(3), g.scalar_space()], ids=["sphere", "scalar"]
)
def test_cli_frechet_mean_rejects_non_finite_weights(tmp_path, capsys, space):
    rng = np.random.default_rng(10)
    panel_path = str(tmp_path / "panel.json")
    data = [[random_point(space, rng).data for _ in range(3)] for _ in range(4)]
    save_panel(panel_of(space, data, T0=2), panel_path)
    code, _, err = run(
        capsys, "frechet-mean", "--panel", panel_path, "--weights", "nan,0.5,0.25,0.25"
    )
    assert code == EXIT_VALIDATION and "weights must be finite" in err


def test_cli_agsc_and_covariate_type_checks(tmp_path, capsys):
    rng = np.random.default_rng(8)
    panel_path = str(tmp_path / "panel.json")
    save_panel(scalar_panel(rng.normal(size=(4, 6)), T0=4), panel_path)
    euclid = str(tmp_path / "euclid.json")
    save_covariates(rng.normal(size=(4, 2)), euclid)
    cspace = g.scalar_space()
    objcovs = g.CovariatePanel(
        spaces=(cspace,),
        covariates=tuple(
            tuple((g.ObjectPoint(cspace, np.full(cspace.dim, 1.0)),) for _ in range(4))
            for _ in range(4)
        ),
    )
    objpath = str(tmp_path / "obj.json")
    save_covariates(objcovs, objpath)

    out = str(tmp_path / "res.json")
    code, _, _ = run(capsys, "agsc", "--panel", panel_path, "--covariates", euclid, "--out", out)
    assert code == EXIT_OK
    assert json.loads(open(out).read())["method"] == "agsc"
    code, _, err = run(capsys, "agsc", "--panel", panel_path, "--covariates", objpath, "--out", out)
    assert code == EXIT_VALIDATION and "covariates_euclidean" in err
    code, _, err = run(capsys, "gsc", "--panel", panel_path, "--covariates", euclid, "--out", out)
    assert code == EXIT_VALIDATION and "covariates_panel" in err
    code, _, _ = run(capsys, "gsc", "--panel", panel_path, "--covariates", objpath, "--out", out)
    assert code == EXIT_OK


def test_cli_gsc_rejects_covariates_without_periods(tmp_path, capsys):
    panel = scalar_panel(np.random.default_rng(3).normal(size=(3, 5)), T0=4)
    panel_path, covs_path = str(tmp_path / "panel.json"), str(tmp_path / "covs.json")
    save_panel(panel, panel_path)
    cspace = g.scalar_space()
    covs = g.CovariatePanel(
        spaces=(cspace,), covariates=tuple(((row[0],),) for row in panel.outcomes)
    )
    save_covariates(covs, covs_path)
    doc = json.loads(open(covs_path).read())
    doc["covariates"] = [[] for _ in doc["covariates"]]
    with open(covs_path, "w") as f:
        json.dump(doc, f)
    out = str(tmp_path / "res.json")
    code, _, err = run(capsys, "gsc", "--panel", panel_path, "--covariates", covs_path, "--out", out)
    assert code == EXIT_VALIDATION and "at least one period" in err
    assert "Traceback" not in err and not os.path.exists(out)


def test_cli_gsc_placebo_with_covariates_is_a_usage_error(tmp_path, capsys):
    """The placebo test is plain GSC's: its treated statistics are not the
    effects of a covariate-weighted fit, so the two flags are refused
    together before any file is read or written."""
    panel = g.generate(g.SimConfig(scenario="spd", seed=0, J=5, T=6, T0=4)).panel
    panel_path, covs_path = str(tmp_path / "panel.json"), str(tmp_path / "covs.json")
    save_panel(panel, panel_path)
    pre = tuple(tuple((x,) for x in row[: panel.T0]) for row in panel.outcomes)
    covs = g.CovariatePanel(spaces=(panel.space,), covariates=pre)
    save_covariates(covs, covs_path)
    out = tmp_path / "res.json"
    out.write_text("kept\n")
    code, _, err = run(capsys, "gsc", "--placebo", "--panel", panel_path,
                       "--covariates", covs_path, "--out", str(out))
    assert code == EXIT_USAGE and "--covariates" in err and "--placebo" in err
    assert out.read_text() == "kept\n"
    code, _, _ = run(capsys, "gsc", "--panel", panel_path, "--covariates", covs_path,
                     "--out", str(out))
    assert code == EXIT_OK and json.loads(out.read_text())["method"] == "gsc"


def test_cli_gsdid_per_time_placebo_is_a_usage_error(tmp_path, capsys):
    """The GSDID placebo test pools the post window: its statistics are not
    per-period effects, so the two flags are refused together before any
    file is read or written."""
    panel_path, out = str(tmp_path / "panel.json"), tmp_path / "res.json"
    save_panel(g.generate(g.SimConfig(scenario="spd", seed=0, J=5, T=6, T0=4)).panel, panel_path)
    out.write_text("kept\n")
    code, _, err = run(capsys, "gsdid", "--per-time", "--placebo", "--panel", panel_path,
                       "--out", str(out))
    assert code == EXIT_USAGE and "--per-time" in err and "--placebo" in err
    assert out.read_text() == "kept\n"
    code, _, _ = run(capsys, "gsdid", "--per-time", "--panel", panel_path, "--out", str(out))
    doc = json.loads(out.read_text())
    assert code == EXIT_OK and doc["method"] == "gsdid_per_time" and "placebo" not in doc


def test_cli_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "gsc", "--panel", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o.json"))
    assert code == EXIT_VALIDATION and "cannot read" in err
    code, _, _ = run(capsys, "gsc", "--panel", "x", "--out", "y", "--frobnicate")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "transmogrify")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys)
    assert code == EXIT_USAGE
    code, _, err = run(
        capsys, "simulate", "--scenario", "scalar", "--out", str(tmp_path / "p.json"),
        "--T", "5", "--T0", "5",
    )
    assert code == EXIT_VALIDATION and "T0" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", "--panel", str(bad))
    assert code == EXIT_VALIDATION and "line 1" in err


def test_cli_parser_built_once_gives_the_results_of_fresh_parsers(tmp_path, capsys):
    def session(directory, fresh):
        directory.mkdir()
        panel, out = str(directory / "panel.json"), str(directory / "gsc.json")
        calls = [
            ["simulate", "--scenario", "spd", "--J", "4", "--T", "5", "--T0", "4", "--out", panel],
            ["gsc", "--placebo", "--panel", panel, "--out", out],
            ["gsc", "--tol", "-1", "--panel", panel, "--out", out],
            ["--help"],
            ["gsc", "--panel", panel, "--out", out],
        ]
        seen = []
        for argv in calls:
            if fresh:
                cli_io._build_parser.cache_clear()
            code, stdout, stderr = run(capsys, *argv)
            files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
            seen.append((code, stdout.replace(str(directory), ""),
                         stderr.replace(str(directory), ""), files))
        return seen

    cli_io._build_parser.cache_clear()
    cached = session(tmp_path / "cached", fresh=False)
    assert cli_io._build_parser.cache_info().misses == 1
    assert [code for code, *_ in cached] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert cached == session(tmp_path / "fresh", fresh=True)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--max-iter", "0"),
        ("--seed", "-1"),
    ],
)
def test_cli_bad_solver_flags_are_usage_errors(tmp_path, capsys, flag, value):
    # the flags are checked before any file is read or written
    out = tmp_path / "res.json"
    out.write_text("kept\n")
    code, _, err = run(capsys, "gsc", "--panel", str(tmp_path / "absent.json"),
                       "--out", str(out), flag, value)
    assert code == EXIT_USAGE and flag in err
    assert out.read_text() == "kept\n"


def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, err = run(capsys, "simulate", "--scenario", "scalar", "--out", str(out), "--seed", "-1")
    assert code == EXIT_USAGE and "--seed" in err
    assert not out.exists()


def test_failed_save_leaves_existing_file_intact(tmp_path):
    panel = scalar_panel(np.random.default_rng(4).normal(size=(3, 5)), T0=4)
    result = g.estimate_gsc(panel)
    path = tmp_path / "res.json"
    save_result(result, str(path), panel, g.SolverConfig(), "gsc")
    before = path.read_bytes()
    unwritable = dataclasses.replace(result, pre_fit_rmse=math.inf)
    with pytest.raises(FileFormatError, match="non-finite"):
        save_result(unwritable, str(path), panel, g.SolverConfig(), "gsc")
    assert path.read_bytes() == before


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    panel_path = str(tmp_path / "network.json")
    code, _, _ = run(
        capsys, "simulate", "--scenario", "network", "--out", panel_path, "--seed", "7"
    )
    assert code == EXIT_OK
    code, _, err = run(
        capsys, "gsdid", "--panel", panel_path,
        "--out", str(tmp_path / "res.json"), "--placebo",
    )
    assert code == EXIT_SOLVER and "solver failure" in err


def test_cli_repair_flag(tmp_path, capsys):
    rng = np.random.default_rng(9)
    panel_path = str(tmp_path / "panel.json")
    save_panel(scalar_panel(rng.normal(size=(3, 5)), T0=4), panel_path)
    out = str(tmp_path / "res.json")
    code, _, _ = run(capsys, "gsc", "--panel", panel_path, "--out", out, "--repair", "off")
    assert code == EXIT_OK
    code, _, _ = run(capsys, "gsc", "--panel", panel_path, "--out", out, "--repair", "banana")
    assert code == EXIT_USAGE


def test_import_leaves_scipy_optimize_unloaded():
    """The command line starts without loading ``scipy.optimize``; only the
    isotonic repair and the derivative-free solver import it, on first use."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(g.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, geosynth; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"

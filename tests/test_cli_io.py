"""Unit and end-to-end tests for the file formats and the command line."""

import json
import math

import numpy as np
import pytest

import geosynth as g
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

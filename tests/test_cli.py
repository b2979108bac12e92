import contextlib
import io
import json
import logging
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from conftest import counted_builds
from thermoflow import circuit, cli, dynamics, physics
from thermoflow.cli import (
    EXIT_NUMERICAL,
    EXIT_SOLVABILITY,
    EXIT_VALIDATION,
    FloatRow,
    InputError,
    _parse_sweep,
    compile_problem,
    config_from_dict,
    config_to_dict,
    dump_json,
    main,
    program_from_dict,
    program_to_dict,
)

NAN, INF = float("nan"), float("inf")
GOLDEN = Path(__file__).parent / "data" / "golden_crossbar_2x2.cir"
GOLDEN_SIGNED = Path(__file__).parent / "data" / "golden_signed_report.json"
GOLDEN_MATVEC = Path(__file__).parent / "data" / "golden_matvec_report.json"
GOLDEN_COMPILED = {
    "matvec": Path(__file__).parent / "data" / "golden_compiled_matvec.json",
    "signed_matvec": Path(__file__).parent / "data" / "golden_compiled_signed.json",
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scale_input_occupancies(doc):
    """Scale a compiled matvec's input_occupancies and its row_dots alike by
    1e-3, so that the two still agree with each other."""
    group = doc["groups"][0]
    group["input_occupancies"] = [x * 1e-3 for x in group["input_occupancies"]]
    doc["row_dots"] = [x * 1e-3 for x in doc["row_dots"]]


@pytest.fixture
def scalar_problem(tmp_path):
    return write_doc(
        tmp_path, "scalar.json", {"kind": "scalar", "a": [0.3, 0.7], "b": [1.0, 2.0]}
    )


@pytest.fixture
def matvec_problem(tmp_path):
    return write_doc(
        tmp_path,
        "matvec.json",
        {"kind": "matvec", "matrix": [[0.5, 0.5], [0.2, 0.8]], "vector": [1.0, 2.0]},
    )


# finite raw config whose flows overflow: circuit and transient must refuse it
OVERFLOW_PROBLEM = {
    "kind": "raw_config",
    "modes": [{"frequency": 1e200}, {"frequency": 2e200}],
    "reservoirs": [
        {"temperature": 1e-9, "is_drain": True},
        {"temperature": 1e201},
        {"temperature": 3e200},
    ],
    "couplings": [[1e200, 1e200, 2e200], [1e200, 3e200, 1e200]],
}

# finite raw config whose crossbar conductances w * gamma underflow to 0
UNDERFLOW_PROBLEM = {
    "kind": "raw_config",
    "modes": [{"frequency": 1e-200}],
    "reservoirs": [{"temperature": 1e-9, "is_drain": True}, {"temperature": 1.0}],
    "couplings": [[1e-200, 1e-200]],
}

# matvec whose zero entry is floored below OCCUPANCY_FLUSH: its base occupancy
# is flushed to exactly 0, so the spread predicate meets 0/0 and x/0
FLUSHED_BASE_PROBLEM = {
    "kind": "matvec",
    "matrix": [[1, 1], [1, 1]],
    "vector": [0, 1],
    "settings": {"occupancy_floor": 1e-305},
}

# raw config matching the checked-in golden netlist
GOLDEN_PROBLEM = {
    "kind": "raw_config",
    "modes": [{"frequency": 1.0}, {"frequency": 2.0}],
    "reservoirs": [
        {"temperature": 1e-9, "is_drain": True},
        {"temperature": 1.4426950408889634},
    ],
    "couplings": [[1.0, 1.0], [1.0, 2.0]],
}


@pytest.fixture
def golden_problem(tmp_path):
    return write_doc(tmp_path, "golden.json", GOLDEN_PROBLEM)


# raw config whose reservoirs all sit at T_FLOOR: no flow, entropy rate -0.0
EQUILIBRIUM_PROBLEM = {
    "kind": "raw_config",
    "modes": [{"frequency": 1.0}],
    "reservoirs": [{"temperature": 1e-9, "is_drain": True}, {"temperature": 1e-9}],
    "couplings": [[1.0, 1.0]],
}

SIGNED_PROBLEM = {"kind": "signed_matvec", "matrix": [[0.5, -1.0], [0.2, 0.3]], "vector": [1, 3]}


def golden_compile_problem(kind):
    """Small seeded problems with settings overrides, pinned by the golden
    compiled documents."""
    if kind == "matvec":
        rng = np.random.default_rng(41)
        matrix = rng.uniform(0.0, 1.0, size=(7, 5)).round(3)
        settings = {"group_tol": 1e-2, "drain_ratio": 1e-3, "total_rate": 2.5}
    else:
        rng = np.random.default_rng(42)
        matrix = rng.uniform(-1.0, 1.0, size=(6, 4)).round(3)
        matrix[2, 1] = 0.0
        settings = {"group_tol": 1e-2, "base_frequency": 2.0, "occupancy_floor": 1e-10}
    vector = rng.uniform(0.0, 10.0, size=matrix.shape[1]).round(3)
    vector[-1] = 0.0
    return {
        "kind": kind,
        "matrix": matrix.tolist(),
        "vector": vector.tolist(),
        "settings": settings,
    }


class TestCompile:
    def test_scalar_document_shape(self, scalar_problem, tmp_path, capsys):
        out = tmp_path / "compiled.json"
        assert main(["compile", scalar_problem, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "compiled_program"
        assert doc["kind"] == "scalar"
        assert doc["schema_version"] == 1
        assert doc["target_shape"] == [1, 2]
        assert len(doc["config"]["modes"]) == 1
        assert len(doc["config"]["reservoirs"]) == 3
        assert "compiled:" in capsys.readouterr().err

    def test_signed_document_shape(self, tmp_path):
        doc = compile_problem(
            {"kind": "signed_matvec", "matrix": [[1.0, -1.0]], "vector": [3.0, 1.0]}
        )
        assert doc["type"] == "compiled_signed"
        assert set(doc["parts"]) == {"plus", "minus"}
        assert doc["parts"]["plus"]["rows"] == [0]

    def test_missing_field_names_it(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json", {"kind": "matvec", "vector": [1.0]})
        assert main(["compile", path]) == EXIT_VALIDATION
        assert "matrix" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path):
        path = write_doc(tmp_path, "bad.json", {"kind": "tensor"})
        assert main(["compile", path]) == EXIT_VALIDATION

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["compile", str(path)]) == EXIT_VALIDATION

    def test_missing_file(self):
        assert main(["compile", "/nonexistent/problem.json"]) == EXIT_VALIDATION

    def test_unknown_setting_rejected(self):
        with pytest.raises(InputError):
            compile_problem(
                {"kind": "scalar", "a": [1.0], "b": [1.0], "settings": {"gamma": 2}}
            )

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "matvec", "matrix": [[1.0, 2.0], [3.0]], "vector": [1.0, 2.0]},
            {"kind": "matvec", "matrix": [[1.0, 2.0]], "vector": ["a", 2]},
            {
                "kind": "matvec",
                "matrix": [[1.0, 2.0]],
                "vector": [1.0, 2.0],
                "settings": {"drain_ratio": "x"},
            },
            # rel_tol is a transient option, not an encoder setting
            {"kind": "scalar", "a": [1.0], "b": [1.0], "settings": {"rel_tol": 1e-3}},
            {"kind": "matvec", "matrix": [[1, 2], [3, 4]], "vector": [NAN, 1]},
            {"kind": "matvec", "matrix": [[1, INF], [3, 4]], "vector": [1, 2]},
            {"kind": "signed_matvec", "matrix": [[1, -INF]], "vector": [1, 2]},
            {"kind": "scalar", "a": [1.0, -INF], "b": [1.0, 2.0]},
            {"kind": "scalar", "a": [1.0], "b": [NAN]},
        ],
        ids=[
            "ragged-matrix",
            "string-in-vector",
            "string-setting",
            "rel_tol-setting",
            "nan-in-vector",
            "inf-in-matrix",
            "inf-in-signed-matrix",
            "inf-in-a",
            "nan-in-b",
        ],
    )
    def test_bad_input_is_validation_error(self, tmp_path, capsys, doc):
        path = write_doc(tmp_path, "bad.json", doc)
        assert main(["compile", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["compile", "run", "circuit", "transient"])
    @pytest.mark.parametrize("setting", ["base_frequency", "total_rate", "occupancy_floor"])
    @pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
    def test_non_finite_setting_is_validation_error(
        self, tmp_path, capsys, command, setting, value
    ):
        doc = {
            "kind": "matvec",
            "matrix": [[0.5, 0.5], [0.2, 0.8]],
            "vector": [1.0, 2.0],
            "settings": {setting: value},
        }
        path = write_doc(tmp_path, "bad.json", doc)
        assert main([command, path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {setting} must be finite\n"

    @pytest.mark.parametrize("command", ["compile", "run", "circuit", "transient"])
    @pytest.mark.parametrize("kind", ["matvec", "signed_matvec"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"total_rate": 1e-309},
            {"drain_ratio": 1e-310},
            {"drain_ratio": 1e-4, "total_rate": 1e-305},
            {"drain_ratio": 1e-323, "total_rate": 1e-323},
        ],
        ids=["total_rate", "drain_ratio", "product", "both"],
    )
    def test_subnormal_drain_coupling_is_validation_error(
        self, tmp_path, capsys, command, kind, overrides
    ):
        matrix = SIGNED_PROBLEM["matrix"] if kind == "signed_matvec" else [[0.5, 0.5]]
        doc = {"kind": kind, "matrix": matrix, "vector": [1.0, 2.0], "settings": overrides}
        assert main([command, write_doc(tmp_path, "bad.json", doc)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: drain_ratio * total_rate must be >= 2.2250738585072014e-308\n"
        )

    @pytest.mark.parametrize("command", ["compile", "run", "circuit", "transient"])
    @pytest.mark.parametrize("floor", [1e-310, 1e-320, 5e-324])
    def test_subnormal_occupancy_floor_is_validation_error(
        self, tmp_path, capsys, command, floor
    ):
        # a floored zero entry's temperature overflows at a subnormal floor
        doc = dict(FLUSHED_BASE_PROBLEM, settings={"occupancy_floor": floor})
        assert main([command, write_doc(tmp_path, "bad.json", doc)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: occupancy_floor must be >= 2.2250738585072014e-308\n"
        )

    @pytest.mark.parametrize("kind", ["matvec", "signed_matvec"])
    def test_golden_compiled_document(self, tmp_path, kind):
        path = write_doc(tmp_path, "problem.json", golden_compile_problem(kind))
        out = tmp_path / "compiled.json"
        assert main(["compile", path, "--output", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_COMPILED[kind].read_bytes()

    def test_settings_override(self):
        doc = compile_problem(
            {
                "kind": "scalar",
                "a": [1.0],
                "b": [1.0],
                "settings": {"drain_ratio": 1e-3},
            }
        )
        assert doc["drain_ratio"] == 1e-3


class TestRun:
    def test_scalar_end_to_end(self, scalar_problem, tmp_path):
        out = tmp_path / "report.json"
        code = main(["run", scalar_problem, "--oracle", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["type"] == "run_report"
        assert report["oracle"] == [pytest.approx(1.7)]
        assert report["decoded"][0] == pytest.approx(1.7, rel=1e-3)
        assert report["oracle_max_abs_error"] <= report["error_bounds"][0]
        assert "timing" in report

    def test_runs_compiled_document(self, matvec_problem, tmp_path):
        compiled = tmp_path / "compiled.json"
        assert main(["compile", matvec_problem, "--output", str(compiled)]) == 0
        out = tmp_path / "report.json"
        assert main(["run", str(compiled), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(report["decoded"], [1.5, 1.8], rtol=5e-3)

    def test_oracle_of_compiled_document_is_null(self, matvec_problem, tmp_path):
        # a compiled document holds no problem to take the direct product of
        compiled = tmp_path / "compiled.json"
        assert main(["compile", matvec_problem, "--output", str(compiled)]) == 0
        out = tmp_path / "report.json"
        assert main(["run", str(compiled), "--oracle", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["oracle"] is None
        assert "oracle_max_abs_error" not in report
        assert len(report["decoded"]) == 2

    def test_signed_run(self, tmp_path):
        path = write_doc(
            tmp_path,
            "signed.json",
            {"kind": "signed_matvec", "matrix": [[1.0, -1.0]], "vector": [3.0, 1.0]},
        )
        out = tmp_path / "report.json"
        assert main(["run", path, "--oracle", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "signed_matvec"
        assert report["decoded"][0] == pytest.approx(2.0, rel=5e-3)
        assert report["oracle"] == [2.0]

    def test_no_timing_reports_are_byte_identical(self, matvec_problem, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                ["run", matvec_problem, "--no-timing", "--output", str(out)]
            ) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_golden_signed_report(self, tmp_path):
        path = write_doc(
            tmp_path,
            "signed.json",
            {
                "kind": "signed_matvec",
                "matrix": [[0.5, -0.25, 0.0], [0.75, 0.5, 0.25]],
                "vector": [1.0, 0.0, 2.5],
            },
        )
        out = tmp_path / "report.json"
        argv = ["run", path, "--oracle", "--no-timing", "--output", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == GOLDEN_SIGNED.read_bytes()

    def test_golden_matvec_report(self, tmp_path):
        # 12 modes spread over a non-zero group width, zero inputs, two overrides
        rng = np.random.default_rng(12)
        matrix = rng.uniform(0.0, 1.0, size=(12, 9)).round(3)
        vector = rng.uniform(0.0, 10.0, size=9).round(3)
        vector[[2, 6]] = 0.0
        problem = {
            "kind": "matvec",
            "matrix": matrix.tolist(),
            "vector": vector.tolist(),
            "settings": {"group_tol": 1e-2, "drain_ratio": 1e-3},
        }
        path = write_doc(tmp_path, "matvec.json", problem)
        out = tmp_path / "report.json"
        argv = ["run", path, "--oracle", "--no-timing", "--output", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == GOLDEN_MATVEC.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["groups"][0].update(mode_indices=[0, 5]),
            lambda d: d["groups"][0].update(mode_indices=[0, 0]),
            lambda d: d["groups"][0].update(mode_indices=[0, -1]),
            lambda d: d["groups"][0].update(mode_indices=[0, 1.0]),
            lambda d: d["groups"][0].update(mode_indices=[0]),
            lambda d: d["groups"].append(dict(d["groups"][0], mode_indices=[1])),
            lambda d: d.update(row_scales=[1.0]),
            lambda d: d.update(row_dots=[1.0, 2.0, 3.0]),
            lambda d: d["groups"][0].update(input_occupancies=[1.0]),
            lambda d: d["groups"][0].update(spread=None),
            lambda d: d["groups"][0].update(input_occupancies=[[1.0], 2.0]),
            lambda d: d.update(target_shape=None),
            lambda d: d["config"]["modes"][0].update(frequency="x"),
            lambda d: d["config"].update(couplings=[[1e-4, "x", 1], [1e-4, 1, 0.5]]),
            lambda d: d.update(groups=[1]),
            lambda d: d.update(kind="banana"),
            lambda d: d.update(kind="scalar"),
            lambda d: d.update(drain_ratio=1e-12),
            lambda d: d.update(row_dots=[x * 1e-6 for x in d["row_dots"]]),
            lambda d: d["row_dots"].__setitem__(1, NAN),
            lambda d: d["groups"][0].update(max_occupancy_dev=0.0),
            scale_input_occupancies,
            lambda d: d.update(occupancy_floor=-10.0),
            lambda d: d.update(occupancy_floor=0.0),
            lambda d: d.update(occupancy_floor=-1e-3),
            lambda d: d.update(occupancy_floor=1e-310),
            lambda d: d.update(occupancy_floor=5e-324),
            lambda d: d["groups"][0].update(spread=0.5),
            lambda d: d["groups"][0].update(spread=-d["groups"][0]["spread"]),
            lambda d: d["groups"].append(dict(d["groups"][0], group_id=2, mode_indices=[])),
            lambda d: d["groups"][0].update(degenerate="false"),
            lambda d: d["config"]["modes"][0].update(group_id=7),
        ],
        ids=[
            "index-out-of-range",
            "index-repeated",
            "index-negative",
            "index-float",
            "mode-in-no-group",
            "mode-in-two-groups",
            "short-row_scales",
            "long-row_dots",
            "short-input_occupancies",
            "null-spread",
            "ragged-input_occupancies",
            "null-target_shape",
            "string-frequency",
            "string-coupling",
            "group-not-mapping",
            "unknown-kind",
            "scalar-with-two-modes",
            "drain_ratio-off-device",
            "row_dots-off-device",
            "nan-row_dots",
            "max_occupancy_dev-off-device",
            "input_occupancies-off-device",
            "negative-occupancy_floor",
            "zero-occupancy_floor",
            "small-negative-occupancy_floor",
            "subnormal-occupancy_floor",
            "least-subnormal-occupancy_floor",
            "spread-off-device",
            "negative-spread",
            "empty-group",
            "string-degenerate",
            "mode-group_id-off-group",
        ],
    )
    def test_bad_compiled_program_is_validation_error(self, tmp_path, capsys, edit):
        doc = compile_problem(
            {"kind": "matvec", "matrix": [[0.2, 0.8], [0.9, 0.1]], "vector": [1, 3]}
        )
        edit(doc)
        path = write_doc(tmp_path, "compiled.json", doc)
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("parts"),
            lambda d: d.update(parts={}),
            lambda d: d.update(parts=[]),
            lambda d: d["parts"].update(zero=d["parts"]["plus"]),
            lambda d: d["parts"].update(minus=None),
            lambda d: d["parts"]["plus"].pop("rows"),
            lambda d: d["parts"]["plus"].update(rows=[0, 0]),
            lambda d: d["parts"]["plus"].update(rows=[0, 2]),
            lambda d: d["parts"]["plus"].update(rows=[0]),
            lambda d: d["parts"]["plus"].update(rows=[-1, 1]),
            lambda d: d.pop("target_shape"),
            lambda d: d.update(target_shape=[5, 2]),
            lambda d: d.update(target_shape=[10**400, 2]),
            lambda d: d.update(target_shape=[2, 7]),
            lambda d: d["parts"]["minus"]["program"].update(drain_ratio=1e-12),
            lambda d: d["parts"]["plus"]["program"]["row_dots"].__setitem__(1, 1e-6),
        ],
        ids=[
            "no-parts",
            "empty-parts",
            "parts-not-mapping",
            "unknown-part",
            "null-part",
            "no-rows",
            "rows-repeated",
            "row-out-of-range",
            "fewer-rows-than-modes",
            "row-negative",
            "no-target_shape",
            "rows-not-covered",
            "huge-target-rows",
            "columns-not-inputs",
            "minus-drain_ratio-off-device",
            "plus-row_dots-off-device",
        ],
    )
    def test_bad_compiled_signed_is_validation_error(self, tmp_path, capsys, edit):
        doc = compile_problem(SIGNED_PROBLEM)
        edit(doc)
        path = write_doc(tmp_path, "compiled.json", doc)
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_smaller_floor_runs_on_the_input_its_device_implies(self, tmp_path):
        # a document vouches for its device's inputs, not for the problem it
        # came from: the device compiled at floor 1e-3 is an honest compile of
        # max(b, 1e-3) at floor 1e-300 too, so the edited floor runs, and its
        # values lie within their bounds of P max(b, 1e-3), not of P b
        problem = {
            "kind": "matvec",
            "matrix": [[0.5, 0.5, 1.0], [0.2, 0.8, 0.1]],
            "vector": [0, 0, 2],
            "settings": {"occupancy_floor": 1e-3, "drain_ratio": 1e-6, "group_tol": 1e-6},
        }
        doc = compile_problem(problem)
        doc["occupancy_floor"] = 1e-300
        code, out, _ = run_main(["run", "--no-timing", write_doc(tmp_path, "c.json", doc)])
        assert code == 0
        report = strict_json(out)
        implied = dict(problem, vector=[max(x, 1e-3) for x in problem["vector"]])
        pairs = zip(report["decoded"], report["error_bounds"], strict=True)
        for (value, bound), exact, implied_exact in zip(
            pairs, exact_product(problem), exact_product(implied), strict=True
        ):
            assert abs(Fraction(value) - implied_exact) <= Fraction(bound)
            assert abs(Fraction(value) - exact) > 100 * Fraction(bound)

    @pytest.mark.parametrize("scale", [1.0 + 1e-14, 1.0 - 1e-14])
    def test_derived_fields_within_tolerance_run(self, tmp_path, scale):
        # recorded values are compared with a tolerance, not bit for bit, so a
        # document written on a host that rounds differently still runs
        doc = compile_problem(
            {"kind": "matvec", "matrix": [[0.2, 0.8], [0.9, 0.1]], "vector": [1, 3]}
        )
        doc["drain_ratio"] *= scale
        doc["row_dots"] = [x * scale for x in doc["row_dots"]]
        assert main(["run", write_doc(tmp_path, "compiled.json", doc)]) == 0

    @pytest.mark.parametrize(
        "problem, group",
        [
            (
                {"kind": "matvec", "matrix": [[1.0, 0.0], [0.0, 2.0]], "vector": [1, 3]},
                lambda d: d["groups"][0],
            ),
            (SIGNED_PROBLEM, lambda d: d["parts"]["plus"]["program"]["groups"][0]),
        ],
        ids=["matvec", "signed"],
    )
    def test_mode_order_does_not_move_outputs(self, tmp_path, problem, group):
        # output i is mode i: a group that lists its modes in reverse reports
        # the same values, with the same bounds
        doc = compile_problem(problem)
        texts = []
        for _ in range(2):
            path = write_doc(tmp_path, "compiled.json", doc)
            texts.append(run_main(["run", "--no-timing", path]))
            group(doc)["mode_indices"].reverse()
        assert texts[0][0] == 0 and texts[0] == texts[1]

    def test_signed_compiled_run_matches_problem_run(self, tmp_path):
        problem = {
            "kind": "signed_matvec",
            "matrix": [[0.5, -1.0], [-0.2, 0.0]],
            "vector": [2.0, 1.5],
            "settings": {"drain_ratio": 1e-3},
        }
        path = write_doc(tmp_path, "signed.json", problem)
        compiled = write_doc(tmp_path, "compiled.json", compile_problem(problem))
        texts = []
        for src in (path, compiled):
            out = tmp_path / "report.json"
            assert main(["run", src, "--no-timing", "--output", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1.0, -1.0], [0.0, 0.0]], "all-zero row"),
            ([[0.0, 0.0]], "all-zero row"),
            ([1.0, -1.0], "2-D"),
        ],
        ids=["zero-row", "only-zero-rows", "1-D"],
    )
    def test_signed_rejects_like_library(self, tmp_path, capsys, matrix, message):
        path = write_doc(
            tmp_path,
            "signed.json",
            {"kind": "signed_matvec", "matrix": matrix, "vector": [1.0, 2.0]},
        )
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["modes"][1].update(frequency=NAN),
            lambda d: d["couplings"][1].__setitem__(1, NAN),
            lambda d: d["reservoirs"][1].update(temperature=INF),
            lambda d: d["couplings"][0].__setitem__(0, -INF),
        ],
        ids=["nan-frequency", "nan-coupling", "inf-temperature", "-inf-coupling"],
    )
    def test_non_finite_raw_config_is_validation_error(self, tmp_path, capsys, edit):
        doc = json.loads(json.dumps(GOLDEN_PROBLEM))
        edit(doc)
        path = write_doc(tmp_path, "raw.json", doc)
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "base, edit",
        [
            ("problem", lambda d: d["vector"].__setitem__(0, 10**400)),
            ("problem", lambda d: d.update(settings={"total_rate": 10**400})),
            ("raw", lambda d: d["modes"][0].update(frequency=10**400)),
            ("raw", lambda d: d["modes"][0].update(group_id=2**63)),
            ("compiled", lambda d: d["row_scales"].__setitem__(0, 10**400)),
            ("compiled", lambda d: d["groups"][0].update(base_frequency=10**400)),
            ("compiled", lambda d: d["config"]["couplings"][0].__setitem__(0, 10**400)),
        ],
        ids=[
            "vector",
            "setting",
            "raw-frequency",
            "raw-group_id",
            "row_scales",
            "base_frequency",
            "couplings",
        ],
    )
    def test_integer_out_of_range_is_validation_error(self, tmp_path, capsys, base, edit):
        # json reads these as Python ints, which float() or an int64 array refuse
        # with an OverflowError
        problem = {"kind": "matvec", "matrix": [[0.2, 0.8], [0.9, 0.1]], "vector": [1, 3]}
        docs = {"problem": problem, "raw": GOLDEN_PROBLEM}
        docs["compiled"] = compile_problem(problem)
        doc = json.loads(json.dumps(docs[base]))
        edit(doc)
        path = write_doc(tmp_path, "huge.json", doc)
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "compile", "circuit", "transient"])
    def test_drain_not_first_is_validation_error(self, tmp_path, capsys, command):
        doc = json.loads(json.dumps(GOLDEN_PROBLEM))
        doc["reservoirs"].reverse()
        path = write_doc(tmp_path, "raw.json", doc)
        assert main([command, path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: exactly one drain reservoir required, at index 0\n"
        )

    def test_debug_log_names_every_stage(self, matvec_problem, tmp_path, caplog):
        # the sizes are summed over a document's parts
        signed = write_doc(tmp_path, "signed.json", SIGNED_PROBLEM)
        raw = write_doc(tmp_path, "raw.json", EQUILIBRIUM_PROBLEM)
        for problem, kind, compiled, sizes in [
            (matvec_problem, "matvec", "compiled_program", "2 modes, 3"),
            (signed, "signed_matvec", "compiled_signed", "3 modes, 6"),
            (raw, "raw_config", "raw_config", "1 modes, 2"),
        ]:
            caplog.set_level(logging.WARNING, logger="thermoflow")
            out = tmp_path / "quiet.json"
            assert main(["run", problem, "--no-timing", "--output", str(out)]) == 0
            assert not caplog.records
            caplog.set_level(logging.DEBUG, logger="thermoflow")
            logged = tmp_path / "logged.json"
            assert main(["run", problem, "--no-timing", "--output", str(logged)]) == 0
            assert logged.read_bytes() == out.read_bytes()
            size = len(out.read_bytes())
            assert caplog.messages == [
                f"run: loaded {problem}, type None, kind {kind!r}",
                f"run: compiled, type {compiled!r}",
                f"run: ran {kind!r}, {sizes} reservoirs",
                f"run: serialized {size} bytes",
                f"run: wrote {size} bytes to {logged}",
            ]
            caplog.clear()
            assert main(["compile", problem, "--output", str(out)]) == 0
            size = len(out.read_bytes())
            assert caplog.messages == [
                f"compile: loaded {problem}, kind {kind!r}",
                f"compile: {compiled}, {sizes} reservoirs",
                f"compile: serialized {size} bytes",
                f"compile: wrote {size} bytes to {out}",
            ]
            caplog.clear()

    def test_raw_config_run(self, golden_problem, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", golden_problem, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "raw_config"
        assert report["entropy_rate"] >= 0.0
        assert len(report["config_hash"]) == 16

    def test_raw_config_at_equilibrium_keeps_negative_zero(self, tmp_path, capsys):
        # a one-part report prints its part's entropy rate as it is; 0.0 + e
        # would turn -0.0 into 0.0
        path = write_doc(tmp_path, "raw.json", EQUILIBRIUM_PROBLEM)
        assert main(["run", path, "--no-timing"]) == 0
        out = capsys.readouterr().out
        assert '"entropy_rate": -0.0,' in out
        assert json.loads(out)["settling_time"] == 0.0

    @pytest.mark.parametrize("form", ["problem", "compiled"])
    def test_signed_run_peak_within_matvec_run(self, form):
        # each signed part's config document is hashed and let go inside the
        # part loop; keeping both until the report is assembled reads ~15.4 MiB
        # against 12.4 MiB signed and 13.5 MiB matvec
        peaks = {}
        for kind in ("matvec", "signed_matvec"):
            rng = np.random.default_rng(256)
            low = -1.0 if kind == "signed_matvec" else 0.0
            doc = {
                "kind": kind,
                "matrix": rng.uniform(low, 1.0, size=(256, 256)).tolist(),
                "vector": rng.uniform(1e-6, 10.0, size=256).tolist(),
            }
            if form == "compiled":
                doc = compile_problem(doc)
            tracemalloc.start()
            try:
                dump_json(cli.run_compiled(doc, False))
                peaks[kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["signed_matvec"] <= peaks["matvec"]


class TestTransient:
    def test_trace_csv(self, matvec_problem, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(
            ["transient", matvec_problem, "--samples", "5", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("time,occ_mode0")
        assert len(lines) == 6
        err = capsys.readouterr().err
        assert err.startswith("settling time: ") and err.count("\n") == 1
        value = err.removeprefix("settling time: ").rstrip("\n")
        assert value == repr(float(value))

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["transient", "--sweep-n", "2..64", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,settling_time"
        assert [int(row.split(",")[0]) for row in lines[1:]] == [2, 4, 8, 16, 32, 64]
        times = [float(row.split(",")[1]) for row in lines[1:]]
        assert (max(times) - min(times)) / max(times) < 0.01
        assert "max relative spread" in capsys.readouterr().err

    def test_bad_sweep_range(self):
        assert main(["transient", "--sweep-n", "lots"]) == EXIT_VALIDATION
        assert main(["transient", "--sweep-n", "8..2"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("spec", ["0..4", "-2..4"])
    def test_sweep_must_start_positive(self, spec):
        # n *= 2 never passes hi from n <= 0; called directly so a regression
        # fails here instead of looping inside main
        with pytest.raises(InputError):
            _parse_sweep(spec)

    def test_needs_problem_or_sweep(self):
        assert main(["transient"]) == EXIT_VALIDATION

    def test_bad_t_end(self, matvec_problem):
        assert main(["transient", matvec_problem, "--t-end", "-1"]) == EXIT_VALIDATION


class TestCircuit:
    def test_golden_netlist(self, golden_problem, tmp_path, capsys):
        out = tmp_path / "net.cir"
        assert main(["circuit", golden_problem, "--output", str(out)]) == 0
        assert out.read_text() == GOLDEN.read_text()
        assert "residual" in capsys.readouterr().err

    def test_grouped_residual_is_not_roundoff(self, tmp_path, capsys):
        """max reproduces the flows to roundoff; grouped writes no series
        resistors, so it still exits 0 but misses them by about group_tol."""
        rng = np.random.default_rng(16)
        problem = {
            "kind": "matvec",
            "matrix": rng.uniform(0.0, 1.0, (16, 16)).tolist(),
            "vector": rng.uniform(1e-6, 10.0, 16).tolist(),
        }
        compiled = write_doc(tmp_path, "compiled.json", compile_problem(problem))
        residuals = {}
        for policy in ("max", "grouped"):
            assert main(["circuit", compiled, "--policy", policy]) == 0
            err = capsys.readouterr().err
            assert err.startswith("max |I*w - J| residual: ")
            residuals[policy] = float(err.split()[-1])
        assert residuals["max"] <= 1e-12
        assert residuals["grouped"] > 1e-6

    def test_policy_fixed_zero_unsolvable(self, golden_problem):
        assert main(
            ["circuit", golden_problem, "--policy", "fixed:0.0"]
        ) == EXIT_SOLVABILITY

    def test_unknown_policy(self, golden_problem):
        assert main(["circuit", golden_problem, "--policy", "best"]) == EXIT_VALIDATION

    def test_signed_problem_rejected(self, tmp_path):
        path = write_doc(
            tmp_path,
            "signed.json",
            {"kind": "signed_matvec", "matrix": [[1.0, -1.0]], "vector": [1.0, 1.0]},
        )
        assert main(["circuit", path]) == EXIT_VALIDATION

    def test_one_flow_solve_per_command(self, golden_problem, monkeypatch):
        calls = []
        solve = physics.stationary_flows

        def counted(config):
            calls.append(config)
            return solve(config)

        # circuit imports stationary_flows by name, so both bindings are wrapped
        monkeypatch.setattr(physics, "stationary_flows", counted)
        monkeypatch.setattr(circuit, "stationary_flows", counted)
        assert main(["circuit", golden_problem]) == 0
        assert len(calls) == 1


    @pytest.mark.parametrize(
        "command, problem",
        [
            ("circuit", OVERFLOW_PROBLEM),
            ("transient", OVERFLOW_PROBLEM),
            ("circuit", UNDERFLOW_PROBLEM),
        ],
        ids=["circuit-overflow", "transient-overflow", "circuit-underflow"],
    )
    def test_non_finite_output_is_numerical_failure(
        self, tmp_path, capsys, command, problem
    ):
        path = write_doc(tmp_path, "problem.json", problem)
        out = tmp_path / "out.txt"
        # no RuntimeWarning either: pytest turns one into an error
        code = main([command, path, "--output", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, message",
        [
            ("circuit", "NaN or Infinity in a netlist value"),
            ("transient", "NaN or Infinity in the transient trace"),
        ],
    )
    def test_non_finite_last_value_writes_nothing(
        self, tmp_path, capsys, monkeypatch, command, message
    ):
        # the writers format their output in blocks, but check every value
        # before the file is opened: an infinite last netlist branch or a NaN
        # in the last trace row leaves no output
        build, evolve = cli.build_crossbar, dynamics.evolve

        def poisoned_crossbar(config, policy):
            crossbar = build(config, policy=policy)
            assert crossbar.branch_status[-1, -1] == circuit.SERIES
            crossbar.series_resistors[-1, -1] = INF
            return crossbar

        def poisoned_trace(*args):
            trace = evolve(*args)
            trace.flows[-1, -1] = NAN
            return trace

        monkeypatch.setattr(cli, "build_crossbar", poisoned_crossbar)
        monkeypatch.setattr(dynamics, "evolve", poisoned_trace)
        problem = {"kind": "matvec", "matrix": [[0.2, 0.8], [0.9, 0.1]], "vector": [1, 3]}
        path = write_doc(tmp_path, "problem.json", problem)
        out = tmp_path / "out.txt"
        assert main([command, path, "--output", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("command", ["compile", "run", "circuit", "transient"])
    def test_overflowing_base_frequency_is_numerical_failure(
        self, tmp_path, capsys, command
    ):
        problem = {
            "kind": "matvec",
            "matrix": [[0.5, 0.5], [0.2, 0.8]],
            "vector": [1.0, 2.0],
            "settings": {"base_frequency": 1e308},
        }
        path = write_doc(tmp_path, "huge.json", problem)
        assert main([command, path]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: overflow")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, code",
        [
            ("compile", 0),
            ("run", EXIT_NUMERICAL),
            ("circuit", EXIT_NUMERICAL),
            ("transient", EXIT_NUMERICAL),
        ],
    )
    def test_overflowing_drain_column(self, tmp_path, capsys, command, code):
        # at base frequency 1e300 the drain column w/T_FLOOR of the occupancy
        # table overflows: the table flushes it to 0 whoever builds it, so
        # compile succeeds, while the commands that read the table check the
        # device's extreme w/T first and refuse the overflow
        problem = {
            "kind": "matvec",
            "matrix": [[0.5, 0.5], [0.2, 0.8]],
            "vector": [1.0, 2.0],
            "settings": {"base_frequency": 1e300},
        }
        path = write_doc(tmp_path, "huge.json", problem)
        assert main([command, path]) == code
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        if code:
            assert captured.out == ""
            assert captured.err.startswith("numerical failure: overflow")
        else:
            assert json.loads(captured.out)["type"] == "compiled_program"

    def test_overflowing_drain_column_checks_t_end_first(self, tmp_path, capsys):
        # transient refuses a bad --t-end before it reads the occupancy table
        problem = {
            "kind": "matvec",
            "matrix": [[0.5, 0.5], [0.2, 0.8]],
            "vector": [1.0, 2.0],
            "settings": {"base_frequency": 1e300},
        }
        path = write_doc(tmp_path, "huge.json", problem)
        assert main(["transient", path, "--t-end", "-1"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: t_end must be positive\n"

    @pytest.mark.parametrize(
        "command, problem",
        [
            ("compile", FLUSHED_BASE_PROBLEM),
            ("compile", {"kind": "matvec", "matrix": [[1.0], [7.0], [1.1]], "vector": [3.07e307]}),
            ("circuit", {"kind": "matvec", "matrix": [[0.15], [1.0]], "vector": [2.34e304]}),
        ],
        ids=["flushed-base-occupancy", "overflowing-occupancy", "overflowing-entropy-rate"],
    )
    def test_handled_non_finite_intermediate_succeeds(self, tmp_path, capsys, command, problem):
        # a 0/0 at a base occupancy flushed to 0 or an overflowing occupancy in
        # the spread predicate, and an entropy rate that circuit does not print,
        # do not fail the command
        path = write_doc(tmp_path, "problem.json", problem)
        assert main([command, path]) == 0
        captured = capsys.readouterr()
        assert captured.out
        assert captured.err.count("\n") == 1
        if problem is FLUSHED_BASE_PROBLEM:
            # the 0/0 entries of the flushed column are skipped, not the rows
            # that hold them: the other column keeps the spread within
            # group_tol, and every decoded value within its bound
            assert json.loads(captured.out)["groups"][0]["spread"] == 0.0007208069302523933
            code, out, _ = run_main(["run", "--oracle", "--no-timing", path])
            assert code == 0
            report = strict_json(out)
            for value, bound, exact in zip(
                report["decoded"], report["error_bounds"], exact_product(problem), strict=True
            ):
                assert abs(Fraction(value) - exact) <= Fraction(bound)


class TestOccupancyTable:
    """A command builds each device's occupancy table and occupancy pass once
    and shares them."""

    @pytest.mark.parametrize(
        "argv, kind, devices, compiled",
        [
            (["run", "--no-timing"], "matvec", 1, True),
            (["run", "--no-timing"], "signed_matvec", 2, True),
            (["transient", "--samples", "5"], "matvec", 1, True),
            (["circuit"], "matvec", 1, True),
            (["run", "--no-timing"], "matvec", 1, False),
            (["run", "--no-timing", "--oracle"], "signed_matvec", 2, False),
            (["transient", "--samples", "5"], "matvec", 1, False),
            (["circuit"], "matvec", 1, False),
        ],
        ids=[
            "run",
            "run-signed",
            "transient",
            "circuit",
            "problem-run",
            "problem-run-signed",
            "problem-transient",
            "problem-circuit",
        ],
    )
    def test_one_build_per_device(
        self, tmp_path, monkeypatch, argv, kind, devices, compiled
    ):
        # a problem document runs on the devices encode built, which encode
        # never evaluated; the flow table, the transient and the crossbar build
        # the table
        doc = golden_compile_problem(kind)
        path = write_doc(tmp_path, "doc.json", compile_problem(doc) if compiled else doc)
        tables = counted_builds(monkeypatch, "occupancies")
        passes = counted_builds(monkeypatch, "occupancy_pass")
        evaluated, bose = [], physics._bose

        def counted_bose(x):  # a device's occupancies, in one table or in blocks
            evaluated.append(x.size if np.ndim(x) == 2 else 0)
            return bose(x)

        monkeypatch.setattr(physics, "_bose", counted_bose)
        assert main([*argv, path, "--output", str(tmp_path / "out")]) == 0
        # run: flows and settling time; transient: evolve and two settling times
        assert len(tables) == len({id(config) for config in tables}) == devices
        # every command reads n_tilde, which the pass alone reduces
        assert len(passes) == len({id(config) for config in passes})
        assert {id(config) for config in passes} == {id(config) for config in tables}
        # every device is evaluated once, for its table, which the pass then
        # reads: program_from_dict's table for a compiled document, the flows',
        # the transient's or the crossbar's for a problem
        entries = sum(config.n_modes * config.n_reservoirs for config in tables)
        assert sum(evaluated) == entries


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def edge_problems(draw):
    """Small matvec and signed problems with zero vector entries, at base
    frequencies near the ends of the float range or near 1; in about one example
    in four each, total_rate or drain_ratio is drawn down to 1e-323, where the
    drain couplings drain_ratio * total_rate turn subnormal, and
    occupancy_floor from 1e-323 to 1e-290, where a zero entry's occupancy
    flushes to 0 or the floor turns subnormal, or, as often, from 10**-307.6
    to 10**-300.5, where the floor is normal and its occupancy flushes to 0."""
    kind = draw(st.sampled_from(["matvec", "signed_matvec"]))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.floats(-4.0 if kind == "signed_matvec" else 0.0, 4.0, allow_subnormal=False)
    row = st.lists(entry, min_size=n, max_size=n)
    base_frequency = draw(
        st.floats(1e280, 1e308) | st.floats(1e-323, 1e-290) | st.floats(1e-3, 1e3)
    )
    vector = st.lists(st.just(0.0) | st.floats(0.0, 10.0), min_size=n, max_size=n)
    settings = {"base_frequency": base_frequency}
    exponents = {
        "total_rate": st.floats(-323.0, -290.0),
        "drain_ratio": st.floats(-323.0, -2.0),
        "occupancy_floor": st.floats(-323.0, -290.0) | st.floats(-307.6, -300.5),
    }
    for name, exponent in exponents.items():
        if draw(st.integers(0, 3)) == 0:  # else the default
            settings[name] = 10.0 ** draw(exponent)
    return {
        "kind": kind,
        "matrix": draw(st.lists(row, min_size=m, max_size=m)),
        "vector": draw(vector),
        "settings": settings,
    }


# The fields of a compiled program that only the error bound reads.
BOUND_FIELDS = ("drain_ratio", "row_dots", "max_occupancy_dev", "input_occupancies")


def strict_json(text):
    """text parsed as JSON, refusing NaN and Infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} in strict JSON")

    return json.loads(text, parse_constant=refuse)


def exact_product(problem):
    """The problem's A @ b in exact rational arithmetic."""
    vector = [Fraction(x) for x in problem["vector"]]
    return [sum(Fraction(a) * x for a, x in zip(row, vector)) for row in problem["matrix"]]


def over_bound(value, bound, exact):
    """|value - exact| / bound as a float, capped at 1e300; an error over a
    bound of 0 counts as the cap."""
    error = abs(Fraction(value) - exact)
    if not error:
        return 0.0
    return float(min(error / Fraction(bound), 10**300)) if bound else 1e300


class TestCompiledForm:
    """A problem document and its compiled form exit alike, with the same
    stdout and stderr, in every command that reads a device; and no document,
    edited or not, makes a report lie."""

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(problem=edge_problems())
    def test_problem_and_compiled_form_exit_alike(self, tmp_path_factory, problem):
        where = tmp_path_factory.mktemp("forms")
        path = write_doc(where, "problem.json", problem)
        compiled = str(where / "compiled.json")
        code, _, err = run_main(["compile", path, "--output", compiled])
        for argv in (["run", "--no-timing"], ["circuit"], ["transient", "--samples", "5"]):
            ran = run_main([*argv, path])
            if code == 0:
                assert ran == run_main([*argv, compiled])
            else:  # each command compiles a problem document first
                assert ran == (code, "", err)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        problem=edge_problems(),
        form=st.sampled_from(["problem", "compiled", *BOUND_FIELDS]),
        exponent=st.floats(-6.0, 6.0),
    )
    @example(  # scripts/cli_outputs.py's flushed-base-occupancy
        problem={
            "kind": "matvec",
            "matrix": [[1, 1], [1, 1]],
            "vector": [0, 1],
            "settings": {"occupancy_floor": 1e-305},
        },
        form="problem",
        exponent=0.0,
    )
    def test_no_document_makes_a_report_lie(self, tmp_path_factory, problem, form, exponent):
        """run on a problem, its compiled form, or that form with one bound
        field scaled by 10**exponent: a documented exit code, one line of
        stderr on failure, strict JSON on success, and then every decoded value
        within its bound of the exact product. The search steers towards
        larger ratios of a report's worst error to its bound."""
        where = tmp_path_factory.mktemp("edits")
        doc = problem
        if form != "problem":
            code, out, _ = run_main(["compile", write_doc(where, "problem.json", problem)])
            doc = strict_json(out) if code == 0 else problem
        if form in BOUND_FIELDS and doc is not problem:
            program = doc if "groups" in doc else next(iter(doc["parts"].values()))["program"]
            owner = program if form in ("drain_ratio", "row_dots") else program["groups"][0]
            value, factor = owner[form], 10.0**exponent
            owner[form] = [x * factor for x in value] if isinstance(value, list) else value * factor
        code, out, err = run_main(["run", "--no-timing", write_doc(where, "doc.json", doc)])
        assert code in (0, EXIT_VALIDATION, EXIT_SOLVABILITY, EXIT_NUMERICAL)
        assert err.count("\n") == (code != 0) and err.endswith("\n" if code else "")
        if code != 0:
            assert out == ""
            return
        report = strict_json(out)
        products = exact_product(problem)
        rows = [*zip(report["decoded"], report["error_bounds"], products, strict=True)]
        target(max(over_bound(*row) for row in rows), label="worst error over bound")
        for value, bound, exact in rows:
            assert abs(Fraction(value) - exact) <= Fraction(bound)


class TestValidate:
    def test_passes(self, capsys):
        assert main(["validate", "--cases", "20", "--seed", "7"]) == 0
        assert "validate: PASS" in capsys.readouterr().out


class TestFlags:
    """Each command takes only the flags it reads; argparse refuses the rest."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "problem.json", "--oracle"],
            ["circuit", "problem.json", "--format", "spice"],
            ["circuit", "problem.json", "--no-timing"],
            ["transient", "--seed", "1"],
            ["validate", "--output", "x"],
        ],
        ids=[
            "compile-oracle",
            "circuit-format",
            "circuit-no-timing",
            "transient-seed",
            "validate-output",
        ],
    )
    def test_unread_flag_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutput:
    @pytest.mark.parametrize("command", ["compile", "run", "circuit", "transient"])
    def test_unwritable_output_is_validation_error(
        self, matvec_problem, tmp_path, capsys, command
    ):
        out = tmp_path / "nodir" / "x.out"
        assert main([command, matvec_problem, "--output", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert not out.parent.exists()


class TestRoundTrips:
    def test_config_dict_round_trip(self, rng):
        from conftest import random_config

        config = random_config(rng, 8, 32)
        again = config_from_dict(config_to_dict(config))
        for name in ("frequencies", "temperatures", "couplings", "group_ids"):
            np.testing.assert_array_equal(getattr(again, name), getattr(config, name))

    def test_program_dict_round_trip(self):
        doc = compile_problem(
            {"kind": "matvec", "matrix": [[0.5, 0.5]], "vector": [1.0, 2.0]}
        )
        assert program_to_dict(program_from_dict(doc)) == doc

    def test_program_missing_field(self):
        doc = compile_problem(
            {"kind": "matvec", "matrix": [[0.5, 0.5]], "vector": [1.0, 2.0]}
        )
        del doc["row_scales"]
        with pytest.raises(InputError, match="row_scales"):
            program_from_dict(doc)


class TestJson:
    @pytest.mark.parametrize("bad", [NAN, INF, -INF, np.float64(NAN)])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda x: {"value": x},
            lambda x: {"values": [1.0, x]},
            lambda x: {"rows": [[1, 2.0], (x, 3.0)]},
            lambda x: {"rows": [FloatRow([1.0, 2.0]), FloatRow([float(x), 3.0])]},
        ],
        ids=["scalar", "list", "nested", "float-rows"],
    )
    def test_non_finite_is_refused(self, wrap, bad):
        with pytest.raises(FloatingPointError):
            dump_json(wrap(bad))

    def test_float_rows_write_as_lists(self):
        rows = [FloatRow([0.5, -0.0]), FloatRow([5e-324, 1e16, 3]), FloatRow([])]
        assert rows[0] == (0.5, -0.0) and rows[1].text == "5e-324, 1e+16, 3"
        doc = {"rows": rows, "row": rows[0]}
        assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

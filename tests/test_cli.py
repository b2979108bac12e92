import json
import logging
from pathlib import Path

import numpy as np
import pytest

from thermoflow import circuit, physics
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
        ],
    )
    def test_bad_compiled_signed_is_validation_error(self, tmp_path, capsys, edit):
        doc = compile_problem(
            {
                "kind": "signed_matvec",
                "matrix": [[0.5, -1.0], [0.2, 0.3]],
                "vector": [1, 3],
            }
        )
        edit(doc)
        path = write_doc(tmp_path, "compiled.json", doc)
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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
        out = tmp_path / "quiet.json"
        assert main(["run", matvec_problem, "--no-timing", "--output", str(out)]) == 0
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="thermoflow")
        logged = tmp_path / "logged.json"
        assert main(["run", matvec_problem, "--no-timing", "--output", str(logged)]) == 0
        assert logged.read_bytes() == out.read_bytes()
        size = len(out.read_bytes())
        assert caplog.messages == [
            f"run: loaded {matvec_problem}, type None, kind 'matvec'",
            "run: compiled, type 'compiled_program'",
            "run: ran 'matvec', 2 modes, 3 reservoirs",
            f"run: serialized {size} bytes",
            f"run: wrote {size} bytes to {logged}",
        ]
        caplog.clear()
        assert main(["compile", matvec_problem, "--output", str(out)]) == 0
        size = len(out.read_bytes())
        assert caplog.messages == [
            f"compile: loaded {matvec_problem}, kind 'matvec'",
            "compile: compiled_program, 2 modes, 3 reservoirs",
            f"compile: serialized {size} bytes",
            f"compile: wrote {size} bytes to {out}",
        ]

    def test_raw_config_run(self, golden_problem, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", golden_problem, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "raw_config"
        assert report["entropy_rate"] >= 0.0
        assert len(report["config_hash"]) == 16


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
        # table overflows: encode flushes it to 0, while the commands that
        # rebuild the device from the compiled document refuse the overflow
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
            # the lower mode's occupancy leaves the flushed range at this
            # spread: the NaN deviations below it are skipped, the inf above not
            assert json.loads(captured.out)["groups"][0]["spread"] == 0.016393442622951


class TestOccupancyTable:
    """A command builds each device's occupancy table once and shares it."""

    @pytest.mark.parametrize(
        "argv, kind, devices",
        [
            (["run", "--no-timing"], "matvec", 1),
            (["run", "--no-timing"], "signed_matvec", 2),
            (["transient", "--samples", "5"], "matvec", 1),
            (["circuit"], "matvec", 1),
        ],
        ids=["run", "run-signed", "transient", "circuit"],
    )
    def test_one_build_per_device(self, tmp_path, monkeypatch, argv, kind, devices):
        path = write_doc(
            tmp_path, "compiled.json", compile_problem(golden_compile_problem(kind))
        )
        built = []
        table = physics.DeviceConfig.__dict__["occupancies"]
        build = table.func

        def counted(config):
            built.append(config)
            return build(config)

        monkeypatch.setattr(table, "func", counted)
        assert main([*argv, path, "--output", str(tmp_path / "out")]) == 0
        # run: flows and settling time; transient: evolve and two settling times
        assert len(built) == len({id(config) for config in built}) == devices


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

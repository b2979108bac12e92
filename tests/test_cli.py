import json
from pathlib import Path

import numpy as np
import pytest

from thermoflow.cli import (
    EXIT_SOLVABILITY,
    EXIT_VALIDATION,
    InputError,
    compile_problem,
    config_from_dict,
    config_to_dict,
    main,
    program_from_dict,
    program_to_dict,
)

GOLDEN = Path(__file__).parent / "data" / "golden_crossbar_2x2.cir"
GOLDEN_SIGNED = Path(__file__).parent / "data" / "golden_signed_report.json"


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


@pytest.fixture
def golden_problem(tmp_path):
    # raw config matching the checked-in golden netlist
    return write_doc(
        tmp_path,
        "golden.json",
        {
            "kind": "raw_config",
            "modes": [{"frequency": 1.0}, {"frequency": 2.0}],
            "reservoirs": [
                {"temperature": 1e-9, "is_drain": True},
                {"temperature": 1.4426950408889634},
            ],
            "couplings": [[1.0, 1.0], [1.0, 2.0]],
        },
    )


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
        ],
        ids=["ragged-matrix", "string-in-vector", "string-setting", "rel_tol-setting"],
    )
    def test_bad_input_is_validation_error(self, tmp_path, capsys, doc):
        path = write_doc(tmp_path, "bad.json", doc)
        assert main(["compile", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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
        assert "settling time:" in capsys.readouterr().err

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

    def test_policy_fixed_zero_unsolvable(self, golden_problem):
        assert main(
            ["circuit", golden_problem, "--policy", "fixed:0.0"]
        ) == EXIT_SOLVABILITY

    def test_unknown_policy(self, golden_problem):
        assert main(["circuit", golden_problem, "--policy", "best"]) == EXIT_VALIDATION

    def test_unknown_format(self, golden_problem):
        assert main(["circuit", golden_problem, "--format", "verilog"]) == EXIT_VALIDATION

    def test_signed_problem_rejected(self, tmp_path):
        path = write_doc(
            tmp_path,
            "signed.json",
            {"kind": "signed_matvec", "matrix": [[1.0, -1.0]], "vector": [1.0, 1.0]},
        )
        assert main(["circuit", path]) == EXIT_VALIDATION


class TestValidate:
    def test_passes(self, capsys):
        assert main(["validate", "--cases", "20", "--seed", "7"]) == 0
        assert "validate: PASS" in capsys.readouterr().out


class TestRoundTrips:
    def test_config_dict_round_trip(self, rng):
        from conftest import random_config

        config = random_config(rng, 8, 32)
        again = config_from_dict(config_to_dict(config))
        assert again.modes == config.modes
        assert again.reservoirs == config.reservoirs
        np.testing.assert_array_equal(again.couplings, config.couplings)

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

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from solitonlab import report
from solitonlab.cli import main
from solitonlab.report import TOLERANCE_ENV_VAR, resolve_tolerances, run_suite
from solitonlab.scenario import SchemaError, load_scenario, scenario_from_dict

from conftest import SCENARIO_DIR


def fixture(name):
    return str(SCENARIO_DIR / name)


class TestCatalogCommand:
    def test_lists_metrics(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("minkowski", "de_sitter", "grw_flat"):
            assert name in out

    def test_runs_as_module(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "solitonlab", "catalog"], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert "de_sitter" in done.stdout


class TestParser:
    def test_built_once_per_process_with_the_same_usage_errors(self, monkeypatch, capsys):
        from solitonlab import cli

        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(["analyze"])
        expected = capsys.readouterr().err
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert main(["catalog"]) == 0
            for _ in range(2):
                with pytest.raises(SystemExit) as again:
                    main(["analyze"])  # no scenario file given
                assert again.value.code == fresh.value.code == 2
                assert capsys.readouterr().err == expected
            assert main(["catalog"]) == 0
            assert built == [1]
        finally:
            cli._parser.cache_clear()


class TestAnalyzeCommand:
    @pytest.mark.parametrize(
        "name",
        [
            "minkowski.json",
            "de-sitter-soliton.json",
            "frw-radiation.json",
            "minkowski-euler-soliton.json",
            "de-sitter-eta-gradient.json",
            "vacuum-infall-custom.json",
        ],
    )
    def test_passing_fixtures_exit_zero(self, name, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", fixture(name), "--out", str(out), "--no-timestamp"]) == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["verdict"] == "pass"

    def test_inconsistent_fixture_exits_one(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", fixture("minkowski-lambda-mismatch.json"), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["summary"]["verdict"] == "fail"
        assert any(f["identity"] == "efe_residual" for f in doc["summary"]["failures"])

    def test_missing_file_exits_two(self, capsys):
        assert main(["analyze", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["analyze", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"steady_classification": -1.0},
            {"efe_residual": 0.0},
            {"efe_residual": float("inf")},
            {"laplacain_identity": 1e-3},
            {"laplacian_identity": 1e-5},
        ],
    )
    def test_unusable_tolerance_exits_two(self, tmp_path, capsys, tolerances):
        doc = json.loads(Path(fixture("de-sitter-soliton.json")).read_text())
        doc["tolerances"] = tolerances
        src = tmp_path / "s.json"
        src.write_text(json.dumps(doc))
        assert main(["analyze", str(src)]) == 2
        assert "/tolerances/" in capsys.readouterr().err

    def test_schema_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"metric": {"catalog": "minkowski"}, "dimension": 3}))
        assert main(["analyze", str(bad)]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_parse_error_location_surfaces(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = {
            "metric": {"catalog": "grw_flat", "scale_factor": "ex(2*t)"},
            "points": [[1.0, 0.0, 0.0, 0.0]],
        }
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "/metric/scale_factor" in err and "offset" in err

    def test_byte_stable_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["analyze", fixture("de-sitter-soliton.json"), "--out", str(path), "--no-timestamp"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_included_by_default(self, tmp_path):
        out = tmp_path / "r.json"
        main(["analyze", fixture("minkowski.json"), "--out", str(out)])
        assert "generated_at" in json.loads(out.read_text())
        main(["analyze", fixture("minkowski.json"), "--out", str(out), "--no-timestamp"])
        assert "generated_at" not in json.loads(out.read_text())

    def test_text_format(self, capsys):
        assert main(["analyze", fixture("minkowski.json"), "--format", "text", "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out


class TestVerifyCommand:
    def test_skips_soliton_solve(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", fixture("de-sitter-soliton.json"), "--out", str(out), "--no-timestamp"]) == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["classification"] is None
        assert all("soliton_residual" not in p["identities"] for p in doc["points"])
        # the identity checks still ran
        assert all("bianchi_contracted" in p["identities"] for p in doc["points"])


class TestSweepCommand:
    def test_sweeps_alpha(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                fixture("de-sitter-soliton.json"),
                "--param",
                "soliton.alpha",
                "--values",
                "0.0,1.0,2.0",
                "--out",
                str(out),
                "--no-timestamp",
            ]
        )
        assert code == 0
        docs = json.loads(out.read_text())
        assert [d["value"] for d in docs] == [0.0, 1.0, 2.0]
        lams = [d["report"]["summary"]["classification"]["value"] for d in docs]
        # solved constant is linear in alpha here: alpha * S(xi,xi) term
        assert lams[0] == pytest.approx(0.0, abs=1e-6)
        assert lams[1] == pytest.approx(-3.0, abs=1e-6)
        assert lams[2] == pytest.approx(-6.0, abs=1e-6)

    def test_negative_values_as_separate_argument(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                fixture("de-sitter-soliton.json"),
                "--param",
                "soliton.p",
                "--values",
                "-0.5,-0.25",
                "--out",
                str(out),
                "--no-timestamp",
            ]
        )
        assert code == 0
        assert [d["value"] for d in json.loads(out.read_text())] == [-0.5, -0.25]

    def test_non_finite_value_exits_two(self, capsys):
        code = main(["sweep", fixture("de-sitter-soliton.json"), "--param", "soliton.alpha", "--values", "NaN"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_unknown_param_path(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    fixture("de-sitter-soliton.json"),
                    "--param",
                    "soliton.gamma",
                    "--values",
                    "1.0",
                ]
            )
            == 2
        )
        assert "soliton.gamma" in capsys.readouterr().err

    def test_failing_value_exits_one(self, tmp_path):
        # cosmological constant 1 breaks the asserted field equation
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                fixture("minkowski.json"),
                "--param",
                "fluid.cosmological_constant",
                "--values",
                "0.0,1.0",
                "--out",
                str(out),
                "--no-timestamp",
            ]
        )
        assert code == 1
        docs = json.loads(out.read_text())
        assert docs[0]["report"]["summary"]["verdict"] == "pass"
        assert docs[1]["report"]["summary"]["verdict"] == "fail"


class TestToleranceEnvironment:
    def test_env_override_applies(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "10.0")
        scenario = load_scenario(fixture("minkowski-lambda-mismatch.json"))
        report = run_suite(scenario)
        # the residuals (1 and 4) now sit inside the loosened tolerance
        assert report.verdict == "pass"

    def test_env_does_not_touch_tight_defaults(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "10.0")
        tols = resolve_tolerances()
        assert tols["efe_residual"] == 10.0
        assert tols["f_skew_adjoint"] == 1e-9  # not in the generic bucket

    def test_scenario_override_wins(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "10.0")
        assert resolve_tolerances({"efe_residual": 1e-7})["efe_residual"] == 1e-7

    def test_unknown_override_name_rejected(self, monkeypatch):
        # a misspelt or retired row name is unusable input, not a silent no-op
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "10.0")
        with pytest.raises(SchemaError) as err:
            resolve_tolerances({"efe_residual": 1e-7, "laplacain_identity": 1e-3})
        assert err.value.location == "/tolerances/laplacain_identity"

    def test_every_built_in_name_can_be_overridden(self):
        overrides = {name: 0.5 for name in report.DEFAULT_TOLERANCES}
        assert resolve_tolerances(overrides) == overrides

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, "not-a-number")
        with pytest.raises(SchemaError, match=TOLERANCE_ENV_VAR):
            resolve_tolerances()

    @pytest.mark.parametrize("value", ["not-a-number", "-1", "0", "nan", "inf"])
    def test_bad_env_value_exits_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv(TOLERANCE_ENV_VAR, value)
        assert main(["analyze", fixture("minkowski.json")]) == 2
        assert TOLERANCE_ENV_VAR in capsys.readouterr().err


class TestReportShape:
    def test_derived_constants_present(self, tmp_path):
        out = tmp_path / "r.json"
        main(["analyze", fixture("de-sitter-soliton.json"), "--out", str(out), "--no-timestamp"])
        doc = json.loads(out.read_text())
        summary = doc["summary"]
        assert summary["derived"]["lambda_projection"]["mean"] == pytest.approx(-3.0, abs=1e-6)
        assert summary["derived"]["lambda_projection"]["spread"] < 1e-6
        assert summary["classification"]["category"] == "shrinking"
        assert summary["ckv"]["category"] == "not_ckv"
        assert 3.5 <= summary["numerics_health"]["fd_convergence_ratio"] <= 4.5
        assert doc["scenario"] == load_scenario(fixture("de-sitter-soliton.json")).to_dict()

    @pytest.mark.parametrize("name", ["de-sitter-eta-gradient.json", "minkowski-euler-soliton.json"])
    def test_every_recorded_row_is_emitted_in_table_order(self, name):
        # the emitted identities and the verdict only see rows of the table:
        # a row recorded at a point but missing from it would vanish unreported
        suite = run_suite(load_scenario(fixture(name)))
        doc = suite.to_dict(include_timestamp=False)
        order = list(report._ROWS)
        for rec, point in zip(suite.points, doc["points"]):
            assert rec.identities
            assert set(point["identities"]) == set(rec.identities)
            emitted = [order.index(row) for row in point["identities"]]
            assert emitted == sorted(emitted)

    def test_eta_fixture_constants(self, tmp_path):
        out = tmp_path / "r.json"
        main(["analyze", fixture("de-sitter-eta-gradient.json"), "--out", str(out), "--no-timestamp"])
        doc = json.loads(out.read_text())
        derived = doc["summary"]["derived"]
        assert derived["eta_lambda"]["mean"] == pytest.approx(-2.0, abs=1e-6)
        assert derived["eta_mu"]["mean"] == pytest.approx(1.0, abs=1e-6)
        assert derived["div_xi"]["mean"] == pytest.approx(-3.0, abs=1e-6)

    def test_gradient_family_end_to_end(self, tmp_path):
        # flat space with a quadratic potential: Hessian equals the metric,
        # so the gradient-family equation closes at constant 1
        doc = {
            "metric": {"catalog": "minkowski"},
            "vector_field": {"gradient": "(x^2+y^2+z^2-t^2)/2"},
            "soliton": {"family": "gradient_ricci_yamabe", "alpha": 2.0, "beta": 0.5, "lambda": 1.0, "assert_residual": True},
            "points": [[0.5, 0.1, -0.7, 0.2], [1.0, 0.4, 0.4, 0.4]],
        }
        src = tmp_path / "s.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["analyze", str(src), "--out", str(out), "--no-timestamp"]) == 0
        report = json.loads(out.read_text())
        for point in report["points"]:
            info = point["identities"]["soliton_residual"]
            assert info["asserted"] and info["passed"]
            assert info["residual"] <= 1e-9

    def test_time_dependent_pressure_scalar(self, tmp_path):
        # p varies along the flow, so the solved constant picks up a spread
        doc = {
            "metric": {"catalog": "de_sitter", "hubble": 1.0},
            "vector_field": {"components": [1, 0, 0, 0]},
            "soliton": {"family": "conformal_ricci_yamabe", "alpha": 1.0, "beta": 0.0, "p": "2*t - 1/2"},
            "grid": {"t": [0.0, 1.0]},
        }
        src = tmp_path / "s.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["analyze", str(src), "--out", str(out), "--no-timestamp"]) == 0
        derived = json.loads(out.read_text())["summary"]["derived"]["lambda_projection"]
        assert derived["values"][0] == pytest.approx(-3.0, abs=1e-6)
        assert derived["values"][1] == pytest.approx(-2.0, abs=1e-6)
        assert derived["spread"] == pytest.approx(1.0, abs=1e-6)

    def test_field_domain_error_is_a_point_error(self, tmp_path):
        # the nested stencil of the potential reaches x = 0: a numerical
        # failure recorded on the point, never NaN residuals read as failures
        doc = json.loads(Path(fixture("de-sitter-eta-gradient.json")).read_text())
        doc["vector_field"] = {"gradient": "t + 1/x"}
        del doc["grid"]
        doc["points"] = [[0.0, 0.002, 0.0, 0.0]]
        src = tmp_path / "s.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            main(["analyze", str(src), "--out", str(out), "--no-timestamp"])
        report = json.loads(out.read_text())
        (point,) = report["points"]
        assert "(0.0, 0.0, 0.0, 0.0)" in point["error"]
        assert report["summary"]["failures"] == []
        assert report["summary"]["errors"] == [{"point": 0, "message": point["error"]}]

    def test_internal_value_error_propagates(self, monkeypatch):
        # a plain ValueError inside an identity is a programming error:
        # neither unusable input nor a numerical failure of the point
        def broken(geo):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(report, "bianchi_first_residual", broken)
        with pytest.raises(ValueError, match="broadcast"):
            run_suite(load_scenario(fixture("de-sitter-soliton.json")))

    def test_internal_value_error_is_not_input_error(self, monkeypatch):
        # cli.main exits 2 for unusable input only; a programming error crashes
        def broken(geo):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(report, "bianchi_first_residual", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["analyze", fixture("minkowski.json")])

    def test_unit_timelike_tolerance_override_is_honoured(self):
        # g(xi, xi) = -1.000004 is unit within the scenario's 1e-5: every
        # identity derived for a unit flow is evaluated, none errors the point
        doc = json.loads(Path(fixture("de-sitter-soliton.json")).read_text())
        doc["vector_field"] = {"components": [1.000002, 0, 0, 0]}
        doc["tolerances"] = {"unit_timelike": 1e-5}
        result = run_suite(scenario_from_dict(doc))
        for rec in result.points:
            assert rec.error is None
            assert rec.identities["efe_residual"]["residual"] < 1e-5
            assert rec.identities["torse_forming"]["applicable"]
            assert rec.identities["lambda_projection_vs_closed_form"]["applicable"]
            # the projected constant does not close the full equation
            assert not rec.identities["potential_curvature_identity"]["applicable"]

    def test_near_unit_gradient_flow_solves_the_eta_system(self):
        # g(xi, xi) = -1.0000002 is unit within the default 1e-6: the eta
        # solve accepts what the report accepts, so no point errors
        doc = json.loads(Path(fixture("de-sitter-eta-gradient.json")).read_text())
        doc["vector_field"] = {"gradient": "1.0000001*t"}
        result = run_suite(scenario_from_dict(doc))
        for rec in result.points:
            assert rec.error is None
            assert rec.identities["eta_backsubstitution"]["passed"]
            assert rec.derived["eta_mu"] == pytest.approx(1.0, abs=1e-6)
        assert result.to_dict(include_timestamp=False)["summary"]["verdict"] == "pass"

    def test_non_unit_flow_marks_rows_inapplicable(self):
        # g(xi, xi) = -4 with matter: the conditional rows are inapplicable,
        # and the point keeps its unconditional rows
        doc = json.loads(Path(fixture("de-sitter-soliton.json")).read_text())
        doc["vector_field"] = {"components": [2, 0, 0, 0]}
        doc["fluid"]["sigma"] = 1
        result = run_suite(scenario_from_dict(doc))
        for rec in result.points:
            assert rec.error is None
            ids = rec.identities
            for name in ("riemann_antisymmetry", "bianchi_contracted", "nabla_decomposition", "f_skew_adjoint"):
                assert ids[name]["asserted"] and ids[name]["passed"]
            assert "efe_residual" not in ids
            for name in (
                "perfect_fluid_fit",
                "torse_forming",
                "torse_lie_form",
                "lambda_projection_vs_closed_form",
                "potential_curvature_identity",
                "rotation_divergence_identity",
                "potential_norm_identity",
            ):
                assert not ids[name]["applicable"] and not ids[name]["asserted"]

    def test_non_finite_metric_is_a_point_error(self, tmp_path):
        # 1e300 t^2 overflows to inf at t = 1e10 without a Python exception
        doc = {
            "metric": {"components": [["-1", 0, 0, 0], [0, "1e300*t*t", 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
            "points": [[1.0, 0.0, 0.0, 0.0], [1e10, 0.0, 0.0, 0.0]],
        }
        src = tmp_path / "s.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["analyze", str(src), "--out", str(out), "--no-timestamp"]) == 1
        points = json.loads(out.read_text())["points"]
        assert "degenerate" in points[0]["error"]  # eigenvalue ratio 1e-300
        assert points[1]["error"] == "metric components not finite at (10000000000.0, 0.0, 0.0, 0.0)"
        # below that ratio, point 0 is evaluated and the run passes
        doc["numerics"] = {"degeneracy_threshold": 1e-305}
        src.write_text(json.dumps(doc))
        assert main(["analyze", str(src), "--out", str(out), "--no-timestamp"]) == 0
        points = json.loads(out.read_text())["points"]
        assert points[0]["error"] is None and "not finite" in points[1]["error"]

    def test_linalg_error_is_a_point_error(self, monkeypatch):
        def singular(geo):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(report, "bianchi_first_residual", singular)
        result = run_suite(load_scenario(fixture("de-sitter-soliton.json")))
        assert [rec.error for rec in result.points] == ["Singular matrix"] * 3
        assert result.verdict == "fail"

    def test_singular_plan_point_warns_not_fatal(self, tmp_path):
        doc = {
            "metric": {"catalog": "grw_flat", "scale_factor": "t^(1/2)"},
            "points": [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
        }
        src = tmp_path / "s.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = main(["analyze", str(src), "--out", str(out), "--no-timestamp"])
        report = json.loads(out.read_text())
        assert report["warnings"], "expected a plan warning at the singular point"
        assert report["points"][0]["error"] is not None
        assert report["points"][1]["error"] is None
        assert code == 0  # surviving point passes, error recorded not fatal

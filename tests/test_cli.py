import json
import logging

import numpy as np
import pytest

from subspace_products import cli, serialization, subspace_from_matrices
from subspace_products.cli import main
from subspace_products.serialization import (
    dumps_canonical,
    matrix_to_obj,
    save_obj,
    subspace_to_obj,
    vector_to_obj,
)
from helpers import catalog, cell, random_complex


@pytest.fixture(autouse=True)
def writer_matches_json_dumps(monkeypatch):
    """Check every report and file the CLI writes, byte for byte, against the
    standard library's indenting encoder."""

    def checked(obj):
        text = dumps_canonical(obj)
        assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
        checked.calls += 1
        return text

    checked.calls = 0
    monkeypatch.setattr(cli, "dumps_canonical", checked)
    monkeypatch.setattr(serialization, "dumps_canonical", checked)
    return checked


@pytest.fixture
def lu_pair_files(tmp_path):
    lower = tmp_path / "lower.json"
    upper = tmp_path / "upper.json"
    save_obj(subspace_to_obj(catalog("lower_triangular", 3)), str(lower))
    save_obj(subspace_to_obj(catalog("unit_upper_constant_diagonal", 3)), str(upper))
    return str(lower), str(upper)


@pytest.fixture
def segre_pair_files(tmp_path):
    c = tmp_path / "circulant.json"
    d = tmp_path / "diagonal.json"
    save_obj(subspace_to_obj(catalog("circulant", 3)), str(c))
    save_obj(subspace_to_obj(catalog("diagonal", 3)), str(d))
    return str(c), str(d)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestFlatness:
    def test_lu_flat_exit_zero(self, capsys, lu_pair_files):
        code, out = run(capsys, ["flatness", *lu_pair_files, "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["flat"] is True
        assert report["result"]["lin_dim"] == 9
        assert report["seed"] == 7

    def test_curved_exit_two(self, capsys, segre_pair_files):
        code, out = run(capsys, ["flatness", *segre_pair_files])
        assert code == 2
        report = json.loads(out)
        assert report["result"]["flat"] is False
        assert report["result"]["generic_rank"] == 5

    def test_text_format(self, capsys, lu_pair_files):
        code, out = run(capsys, ["flatness", *lu_pair_files, "--format", "text"])
        assert code == 0
        assert "flat: True" in out


class TestSharedParser:
    """``main`` parses with one parser per process, and no call leaks into
    the next."""

    def test_consecutive_calls_are_independent(self, capsys, tmp_path, monkeypatch, segre_pair_files):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        runs = [
            ["flatness", *segre_pair_files, "--seed", "1", "--output", str(tmp_path / "a.json")],
            ["flatness", *segre_pair_files, "--seed", "2", "--format", "text",
             "--output", str(tmp_path / "b.txt")],
            ["flatness", *segre_pair_files],
        ]

        def reports():
            codes = [main(argv) for argv in runs]
            files = [(tmp_path / name).read_text(encoding="utf-8") for name in ("a.json", "b.txt")]
            return codes, files, capsys.readouterr().out

        shared = reports()
        assert builds == [1]
        # The same calls, each parsed by a parser of its own.
        monkeypatch.setattr(cli, "_parser", build)
        assert reports() == shared
        codes, (a, b), stdout = shared
        assert codes == [2, 2, 2]
        assert json.loads(a)["seed"] == 1 and "seed: 2" in b.splitlines()
        assert json.loads(stdout)["seed"] == 0

    def test_version_and_usage_errors_exit(self, capsys, lu_pair_files):
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        assert version.value.code == 0
        assert capsys.readouterr().out == f"subspace-products {cli.__version__}\n"
        for argv in ([], ["nope"], ["flatness", lu_pair_files[0]], ["bound", "--D", "x"]):
            with pytest.raises(SystemExit) as usage:
                main(argv)
            assert usage.value.code == 2
        # A usage error leaves the shared parser working.
        assert main(["flatness", *lu_pair_files]) == 0

    def test_build_parser_returns_a_new_parser(self, capsys, lu_pair_files):
        parser = cli.build_parser()
        assert parser is not cli.build_parser() and parser is not cli._parser()
        parser.add_argument("--extra")
        with pytest.raises(SystemExit) as usage:
            main(["--extra", "x", "flatness", *lu_pair_files])
        assert usage.value.code == 2


class TestDebugLog:
    def test_command_and_loaded_files(self, caplog, capsys, tmp_path, lu_pair_files):
        lower, upper = lu_pair_files
        A = tmp_path / "A.json"
        save_obj(matrix_to_obj(np.eye(3) + np.tril(np.ones((3, 3)))), str(A))
        with caplog.at_level(logging.DEBUG, logger="subspace_products"):
            assert main(["factor", str(A), lower, upper]) == 0
        cli_events = [r.getMessage() for r in caplog.records if r.module == "cli"]
        assert cli_events == [
            "command factor",
            f"loaded {A}: shape (3, 3) dtype float64",
            f"loaded {lower}: subspace n=3 field=complex dim=6",
            f"loaded {upper}: subspace n=3 field=complex dim=4",
        ]
        capsys.readouterr()
        # Without a configured handler, debug events print nothing.
        assert main(["factor", str(A), lower, upper]) == 0
        assert capsys.readouterr().err == ""


class TestDeterminism:
    def test_byte_identical_json(self, capsys, segre_pair_files):
        _, first = run(capsys, ["analyze", *segre_pair_files, "--seed", "3", "--trials", "4"])
        _, second = run(capsys, ["analyze", *segre_pair_files, "--seed", "3", "--trials", "4"])
        assert first == second

    def test_seed_changes_report(self, capsys, segre_pair_files):
        _, first = run(capsys, ["flatness", *segre_pair_files, "--seed", "1"])
        _, second = run(capsys, ["flatness", *segre_pair_files, "--seed", "2"])
        assert json.loads(first)["result"]["sampled_ranks"] != json.loads(second)["result"]["sampled_ranks"]


class TestGlft:
    def test_no_witness_exit_two(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        f1, f2 = tmp_path / "x1.json", tmp_path / "x2.json"
        save_obj(matrix_to_obj(random_complex(rng, 3)), str(f1))
        save_obj(matrix_to_obj(random_complex(rng, 3)), str(f2))
        code, out = run(capsys, ["glft", str(f1), str(f2)])
        assert code == 2
        assert json.loads(out)["result"]["witness"] is None

    def test_witness_found(self, capsys, tmp_path):
        f1, f2 = tmp_path / "x1.json", tmp_path / "x2.json"
        save_obj(matrix_to_obj(cell(2, 0, 1)), str(f1))
        save_obj(matrix_to_obj(np.diag([1.0, 2.0])), str(f2))
        code, out = run(capsys, ["glft", str(f1), str(f2)])
        assert code == 0
        witness = json.loads(out)["result"]["witness"]
        assert witness["a"] == [0.0, 0.0]
        assert witness["residual"] < 1e-10


class TestCs:
    def test_zero_product_pair(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_obj(matrix_to_obj(cell(2, 0, 0).real), str(f1))
        save_obj(matrix_to_obj(cell(2, 1, 1).real), str(f2))
        code, out = run(capsys, ["cs", str(f1), str(f2)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["zero_product"] and result["det_identity"] and result["agree"]

    def test_nonzero_product_exit_two(self, capsys, tmp_path):
        f1 = tmp_path / "a.json"
        save_obj(matrix_to_obj(cell(2, 0, 0).real), str(f1))
        code, out = run(capsys, ["cs", str(f1), str(f1)])
        assert code == 2
        result = json.loads(out)["result"]
        assert not result["zero_product"] and not result["det_identity"]


class TestBound:
    def test_values(self, capsys):
        code, out = run(capsys, ["bound", "--D", "3", "--n", "2", "--k", "5"])
        assert code == 0
        assert json.loads(out)["result"]["bound"] == 9
        code, out = run(capsys, ["bound", "--D", "2", "--n", "5", "--k", "3"])
        assert json.loads(out)["result"]["bound"] == 8

    def test_unsupported_degree_is_input_error(self, capsys):
        code = main(["bound", "--D", "1", "--n", "2", "--k", "2"])
        assert code == 1


class TestCatalogCommand:
    def test_emits_loadable_subspace(self, capsys, tmp_path):
        out_path = tmp_path / "circ.json"
        code, _ = run(
            capsys,
            ["catalog", "--kind", "circulant", "--n", "4", "--output", str(out_path)],
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["dim"] == 4
        assert obj["flags"]["inverse_closed"] is True
        assert obj["command"] == "catalog" and "version" in obj

    def test_output_feeds_other_commands(self, capsys, tmp_path):
        circ = tmp_path / "circ.json"
        diag = tmp_path / "diag.json"
        for kind, path in (("circulant", circ), ("diagonal", diag)):
            code, _ = run(
                capsys,
                ["catalog", "--kind", kind, "--n", "3", "--output", str(path)],
            )
            assert code == 0
        code, out = run(capsys, ["flatness", str(circ), str(diag)])
        assert code == 2  # curved, but parsed and analyzed fine
        assert json.loads(out)["result"]["lin_dim"] == 9


class TestMinrankCommand:
    def test_certified_pencil(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        S = subspace_from_matrices([np.eye(2), cell(2, 0, 1)])
        save_obj(subspace_to_obj(S), str(f))
        code, out = run(capsys, ["minrank", str(f)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["value"] == 1 and result["certified"]


class TestClosednessCommand:
    def test_toeplitz_pair(self, capsys, tmp_path):
        f1, f2 = tmp_path / "u.json", tmp_path / "l.json"
        save_obj(subspace_to_obj(catalog("toeplitz_upper_triangular", 3)), str(f1))
        save_obj(subspace_to_obj(catalog("toeplitz_lower_triangular", 3)), str(f2))
        code, out = run(capsys, ["closedness", str(f1), str(f2), "--budget", "30"])
        assert code == 0
        assert json.loads(out)["result"]["status"] == "ClosedByZeroProductProbe"

    def test_unknown_exit_two(self, capsys, tmp_path):
        f1, f2 = tmp_path / "r.json", tmp_path / "c.json"
        save_obj(subspace_to_obj(catalog("rank_rows", 3, k=1)), str(f1))
        save_obj(subspace_to_obj(catalog("rank_cols", 3, k=1)), str(f2))
        code, out = run(capsys, ["closedness", str(f1), str(f2), "--budget", "20"])
        assert code == 2
        assert json.loads(out)["result"]["status"] == "Unknown"


class TestMinProductNormRoundOff:
    # The probe's minimum on this pair is round-off (5.97e-18 or 1.67e-17,
    # depending on the BLAS); below the absolute floor it reads exactly 0.
    @pytest.mark.parametrize("command", ["analyze", "closedness"])
    def test_zero_divisor_pair_reports_zero(self, capsys, tmp_path, command):
        f1, f2 = tmp_path / "s.json", tmp_path / "p.json"
        save_obj(subspace_to_obj(catalog("symmetric", 6, "real")), str(f1))
        save_obj(subspace_to_obj(catalog("persymmetric_constant_antidiagonal", 6, "real")), str(f2))
        code, out = run(capsys, [command, str(f1), str(f2)])
        result = json.loads(out)["result"]
        cert = result["closedness"] if command == "analyze" else result
        assert code == (0 if command == "analyze" else 2)
        assert cert["status"] == "Unknown"
        assert cert["details"]["min_product_norm"] == 0.0
        assert '"min_product_norm": 0.0,' in out


class TestFactorCommand:
    def test_roundtrip(self, capsys, tmp_path, lu_pair_files):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3)) + np.eye(3) * 4  # strongly nonsingular
        fa = tmp_path / "A.json"
        save_obj(matrix_to_obj(A), str(fa))
        code, out = run(capsys, ["factor", str(fa), *lu_pair_files])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["factored"] and result["relative_residual"] < 1e-10


class TestSolveCommand:
    def test_reachable_rhs(self, capsys, tmp_path, lu_pair_files):
        rng = np.random.default_rng(6)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        fb = tmp_path / "b.json"
        save_obj(vector_to_obj(b), str(fb))
        code, out = run(capsys, ["solve", *lu_pair_files, str(fb), "--restarts", "10"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["residual"] < 1e-6
        assert (result["stop"], result["iterations"], result["restarts_used"]) == (
            "inverse_closed", 0, 0)

    def test_gauss_newton_stop_reported(self, capsys, tmp_path, segre_pair_files):
        # circulant x diagonal products fill a 5-dimensional set of 3 x 3
        # matrices: this target is off it, so the direct step fails and
        # Gauss-Newton runs.
        fb = tmp_path / "b.json"
        save_obj(vector_to_obj(np.ones(9)), str(fb))
        argv = ["solve", *segre_pair_files, str(fb), "--restarts", "2", "--max-iter", "3"]
        code, out = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["result"]["stop"] == "max_iter"
        assert run(capsys, argv) == (0, out)

    def test_model_out_file(self, capsys, tmp_path, lu_pair_files, writer_matches_json_dumps):
        from subspace_products.serialization import load_json, model_from_obj

        rng = np.random.default_rng(7)
        fb = tmp_path / "b.json"
        save_obj(vector_to_obj(rng.standard_normal(9)), str(fb))
        model_path = tmp_path / "model.json"
        written = writer_matches_json_dumps.calls
        code, _ = run(
            capsys,
            ["solve", *lu_pair_files, str(fb), "--restarts", "3", "--model-out", str(model_path)],
        )
        assert code == 0
        assert writer_matches_json_dumps.calls == written + 2  # the model file and the report
        model = model_from_obj(load_json(str(model_path)))
        assert (model.j, model.kmj, model.l) == (6, 4, 9)


class TestRealFieldEndToEnd:
    def test_real_pair_through_flatness(self, capsys, tmp_path):
        f1 = tmp_path / "sym.json"
        f2 = tmp_path / "sym2.json"
        save_obj(subspace_to_obj(catalog("symmetric", 3, field="real")), str(f1))
        save_obj(subspace_to_obj(catalog("symmetric", 3, field="real")), str(f2))
        code, out = run(capsys, ["flatness", str(f1), str(f2), "--seed", "1"])
        assert code == 0
        assert json.loads(out)["result"]["flat"] is True


class TestCurvatureCommand:
    def test_report_shape(self, capsys, segre_pair_files):
        code, out = run(capsys, ["curvature", *segre_pair_files, "--directions", "5"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["tangent_dim"] == 5
        assert len(result["q_norms"]) == 5
        assert result["max_q_norm"] > 0


class TestInputErrors:
    def test_missing_file(self, capsys, tmp_path):
        code = main(["minrank", str(tmp_path / "nope.json")])
        assert code == 1

    def test_malformed_json_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "field": "complex", "basis": [[[1, 2], [3]]]}')
        code = main(["flatness", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "basis[0]" in err

    def test_subspace_diagnostic_names_the_file_path(self, capsys, tmp_path):
        bad = tmp_path / "s.json"
        basis = [[[1, 0], [0, 1]], [[0, 1], [1, "x"]]]
        bad.write_text(json.dumps({"n": 2, "field": "complex", "basis": basis}))
        code = main(["minrank", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{bad}.basis[1][1][1]: expected [re, im] pair or number" in err

    def test_non_finite_rhs_writes_no_report(self, capsys, tmp_path, lu_pair_files):
        rhs = tmp_path / "r.json"
        rhs.write_text('{"entries": [[NaN, 0.0]' + ', [1.0, 0.0]' * 8 + "]}")
        report = tmp_path / "report.json"
        code = main(["solve", *lu_pair_files, str(rhs), "--output", str(report)])
        assert code == 1
        assert f"{rhs}.entries[0]: expected a finite number" in capsys.readouterr().err
        assert not report.exists()

    def test_huge_integer_rhs_writes_no_report(self, capsys, tmp_path, lu_pair_files):
        rhs = tmp_path / "r.json"
        rhs.write_text('{"entries": [[1' + "0" * 400 + ', 0.0]' + ', [1.0, 0.0]' * 8 + "]}")
        report = tmp_path / "report.json"
        code = main(["solve", *lu_pair_files, str(rhs), "--output", str(report)])
        assert code == 1
        assert f"{rhs}.entries[0]: number too large for a float" in capsys.readouterr().err
        assert not report.exists()

    def test_real_field_rejects_complex_entries(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            dumps_canonical(
                {"n": 1, "field": "real", "basis": [[[[1.0, 2.0]]]]}
            )
        )
        code = main(["minrank", str(bad)])
        assert code == 1
        assert "imaginary" in capsys.readouterr().err


class TestCountsBelowOne:
    """A count below one is an input error: exit 1 and no report."""

    @pytest.fixture
    def lu4_files(self, tmp_path):
        paths = []
        for kind in ("lower_triangular", "unit_upper_constant_diagonal"):
            path = tmp_path / f"{kind}.json"
            save_obj(subspace_to_obj(catalog(kind, 4)), str(path))
            paths.append(str(path))
        return paths

    def rejects(self, capsys, tmp_path, argv, message):
        report = tmp_path / "report.json"
        code = main(argv + ["--output", str(report)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not report.exists()

    def test_closedness_budget_zero(self, capsys, tmp_path, lu4_files):
        # E11 E23 = 0: the probe would find the zero divisors, but never ran.
        self.rejects(capsys, tmp_path, ["closedness", *lu4_files, "--budget", "0"],
                     "budget must be at least 1, got 0")

    def test_cs_grid_zero(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_obj(matrix_to_obj(cell(2, 0, 0).real), str(f1))
        save_obj(matrix_to_obj(cell(2, 1, 1).real), str(f2))
        self.rejects(capsys, tmp_path, ["cs", str(f1), str(f2), "--grid", "0"],
                     "grid must be at least 1, got 0")

    def test_flatness_trials_zero(self, capsys, tmp_path, lu_pair_files):
        self.rejects(capsys, tmp_path, ["flatness", *lu_pair_files, "--trials", "0"],
                     "trials must be at least 1, got 0")

    def test_solve_restarts_zero(self, capsys, tmp_path, lu_pair_files):
        fb = tmp_path / "b.json"
        save_obj(vector_to_obj(np.ones(9)), str(fb))
        self.rejects(capsys, tmp_path, ["solve", *lu_pair_files, str(fb), "--restarts", "0"],
                     "restarts must be at least 1, got 0")

    def test_solve_max_iter_zero(self, capsys, tmp_path, lu_pair_files):
        fb = tmp_path / "b.json"
        save_obj(vector_to_obj(np.ones(9)), str(fb))
        model_path = tmp_path / "model.json"
        self.rejects(capsys, tmp_path, ["solve", *lu_pair_files, str(fb), "--max-iter", "0",
                                        "--model-out", str(model_path)],
                     "max_iter must be at least 1, got 0")
        assert not model_path.exists()

    def test_curvature_directions_zero(self, capsys, tmp_path, segre_pair_files):
        self.rejects(capsys, tmp_path, ["curvature", *segre_pair_files, "--directions", "0"],
                     "directions must be at least 1, got 0")

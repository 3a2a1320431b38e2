import argparse
import json
import logging
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import subspace_products
from subspace_products import (
    cli,
    core,
    geometry,
    random_element,
    random_unit_element,
    subspace_from_matrices,
)
from subspace_products.cli import main
from subspace_products.serialization import (
    _document,
    dumps_canonical,
    matrix_to_obj,
    save_obj,
    subspace_to_obj,
    vector_to_obj,
)
from helpers import catalog, cell, json_dumps_text, random_complex, reference_curvature


def _not_json(constant):
    raise AssertionError(f"{constant} is not JSON")


@pytest.fixture(autouse=True)
def writer_matches_json_dumps(monkeypatch):
    """Check every JSON report and file the CLI writes, all through the one
    streaming writer of ``save_obj``, byte for byte against the standard
    library's indenting encoder, and that it parses as strict JSON, with no
    NaN or Infinity."""
    writes = SimpleNamespace(calls=0)

    def checked_document(obj):
        pieces = list(_document(obj))
        text = "".join(pieces)
        assert text == json_dumps_text(obj)
        json.loads(text, parse_constant=_not_json)
        writes.calls += 1
        return pieces

    monkeypatch.setattr(cli, "_document", checked_document)
    return writes


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


@pytest.fixture
def big_identity_file(tmp_path):
    """1e200 I of side 2, whose square overflows."""
    f = tmp_path / "big.json"
    f.write_text('{"n": 2, "entries": [[1e200, 0], [0, 1e200]]}')
    return str(f)


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


    def test_witness_where_squares_of_the_stack_overflow(self, capsys, tmp_path):
        # 1e155 X and 1e-10 X^2: the stack's column norms are finite.
        X = np.array([[2.0, 1.0], [0.0, 3.0]])
        f1, f2 = tmp_path / "x1.json", tmp_path / "x2.json"
        save_obj(matrix_to_obj(1e155 * X), str(f1))
        save_obj(matrix_to_obj(1e-10 * X @ X), str(f2))
        code, out = run(capsys, ["glft", str(f1), str(f2)])
        assert code == 0
        assert json.loads(out)["result"]["witness"] is not None

    def test_overflowing_product_is_an_input_error(self, capsys, big_identity_file):
        assert main(["glft", big_identity_file, big_identity_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a matrix product overflowed to Inf or NaN\n"

    @pytest.mark.parametrize("x1, x2", [(2.0, -3.0), (1 + 2j, 0.5 - 1j), (0.0, 0.0)])
    def test_scalar_matrices_have_a_witness(self, capsys, tmp_path, x1, x2):
        f1, f2 = tmp_path / "x1.json", tmp_path / "x2.json"
        save_obj(matrix_to_obj(np.array([[x1]])), str(f1))
        save_obj(matrix_to_obj(np.array([[x2]])), str(f2))
        code, out = run(capsys, ["glft", str(f1), str(f2)])
        assert code == 0
        assert json.loads(out)["result"]["witness"]["residual"] < 1e-10


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

    def test_nonzero_product_past_the_float_maximum(self, capsys, big_identity_file):
        # cs decides on unit-norm copies, so 1e200 I times itself is nonzero.
        code, out = run(capsys, ["cs", big_identity_file, big_identity_file])
        assert code == 2
        result = json.loads(out)["result"]
        assert (result["zero_product"], result["det_identity"]) == (False, False)


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


class TestSeedRule:
    @pytest.mark.parametrize("command", ["flatness", "analyze", "curvature", "closedness"])
    def test_negative_seed_is_an_input_error(self, capsys, lu_pair_files, command):
        assert main([command, *lu_pair_files, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"

    def test_negative_seed_that_is_never_drawn(self, capsys, tmp_path):
        # A one-dimensional subspace's minrank is exact and draws nothing.
        f = tmp_path / "d1.json"
        save_obj(subspace_to_obj(catalog("diagonal", 1, "real")), str(f))
        assert main(["minrank", str(f), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("command", ["catalog", "cs", "glft", "bound"])
    @pytest.mark.parametrize("options, message", [
        (["--seed", "-1", "--trials", "0"], "seed must be a nonnegative integer, got -1"),
        (["--trials", "0"], "trials must be at least 1, got 0"),
    ])
    def test_seed_and_trials_are_checked_where_neither_is_used(
        self, capsys, tmp_path, command, options, message
    ):
        # Every report header carries both, so every command checks both.
        f = tmp_path / "d.json"
        save_obj(matrix_to_obj(np.eye(2)), str(f))
        inputs = {
            "catalog": ["--kind", "diagonal", "--n", "2", "--field", "real"],
            "cs": [str(f), str(f)],
            "glft": [str(f), str(f)],
            "bound": ["--D", "3", "--n", "2", "--k", "2"],
        }[command]
        assert main([command, *inputs, *options]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_negative_seed_on_the_sampled_minrank(self, capsys, tmp_path):
        f = tmp_path / "circulant.json"
        save_obj(subspace_to_obj(catalog("circulant", 4, "real")), str(f))
        assert main(["minrank", str(f), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"


# Run in a fresh interpreter: the package's source directory, then a
# subspace file whose minrank takes the sampled path.  It prints to stderr
# whether scipy.optimize is loaded after the imports, then after the command.
_LAZY_OPTIMIZE = """
import sys
sys.path.insert(0, sys.argv[1])
import subspace_products, subspace_products.cli
print("scipy.optimize" in sys.modules, file=sys.stderr)
code = subspace_products.cli.main(["minrank", sys.argv[2]])
print("scipy.optimize" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


# Run in a fresh interpreter: the package's source directory.  It prints the
# scipy modules loaded after importing the package and its CLI.
_SCIPY_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
import subspace_products, subspace_products.cli
print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


class TestImportPath:
    def test_no_scipy_module_loads_with_the_package(self):
        src = str(Path(subspace_products.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_MODULES, src],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.split() == []

    def test_scipy_optimize_loads_at_the_first_sampled_minrank(self, capsys, tmp_path):
        f = tmp_path / "circulant.json"
        save_obj(subspace_to_obj(catalog("circulant", 4, "real")), str(f))
        src = str(Path(subspace_products.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _LAZY_OPTIMIZE, src, str(f)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stderr.split() == ["False", "True"]
        # The descent finds the rank-one all-ones member, as it did when
        # scipy.optimize was imported with the package.
        code, out = run(capsys, ["minrank", str(f)])
        assert code == 0 and proc.stdout == out
        result = json.loads(out)["result"]
        assert (result["value"], result["certified"], result["method"]) == (
            1, False, "sampled_upper_bound")

    def test_a_rank_one_basis_member_ends_the_search_before_any_descent(self, tmp_path):
        # The sixth raw basis member of the upper triangular Toeplitz kind,
        # E_16, has rank one: no nonzero member has less, so the sampled
        # search stops there and never imports scipy.optimize.
        f = tmp_path / "toeplitz.json"
        save_obj(subspace_to_obj(catalog("toeplitz_upper_triangular", 6, "real")), str(f))
        src = str(Path(subspace_products.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _LAZY_OPTIMIZE, src, str(f)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stderr.split() == ["False", "False"]
        result = json.loads(proc.stdout)["result"]
        assert (result["value"], result["certified"], result["method"]) == (
            1, False, "sampled_upper_bound")


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

    def test_one_membership_test_per_factor(self, capsys, tmp_path, lu_pair_files, monkeypatch):
        A = np.random.default_rng(5).standard_normal((3, 3)) + np.eye(3) * 4
        fa = tmp_path / "A.json"
        save_obj(matrix_to_obj(A), str(fa))
        tested = []
        test = core._membership
        monkeypatch.setattr(core, "_membership", lambda S, arr: tested.append(S.dim) or test(S, arr))
        code, out = run(capsys, ["factor", str(fa), *lu_pair_files])
        assert code == 0
        # V1 in the 6-dimensional lower triangle, then V2 in the 4-dimensional
        # unit upper triangle, each once; the report carries both residuals.
        assert tested == [6, 4]
        assert set(json.loads(out)["result"]["memberships"]) == {"V1", "V2"}

    def test_residual_where_the_squares_of_a_overflow(self, capsys, tmp_path):
        # ||A||_F squares entries of 1e200; the residual is measured in units
        # of the largest entry of A, finite and without a warning.
        fa, fl, fu = (tmp_path / f"{name}.json" for name in ("A", "lower", "upper"))
        fa.write_text('{"n": 2, "entries": [[1e200, 3e199], [2e199, 1e200]]}')
        save_obj(subspace_to_obj(catalog("lower_triangular", 2, "real")), str(fl))
        save_obj(subspace_to_obj(catalog("upper_triangular", 2, "real")), str(fu))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["factor", str(fa), str(fl), str(fu)])
        assert code == 0
        assert 0 <= json.loads(out)["result"]["relative_residual"] < 1e-12

    @pytest.mark.parametrize("kinds, n, entries, outside", [
        # Persymmetric matrices are not inverse-closed: Y^{-1} leaves them.
        (("symmetric", "persymmetric_constant_antidiagonal"), 4, None, "V2"),
        # Near the largest float A Y leaves the lower triangle by round-off.
        (("lower_triangular", "upper_triangular"), 2,
         [[1.5e308, 1e308], [-1e308, 1.5e308]], "V1"),
    ], ids=["persymmetric", "largest-float"])
    def test_a_factor_outside_its_subspace_exits_two(
        self, capsys, tmp_path, kinds, n, entries, outside
    ):
        if entries is None:
            G = np.random.default_rng(0).standard_normal((n, n))
            entries = G + G.T + 8 * np.eye(n)
        fa, f1, f2 = (tmp_path / f"{name}.json" for name in ("A", "S1", "S2"))
        save_obj(matrix_to_obj(np.array(entries)), str(fa))
        for f, kind in zip((f1, f2), kinds):
            save_obj(subspace_to_obj(catalog(kind, n, "real")), str(f))
        code, out = run(capsys, ["factor", str(fa), str(f1), str(f2)])
        assert code == 2
        result = json.loads(out)["result"]
        assert set(result) == {"factored", "reason"} and result["factored"] is False
        assert re.fullmatch(rf"{outside} is not in the subspace \(residual \S+\)", result["reason"])

    def test_no_factorization_exits_two(self, capsys, tmp_path):
        # A Y stays diagonal for diagonal Y only when Y = 0.
        fa, fd = tmp_path / "A.json", tmp_path / "d.json"
        save_obj(matrix_to_obj(np.ones((2, 2))), str(fa))
        save_obj(subspace_to_obj(catalog("diagonal", 2, "real")), str(fd))
        code, out = run(capsys, ["factor", str(fa), str(fd), str(fd)])
        assert code == 2
        result = json.loads(out)["result"]
        assert result == {"factored": False, "reason": "no nonzero Y in S2 maps A into S1"}


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
        # matrices whose columns are scaled cyclic shifts c, Sc, S^2 c of one
        # vector. The linearization is M_3, so the rhs e0 + e3 is the matrix
        # with ones at (0, 0) and (0, 1) (column-major matrix units). Its
        # columns 0 and 1 are both e0, but c ~ e0 makes Sc ~ e1, so it lies
        # off the closure of that set: the direct step fails and
        # Gauss-Newton runs.
        fb = tmp_path / "b.json"
        save_obj(vector_to_obj(np.eye(9)[0] + np.eye(9)[3]), str(fb))
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


    def test_rhs_whose_squares_overflow_is_solved_directly(self, capsys, tmp_path):
        files = [str(tmp_path / name) for name in ("lower.json", "upper.json", "b.json")]
        for kind, path in zip(("lower_triangular", "unit_upper_constant_diagonal"), files):
            save_obj(subspace_to_obj(catalog(kind, 3, "real")), path)
        save_obj(vector_to_obj(np.full(9, 1e200)), files[2])
        code, out = run(capsys, ["solve", *files])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["stop"] == "inverse_closed"
        assert result["residual"] < 1e-10 * (1.0 + 3e200)

    def test_no_finite_residual_is_an_input_error(self, capsys, tmp_path):
        # Rank-one factors admit no direct step; at 1e200 Gauss-Newton's
        # J^H J overflows on every restart.
        files = [str(tmp_path / name) for name in ("cols.json", "rows.json", "b.json")]
        for kind, path in zip(("rank_cols", "rank_rows"), files):
            save_obj(subspace_to_obj(catalog(kind, 3, "real", k=1)), path)
        save_obj(vector_to_obj(np.full(9, 1e200)), files[2])
        model_path = tmp_path / "model.json"
        argv = ["solve", *files, "--restarts", "2", "--max-iter", "20", "--model-out", str(model_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a matrix product overflowed to Inf or NaN\n"
        assert not model_path.exists()


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

    def test_directions_are_gaussian_draws(self, capsys, segre_pair_files, monkeypatch):
        # Base points sit near the identity (both factors contain it), but
        # the directions stay the seeded Gaussian members, unit-normalized.
        draws = []

        def spy(S, seed):
            draws.append((S, seed, random_unit_element(S, seed)))
            return draws[-1][2]

        monkeypatch.setattr(cli, "random_unit_element", spy)
        code, _ = run(capsys, ["curvature", *segre_pair_files, "--directions", "3", "--seed", "4"])
        seen = [(S1, S2, W1, W2) for (S1, _, W1), (S2, _, W2) in zip(draws[::2], draws[1::2])]
        assert code == 0 and len(seen) == 3
        assert [seed for _, seed, _ in draws] == [1004, 1005, 1006, 1007, 1008, 1009]
        for t, (S1, S2, W1, W2) in enumerate(seen):
            s = 4 + 1000 + 2 * t
            X1, X2 = random_element(S1, s), random_element(S2, s + 1)
            np.testing.assert_array_equal(W1, X1 / np.linalg.norm(X1))
            np.testing.assert_array_equal(W2, X2 / np.linalg.norm(X2))
            c = np.random.default_rng(s).standard_normal(2 * S1.dim)
            np.testing.assert_allclose(
                S1.coefficients(W1) * np.linalg.norm(X1), c[: S1.dim] + 1j * c[S1.dim:]
            )

    @pytest.mark.parametrize("flags", [(), ("--directions", "3", "--seed", "5")])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind1, kind2, params", [
        ("lower_triangular", "unit_upper_constant_diagonal", {}),
        ("circulant", "diagonal", {}),
        ("rank_cols", "rank_rows", {"k": 2}),
        ("symmetric", "persymmetric_constant_antidiagonal", {}),
    ])
    def test_report_matches_a_span_per_direction(
        self, capsys, monkeypatch, tmp_path, kind1, kind2, params, n, field, flags
    ):
        files = [str(tmp_path / "s1.json"), str(tmp_path / "s2.json")]
        for kind, path in zip((kind1, kind2), files):
            save_obj(subspace_to_obj(catalog(kind, n, field, **params)), path)
        argv = ["curvature", *files, *flags]
        got = run(capsys, argv)
        _, *row = cli._COMMANDS["curvature"]
        monkeypatch.setitem(cli._COMMANDS, "curvature", (reference_curvature, *row))
        assert got == run(capsys, argv)

    @pytest.mark.parametrize("directions", ["1", "20"])
    def test_one_tangent_span_for_every_direction(
        self, capsys, monkeypatch, lu_pair_files, directions
    ):
        spans = []

        def spy(P, field, tols, span=core._subspace_from_stack):
            spans.append(len(P))
            return span(P, field, tols)

        monkeypatch.setattr(core, "_subspace_from_stack", spy)
        monkeypatch.setattr(geometry, "_subspace_from_stack", spy)
        code, out = run(capsys, ["curvature", *lu_pair_files, "--directions", directions])
        # The two file loads, then the tangent stack of S1.dim + S2.dim = 10
        # products at the base point.
        assert code == 0 and spans == [6, 4, 10]
        assert json.loads(out)["result"]["tangent_dim"] == 9


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

    def test_invalid_json_names_line_and_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2,\n "field" "real"}')
        code = main(["minrank", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {bad}:2:10: Expecting ':' delimiter\n"

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

    def test_boolean_side_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "f.json"
        bad.write_text('{"n": true, "field": "real", "basis": [[[1.0]]]}')
        code = main(["minrank", str(bad)])
        assert code == 1
        assert f"{bad}.n: expected a positive integer" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, inputs, option, name", [
        ("curvature", 2, "--directions", "directions"),
        ("analyze", 2, "--budget", "budget"),
        ("closedness", 2, "--budget", "budget"),
        ("cs", 2, "--grid", "grid"),
        ("solve", 3, "--restarts", "restarts"),
        ("solve", 3, "--max-iter", "max_iter"),
    ])
    def test_checked_before_the_inputs_are_read(
        self, capsys, tmp_path, command, inputs, option, name
    ):
        # No input file exists, so a check after reading would report that.
        missing = [str(tmp_path / f"missing{i}.json") for i in range(inputs)]
        assert main([command, *missing, option, "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must be at least 1, got 0\n"


class TestToleranceFlags:
    """A tolerance flag that would make every rank zero is rejected as such:
    exit 1, a message naming the tolerance, no report.  Before the check,
    both files loaded as zero subspaces and the error blamed the inputs."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "1", "rel_rank_tol must be in (0, 1), got 1.0"),
        ("--tol", "5", "rel_rank_tol must be in (0, 1), got 5.0"),
        ("--tol", "inf", "rel_rank_tol must be in (0, 1), got inf"),
        ("--abs-floor", "inf", "abs_floor must be positive and finite, got inf"),
    ])
    def test_rejected(self, capsys, tmp_path, lu_pair_files, flag, value, message):
        report = tmp_path / "report.json"
        code = main(["flatness", *lu_pair_files, flag, value, "--output", str(report)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not report.exists()


# The command-line interface, pinned: per subcommand its help, its
# positionals as (name, help) in order, and every option in order as
# flag -> (dest, default, type, choices, required, help).
_COMMON = {
    "--seed": ("seed", 0, int, None, False, "master random seed (default 0)"),
    "--trials": ("trials", 5, int, None, False, "sampling trials (default 5)"),
    "--tol": ("tol", None, float, None, False, "relative rank tolerance override"),
    "--abs-floor": ("abs_floor", None, float, None, False, "absolute floor override"),
    "--format": ("format", "json", None, ("json", "text"), False, None),
    "--output": ("output", None, None, None, False,
                 "write the report to this path instead of stdout"),
}
_PAIR = [("subspace1", None), ("subspace2", None)]
_BUDGET = {"--budget": ("budget", 100, int, None, False, "at most this many probe starts")}
_KINDS = (
    "diagonal", "circulant", "lower_triangular", "upper_triangular",
    "unit_upper_constant_diagonal", "unit_lower_constant_diagonal", "band_lower",
    "band_upper", "toeplitz_upper_triangular", "toeplitz_lower_triangular", "symmetric",
    "persymmetric_constant_antidiagonal", "rank_cols", "rank_rows", "hurwitz_radon_2",
    "krylov",
)
_INTERFACE = {
    "analyze": ("flatness report plus closedness certificate", _PAIR, _BUDGET),
    "flatness": ("sampled flatness verdict (exit 2 when curved)", _PAIR, {}),
    "curvature": ("curvature measure at a sampled base point", _PAIR, {
        "--directions": ("directions", 20, int, None, False, "direction pairs to sample"),
    }),
    "minrank": ("minimum rank over nonzero members", [("subspace", None)], {}),
    "cs": ("zero-product and determinant-identity tests (exit 2 when nonzero)",
           [("matrix1", None), ("matrix2", None)], {
               "--grid": ("grid", 9, int, None, False, "grid points per axis on [-1,1]"),
           }),
    "glft": ("generalized linear-fractional witness (exit 2 when none)",
             [("matrix1", None), ("matrix2", None)], {}),
    "factor": ("factor A = V1 V2 over an inverse-closed pair",
               [("matrix", None), *_PAIR], {}),
    "solve": ("solve M(z)w = b in the bilinear model of a pair",
              [*_PAIR, ("rhs", "vector JSON file with linearization coordinates")], {
                  "--restarts": ("restarts", 20, int, None, False, None),
                  "--max-iter": ("max_iter", 200, int, None, False, None),
                  "--model-out": ("model_out", None, None, None, False,
                                  "also write the bilinear model file here"),
              }),
    "catalog": ("emit a structured subspace JSON file", [], {
        "--kind": ("kind", None, None, _KINDS, True, None),
        "--n": ("n", None, int, None, True, None),
        "--field": ("field", "complex", None, ("real", "complex"), False, None),
        "--p": ("p", None, int, None, False, None),
        "--q": ("q", None, int, None, False, None),
        "--k": ("k", None, int, None, False, None),
        "--matrix": ("matrix", None, None, None, False, "generator matrix JSON (krylov)"),
        "--max-power": ("max_power", None, int, None, False, None),
    }),
    "closedness": ("closedness certificate (exit 2 when unknown)", _PAIR, _BUDGET),
    "bound": ("certificate degree bound", [], {
        "--D": ("D", None, int, None, True, None),
        "--n": ("n", None, int, None, True, None),
        "--k": ("k", None, int, None, True, None),
    }),
}


class TestInterface:
    """No command, positional, option, default or help text drifts."""

    @staticmethod
    def subcommands():
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        helps = {a.dest: a.help for a in sub._choices_actions}
        return {name: (helps[name], p) for name, p in sub.choices.items()}

    def test_commands_in_order(self):
        assert list(self.subcommands()) == list(_INTERFACE)

    @pytest.mark.parametrize("command", list(_INTERFACE))
    def test_command(self, command):
        summary, positionals, options = _INTERFACE[command]
        help, parser = self.subcommands()[command]
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert help == summary
        assert [(a.dest, a.help) for a in actions if not a.option_strings] == positionals
        assert {
            a.option_strings[0]: (a.dest, a.default, a.type, a.choices, a.required, a.help)
            for a in actions if a.option_strings
        } == {**options, **_COMMON}
        assert [a.option_strings for a in actions if a.option_strings] == [
            [flag] for flag in {**options, **_COMMON}
        ]

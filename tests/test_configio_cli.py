"""Config parsing, CSV determinism, and the CLI contract."""

import ast
import io
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from deltaprime.cli import main
from deltaprime.configio import parse_measure, parse_system, write_csv
from deltaprime.errors import SchemaError
from deltaprime.line import find_bound_states
from test_golden import GOLDEN, INVOCATIONS

PAIR_FILE = """
[system]
points = -1.0 1.0

[condition 1]
kind = delta-prime
beta = -1.0

[condition 2]
kind = delta-prime
beta = -1.0
"""

NONLOCAL_FILE = """
[system]
points = -1.0 1.0

[global]
rows =
    0 0 1 -1  0 0 0 0
    0 0 0 0   0 0 1 -1
    1 -1 1 1  1 -1 0 0
    1 -1 0 0  1 -1 1 1
"""

MIXED_FILE = """
[system]
points = 0.0 1.5

[condition 1]
kind = lambda
entries = 1 -2 0 1

[condition 2]
kind = b
alpha = 0
beta = -1.0
"""

CANTOR_FILE = """
[measure]
kind = cantor
depth = 2
interval = 0 1

[beta]
kind = constant
value = -1.0
"""

ATOMS_FILE = """
[measure]
kind = atoms
atoms =
    0.0 1.0
    0.7 0.5

[beta]
kind = per-atom
values = -1.0 2.0
"""

# four delta' points of the pair's strength: each half of T holds two, so the states
# need LAPACK's bisection, where the pair's 1 x 1 halves need none
FOUR_FILE = "[system]\npoints = -3.0 -1.0 1.0 3.0\n" + "".join(
    f"[condition {i}]\nkind = delta-prime\nbeta = -1.0\n" for i in range(1, 5))

SRC = Path(__file__).parent.parent / "src"
# the expression a fresh interpreter prints to say whether any scipy module loaded
SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
# modules the scipy.linalg package init loads and a LAPACK solve must not
LAPACK_SKIPS = ("scipy.linalg", "scipy.optimize", "scipy._lib._array_api", "numpy.f2py",
                "numpy.testing")
# the package's modules that compute; the CLI and its parsers load each only
# in the subcommand that runs it
SOLVERS = ("line", "measures", "tridiagonal", "certify", "deficiency", "transfer")
# the submodules `import deltaprime` resolves on first attribute access
SUBMODULES = ("certify", "deficiency", "errors", "interactions", "line", "measures", "transfer")
# the functions evaluated once per kappa or per Brent round, on both routes, by
# (module, name) as a generic name could match elsewhere: an import statement
# there would run on every Brent step, so LAPACK is read from the handle
# tridiagonal._lapack loads once; _eigenvalues is the H route's batched
# diagonalization of a round's new kappas, _t_blocks and _halves the delta'
# route's split of each round's T; the state pass solves each cluster's kappa
# (_t_amplitudes, _h_amplitudes, _lift, tridiagonal.eigenvectors) and builds
# the tables and norms of all its kappas at once (_anchored, _norm_squared)
PER_KAPPA = {("line", "_gaps"), ("line", "_tridiagonal"), ("line", "_krein"), ("line", "_eigenvalues"),
             ("line", "_t_blocks"), ("line", "_halves"),
             ("line", "_brent_steps"), ("line", "_lockstep"), ("line", "_values"),
             ("line", "_t_amplitudes"), ("line", "_h_amplitudes"), ("line", "_lift"),
             ("line", "_anchored"), ("line", "_norm_squared"),
             ("tridiagonal", "negatives"), ("tridiagonal", "eigenvalues"), ("tridiagonal", "_bisect"),
             ("tridiagonal", "eigenvectors")}


def fresh_python(*args: str, text: bool = True, cwd=None, **env: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on `args` in `cwd`, importing the package from src/, with `env` added."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=text, timeout=120, cwd=cwd)


def imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "scipy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


def importers(package: str) -> list[str]:
    """file:line of every import of `package` or a module in it in src/deltaprime."""
    found = []
    for path in sorted((SRC / "deltaprime").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [a.name for a in n.names] if isinstance(n, ast.Import) else (
                [f"{n.module}.{a.name}" for a in n.names] if isinstance(n, ast.ImportFrom) else [])
            found += [f"{path.name}:{n.lineno}" for name in names
                      if name == package or name.startswith(package + ".")]
    return found


def package_modules(node: ast.AST) -> list[str]:
    """The deltaprime modules an import statement names, relative or absolute."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("deltaprime.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 1:
        path = node.module or ""
    elif node.level == 0 and (node.module or "").split(".")[0] == "deltaprime":
        path = node.module.partition(".")[2]
    else:
        return []
    return [path.split(".")[0]] if path else [a.name for a in node.names]


def module_scope(node: ast.AST):
    """Every node that runs when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from module_scope(child)


class TestSystemParsing:
    def test_pair_file(self):
        sys = parse_system(PAIR_FILE)
        np.testing.assert_allclose(sys.delta_prime_betas(), [-1.0, -1.0])
        states = find_bound_states(sys, 10.0)
        assert len(states) == 2

    def test_global_rows(self):
        sys = parse_system(NONLOCAL_FILE)
        states = find_bound_states(sys, 10.0)
        assert len(states) == 1
        assert abs(states[0].kappa - 1.9611797513715394) < 1e-9

    def test_lambda_and_b_entries(self):
        sys = parse_system(MIXED_FILE)
        np.testing.assert_allclose(sys.delta_prime_betas(), [-2.0, -1.0])

    def test_empty_points(self):
        sys = parse_system("[system]\npoints =\n")
        assert sys.n_points == 0

    @pytest.mark.parametrize("text", [
        "[system]\npoints = 0.0\n",                                  # no condition
        "[system]\npoints = 0.0\n[condition 1]\nkind = bogus\n",     # bad kind
        "[system]\npoints = 0.0\n[condition 1]\nkind = delta\n",     # missing param
        "[system]\npoints = 0.0\n[global]\nrows = 1 0 0 0\n",        # wrong shape
        "points = 1",                                                # not ini
        "[system]\npoints = 0.0\n[condition 1]\nkind = delta\nalpha = abc\n",   # bad number
        "[system]\npoints = 0.0\n[condition 1]\nkind = b\nmu = 1e\n",            # bad number
    ])
    def test_schema_errors(self, text):
        with pytest.raises(SchemaError):
            parse_system(text)


class TestMeasureParsing:
    def test_cantor(self):
        mu, beta = parse_measure(CANTOR_FILE)
        assert len(mu) == 4
        np.testing.assert_allclose(beta.at_atoms(mu), -1.0)

    def test_atoms_per_atom_beta(self):
        mu, beta = parse_measure(ATOMS_FILE)
        np.testing.assert_allclose(mu.positions, [0.0, 0.7])
        np.testing.assert_allclose(beta.at_atoms(mu), [-1.0, 2.0])

    @pytest.mark.parametrize("text", [
        "[measure]\nkind = cantor\n[beta]\nkind = constant\nvalue = -1\n",   # no depth
        "[measure]\nkind = atoms\natoms = 0.0\n[beta]\nkind = constant\nvalue = -1\n",
        "[measure]\nkind = cantor\ndepth = 1\n[beta]\nkind = per-atom\nvalues = -1\n",
        "[measure]\nkind = cantor\ndepth = 1\n",                             # no beta
        "[measure]\nkind = cantor\ndepth = two\n[beta]\nkind = constant\nvalue = -1\n",
        "[measure]\nkind = cantor\ndepth = 1\n[beta]\nkind = constant\nvalue = x\n",
        "[measure]\nkind = cantor\ndepth = 1\n[beta]\nkind = constant\n",       # no value
    ])
    def test_schema_errors(self, text):
        with pytest.raises(SchemaError):
            parse_measure(text)


class TestCsv:
    def test_metadata_and_determinism(self):
        def render():
            buf = io.StringIO()
            write_csv(buf, ["a", "b"], [[1.0, 2.5], [0.1, -3.0]],
                      {"zeta": 1, "alpha": "x"})
            return buf.getvalue()

        out1, out2 = render(), render()
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0].startswith("# deltaprime ")
        assert lines[1] == "# config: alpha = x"   # sorted keys
        assert lines[2] == "# config: zeta = 1"
        assert lines[3] == "a,b"


class TestCli:
    def test_lambda_table(self, capsys):
        assert main(["interactions", "lambda", "--kind", "delta-prime",
                     "--beta", "-1"]) == 0
        out = capsys.readouterr().out
        assert "(-1+0j)" in out and "Lambda" in out

    def test_lambda_kind_errors(self, capsys):
        assert main(["interactions", "lambda", "--kind", "delta"]) == 2
        assert "kind delta needs --alpha" in capsys.readouterr().err
        assert main(["interactions", "lambda", "--kind", "bogus", "--alpha", "1"]) == 2
        assert "unknown kind 'bogus'" in capsys.readouterr().err
        assert main(["interactions", "lambda", "--kind", "delta-prime-potential",
                     "--gamma", "6"]) == 0
        assert "Lambda[delta-prime-potential]" in capsys.readouterr().out

    def test_compose_degenerate_exits_one(self, capsys):
        rc = main(["interactions", "compose", "--gamma", "2", "--gamma", "-2"])
        assert rc == 1

    def test_compose_pole_exits_one(self, capsys):
        assert main(["interactions", "compose", "--gamma", "2", "--gamma", "1"]) == 1
        captured = capsys.readouterr()
        assert "|gamma| != 2" in captured.err and "gamma =" not in captured.out

    def test_compose_regular(self, capsys):
        assert main(["interactions", "compose", "--gamma", "1.5",
                     "--gamma", "-1.5"]) == 0
        assert "gamma = 0.0" in capsys.readouterr().out

    def test_characteristic(self, capsys):
        assert main(["interactions", "characteristic", "--gamma", "6"]) == 0
        out = capsys.readouterr().out
        assert "0.693147" in out and "s = -1" in out

    def test_approx_complex_coefficient_exits_one(self):
        assert main(["approx", "--family", "4d", "--gamma", "1"]) == 1

    def test_approx_3d_limit(self, tmp_path):
        out = tmp_path / "limit.csv"
        assert main(["approx", "--family", "3d", "--gamma", "0.666666666666667",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "classification,Limit" in text

    def test_approx_5d_presets(self, tmp_path):
        out = tmp_path / "free.csv"
        assert main(["approx", "--family", "5d", "--preset", "free",
                     "--out", str(out)]) == 0
        assert "classification,Limit" in out.read_text()
        out2 = tmp_path / "dir.csv"
        assert main(["approx", "--family", "5d", "--preset", "dirichlet",
                     "--out", str(out2)]) == 0
        assert "dirichlet-decoupling" in out2.read_text()

    def test_spectrum_builtin(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--builtin", "delta-prime-pair",
                     "--beta", "-1", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("kappa")]
        assert len(rows) == 2

    def test_spectrum_empty_system(self, tmp_path):
        f = tmp_path / "empty.ini"
        f.write_text("[system]\npoints =\n")
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--system", str(f), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("kappa")]
        assert rows == []

    def test_spectrum_finds_every_state_without_kappa_max(self, tmp_path):
        # close wells bind deeper than any one alone; no window guess loses one
        f = tmp_path / "found.ini"
        f.write_text("[system]\npoints = 0 0.0962 0.1486\n" + "".join(
            f"[condition {i}]\nkind = delta-prime\nbeta = {b}\n"
            for i, b in enumerate((-3.9678, -4.0866, -3.5949), 1)))
        for extra in ([], ["--kappa-max", "inf"]):
            out = tmp_path / "spectrum.csv"
            assert main(["spectrum", "--system", str(f), "--out", str(out)] + extra) == 0
            lines = out.read_text().splitlines()
            rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("kappa")]
            assert len(rows) == 3
            assert f"# config: kappa_max = {extra[-1] if extra else None}" in lines

    def test_spectrum_non_lagrangian_relation_is_a_domain_error(self, tmp_path, capsys):
        # the verbatim nonlocal conditions: not self-adjoint, so no spectrum
        f = tmp_path / "verbatim.ini"
        f.write_text("[system]\npoints = -1.0 1.0\n[global]\nrows =\n"
                     "    0 0 1 -1  0 0 0 0\n    0 0 0 0  0 0 1 -1\n"
                     "    0 0 2 0  1 -1 0 0\n    0 0 1 -1  1 -1 1 1\n")
        assert main(["spectrum", "--system", str(f), "--kappa-max", "10"]) == 1
        assert "not Lagrangian" in capsys.readouterr().err

    def test_spectrum_weak_delta_prime_is_a_domain_error(self, tmp_path, capsys):
        # beta = -1e-158 binds at kappa ~ 2e158, whose energy overflows
        f = tmp_path / "weak.ini"
        f.write_text("[system]\npoints = 0 0.5\n" + "".join(
            f"[condition {i}]\nkind = delta-prime\nbeta = {b}\n"
            for i, b in enumerate(("-1e-158", "-1.0"), 1)))
        assert main(["spectrum", "--system", str(f)]) == 1
        assert "delta' intensity -1e-158" in capsys.readouterr().err

    def test_spectrum_unconverged_root_is_a_domain_error(self, tmp_path, capsys):
        # Brent's method does not converge next to a delta of -1e10: exit 1, no traceback
        f = tmp_path / "strong.ini"
        f.write_text("[system]\npoints = 0 1\n" + "".join(
            f"[condition {i}]\nkind = delta\nalpha = {a}\n"
            for i, a in enumerate(("-1e10", "-3.0"), 1)))
        assert main(["spectrum", "--system", str(f)]) == 1
        assert capsys.readouterr().err.startswith("domain error: Brent's method on eigenvalue ")

    def test_spectrum_non_finite_relation_names_it(self, tmp_path, capsys):
        # a nan token in the global rows is named, not left to the rank's SVD
        f = tmp_path / "nan.ini"
        f.write_text(NONLOCAL_FILE.replace("1 -1 0 0  1 -1 1 1", "1 -1 0 0  1 nan 1 1"))
        assert main(["spectrum", "--system", str(f)]) == 2
        assert capsys.readouterr().err == "error: relation must be finite, got (nan+0j)\n"

    def test_certify_weak_delta_prime(self, capsys):
        # the trial radius is taken without (beta + eps)^2, which underflows to 0 here
        assert main(["certify", "--positions", "0", "--betas=-1e-200"]) == 0
        out = capsys.readouterr().out
        assert "count = 1\n" in out and "form = -5e-201\n" in out

    def test_spectrum_identical_config_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            main(["spectrum", "--builtin", "nonlocal-example", "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_measure_single_atom_trend(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["measure", "--atoms", "0.0:1.0", "--beta", "-1",
                   "--box-margin", "1", "2", "--grids", "128,256,512",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text().splitlines()
        extra = [l for l in text if ",extrapolated," in l]
        assert len(extra) == 2
        energies = [float(l.split(",")[4]) for l in extra]
        assert abs(energies[-1] + 4.0) < 1e-4
        # in the truncation-dominated regime the larger box is closer
        assert abs(energies[1] + 4.0) < abs(energies[0] + 4.0)

    def test_measure_positive_beta(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["measure", "--cantor-depth", "1", "--beta", "1.0",
                   "--box-margin", "2", "--grids", "64,128", "--out", str(out)])
        assert rc == 0
        extra = [l for l in out.read_text().splitlines() if ",extrapolated," in l]
        assert extra[0].split(",")[3] == "0"

    def test_certify_points(self, capsys):
        assert main(["certify", "--positions", "0,1,2",
                     "--betas=-1,1,-3"]) == 0
        out = capsys.readouterr().out
        assert "count = 2" in out and "secular_count = 2" in out

    def test_certify_cantor(self, capsys):
        assert main(["certify", "--cantor-depth", "2", "--beta", "-1",
                     "--blocks", "2"]) == 0
        out = capsys.readouterr().out
        assert "count = 4" in out

    def test_certify_random_sweep(self, capsys):
        assert main(["certify", "--random-trials", "5", "--seed", "1"]) == 0
        assert "agreement 5/5" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--positions", "0,1,2", "--betas=-1,1,-3"],
        ["--cantor-depth", "2", "--beta", "-1", "--blocks", "2"],
        ["--random-trials", "2", "--seed", "1"],
    ], ids=["points", "cantor", "random"])
    def test_certify_out_file(self, argv, tmp_path, capsys):
        # every mode writes --out, and the file holds what stdout shows without it
        assert main(["certify", *argv]) == 0
        shown = capsys.readouterr().out
        out = tmp_path / "f.txt"
        assert main(["certify", *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == shown

    def test_deficiency_rank(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["deficiency", "--points", "0,1", "--z", "-1",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "# gram_rank = 4 (family size 4)" in text
        assert main(["deficiency", "--points", "0,1", "--z", "-1",
                     "--drop-prime-at", "1", "--out", str(out)]) == 0
        assert "# gram_rank = 3 (family size 3)" in out.read_text()

    def test_deficiency_functional_table(self, capsys):
        assert main(["deficiency", "--points", "0", "--z", "-1"]) == 0
        out = capsys.readouterr().out
        assert "(1-0j)" in out or "(1+0j)" in out  # -mass/z = 1 at z=-1
        assert "0j" in out                          # derivative family row

    def test_usage_error_exit_two(self, capsys):
        assert main(["spectrum"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["measure", "--atoms", "0.0:1.0", "--grids", "4,8"], "need n >= 8"),
        (["interactions", "lambda", "--kind", "transparent", "--lambda0", "0"], "lambda0"),
        (["measure", "--atoms", "0.0:1.0", "--grids", "512,512"], "distinct"),
        (["spectrum", "--builtin", "delta-prime-pair", "--kappa-max", "nan"], "positive"),
        (["approx", "--family", "3d"], "family 3d needs --gamma"),
        (["approx", "--family", "4d"], "family 4d needs --gamma"),
        (["approx", "--family", "5d", "--eps-ratio", "0"], "--eps-ratio"),
        (["certify", "--random-trials", "-3"], "--random-trials"),
        (["certify", "--random-trials", "0"], "--random-trials"),
        (["certify", "--random-trials", "2", "--n-max", "0"], "--n-max"),
        (["certify", "--positions", "0,inf", "--betas=-1,-1"], "finite"),
        (["approx", "--family", "3d", "--gamma", "nan"], "finite"),
        (["approx", "--family", "3d", "--gamma", "0.5", "--lam", "nan"], "finite"),
        (["interactions", "lambda", "--kind", "delta-prime", "--beta", "nan"], "finite"),
        (["spectrum", "--builtin", "delta-prime-pair", "--beta", "nan"], "finite"),
        (["measure", "--atoms", "0.0:inf"], "finite"),
        (["measure", "--atoms", "0.0:1.0", "--box-margin", "inf"], "finite"),
        (["deficiency", "--points", "0,inf", "--z", "-1"], "finite"),
        (["measure", "--atoms", "0.0"], "'position:weight' pairs, got '0.0'"),
        (["measure", "--atoms", "0.0:1.0:2.0"], "'position:weight' pairs, got '0.0:1.0:2.0'"),
        (["measure", "--atoms", "0.0:1.0,2.0"], "got '2.0'"),
        (["interactions", "characteristic", "--gamma", "nan"], "finite"),
        (["interactions", "compose", "--gamma", "nan", "--gamma", "1"], "finite"),
        (["interactions", "compose", "--gamma", "inf", "--gamma", "1"], "finite"),
        # the preset is checked by family_5d alone, which names every preset
        (["approx", "--family", "5d", "--preset", "bogus"], "choose from ['dirichlet', 'free']"),
        # a drop point is one of the points by float equality, or refused
        (["deficiency", "--points", "0,1", "--z", "-1", "--drop-prime-at", "2"],
         "drop_prime_at entry 2.0 is not one of the points"),
        # --lam and --z name themselves and the token, as every other CLI number does
        (["approx", "--family", "3d", "--gamma", "0.5", "--lam", "abc"], "--lam needs numbers, got 'abc'"),
        (["approx", "--family", "3d", "--gamma", "0.5", "--lam", "1,2"], "--lam needs one number, got '1,2'"),
        (["deficiency", "--points", "0,1", "--z", "x1"], "--z needs numbers, got 'x1'"),
        # a repeated point is named, not reported as a rank deficiency
        (["deficiency", "--points", "0,0", "--z", "-1"], "point 0.0 is given twice"),
        # --grids names itself, not the library's parameter
        (["measure", "--atoms", "0:1", "--grids", "8"], "--grids needs at least two distinct grid sizes, got '8'"),
    ])
    def test_library_value_error_exit_two(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, code, message", [
        (["interactions", "b-to-lambda", "--mu", "1e200"], 1, "(0, 0, 0, 1e+200)"),
        (["interactions", "b-to-lambda", "--gamma", "1e200"], 1, "(0, 0, 1e+200, 0)"),
        (["interactions", "b-to-lambda", "--alpha", "1e200", "--beta", "1e200"], 1, "(1e+200, 1e+200, 0, 0)"),
        (["certify", "--cantor-depth", "2", "--beta=-1e300"], 1, "c_k = -2.5e+299"),
        (["approx", "--family", "3d", "--gamma", "0.5", "--eps-count", "3", "--eps-ratio", "1e300"], 2,
         "--eps-ratio 1e+300 raised to --eps-count - 1 = 2"),
        (["approx", "--family", "5d", "--eps-count", "400"], 2, "--eps-ratio 10 raised to --eps-count - 1 = 399"),
        (["spectrum", "--builtin", "delta-prime-pair", "--beta=-1e160"], 1, "delta' intensity -1e+160"),
    ])
    def test_inputs_beyond_the_floats_fail_in_one_line(self, capsys, argv, code, message):
        # each once gave an OverflowError traceback, a NaN or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert err.startswith("domain error: " if code == 1 else "error: ")

    def test_ini_b_kind_beyond_the_floats_is_a_domain_error(self, tmp_path, capsys):
        f = tmp_path / "b.ini"
        f.write_text("[system]\npoints = 0\n[condition 1]\nkind = b\nmu = 1e200\n")
        assert main(["spectrum", "--system", str(f)]) == 1
        assert capsys.readouterr().err == ("domain error: B = (alpha, beta, gamma, mu) = (0, 0, 0, 1e+200) "
                                           "takes the transmission matrix beyond the floats\n")

    @pytest.mark.parametrize("argv", [
        pytest.param(["spectrum", "--system", "{missing}/pair.ini"], id="system"),
        pytest.param(["measure", "--measure", "{missing}/cantor.ini"], id="measure"),
        pytest.param(["measure", "--atoms", "0:1", "--grids", "512,1024",
                      "--out", "{missing}/x.csv"], id="out"),
    ])
    def test_unopenable_file_exit_two(self, capsys, tmp_path, argv):
        # an input file or --out that cannot be opened is a usage error, not a traceback
        missing = tmp_path / "missing"
        assert main([a.format(missing=missing) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err and "No such file" in err

    @pytest.mark.parametrize("argv, option, token", [
        pytest.param(["measure", "--atoms", "0:1,x:1"], "--atoms", "x:1", id="atoms"),
        pytest.param(["measure", "--atoms", "0:1", "--beta-values", "x"], "--beta-values", "x",
                     id="beta-values"),
        pytest.param(["measure", "--atoms", "0:1", "--grids", "8,x"], "--grids", "x", id="grids"),
        pytest.param(["measure", "--atoms", "0:1", "--grids", "8,16.5"], "--grids", "16.5",
                     id="grids-not-integer"),
        pytest.param(["certify", "--positions", "0,x", "--betas=-1,-1"], "--positions", "x",
                     id="positions"),
        pytest.param(["certify", "--positions", "0,1", "--betas=-1,x"], "--betas", "x", id="betas"),
        pytest.param(["deficiency", "--points", "0,x"], "--points", "x", id="points"),
        pytest.param(["deficiency", "--points", "0,1", "--drop-prime-at", "x"], "--drop-prime-at", "x",
                     id="drop-prime-at"),
    ])
    def test_bad_list_entry_names_the_option(self, capsys, argv, option, token):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} needs a comma list of ")
        assert err.rstrip().endswith(f"got {token!r}")

    def test_bad_ini_number_names_its_key(self, capsys, tmp_path):
        path = tmp_path / "m.ini"
        path.write_text(CANTOR_FILE.replace("value = -1.0", "value = x"))
        assert main(["measure", "--measure", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [beta] value needs numbers") and err.rstrip().endswith("got 'x'")

    def test_certify_lists_of_different_lengths_name_both_options(self, capsys):
        assert main(["certify", "--positions", "0,1", "--betas=-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --positions and --betas need one entry per point")

    def test_unwritable_out_fails_before_the_solve(self, capsys, tmp_path, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("the solve ran before --out was checked")

        monkeypatch.setattr("deltaprime.measures.negative_spectrum", solve)
        missing = tmp_path / "missing" / "x.csv"
        assert main(["measure", "--cantor-depth", "3", "--beta", "-1",
                     "--grids", "512,1024", "--out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err

    def test_out_may_name_the_system_file(self, tmp_path):
        # the system is read before --out is written over
        f = tmp_path / "pair.ini"
        f.write_text(PAIR_FILE)
        assert main(["spectrum", "--system", str(f), "--kappa-max", "20", "--out", str(f)]) == 0
        lines = f.read_text().splitlines()
        assert f"# config: system_file = {f}" in lines
        assert len([l for l in lines if l and l[0].isdigit()]) == 2

    def test_failed_solve_leaves_out_unchanged(self, tmp_path, capsys):
        f = tmp_path / "weak.ini"
        f.write_text("[system]\npoints = 0 0.5\n" + "".join(
            f"[condition {i}]\nkind = delta-prime\nbeta = {b}\n"
            for i, b in enumerate(("-1e-158", "-1.0"), 1)))
        out = tmp_path / "kept.csv"
        out.write_bytes(b"an earlier report\n")
        assert main(["spectrum", "--system", str(f), "--out", str(out)]) == 1
        assert "delta' intensity -1e-158" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier report\n"

    def test_measure_bytes_independent_of_blas_threads(self):
        argv = ["-m", "deltaprime.cli", "measure", "--cantor-depth", "3",
                "--beta", "-1", "--grids", "512,1024,2048"]
        outs = []
        for threads in ("1", "2"):
            proc = fresh_python(*argv, text=False, OPENBLAS_NUM_THREADS=threads,
                                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_import_leaves_out_scipy(self):
        # scipy loads inside the solves that call it, so the CLI import floor is numpy's
        proc = fresh_python("-c", f"import sys, deltaprime.cli; print({SCIPY_LOADED})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_out_numpy_polynomial(self):
        # the certificate ramp is Horner arithmetic, not a numpy Polynomial
        proc = fresh_python("-c", "import sys, deltaprime.cli; print('numpy.polynomial' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("argv, loads_scipy", [
        pytest.param("interactions characteristic --gamma 6", False, id="interactions"),
        pytest.param("approx --family 5d --preset dirichlet", False, id="approx"),
        pytest.param("certify --positions 0,1,2 --betas=-1,1,-3", False, id="certify-points"),
        pytest.param("certify --cantor-depth 2 --beta -1 --blocks 2", False, id="certify-cantor"),
        pytest.param("deficiency --points 0,1 --z -1 --drop-prime-at 1", False, id="deficiency"),
        # positive control: LAPACK bisection finds the states on the halves of T
        pytest.param("spectrum --system {tmp}/four.ini", True, id="spectrum"),
        # the README pair and its system file: 1 x 1 halves, no LAPACK
        pytest.param("spectrum --builtin delta-prime-pair --beta -1", False, id="spectrum-pair"),
        pytest.param("spectrum --system {tmp}/mysystem.ini --kappa-max 20", False, id="spectrum-system"),
        # positive control: LAPACK bisection finds the Nystrom eigenvalues
        pytest.param("measure --cantor-depth 3 --beta -1 --grids 512,1024,2048", True, id="measure"),
        # H-route states come from numpy's eigh and the package's Brent
        pytest.param("spectrum --builtin nonlocal-example", False, id="spectrum-nonlocal"),
    ])
    def test_only_solves_load_scipy(self, argv, loads_scipy, tmp_path):
        (tmp_path / "four.ini").write_text(FOUR_FILE)
        shutil.copy(GOLDEN / "mysystem.ini", tmp_path)
        code = ("import sys; from deltaprime.cli import main; status = main(sys.argv[1:]); "
                f"print({SCIPY_LOADED}); sys.exit(status)")
        proc = fresh_python("-c", code, *argv.format(tmp=tmp_path).split())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loads_scipy)

    def test_lapack_solves_load_the_core_handle_alone(self, tmp_path):
        # the handle is loaded (LAPACK ran), and none of the package inits it skips
        (tmp_path / "four.ini").write_text(FOUR_FILE)
        code = ("import sys; from deltaprime.cli import main; from deltaprime import tridiagonal; "
                "status = main(sys.argv[1:]); "
                f"print(tridiagonal._LAPACK is not None, [m for m in {LAPACK_SKIPS} if m in sys.modules]); "
                "sys.exit(status)")
        for argv in (f"spectrum --system {tmp_path}/four.ini",
                     "measure --cantor-depth 3 --beta -1 --grids 512,1024,2048"):
            proc = fresh_python("-c", code, *argv.split())
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "True []", argv

    def test_readme_invocations_leave_out_numpy_ma(self, tmp_path):
        # numpy.ma loads lazily, in np.median or np.unique: no README run calls either;
        # prints the first invocation after which it is loaded
        shutil.copy(GOLDEN / "mysystem.ini", tmp_path)
        code = ("import contextlib, io, sys; from deltaprime.cli import main\n"
                f"for cmd in {[cmd for _, cmd, _ in INVOCATIONS]}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(cmd.split()) == 0, cmd\n"
                "    if 'numpy.ma' in sys.modules:\n"
                "        sys.exit(cmd)\n")
        proc = fresh_python("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_no_module_imports_scipy_linalg(self):
        # LAPACK comes from tridiagonal._lapack, which loads the extension by its file
        assert importers("scipy.linalg") == []

    def test_no_module_imports_scipy_optimize(self):
        # Brent's method is line._brent_steps: root finding needs no scipy
        assert importers("scipy.optimize") == []

    def test_scipy_imports_sit_in_solves_not_per_kappa(self):
        module_level, per_kappa, seen = [], [], set()
        for path in sorted((SRC / "deltaprime").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            module_level += [f"{path.name}:{n.lineno}" for n in module_scope(tree)
                             if imports_scipy(n)]
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) in PER_KAPPA:
                    seen.add((path.stem, fn.name))
                    per_kappa += [f"{path.name}:{n.lineno} in {fn.name}" for n in ast.walk(fn)
                                  if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert seen == PER_KAPPA          # a renamed function must not empty the guard
        assert module_level == [], "module-level scipy import"
        assert per_kappa == [], "import statement in a per-kappa function"

    @pytest.mark.parametrize("argv, solvers", [
        pytest.param("interactions characteristic --gamma 6", [], id="interactions"),
        pytest.param("approx --family 5d --preset dirichlet", ["transfer"], id="approx"),
        pytest.param("spectrum --builtin delta-prime-pair --beta -1", ["line", "tridiagonal"],
                     id="spectrum"),
        pytest.param("measure --cantor-depth 3 --beta -1 --grids 512,1024,2048",
                     ["measures", "tridiagonal"], id="measure"),
        pytest.param("certify --positions 0,1,2 --betas=-1,1,-3",
                     ["certify", "line", "tridiagonal"], id="certify"),
        pytest.param("deficiency --points 0,1 --z -1 --drop-prime-at 1",
                     ["deficiency", "measures", "tridiagonal"], id="deficiency"),
    ])
    def test_each_command_loads_only_its_solvers(self, argv, solvers):
        code = ("import sys; from deltaprime.cli import main; status = main(sys.argv[1:]); "
                "print(sorted(m.split('.')[1] for m in sys.modules if m.startswith('deltaprime.'))); "
                "sys.exit(status)")
        proc = fresh_python("-c", code, *argv.split())
        assert proc.returncode == 0, proc.stderr
        loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
        assert [m for m in loaded if m in SOLVERS] == solvers

    def test_package_import_loads_no_submodule(self):
        code = ("import sys, deltaprime; "
                "print(sorted(m for m in sys.modules if m.startswith('deltaprime.'))); "
                f"print([getattr(deltaprime, n).__name__ for n in {SUBMODULES}]); "
                f"print([n for n in {SUBMODULES} if n not in dir(deltaprime)])")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[]", str([f"deltaprime.{n}" for n in SUBMODULES]), "[]"]
        import deltaprime

        with pytest.raises(AttributeError, match="nosuch"):
            deltaprime.nosuch

    def test_front_end_imports_no_solver_at_module_scope(self):
        found = []
        for name in ("cli.py", "configio.py"):
            tree = ast.parse((SRC / "deltaprime" / name).read_text(), filename=name)
            found += [f"{name}:{n.lineno} {m}" for n in module_scope(tree)
                      for m in package_modules(n) if m in SOLVERS]
        assert found == []

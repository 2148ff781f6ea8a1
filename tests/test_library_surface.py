"""Every public name of the library has a user: code, the README or a reason;
and outside data meet one finite-input rule, which names the first bad value."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from deltaprime.configio import parse_system
from deltaprime.interactions import TransmissionMatrix
from deltaprime.measures import AtomicMeasure, BetaFunction, GreenKernel
from deltaprime.transfer import DeltaComb, comb_transfer, free_propagator

from code_lines import code_lines

ROOT = Path(__file__).resolve().parents[1]

# public names that no code in src/ or perfbench/ calls and the README does
# not name; each reason is the paper's definition, a README citation or a
# reference that tests compare against
KEPT = {
    "certify.quadratic_form_point": "paper: the closed-form quadratic form of a point trial function",
    "deficiency.element_eval": "paper: the defect elements g_z*mu and (g_z*mu)' point by point",
    "deficiency.inner_product": "reference: the closed-form Gram matrices are compared against it",
    "interactions.boundary_form": "paper: the boundary form whose Lagrangian planes are self-adjoint",
    "interactions.compose": "README: the composition laws of the canonical kinds",
    "interactions.characteristic_to_gamma": "README: the chart change, inverse of gamma_to_characteristic",
    "interactions.eta_to_mu": "README: the chart change, inverse of mu_to_eta",
    "interactions.unitary_of_lambda": "README: the Cayley unitary of a transmission matrix",
    "interactions.split_unitary": "README: the Cayley unitary of split conditions",
    "interactions.u_hat_from_u": "README: the chart change between Cayley unitaries",
    "interactions.u_from_u_hat": "README: the chart change, inverse of u_hat_from_u",
    "line.from_kinds": "README: a per-point PointSystem from the canonical kinds",
    "line.characteristic_root": "README: the Brent root of the characteristic equation, one of three routes",
    "line.boundary_form_defect": "README: the exact boundary-form defect of a condition plane",
    "measures.PiecewiseFunction": "paper: the mu-boundary data of a function given by its pieces",
    "measures.green_kernel_value": "paper: the Green kernel G(x, s), reference for the kernel diagonal",
    "transfer.pc_transfer": "README: the piecewise-constant propagators",
}


def _public_definitions():
    for path in sorted((ROOT / "src" / "deltaprime").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _names_used_in_code():
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_user_or_a_reason():
    used, readme = _names_used_in_code(), (ROOT / "README.md").read_text()
    unused = {key for key, name in _public_definitions()
              if name not in used and not re.search(rf"\b{name}\b", readme)}
    assert sorted(unused - KEPT.keys()) == [], "delete these, or keep them with a reason"
    # a kept name that gained a user, or is gone, leaves the list
    assert sorted(KEPT.keys() - unused) == []
    assert all(reason.split(": ")[0] in ("paper", "README", "reference") for reason in KEPT.values())


MU = AtomicMeasure([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
NAN_POINTS = "[system]\npoints = 0 nan inf\n" + "".join(
    f"[condition {k}]\nkind = delta\nalpha = 1\n" for k in (1, 2, 3))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: TransmissionMatrix([[1.0, np.nan], [np.inf, 1.0]]),
                 "transmission matrix entries must be finite, got (nan+0j)", id="TransmissionMatrix"),
    pytest.param(lambda: free_propagator(0.5, [1.0, np.inf, np.nan]),
                 "lam must be finite, got (inf+0j)", id="free_propagator"),
    pytest.param(lambda: comb_transfer(DeltaComb([0.0, 1.0], [1.0, -1.0]), complex(1.0, np.nan)),
                 "lam must be finite, got (1+nanj)", id="comb_transfer"),
    # beta is checked once, when it is built
    pytest.param(lambda: BetaFunction([-1.0, np.nan, np.inf]),
                 "beta must be finite, got nan", id="BetaFunction"),
    pytest.param(lambda: BetaFunction.constant(-np.inf),
                 "beta must be finite, got -inf", id="BetaFunction-constant"),
    pytest.param(lambda: GreenKernel(-1.0, np.inf, MU, BetaFunction.constant(-1.0)),
                 "box ends must be finite, got inf", id="GreenKernel"),
    pytest.param(lambda: parse_system(NAN_POINTS), "points must be finite, got nan", id="ini-points"),
])
def test_non_finite_input_names_its_first_bad_value(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_the_finite_rule_has_one_home():
    # every finite check of outside data goes through errors._checked_floats
    homes = [path.name for path in sorted((ROOT / "src" / "deltaprime").glob("*.py"))
             if "must be finite" in path.read_text()]
    assert homes == ["errors.py"]


def test_code_lines_count_token_lines_only():
    # the figure quoted for simplicity changes: a docstring, a comment and a blank
    # line count nothing; each line of a continued statement counts once
    snippet = ('"""Module docstring,\nover two lines."""\n'
               "# a comment\n"
               "\n"
               "def f(x):\n"
               '    """Docstring."""\n'
               "    return (x +   # a trailing comment\n"
               "            1)\n"
               's = """a string\nthat is no docstring"""\n')
    assert code_lines(snippet) == 5

"""Every public name of the library has a user: code, the README or a reason."""

import ast
import re
from pathlib import Path

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

"""One-dimensional Schrodinger operators with delta'-type interactions.

Subpackages by theme: `interactions` (one-point boundary-condition
algebra), `transfer` (delta combs, piecewise potentials, approximation
families), `line` (bound states of point systems on the full line),
`certify` (variational trial functions and certified counts),
`measures` (atomic measures, the Green kernel and its Nystrom spectra),
`deficiency` (deficiency-subspace elements and Gram ranks), `cli`
(the command-line front end).

`import deltaprime` loads no submodule: each one is imported on first
attribute access (PEP 562), so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("certify", "deficiency", "errors", "interactions", "line", "measures", "transfer")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})

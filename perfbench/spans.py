"""In-memory span recorder for the traced run.

`Recorder.install` replaces every module-level public function of the
layer modules with a wrapper that records a span (name, start, end,
parent) around the call, and rebinds the same function wherever another
deltaprime module imported it by name.  The library's internal calls go
through those module globals, so `negative_spectrum -> discretize` and
`secular_value -> secular_values` appear as parent and child.  Nothing
in the library changes; `uninstall` restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("measures", "line", "certify", "transfer", "deficiency")

# per-span extras, read from arguments or the result
_META = {
    "measures.discretize": lambda args, kw, out: {"n": int(out.matrix.shape[0])},
    "line.secular_values": lambda args, kw, out: {"kappas": int(out.size)},
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, meta]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        meta = _META.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kw)
            except Exception as exc:
                spans[idx][4] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if meta is not None:
                spans[idx][4] = meta(args, kw, out)
            return out

        return wrapper

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"deltaprime.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "deltaprime" and not modname.startswith("deltaprime."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def take(self) -> list[list]:
        """Spans recorded since the last call, then forget them."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list[list]) -> dict[str, float]:
    """Layer figures of one problem execution.

    busy = summed duration of a function's outermost spans; self = span
    minus the time its child spans cover.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    def outermost(i):
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    busy: dict[str, float] = {}
    selft: dict[str, float] = {}
    calls: dict[str, int] = {}
    scan_s = scan_k = dense = 0.0
    rejected = 0
    for i, (name, t0, t1, parent, meta) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if outermost(i):
            busy[name] = busy.get(name, 0.0) + (t1 - t0)
            selft[name] = selft.get(name, 0.0) + (t1 - t0 - child[i])
        if name == "line.secular_values" and parent >= 0 and spans[parent][0] == "line.find_bound_states":
            scan_s += t1 - t0
            scan_k += meta["kappas"] if meta else 0
        if name == "measures.discretize" and meta and "n" in meta:
            dense += 8.0 * meta["n"] ** 2
        if name == "line.eigenfunction" and meta and meta.get("raised") == "NotAnEigenvalue":
            rejected += 1

    return {
        "measures.discretize.busy_s": busy.get("measures.discretize", 0.0),
        "measures.discretize.calls": calls.get("measures.discretize", 0),
        "measures.negative_spectrum.self_s": selft.get("measures.negative_spectrum", 0.0),
        "measures.dense_bytes_computed": dense,
        "line.find_bound_states.busy_s": busy.get("line.find_bound_states", 0.0),
        "line.find_bound_states.calls": calls.get("line.find_bound_states", 0),
        "line.scan.busy_s": scan_s,
        "line.scan.kappas": scan_k,
        "line.secular_value.calls": calls.get("line.secular_value", 0),
        "line.secular_value.busy_s": busy.get("line.secular_value", 0.0),
        "line.eigenfunction.busy_s": busy.get("line.eigenfunction", 0.0),
        "line.eigenfunction.calls": calls.get("line.eigenfunction", 0),
        "line.eigenfunction.rejected": rejected,
        "certify.certify_count_points.self_s": selft.get("certify.certify_count_points", 0.0),
        "certify.certify_count_measure.busy_s": busy.get("certify.certify_count_measure", 0.0),
        "transfer.comb_transfer.busy_s": busy.get("transfer.comb_transfer", 0.0),
        "transfer.comb_transfer.calls": calls.get("transfer.comb_transfer", 0),
        "transfer.limit_diagnose.self_s": selft.get("transfer.limit_diagnose", 0.0),
        "deficiency.gram_rank.busy_s": busy.get("deficiency.gram_rank", 0.0),
        "deficiency.inner_product.calls": calls.get("deficiency.inner_product", 0),
    }

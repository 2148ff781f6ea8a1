"""Config-file schemas and deterministic CSV output.

System description (INI):

    [system]
    points = -1.0 1.0

    [condition 1]            ; one section per point, 1-based
    kind = delta-prime       ; delta | delta-prime | delta-prime-potential |
                             ; delta-magnetic | transparent | lambda | b
    beta = -1.0              ; parameter per kind: alpha|beta|gamma|mu|lambda0
    ; kind = lambda: entries = l11 l12 l21 l22   (complex tokens allowed)
    ; kind = b:      alpha/beta/gamma/mu keys

    [global]                 ; alternative to the condition sections
    rows =
        0 0 1 -1  0 0 0 0
        ...                  ; 2N rows, 4N entries each, trace order per
                             ; point (v+, v-, d+, d-), point-major

Measure description (INI):

    [measure]
    kind = cantor            ; cantor | atoms
    depth = 3
    interval = 0 1
    ; kind = atoms: atoms = one "position weight" pair per line

    [beta]
    kind = constant          ; constant | per-atom
    value = -1.0
    ; kind = per-atom: values = -1 -2 ...

Every CSV starts with '# deltaprime <version>' and '# config: ...'
comment lines carrying the fully resolved configuration, so identical
configs produce bit-identical files.
"""

from __future__ import annotations

import io
from typing import Sequence

import numpy as np

from . import __version__
from .errors import SchemaError
from .interactions import (
    Delta,
    DeltaMagnetic,
    DeltaPrime,
    DeltaPrimePotential,
    SelfAdjointB,
    Transparent,
    TransmissionMatrix,
    lambda_of,
)

KIND_PARAMS = {
    "delta": ("alpha", Delta),
    "delta-prime": ("beta", DeltaPrime),
    "delta-prime-potential": ("gamma", DeltaPrimePotential),
    "delta-magnetic": ("mu", DeltaMagnetic),
    "transparent": ("lambda0", Transparent),
}


def _numbers(text: str, where: str, parse=float, what: str = "numbers",
             comma_list: bool = False) -> list:
    """The tokens of text, each read by parse: the entries of a CLI comma list,
    else the space- or comma-separated tokens of an INI value.  A SchemaError
    names where (the option, or the section and key) and the first token parse
    rejects."""
    if comma_list:
        tokens, what = text.split(","), f"a comma list of {what}"
    else:
        tokens = text.replace(",", " ").split()
    out = []
    for tok in tokens:
        try:
            out.append(parse(tok))
        except ValueError:
            raise SchemaError(f"{where} needs {what}, got {tok!r}") from None
    return out


def _one(text: str, where: str, parse=float):
    """The one token of text, read by parse; a SchemaError names where otherwise."""
    vals = _numbers(text, where, parse)
    if len(vals) != 1:
        raise SchemaError(f"{where} needs one number, got {text!r}")
    return vals[0]


def _scalar(sec: configparser.SectionProxy, key: str, fallback: str | None = None) -> float:
    """The one number under key in sec, or fallback if the key is absent;
    without a fallback the key is required."""
    where = f"[{sec.name}] {key}"
    text = sec.get(key, fallback)
    if text is None:
        raise SchemaError(f"{where} is missing")
    return _one(text, where)


def _read_ini(text: str) -> configparser.ConfigParser:
    import configparser

    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise SchemaError(f"malformed config: {exc}") from exc
    return cp


def parse_system(text: str) -> PointSystem:
    from .line import PointSystem

    cp = _read_ini(text)
    if "system" not in cp:
        raise SchemaError("missing [system] section")
    points = _numbers(cp["system"].get("points", ""), "[system] points")
    if not points:
        return PointSystem([])
    n = len(points)

    if "global" in cp:
        rows_text = cp["global"].get("rows", "").strip()
        rows = [_numbers(line, "[global] rows", complex)
                for line in rows_text.splitlines() if line.strip()]
        if len(rows) != 2 * n or any(len(r) != 4 * n for r in rows):
            raise SchemaError(f"[global] rows must be {2*n} lines of {4*n} entries")
        return PointSystem(points, relation=np.array(rows, dtype=complex))

    mats = []
    for k in range(1, n + 1):
        sec = f"condition {k}"
        if sec not in cp:
            raise SchemaError(f"missing [{sec}] section")
        kind = cp[sec].get("kind", "").strip().lower()
        if kind in KIND_PARAMS:
            pname, ctor = KIND_PARAMS[kind]
            mats.append(lambda_of(ctor(_scalar(cp[sec], pname))))
        elif kind == "lambda":
            vals = _numbers(cp[sec].get("entries", ""), f"[{sec}] entries", complex)
            if len(vals) != 4:
                raise SchemaError(f"[{sec}] entries must hold 4 values row-major")
            mats.append(TransmissionMatrix(np.array(vals).reshape(2, 2)))
        elif kind == "b":
            keys = ("alpha", "beta", "gamma", "mu")
            mats.append(lambda_of(SelfAdjointB(*(_scalar(cp[sec], k, "0") for k in keys))))
        else:
            raise SchemaError(f"[{sec}] has unknown kind {kind!r}")
    return PointSystem(points, lambdas=mats)


def parse_measure(text: str) -> tuple[AtomicMeasure, BetaFunction]:
    from .measures import AtomicMeasure, BetaFunction, cantor_measure

    cp = _read_ini(text)
    if "measure" not in cp:
        raise SchemaError("missing [measure] section")
    sec = cp["measure"]
    kind = sec.get("kind", "").strip().lower()
    if kind == "cantor":
        depth = _scalar(sec, "depth")
        if not (depth >= 0 and depth.is_integer()):
            raise SchemaError("[measure] cantor needs an integer depth >= 0")
        iv = _numbers(sec.get("interval", "0 1"), "[measure] interval")
        if len(iv) != 2:
            raise SchemaError("[measure] interval needs two endpoints")
        mu = cantor_measure(int(depth), (iv[0], iv[1]))
    elif kind == "atoms":
        pairs = [
            _numbers(line, "[measure] atoms") for line in sec.get("atoms", "").splitlines()
            if line.strip()
        ]
        if not pairs or any(len(p) != 2 for p in pairs):
            raise SchemaError("[measure] atoms needs 'position weight' lines")
        mu = AtomicMeasure([p[0] for p in pairs], [p[1] for p in pairs])
    else:
        raise SchemaError(f"[measure] unknown kind {kind!r}")

    if "beta" not in cp:
        raise SchemaError("missing [beta] section")
    bsec = cp["beta"]
    bkind = bsec.get("kind", "").strip().lower()
    if bkind == "constant":
        beta = BetaFunction.constant(_scalar(bsec, "value"))
    elif bkind == "per-atom":
        vals = _numbers(bsec.get("values", ""), "[beta] values")
        if len(vals) != len(mu):
            raise SchemaError("[beta] values must match the atom count")
        beta = BetaFunction(vals)
    else:
        raise SchemaError(f"[beta] unknown kind {bkind!r}")
    return mu, beta


# ---------------------------------------------------------------------------
# deterministic CSV
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (complex, np.complexfloating)):
        return repr(complex(x))
    return str(x)


def write_csv(stream: io.TextIOBase, header: Sequence[str],
              rows: Sequence[Sequence], config: dict) -> None:
    stream.write(f"# deltaprime {__version__}\n")
    for key in sorted(config):
        stream.write(f"# config: {key} = {config[key]}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(fmt(v) for v in row) + "\n")

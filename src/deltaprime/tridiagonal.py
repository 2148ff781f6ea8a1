"""Symmetric tridiagonal matrices (diag, off): the negative count, the
eigenvalues and eigenvectors by index and their resolution, for the delta'
T(kappa) of line and the Nystrom inverse of measures, which each build their own.

Counts are Sylvester inertia; eigenvalues are LAPACK's Sturm bisection,
dstebz, and eigenvectors its inverse iteration, dstein, through _lapack, the
one handle to scipy's compiled LAPACK, so no caller imports scipy.
"""

from __future__ import annotations

import math
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import DomainError

_LAPACK = None   # scipy's compiled LAPACK extension, once _lapack has loaded it


def negatives(diag: np.ndarray, off: np.ndarray) -> int:
    """Number of negative eigenvalues, the signs of the LDL^T pivots.  A
    zero pivot counts as negative, as in LAPACK's bisection.  A square of the
    off-diagonal beyond the floats can flip the next pivot's sign, and an
    entry beyond them a NaN pivot, which reads as non-negative and makes
    every later pivot NaN: either raises DomainError."""
    count, pivot, squares = 0, 1.0, [0.0] + (off * off).tolist()
    for a, b2 in zip(diag.tolist(), squares):
        pivot = a - b2 / pivot
        if pivot == 0.0:
            pivot = -sys.float_info.min   # a Python float: the next b2 / pivot is -inf, no warning
        count += pivot < 0.0
    if math.isnan(pivot) or math.inf in squares:
        raise DomainError("the signs of the LDL^T pivots are lost: the matrix or a square "
                          "of its off-diagonal is beyond the floats")
    return count


def eigenvalues(diag: np.ndarray, off: np.ndarray, first: int, last: int) -> np.ndarray:
    """Ordered eigenvalues first..last (from 0, inclusive) by dstebz, called as scipy's
    tridiagonal eigensolver calls it for values by index, so with the same digits, but
    without the input checks that cost more than the bisection on a few points."""
    if diag.size == 1:
        return diag.copy()                      # dstebz takes no empty off
    return _bisect(diag, off, first, last, "E")[0]


def eigenvectors(diag: np.ndarray, off: np.ndarray, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordered eigenvalues first..last and their orthonormal eigenvectors as columns,
    by dstebz in block order, dstein and a sort, as scipy's tridiagonal eigensolver
    computes them for vectors by index, so with the same digits and without its checks."""
    if diag.size == 1:
        return diag.copy(), np.ones((1, 1))
    w, iblock, isplit = _bisect(diag, off, first, last, "B")
    v, info = _lapack().dstein(diag, off, w, iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"inverse iteration on T failed (LAPACK info={info})")
    order = np.argsort(w)
    return w[order], v[:, order]


def _bisect(diag, off, first, last, order: str):
    """dstebz's eigenvalues first..last in `order` ("E" sorted, "B" by block), with
    the block and split indices dstein reads.  Where dstebz cannot bracket the index
    range (INFO = 2, as for eigenvalues equal to the last bit in two blocks of a T
    that splits), it bisects them all and first..last of them are kept."""
    m, w, iblock, isplit, info = _lapack().dstebz(diag, off, 2, 0.0, 0.0, first + 1, last + 1, 0.0, order)
    if info == 2:
        m, w, iblock, isplit, info = _lapack().dstebz(diag, off, 0, 0.0, 0.0, 0, 0, 0.0, order)
        rank = np.argsort(np.argsort(w, kind="stable"), kind="stable")
        # all N were found: the kept ones go first, in their order, as dstein reads
        # the first m eigenvalues and blocks
        kept_first = np.argsort((rank < first) | (rank > last), kind="stable")
        w, iblock, m = w[kept_first], iblock[kept_first], last - first + 1
    if info:
        raise np.linalg.LinAlgError(f"bisection on T failed (LAPACK info={info})")
    return w[:m], iblock, isplit


def _lapack():
    """scipy's compiled LAPACK, scipy/linalg/_flapack, loaded once from its file after
    the top-level scipy init, which sets up the bundled libraries, so scipy.linalg's
    package init never runs.  The handle stays out of sys.modules and scipy's namespace,
    so scipy.linalg inits its own copy.  Relies on scipy's file layout, checked on 1.17.1."""
    global _LAPACK
    if _LAPACK is None:
        import scipy
        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = PathFinder.find_spec("_flapack", [where])
        if spec is None:
            raise ImportError(f"no compiled LAPACK extension _flapack in {where}")
        module = module_from_spec(spec)
        sys.modules.pop(spec.name, None)        # where CPython enters a single-phase extension
        spec.loader.exec_module(module)
        _LAPACK = module
    return _LAPACK


def resolution(diag: np.ndarray, off: np.ndarray) -> float:
    """eps ||T||, ||T|| by Gershgorin: the absolute accuracy of a bisection eigenvalue."""
    return np.finfo(float).eps * (np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0))

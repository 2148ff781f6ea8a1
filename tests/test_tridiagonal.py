"""The tridiagonal core against LAPACK: the count, eigenvalues and eigenvectors by
index, the resolution, and the core's own handle to scipy's compiled LAPACK."""

import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from deltaprime import tridiagonal
from test_configio_cli import fresh_python


@st.composite
def integer_tridiagonals(draw):
    """(diag, off), n = 1..10, small integers times one power of two: the
    scaling is exact, so the many exact zero pivots of small integers stay."""
    n = draw(st.integers(1, 10))
    ints = lambda size: np.array(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)),
                                 dtype=float)
    scale = 2.0 ** draw(st.integers(-30, 30))
    return scale * ints(n), scale * ints(n - 1)


@st.composite
def float_tridiagonals(draw):
    """(diag, off), n = 1..10, with entries of any sign and size up to 1e6."""
    n = draw(st.integers(1, 10))
    floats = st.floats(-1e6, 1e6, allow_subnormal=False)
    return (np.array(draw(st.lists(floats, min_size=n, max_size=n))),
            np.array(draw(st.lists(floats, min_size=n - 1, max_size=n - 1))))


class TestNegatives:
    @settings(max_examples=300, deadline=None)
    @given(t=integer_tridiagonals())
    # a zero pivot, then b^2 / pivot overflows: a count, not a numpy warning
    @example(t=(np.array([0.0, 2.0, 0.0]), np.array([-3.0, -3.0])))
    def test_matches_the_lapack_count_with_zero_as_negative(self, t):
        # eigenvalues in (vl, 0] by bisection, so an exact zero counts, as a zero pivot does
        diag, off = t
        vl = -np.abs(diag).max() - 2.0 * np.abs(off).max(initial=0.0) - 1.0
        lapack = eigh_tridiagonal(diag, off, eigvals_only=True, select="v", select_range=(vl, 0.0))
        assert tridiagonal.negatives(diag, off) == lapack.size

    def test_lone_zero_is_negative(self):
        assert tridiagonal.negatives(np.zeros(1), np.zeros(0)) == 1


class TestEigenvalues:
    @settings(max_examples=300, deadline=None)
    @given(t=st.one_of(integer_tridiagonals(), float_tridiagonals()),
           picks=st.tuples(st.integers(0, 9), st.integers(0, 9)))
    # dstebz fails to converge (info=2) on eigenvalue 4 of this integer matrix
    @example(t=(np.array([0.0, 2.0, 2.0, -2.0, 0.0, -2.0]), np.array([0.0, 0.0, 2.0, 0.0, 1.0])),
             picks=(4, 4))
    def test_bit_identical_to_eigh_tridiagonal(self, t, picks):
        # the contract that keeps the digits the measure golden files pin
        diag, off = t
        first, last = sorted(min(p, diag.size - 1) for p in picks)
        try:
            want = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                    select_range=(first, last))
        except np.linalg.LinAlgError:
            # dstebz failed: so must the direct call
            with pytest.raises(np.linalg.LinAlgError):
                tridiagonal.eigenvalues(diag, off, first, last)
            return
        got = tridiagonal.eigenvalues(diag, off, first, last)
        assert got.tobytes() == want.tobytes()


class TestEigenvectors:
    @settings(max_examples=300, deadline=None)
    @given(t=st.one_of(integer_tridiagonals(), float_tridiagonals()), data=st.data())
    def test_bit_identical_to_eigh_tridiagonal(self, t, data):
        # the contract that keeps the delta' states of line bit for bit
        diag, off = t
        first = data.draw(st.integers(0, diag.size - 1))
        last = data.draw(st.integers(first, diag.size - 1))
        try:
            want = eigh_tridiagonal(diag, off, select="i", select_range=(first, last))
        except np.linalg.LinAlgError:
            # dstebz or dstein failed: so must the direct calls
            with pytest.raises(np.linalg.LinAlgError):
                tridiagonal.eigenvectors(diag, off, first, last)
            return
        got = tridiagonal.eigenvectors(diag, off, first, last)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestResolution:
    @settings(max_examples=300, deadline=None)
    @given(t=st.one_of(integer_tridiagonals(), float_tridiagonals()))
    def test_bounds_eps_times_the_spectral_radius(self, t):
        diag, off = t
        radius = np.abs(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))).max()
        assert tridiagonal.resolution(diag, off) >= np.finfo(float).eps * radius


# a fresh interpreter: a delta' solve loads the core's handle, then scipy.linalg
# inits its own copy of the extension, and the two give the same bytes
REVERSE_ORDER = """
import sys
import numpy as np
from deltaprime import tridiagonal
from deltaprime.line import delta_prime_system, find_bound_states
assert len(find_bound_states(delta_prime_system([0.0, 1.0], [-1.0, -1.0]))) == 2
assert tridiagonal._LAPACK is not None and 'scipy.linalg' not in sys.modules
from scipy.linalg import eigh_tridiagonal
rng = np.random.default_rng(20)
for n in (2, 3, 8, 33, 200):
    diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
    first, last = sorted(rng.integers(0, n, 2).tolist())
    want = eigh_tridiagonal(diag, off, select='i', select_range=(first, last))
    got = tridiagonal.eigenvectors(diag, off, first, last)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), n
    want = eigh_tridiagonal(diag, off, eigvals_only=True, select='i', select_range=(first, last))
    assert tridiagonal.eigenvalues(diag, off, first, last).tobytes() == want.tobytes(), n
print('same bytes')
"""


class TestLapackHandle:
    def test_loaded_once_apart_from_scipy_linalg_and_sys_modules(self):
        handle = tridiagonal._lapack()
        assert handle is tridiagonal._lapack()          # loaded once, then kept
        assert handle is not scipy.linalg.lapack._flapack
        assert all(m is not handle for m in list(sys.modules.values()))

    def test_dstebz_and_dstein_bytes_match_scipy_linalg_lapack(self):
        handle, rng = tridiagonal._lapack(), np.random.default_rng(20)
        as_bytes = lambda outputs: [np.asarray(o).tobytes() for o in outputs]
        for n in (2, 3, 8, 33, 200):
            diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
            off[rng.integers(0, n - 1)] = 0.0           # a split, so dstein sees two blocks
            first, last = sorted(rng.integers(1, n + 1, 2).tolist())
            for order in ("E", "B"):
                args = (diag, off, 2, 0.0, 0.0, first, last, 0.0, order)
                got = handle.dstebz(*args)
                assert as_bytes(got) == as_bytes(scipy.linalg.lapack.dstebz(*args))
            m, w, iblock, isplit, _ = got
            args = (diag, off, w[:m], iblock, isplit)
            assert as_bytes(handle.dstein(*args)) == as_bytes(scipy.linalg.lapack.dstein(*args))

    def test_reverse_import_order_gives_the_same_bytes(self):
        proc = fresh_python("-c", REVERSE_ORDER)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "same bytes"

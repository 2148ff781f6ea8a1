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
from deltaprime.errors import DomainError
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


# a split T whose two blocks share eigenvalues to the last bit: dstebz cannot bracket
# index 5 alone (INFO = 2); from a delta' T(kappa) at kappa ~ 140
SPLIT_TWINS = (np.array([-0.1804041435811921, -0.1804041435811921, -0.38076372161217575, 0.014610721925560562,
                         0.014610721925560562, -0.38076372161217575, -0.18040414358119047, -0.18040414358119047]),
               np.array([-9.883722970526929e-03, -2.7561523533429306e-32, -2.7561523533429306e-32,
                         -5.199178954702011e-62, -2.7561523533429306e-32, -2.7561523533429306e-32,
                         -9.883722970528948e-03]))


def assert_true_eigenpairs(diag, off, first, last, lam, vectors=None):
    """lam are eigenvalues first..last of T within 4 eps ||T||, and the columns of
    vectors, if given, orthonormal eigenvectors with residuals within it."""
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    tol = 4.0 * tridiagonal.resolution(diag, off)
    assert lam.shape == (last - first + 1,)
    assert np.abs(lam - np.linalg.eigvalsh(t)[first:last + 1]).max() <= tol
    if vectors is not None:
        assert np.abs(vectors.T @ vectors - np.eye(lam.size)).max() <= 1e-12
        assert np.abs(t @ vectors - vectors * lam).max() <= tol


class TestUnbracketedRange:
    def test_every_index_range_of_split_twins(self):
        diag, off = SPLIT_TWINS
        infos = [tridiagonal._lapack().dstebz(diag, off, 2, 0.0, 0.0, first + 1, last + 1, 0.0, "E")[4]
                 for first in range(8) for last in range(first, 8)]
        assert 2 in infos                   # the fallback runs
        for first in range(8):
            for last in range(first, 8):
                assert_true_eigenpairs(diag, off, first, last, tridiagonal.eigenvalues(diag, off, first, last))
                assert_true_eigenpairs(diag, off, first, last, *tridiagonal.eigenvectors(diag, off, first, last))


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

    @pytest.mark.parametrize("diag, off", [
        ([np.inf, np.inf, 1.0], [-np.inf, -1.0]),      # the delta' T at a subnormal gap
        ([1.0, 1.0, 1.0], [1e200, 1e200]),             # finite, but two squares overflow
        ([1.0, np.nan], [0.5]),
        # one square overflows: the second pivot reads +inf, though -1e200 - 1e320/-1e200 < 0
        ([-1e200, -1e200], [1e160]),
    ])
    def test_lost_pivots_are_refused(self, diag, off):
        # inf / inf or inf - inf makes a pivot NaN, which compares as non-negative
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="signs of the LDL\\^T pivots are lost"):
            tridiagonal.negatives(np.array(diag), np.array(off))


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
            # dstebz could not bracket the range (INFO = 2): the core bisects all N
            assert_true_eigenpairs(diag, off, first, last, tridiagonal.eigenvalues(diag, off, first, last))
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
            # dstebz could not bracket the range, so the core bisects all N, or dstein
            # failed, and so must the core
            try:
                got = tridiagonal.eigenvectors(diag, off, first, last)
            except np.linalg.LinAlgError as e:
                assert "inverse iteration" in str(e)
                return
            assert_true_eigenpairs(diag, off, first, last, *got)
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


# a fresh interpreter: a delta' solve loads the core's handle (a mirror-symmetric
# pair would not: its halves are 1 x 1), then scipy.linalg
# inits its own copy of the extension, and the two give the same bytes
REVERSE_ORDER = """
import sys
import numpy as np
from deltaprime import tridiagonal
from deltaprime.line import delta_prime_system, find_bound_states
assert len(find_bound_states(delta_prime_system([0.0, 1.0], [-1.0, -2.0]))) == 2
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

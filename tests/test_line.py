"""Point systems on the line: secular roots, bound states, counting."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, null_space
from scipy.optimize import brentq

from deltaprime import line, measures, tridiagonal
from deltaprime.errors import DomainError, NotAnEigenvalue, NotSelfAdjoint, SplitHasNoLambda
from deltaprime.interactions import (
    BoundaryTraces,
    Delta,
    DeltaMagnetic,
    DeltaPrime,
    DeltaPrimePotential,
    Split,
    TransmissionMatrix,
    boundary_form,
    compose,
    lambda_of,
)
from deltaprime.line import (
    COTH_EQ,
    TANH_EQ,
    PointSystem,
    boundary_form_defect,
    characteristic_root,
    count_negative,
    delta_prime_pair,
    delta_prime_system,
    find_bound_states,
    from_kinds,
    nonlocal_example,
)
from oracles import certified_count, dense_relation, jump_sum_amplitudes, secular_values

# frozen independent oracles (brentq on the matching equations)
KAPPA_ODD = 1.9611797513715394    # root of k = 1 + tanh k
KAPPA_EVEN = 2.0347648176122246   # root of k = 1 + coth k


def trace_vector(state, points):
    """Stacked (v+, v-, d+, d-) per point for a piecewise-exponential state."""
    out = []
    k = state.kappa
    h = 1e-9
    for p in points:
        vp = state.evaluate(p + h)
        vm = state.evaluate(p - h)
        # one-sided derivatives from the matched representation are exact;
        # finite differences suffice for residual checks at 1e-8
        dp = (state.evaluate(p + 2 * h) - vp) / h
        dm = (vm - state.evaluate(p - 2 * h)) / h
        out.extend([vp, vm, dp, dm])
    return np.array(out)


class TestSecular:
    def test_single_delta_root(self):
        sys = from_kinds([(0.0, Delta(-2.0))])
        states = find_bound_states(sys, 5.0)
        assert len(states) == 1
        assert abs(states[0].kappa - 1.0) < 1e-10
        # sign-scan oracle: exactly one sign change on a dense grid
        ks = np.linspace(0.01, 5, 2000)
        vals = secular_values(sys, ks)
        assert int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))) == 1

    def test_single_delta_prime_root(self):
        sys = from_kinds([(0.0, DeltaPrime(-1.0))])
        states = find_bound_states(sys, 10.0)
        assert len(states) == 1
        assert abs(states[0].kappa - 2.0) < 1e-10

    def test_energy_closed_form(self):
        for b in (-0.5, -1.0, -2.0, -4.0):
            sys = from_kinds([(0.0, DeltaPrime(b))])
            (st,) = find_bound_states(sys, 4.0 * 2.0 / abs(b))
            assert abs(st.energy - (-4.0 / b**2)) < 1e-8 * abs(4.0 / b**2)

    def test_repulsive_delta_has_no_state(self):
        sys = from_kinds([(0.0, Delta(1.0))])
        assert find_bound_states(sys, 8.0) == []

    def test_real_system_gives_real_values(self):
        sys = delta_prime_pair(-1.0)
        vals = secular_values(sys, np.array([0.5, 1.0, 2.0]))
        assert vals.dtype.kind == "f"


class TestPair:
    def test_two_states_with_parities(self):
        states = find_bound_states(delta_prime_pair(-1.0), 10.0)
        assert len(states) == 2
        assert abs(states[0].kappa - KAPPA_EVEN) < 1e-9
        assert abs(states[1].kappa - KAPPA_ODD) < 1e-9
        assert states[0].parity == "even"
        assert states[1].parity == "odd"

    def test_even_state_matches_reference_form(self):
        # cosh profile inside, exponential tail, up to normalization
        states = find_bound_states(delta_prime_pair(-1.0), 10.0)
        st = states[0]
        k = st.kappa
        xs = np.linspace(-0.95, 0.95, 11)
        ref = -np.cosh(k * xs) / np.sinh(k)
        ratio = st.evaluate(0.0) / ref[5]
        assert np.abs(st.evaluate(xs) - ratio * ref).max() < 1e-8 * abs(ratio)
        xt = np.linspace(1.05, 4.0, 7)
        reft = np.exp(-k * (xt - 1.0))
        assert np.abs(st.evaluate(xt) - ratio * reft).max() < 1e-8 * abs(ratio)


class TestNonlocalExample:
    def test_unique_root_at_tanh_equation(self):
        states = find_bound_states(nonlocal_example(), 10.0)
        assert len(states) == 1
        assert abs(states[0].kappa - KAPPA_ODD) < 1e-9
        assert states[0].parity == "odd"

    def test_eigenfunction_matches_reference_shape(self):
        (st,) = find_bound_states(nonlocal_example(), 10.0)
        k = st.kappa
        xs = np.linspace(0.05, 0.95, 10)
        ref = -np.sinh(k * xs) / np.cosh(k)
        ratio = st.evaluate(0.5) / (-np.sinh(k * 0.5) / np.cosh(k))
        assert np.abs(st.evaluate(xs) - ratio * ref).max() < 1e-8 * abs(ratio)
        xt = np.linspace(1.1, 5.0, 9)
        assert np.abs(st.evaluate(xt) - ratio * np.exp(-k * (xt - 1.0))).max() < 1e-8 * abs(ratio)

    def test_boundary_relation_residual(self):
        nl = nonlocal_example()
        (st,) = find_bound_states(nl, 10.0)
        assert st.residual < 1e-8
        v = trace_vector(st, nl.points)
        a = dense_relation(nl, normalized=True)
        assert np.linalg.norm(a @ v) / np.linalg.norm(v) < 1e-6  # FD-twisted traces

    def test_shared_eigenfunction_property(self):
        # the odd state of the nonlocal system satisfies the local pair too
        nl = nonlocal_example()
        (st,) = find_bound_states(nl, 10.0)
        pair = delta_prime_pair(-1.0)
        k = st.kappa
        # exact one-sided traces from the analytic pieces: tails and interior
        a, b = st.interior[0]
        d_in = lambda x: k * (a * np.exp(k * (x - 1.0)) - b * np.exp(-k * (x + 1.0)))
        traces = np.array([
            st.evaluate(-1.0 + 1e-12), st.c_left, d_in(-1.0), k * st.c_left,
            st.c_right, st.evaluate(1.0 - 1e-12), -k * st.c_right, d_in(1.0),
        ])
        amat = dense_relation(pair, normalized=True)
        res = np.linalg.norm(amat @ traces) / np.linalg.norm(traces)
        assert res < 1e-8

    def test_verbatim_conditions_are_not_self_adjoint(self):
        # the verbatim transcription repeats the x1 derivative jump; the
        # plane fails the Lagrangian test and rejects the odd eigenfunction
        verb = nonlocal_example(verbatim=True)
        assert boundary_form_defect(verb) > 0.1
        assert boundary_form_defect(nonlocal_example()) < 1e-12
        with pytest.raises(NotSelfAdjoint):
            find_bound_states(verb, 10.0)
        with pytest.raises(DomainError):
            count_negative(verb, 10.0)
        (st,) = find_bound_states(nonlocal_example(), 10.0)
        k = st.kappa
        a, b = st.interior[0]
        d_in = lambda x: k * (a * np.exp(k * (x - 1.0)) - b * np.exp(-k * (x + 1.0)))
        traces = np.array([
            st.evaluate(-1.0 + 1e-12), st.c_left, d_in(-1.0), k * st.c_left,
            st.c_right, st.evaluate(1.0 - 1e-12), -k * st.c_right, d_in(1.0),
        ])
        amat = dense_relation(verb, normalized=True)
        res = np.linalg.norm(amat @ traces) / np.linalg.norm(traces)
        assert res > 1e-3

    def test_defect_is_the_exact_form_norm(self):
        # sup of |omega(p, q)| over unit traces p, q of the plane is the
        # spectral norm of the form on an orthonormal basis of the plane
        verb = nonlocal_example(verbatim=True)
        basis = null_space(dense_relation(verb))
        traces = [BoundaryTraces(*b.reshape(-1, 4).T) for b in basis.T]
        form = np.array([[boundary_form(p, q).sum() for p in traces] for q in traces])
        assert abs(boundary_form_defect(verb) - np.linalg.norm(form, 2)) < 1e-12

    def test_consistency_with_characteristic_roots(self):
        assert abs(characteristic_root(TANH_EQ) - KAPPA_ODD) < 1e-12
        assert abs(characteristic_root(COTH_EQ) - KAPPA_EVEN) < 1e-12
        (st,) = find_bound_states(nonlocal_example(), 10.0)
        assert abs(st.kappa - characteristic_root(TANH_EQ)) < 1e-6


class TestCounting:
    def test_mixed_signs(self):
        sys = delta_prime_system([0.0, 1.0, 2.0], [-1.0, -2.0, 1.0])
        assert count_negative(sys) == 2

    def test_all_positive(self):
        sys = delta_prime_system([0.0, 1.0], [0.5, 2.0])
        assert count_negative(sys) == 0
        assert count_negative(delta_prime_system([0.0, 1.0], [0.0, 0.0])) == 0

    def test_five_negative(self):
        rng = np.random.default_rng(17)
        pts = np.cumsum(rng.uniform(0.3, 1.0, 5))
        betas = -rng.uniform(0.3, 4.0, 5)
        sys = delta_prime_system(pts, betas)
        assert count_negative(sys) == 5

    def test_randomized_counting_law(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(1, 7))
            pts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.0, n - 1))))
            betas = rng.uniform(0.2, 5.0, n) * rng.choice([-1.0, 1.0], n)
            assert count_negative(delta_prime_system(pts, betas)) == int(np.sum(betas < 0))

    def test_translation_invariance(self):
        pts, betas = np.array([0.0, 0.7, 1.9]), [-1.0, -0.5, -2.5]
        base = [st.kappa for st in find_bound_states(delta_prime_system(pts, betas), 20.0)]
        moved = PointSystem(pts + 13.7, lambdas=[lambda_of(DeltaPrime(b)) for b in betas])
        shifted = [st.kappa for st in find_bound_states(moved, 20.0)]
        np.testing.assert_allclose(base, shifted, atol=1e-10)

    def test_far_pairs_give_two_independent_states(self):
        # identical wells far apart split by ~e^{-2 kappa d}, below rounding:
        # the count still sees two states, and each gets its own null vector
        for d, kappa_max in ((25.0, 8.1), (18.0, 8.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                states = find_bound_states(delta_prime_system([0.0, d], [-1.0, -1.0]), kappa_max)
            assert len(states) == 2
            np.testing.assert_allclose([s.kappa for s in states], 2.0, rtol=1e-12)
            xs = np.linspace(-3.0, d + 3.0, 801)
            sv = np.linalg.svd([s.evaluate(xs) for s in states], compute_uv=False)
            assert sv[-1] > 0.1 * sv[0]

    def test_kappa_max_must_be_positive(self):
        # NaN is rejected too; inf filters nothing
        for sys, total in ((delta_prime_pair(-1.0), 2), (nonlocal_example(), 1)):
            for kappa_max in (-1.0, 0.0, np.nan):
                with pytest.raises(ValueError, match="positive"):
                    count_negative(sys, kappa_max)
                with pytest.raises(ValueError, match="positive"):
                    find_bound_states(sys, kappa_max)
            assert count_negative(sys, np.inf) == len(find_bound_states(sys, np.inf)) == total

    def test_threshold_resonances_are_not_states(self):
        # a zero eigenvalue of H(0) is a zero-energy resonance: the free
        # line (handed over as a global relation, so H(kappa) counts it)
        # and a delta'-potential pair bind nothing
        free = from_kinds([(x, Delta(0.0)) for x in (0.0, 0.5, 2.0)])
        systems = [PointSystem(free.points, relation=dense_relation(free)),
                   from_kinds([(0.0, DeltaPrimePotential(0.7)), (1.0, DeltaPrimePotential(-1.3))])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sys in systems:
                assert count_negative(sys) == 0
                assert find_bound_states(sys) == []
            # a weak delta binds at kappa = -alpha/2, far below any fixed
            # fraction of kappa_max
            (st,) = find_bound_states(from_kinds([(0.0, Delta(-1e-6))]), 1.0)
        assert st.near_threshold
        assert abs(st.kappa - 5e-7) < 1e-12

    def test_count_needs_no_eigenfunctions(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("count_negative extracted eigenfunctions")

        # one system on each route: T for pure delta', H for a global relation
        monkeypatch.setattr(line, "_states", refuse)
        assert count_negative(delta_prime_system([0.0, 25.0], [-1.0, -1.0])) == 2
        assert count_negative(nonlocal_example()) == 1
        # the patch is live: a search extracts through it
        with pytest.raises(AssertionError, match="extracted"):
            find_bound_states(nonlocal_example())

    def test_strong_delta_prime_is_a_domain_error(self):
        # T(kappa) overflows at the window's lower end 1/(N max|beta|): a DomainError
        # naming the intensity and no warning, while the count needs only T(hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sys in (delta_prime_system([0.0, 1.0, 3.0], [-1e200, 2.0, -1.0]), delta_prime_pair(-1e160)):
                with pytest.raises(DomainError, match="intensity -1e\\+(200|160) is too strong"):
                    find_bound_states(sys)
                assert count_negative(sys) == 2
            assert [s.kappa for s in find_bound_states(delta_prime_pair(-1e150))] == [1e-75, 5e-151]

    @pytest.mark.parametrize("g", [1e-310, 1e-315, 5e-324])
    def test_subnormal_gap_count_is_never_a_silent_zero(self, g):
        # T(20) holds inf entries, whose NaN pivots the count read as non-negative:
        # it gave 0 where the merged system, beta -2 at 0 and -1 at 1, binds twice
        merged = find_bound_states(delta_prime_system([0.0, 1.0], [-2.0, -1.0]), 20.0)
        assert [round(s.kappa, 3) for s in merged] == [2.064, 0.881]
        sys = delta_prime_system([0.0, g, 1.0], [-1.0, -1.0, -1.0])
        gap = re.escape(f"the gap {g:.3g} between the points 0.0 and {g!r} is too small")
        for search in (count_negative, find_bound_states):
            with pytest.raises(DomainError, match=gap):
                search(sys, 20.0)
        assert count_negative(sys) == 3

    @pytest.mark.parametrize("g, kappa_max", [(1e-300, None), (1e-300, 0.34), (1e-300, 20.0),
                                              (1e-300, 1e200), (5e-324, None)])
    def test_close_points_errors_name_the_gap(self, g, kappa_max):
        # the two close points bind as one, too deep for the floats: the error names
        # their gap, not the intensity -1, and the gap's cap 1e3/g builds with no warning
        sys = delta_prime_system([0.0, g, 1.0], [-1.0, -1.0, -1.0])
        with pytest.raises(DomainError, match=re.escape(f"the gap {g:.3g} between the points 0.0 and {g!r}")):
            find_bound_states(sys, kappa_max)

    @pytest.mark.parametrize("search, pts, betas, message", [
        # T(hi) is finite but a square of its off-diagonal is not: the pivots counted 1 of 2
        (count_negative, [0.0, 2.0], [-1e160, -1.1e160], "intensity -1.1e\\+160 is too strong"),
        # unit gaps: T(lo) ~ 2 L^2/g overflows through L = N max|beta|, so the intensity is named
        (find_bound_states, [0.0, 1.0, 2.0], [-1e100, -1e100, -2e100], "intensity -2e\\+100 is too strong"),
    ])
    def test_overflow_names_the_intensity(self, search, pts, betas, message):
        with pytest.raises(DomainError, match=message):
            search(delta_prime_system(pts, betas))

    def test_extraction_failure_raises(self, monkeypatch):
        # every counted root yields a state or the search fails loudly: roots
        # moved 1e-3 off make the eigenvalue at each a real miss, on both routes
        lockstep = line._lockstep
        monkeypatch.setattr(line, "_lockstep",
                            lambda *args: [(1.001 * k, j) for k, j in lockstep(*args)])
        for sys in (delta_prime_pair(-1.0), nonlocal_example()):
            with pytest.raises(NotAnEigenvalue):
                find_bound_states(sys, 10.0)


class TestEigenfunction:
    def test_evaluate_and_norm_match_a_segment_loop(self):
        # reference: one pass per piece of a hand-written table, the right
        # piece at each point; the tails are a e^{k(x - x_1)} and b e^{-k(x - x_N)}
        rng = np.random.default_rng(11)
        for pts, k in ((np.array([0.0, 0.4, 1.1, 1.5]), 1.7), (np.array([-1.0, 1.0]), 0.6),
                       (np.array([2.0]), 3.0)):
            table = rng.standard_normal((pts.size + 1, 2)) + 1j * rng.standard_normal((pts.size + 1, 2))
            table[0, 1] = table[-1, 0] = 0.0
            st = line.BoundState(k, table, pts, residual=0.0)
            xs = np.concatenate((np.linspace(pts[0] - 2.0, pts[-1] + 2.0, 1001), pts))
            want = np.zeros(xs.shape, dtype=complex)
            left, right = xs < pts[0], xs >= pts[-1]
            want[left] = table[0, 0] * np.exp(k * (xs[left] - pts[0]))
            want[right] = table[-1, 1] * np.exp(-k * (xs[right] - pts[-1]))
            total = (abs(table[0, 0]) ** 2 + abs(table[-1, 1]) ** 2) / (2 * k)
            for i in range(pts.size - 1):
                seg = (xs >= pts[i]) & (xs < pts[i + 1])
                a, b = table[i + 1]
                want[seg] = a * np.exp(k * (xs[seg] - pts[i + 1])) + b * np.exp(
                    -k * (xs[seg] - pts[i]))
                e = np.exp(-k * (pts[i + 1] - pts[i]))
                total += (abs(a) ** 2 + abs(b) ** 2) * (1 - e * e) / (2 * k)
                total += 2 * np.real(a * np.conj(b)) * e * (pts[i + 1] - pts[i])
            np.testing.assert_array_equal(st.evaluate(xs), want)
            assert st.evaluate(pts[-1]) == want[-1]
            # same terms, summed in another order
            assert abs(st.norm_squared() - total) <= 8 * pts.size * np.finfo(float).eps * total
            # the views name the table's entries
            assert (st.c_left, st.c_right) == (table[0, 0], table[-1, 1])
            np.testing.assert_array_equal(st.interior, table[1:-1])

    @pytest.mark.parametrize("b", [-1e6, -1e7, -1e8])
    def test_small_kappa_gaps_are_normalized_to_rounding(self, b):
        # large |beta| binds at kappa ~ 2/|beta|, where 1 - r^2, r = e^{-kappa g},
        # cancels unless taken as -expm1(-2 kappa g): each table against its
        # norm in 50-digit arithmetic, the same closed form per piece
        with mpmath.workdps(50):
            for s in find_bound_states(delta_prime_system([0.0, 0.5, 3.0], [b] * 3)):
                assert not s.pieces.imag.any()         # delta' states are real
                k, p = mpmath.mpf(s.kappa), s.pieces.real
                total = (mpmath.mpf(p[0, 0]) ** 2 + mpmath.mpf(p[-1, 1]) ** 2) / (2 * k)
                for (x0, x1), (a, c) in zip(zip(s.points, s.points[1:]), p[1:-1]):
                    g = mpmath.mpf(x1) - mpmath.mpf(x0)
                    a, c = mpmath.mpf(a), mpmath.mpf(c)
                    total += (a * a + c * c) * -mpmath.expm1(-2 * k * g) / (2 * k)
                    total += 2 * a * c * mpmath.exp(-k * g) * g
                assert abs(mpmath.sqrt(total) - 1) <= 1e-15, s.kappa

    def test_single_delta_shape(self):
        # |psi| = sqrt(kappa) e^{-kappa |x|}: a delta (H route) and a delta' (T route)
        for kind, kappa in ((Delta(-2.0), 1.0), (DeltaPrime(-1.0), 2.0)):
            (st,) = find_bound_states(from_kinds([(0.0, kind)]))
            assert st.kappa == pytest.approx(kappa, rel=1e-12)
            assert st.energy == -st.kappa ** 2 and not st.near_threshold
            for x in (-0.7, 0.0, 1.3):
                assert abs(abs(st.evaluate(x)) - np.sqrt(kappa) * np.exp(-kappa * abs(x))) < 1e-9
            assert abs(st.norm_squared() - 1.0) < 1e-12
            with pytest.raises((ValueError, AttributeError)):
                st.pieces[0, 0] = 2.0
            with pytest.raises(AttributeError):
                st.kappa = 1.0

    def test_off_root_raises(self):
        # the builder refuses a kappa whose eigenvalue of T or H is not zero
        for kind in (Delta(-2.0), DeltaPrime(-1.0)):
            with pytest.raises(NotAnEigenvalue):
                line._states(from_kinds([(0.0, kind)]), [[(1.5, (0, 0))]])

    def test_symmetric_systems_have_definite_parity(self):
        for beta in (-0.6, -1.7):
            states = find_bound_states(delta_prime_pair(beta), 4.0 * 2.0 / abs(beta))
            assert {st.parity for st in states} == {"even", "odd"}

    def test_parity_needs_exactly_mirrored_points(self):
        # a state has a parity only on points that mirror to within 4 eps max|x|,
        # at any scale: points 1e-5 off their mirror images give none
        for pts, labelled in (([-2.0, -1.0, 1.0, 2.0], True), ([-2.0, -1.0, 1.00001, 2.0], False),
                              ([1e3, 1e3 + 1.0, 1e3 + 2.0, 1e3 + 3.0], True)):
            for sys in (delta_prime_system(pts, [-1.0] * 4), from_kinds([(p, Delta(-1.0)) for p in pts])):
                for s in (sys, PointSystem(sys.points, relation=dense_relation(sys))):
                    states = find_bound_states(s)
                    assert len(states) == count_negative(s) > 0
                    assert {st.parity for st in states} == ({"even", "odd"} if labelled else {"none"})


class TestBuilders:
    def test_from_kinds_matches_direct(self):
        s1 = from_kinds([(0.3, Delta(-2.0))])
        s2 = PointSystem([0.3], lambdas=[
            # explicit Lambda for the same interaction
            __import__("deltaprime.interactions", fromlist=["lambda_of"]).lambda_of(Delta(-2.0))
        ])
        k1 = [st.kappa for st in find_bound_states(s1, 5.0)]
        k2 = [st.kappa for st in find_bound_states(s2, 5.0)]
        np.testing.assert_allclose(k1, k2, atol=1e-12)

    def test_split_has_no_lambda(self):
        with pytest.raises(SplitHasNoLambda):
            from_kinds([(0.0, Split(0.1, 0.2))])

    @pytest.mark.parametrize("entries", [
        [[2.0, 0.0], [0.0, 1.0]], [[1.0, 1j], [0.0, 1.0]],
        [[1.0, np.nan], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
    ], ids=["det-2", "not-real", "nan-off", "nan-diag"])
    def test_phase_check_refuses_a_matrix(self, entries):
        # one check over all points; TransmissionMatrix refuses a NaN, so it is set
        # past that check, and a NaN defect fails quietly
        lam = lambda_of(DeltaPrime(-1.0))
        object.__setattr__(lam, "entries", np.array(entries, complex))
        with pytest.raises(ValueError, match=re.escape("violates the e^{i eta} R, det R = 1 form")):
            PointSystem([0.0, 1.0, 2.0], lambdas=[lambda_of(Delta(1.0)), lam, lambda_of(Delta(2.0))])

    def test_flat_traces_satisfy_pair(self):
        # constant-1 function: traces (1, 1, 0, 0) at each point
        pair = delta_prime_pair(-1.0)
        v = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        assert np.linalg.norm(dense_relation(pair, normalized=True) @ v) < 1e-14

    def test_empty_system(self):
        assert find_bound_states(PointSystem([]), 5.0) == []

    def test_relation_built_once_and_read_only(self):
        # the condition blocks, per point or one global relation, are
        # read-only, and so is their row-normalized copy, built once per system
        for sys in (delta_prime_pair(-1.0), nonlocal_example()):
            for a in (sys._blocks, sys._conditions):
                with pytest.raises(ValueError):
                    a[0, 0, 0] = 2.0
            assert sys._conditions is sys._conditions
            np.testing.assert_allclose(np.linalg.norm(sys._conditions, axis=-1), 1.0, rtol=1e-15)

    def test_count_without_kappa_max(self):
        # every system has an exact total, global relations included
        assert count_negative(nonlocal_example()) == 1
        assert count_negative(delta_prime_system([0.0, 1.0], [-0.5, 2.0])) == 1
        assert count_negative(delta_prime_system([0.0], [0.0])) == 0

    def test_nonlocal_relations_are_the_literal_tables(self):
        plain = [[0, 0, 1, -1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, -1],
                 [1, -1, 1, 1, 1, -1, 0, 0], [1, -1, 0, 0, 1, -1, 1, 1]]
        verbatim = [[0, 0, 1, -1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, -1],
                    [0, 0, 2, 0, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1, 1, 1]]
        for flag, table in ((False, plain), (True, verbatim)):
            relation = dense_relation(nonlocal_example(verbatim=flag))
            assert relation.dtype == complex and np.array_equal(relation, table)

    def test_delta_prime_system_is_from_kinds(self):
        pts, betas = [-1.0, 0.5, 2.0, 3.25], [-1.0, 0.3, 2.5, -1e-200]
        direct = delta_prime_system(pts, betas)
        kinds = from_kinds([(x, DeltaPrime(b)) for x, b in zip(pts, betas)])
        literal = PointSystem(pts, lambdas=[TransmissionMatrix([[1.0, b], [0.0, 1.0]]) for b in betas])
        assert np.array_equal(direct._blocks, kinds._blocks)
        assert np.array_equal(direct._blocks, literal._blocks)
        assert np.array_equal(direct.delta_prime_betas(), betas)

    @pytest.mark.parametrize("bad, shown", [(np.nan, "(nan+0j)"), (np.inf, "(inf+0j)"),
                                            (complex(1.0, np.nan), "(1+nanj)")])
    def test_relation_must_be_finite(self, bad, shown):
        # checked before the rank, whose SVD fails on NaN and reads inf as a rank defect
        a = np.array(nonlocal_example()._blocks[0])
        a[2, 5] = bad
        with pytest.raises(ValueError, match=re.escape(f"relation must be finite, got {shown}")):
            PointSystem([-1.0, 1.0], relation=a)

    def test_relation_rank_validation(self):
        a = np.zeros((2, 4))
        a[0, 0] = 1.0
        a[1, 0] = 2.0  # rank 1
        with pytest.raises(ValueError):
            PointSystem([0.0], relation=a)


class TestGauge:
    PTS, ALPHAS, MUS = [0.0, 1.0, 2.5, 3.1], [-2.0, -1.5, 0.7, -3.0], [0.4, -1.3, 2.0, 0.9]

    def gauged(self, n):
        real = [lambda_of(Delta(a)) for a in self.ALPHAS[:n]]
        return real, [compose(lambda_of(DeltaMagnetic(m)), r) for m, r in zip(self.MUS, real)]

    def test_magnetic_phases_keep_the_delta_states(self):
        # e^{i eta_k} R_k is gauge-equivalent to R_k: same decay rates, no warning
        for n in (1, 2, 4):
            real, gauged = self.gauged(n)
            sysg = PointSystem(self.PTS[:n], lambdas=gauged)
            assert np.abs(sysg._blocks.imag).max() > 0.1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = [st.kappa for st in find_bound_states(sysg, 5.0)]
            want = [st.kappa for st in find_bound_states(PointSystem(self.PTS[:n], lambdas=real), 5.0)]
            assert len(want) >= 1
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_complex_global_relation(self):
        # the gauged plane handed over as one dense complex relation: mixing
        # its rows by an invertible complex matrix leaves the plane unchanged
        rng = np.random.default_rng(5)
        real, gauged = self.gauged(4)
        mix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        relation = mix @ dense_relation(PointSystem(self.PTS, lambdas=gauged))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [st.kappa for st in find_bound_states(PointSystem(self.PTS, relation=relation), 5.0)]
        want = [st.kappa for st in find_bound_states(PointSystem(self.PTS, lambdas=real), 5.0)]
        assert len(want) == 2
        np.testing.assert_allclose(got, want, rtol=1e-12)


def _oracle_roots(count, lo, hi):
    """Every root of an exact count in (lo, hi], descending, by bisection to 1e-14."""
    out = []

    def isolate(lo, hi, c_lo, c_hi):
        if c_lo == c_hi:
            return
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-14 * hi:
            out.extend([mid] * (c_lo - c_hi))
            return
        c_mid = min(max(count(mid), c_hi), c_lo)
        isolate(mid, hi, c_mid, c_hi)
        isolate(lo, mid, c_lo, c_mid)

    isolate(lo, hi, count(lo), count(hi))
    return out


@st.composite
def local_systems(draw):
    """A few delta, delta' or mixed points with mixed-sign intensities, gaps down to 0.01."""
    n = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.floats(0.01, 1.5), min_size=n - 1, max_size=n - 1))
    mags = draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["delta", "delta-prime", "mixed"]))
    if kind == "mixed":
        prime = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        prime = np.full(n, kind == "delta-prime")
    pts = np.concatenate(([0.0], np.cumsum(gaps)))
    return pts, np.array(mags) * np.array(signs), prime


def krein_oracle(pts, c, prime):
    """Number of bound states with decay rate above kappa > 0, from the
    inertia of the point-interaction Krein matrix

        K = [[diag(1/alpha) + E/(2 kappa), S/2], [S^T/2, -diag(1/beta) - (kappa/2) E]],

    E_ij = e^{-kappa |x_i - x_j|}, S_ij = sign(x_i - x_j) E_ij, on the delta
    points (alpha) and the delta' points (beta).  K decreases with kappa
    and is singular exactly at bound states; the count is #{alpha < 0} +
    #delta' - n_-(K).  With no delta' point it is the M-matrix count of
    delta systems, with no delta point n_-(Q), Q = diag(1/beta) + (kappa/2) E.
    K is built at 40 digits and n_-(K) is its number of negative LDL^T
    pivots (Sylvester), or of negative eigenvalues when an inner pivot is 0:
    near threshold E/(2 kappa) is nearly a multiple of the all-ones matrix,
    and in double precision the inertia misplaces such a root by ~eps/kappa
    relative.
    """
    order = np.argsort(prime, kind="stable")          # delta points, then delta'
    x, w, p = pts[order], c[order], prime[order]
    base = int(np.sum(c[~prime] < 0)) + int(np.sum(prime))

    def count(k):
        with mpmath.workdps(40):
            k, xs = mpmath.mpf(k), [mpmath.mpf(float(t)) for t in x]

            def entry(i, j):
                e = mpmath.exp(-k * abs(xs[i] - xs[j]))
                if p[i] != p[j]:                       # S/2 and S^T/2
                    return mpmath.sign(xs[j] - xs[i] if p[i] else xs[i] - xs[j]) * e / 2
                jump = 1 / mpmath.mpf(float(w[i])) if i == j else 0
                return -jump - k * e / 2 if p[i] else jump + e / (2 * k)

            m = mpmath.matrix([[entry(i, j) for j in range(len(x))] for i in range(len(x))])
            rows, negative = m.tolist(), 0
            try:
                for i, row in enumerate(rows):
                    negative += row[i] < 0
                    for r in rows[i + 1:]:
                        f = r[i] / row[i]
                        r[i + 1:] = [a - f * b for a, b in zip(r[i + 1:], row[i + 1:])]
            except ZeroDivisionError:
                negative = sum(lam < 0 for lam in mpmath.eigsy(m, eigvals_only=True))
        return base - negative

    return count


class TestKreinCount:
    @settings(max_examples=80, deadline=None)
    @given(case=local_systems())
    def test_counts_and_roots_match_krein_oracles(self, case):
        # the search window holds every state: the oracle counts the full
        # total at its lower end (a tiny kappa where it is 0) and none at hi
        pts, c, prime = case
        sys = from_kinds([(x, DeltaPrime(a) if p else Delta(a)) for x, a, p in zip(pts, c, prime)])
        count = krein_oracle(pts, c, prime)
        lo, hi, _, _ = line._window(sys, None)
        lo, hi = max(lo, 1e-9), max(hi, 1e-9)
        assert count(hi) == 0
        want = _oracle_roots(count, lo, hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(sys)
        got = [s.kappa for s in states]
        assert count_negative(sys) == len(got) == len(want) == count(lo)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        assert all(s.residual <= 1e-10 for s in states)
        # the same plane as one global block: its frame comes from one SVD of
        # the dense relation, the per-point frame from N SVDs of 2 x 4 blocks
        dense = PointSystem(pts, relation=dense_relation(sys))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dense_states = find_bound_states(dense)
        assert count_negative(dense) == len(dense_states) == len(got)
        np.testing.assert_allclose([s.kappa for s in dense_states], got, rtol=1e-10, atol=1e-12)

    def test_window_ends_are_diagonalized_once_per_search(self, monkeypatch):
        # every root shares the bracket [0, hi]: the counts of _window
        # diagonalize H(0) and H(min(hi, kappa_max)), and Brent reuses them,
        # so no kappa is diagonalized twice, capped or not
        sys = from_kinds([(0.0, Delta(-2.0)), (3.0, Delta(-1.5)), (6.0, Delta(-3.0))])
        eigenvalues = line._eigenvalues
        for kappa_max, n in ((None, 3), (1.2, 2)):
            _, hi, crossing, _ = line._window(sys, kappa_max)
            seen = []
            # _eigenvalues takes a float or a round's column of kappa: record every one
            monkeypatch.setattr(line, "_eigenvalues",
                                lambda s, k: seen.extend(np.ravel(k)) or eigenvalues(s, k))
            assert len(find_bound_states(sys, kappa_max)) == len(crossing) == n
            monkeypatch.setattr(line, "_eigenvalues", eigenvalues)
            assert seen.count(0.0) == seen.count(hi) == 1
            assert len(seen) == len(set(seen))


@st.composite
def mirror_systems(draw):
    """delta, delta' and delta'-potential points mirrored about a center, with an
    optional delta or delta' point on it; the reflection maps a delta'-potential
    gamma to -gamma."""
    m = draw(st.integers(1, 3))
    half = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    strength = st.floats(0.2, 5.0) | st.floats(-5.0, -0.2)
    kind = st.sampled_from([Delta, DeltaPrime]).flatmap(lambda k: strength.map(k))
    right = draw(st.lists(kind | st.floats(-1.5, 1.5).map(DeltaPrimePotential), min_size=m, max_size=m))
    middle = draw(st.lists(kind, max_size=1))
    left = [DeltaPrimePotential(-k.gamma) if isinstance(k, DeltaPrimePotential) else k for k in right[::-1]]
    pts = draw(st.sampled_from([0.0, -7.25]) | st.floats(-10.0, 10.0)) + np.concatenate(
        (-half[::-1], [0.0] * len(middle), half))
    return from_kinds(list(zip(pts, left + middle + right)))


class TestParity:
    @settings(max_examples=600, deadline=None)
    @given(sys=mirror_systems())
    def test_every_state_of_a_mirror_system_has_exact_parity(self, sys):
        # per point (T or H) and as a global relation (H), clusters included; the
        # reflection about the center c is checked on psi itself, off the points
        c = 0.5 * (sys.points[0] + sys.points[-1])
        ys = np.linspace(0.013, 1.71, 37) * max(sys.points[-1] - c, 1.0)
        ys = ys[np.abs(c + ys[:, None] - sys.points[None, :]).min(axis=1) > 1e-6]
        for s in (sys, PointSystem(sys.points, relation=dense_relation(sys))):
            states = find_bound_states(s)
            assert len(states) == count_negative(s)
            for st_ in states:
                assert st_.parity in ("even", "odd")
                sign = 1.0 if st_.parity == "even" else -1.0
                fp, fm = st_.evaluate(c + ys), st_.evaluate(c - ys)
                scale = max(np.abs(fp).max(), np.abs(fm).max())
                assert np.abs(fm - sign * fp).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kinds", [
        [Delta(-1.0), DeltaPrime(-1.0)],
        [DeltaPrime(-1.0), DeltaPrime(-2.0)],
        [DeltaPrimePotential(0.5), Delta(-2.0), DeltaPrimePotential(0.5)],
        [Delta(-1.0), Delta(-2.0), Delta(-1.0), Delta(-1.5)],
        [DeltaPrime(-1.0), Delta(-1.0), DeltaPrime(-2.0)],
    ])
    def test_mirrored_points_of_unmirrored_kinds_have_no_parity(self, kinds):
        pts = np.linspace(-1.5, 1.5, len(kinds))
        sys = from_kinds(list(zip(pts, kinds)))
        for s in (sys, PointSystem(sys.points, relation=dense_relation(sys))):
            states = find_bound_states(s)
            assert len(states) == count_negative(s) > 0
            assert {st_.parity for st_ in states} == {"none"}


@st.composite
def delta_prime_systems(draw):
    """1-8 delta' points, gaps down to 0.01, free points (beta = 0) allowed."""
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    mags = draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n))
    return np.concatenate(([0.0], np.cumsum(gaps))), np.array(mags) * np.array(signs)


class TestTridiagonalRoute:
    @settings(max_examples=60, deadline=None)
    @given(case=delta_prime_systems(), log_kappa=st.floats(-4.0, 3.0))
    def test_matches_the_dense_plane_and_the_q_oracle(self, case, log_kappa):
        # counts: the same plane handed over as a global relation keeps the
        # H(kappa) route.  Roots: bisection on #neg Q(kappa) over the points
        # with beta != 0, Q = diag(1/beta) + (kappa/2) e^{-kappa|x_i - x_j|};
        # its roots are within 1e-14 of 40-digit ones, where the dense
        # route's own error reaches ~8e-13 when gaps are 0.01
        pts, betas = case
        sys = delta_prime_system(pts, betas)
        dense = PointSystem(pts, relation=dense_relation(sys))
        kappa = float(np.exp(log_kappa))
        assert count_negative(sys, kappa) == count_negative(dense, kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [s.kappa for s in find_bound_states(sys)]
            assert len(find_bound_states(dense)) == len(got)
        p, c = pts[betas != 0], betas[betas != 0]
        e = lambda k: np.exp(-k * np.abs(p[:, None] - p[None, :]))
        count = lambda k: int(np.sum(np.linalg.eigvalsh(np.diag(1.0 / c) + 0.5 * k * e(k)) < 0))
        # the exact total is measured over a window from closed-form
        # bounds; the Q oracle confirms that no state lies outside it
        neg = int(np.sum(betas < 0))
        assert count_negative(sys) == count_negative(dense) == neg
        want = []
        if neg:
            lo, hi = line._exact_window(sys)
            assert (count(lo), count(hi)) == (neg, 0)
            want = _oracle_roots(count, lo, hi)
        assert len(got) == len(want) == neg
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=delta_prime_systems())
    def test_gap_solve_matches_the_jump_sums(self, case):
        # the state with psi' = -u at the points, u an eigenvector of T at a
        # root (of a half of T, lifted, on mirror-symmetric points): one 2 x 2
        # solve per gap against sums of the jumps -beta u
        pts, betas = case
        sys = delta_prime_system(pts, betas)
        for s in find_bound_states(sys):
            blocks = line._t_blocks(sys, s.kappa)
            b, j = min(((b, j) for b, t in enumerate(blocks) for j in range(t[0].size)),
                       key=lambda bj: abs(eigh_tridiagonal(*blocks[bj[0]], eigvals_only=True)[bj[1]]))
            _, u = eigh_tridiagonal(*blocks[b], select="i", select_range=(j, j))
            if sys._mirrored:
                u = line._lift(u, sys.n_points, b)
            diag, off = line._tridiagonal(sys, s.kappa)
            tu = diag * u[:, 0] + np.append(off * u[1:, 0], 0.0) + np.append(0.0, off * u[:-1, 0])
            assert np.linalg.norm(u) == pytest.approx(1.0)
            assert np.abs(tu).max() <= 1e-6 * np.abs(betas) @ (u[:, 0] ** 2)
            want = jump_sum_amplitudes(pts, betas, s.kappa, u[:, 0])
            kappa = np.array([s.kappa])
            r, den = line._gaps(sys._spacing, kappa[:, None])
            ((*_, vp, vm, _),) = line._t_amplitudes(sys, kappa, [((b, j), 1)], (r, den))
            got = line._anchored(vp, vm, r.T, den.T)[0]
            got[1:, 1] *= -1.0          # the state's decay column, as _states turns it
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("sys", [
        delta_prime_pair(-1.0), delta_prime_pair(-2.5),
        delta_prime_system([0.0, 0.8086714728159203], [-0.6032146333881763, -1.9645422881387398]),
    ])
    def test_window_ending_on_a_root(self, sys):
        # kappa_max on a root: the pivot count there decides whether that
        # root is selected, and a selected root is the uncapped Brent root
        roots = [s.kappa for s in find_bound_states(sys)]
        for root in roots:
            for kappa_max in root * (1.0 + np.arange(-3, 4) * np.finfo(float).eps):
                got = [s.kappa for s in find_bound_states(sys, kappa_max)]
                assert len(got) == count_negative(sys, kappa_max)
                for kappa in got:
                    assert min(abs(kappa - r) for r in roots) <= 1e-12 * kappa

    def test_search_leaves_the_dense_relation_unbuilt(self, monkeypatch):
        # the route reads the intensities and the per-point blocks: the
        # frame of the condition plane is never built
        def refuse(blocks, points):
            raise AssertionError("the delta' search built the frame")

        monkeypatch.setattr(line, "_frame", refuse)
        sys = delta_prime_system([0.0, 0.3, 1.1, 1.2], [-1.0, -0.4, 0.5, -2.0])
        assert len(find_bound_states(sys)) == count_negative(sys) == 3
        assert "_plane" not in vars(sys)
        # the patch is live: the H route builds the frame through it
        with pytest.raises(AssertionError, match="built the frame"):
            count_negative(nonlocal_example())

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), data=st.data(), kappa=st.floats(0.1, 5.0))
    def test_traces_match_the_evaluated_state(self, n, data, kappa):
        # one_sided at the points, the traces (v+, d+) and (v-, d-) that the
        # residuals read, against psi just right and left of each point,
        # derivatives by second-order one-sided differences on nodes h, 2h,
        # 3h away from it
        gaps = data.draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
        parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n + 4, max_size=4 * n + 4))
        pts = np.concatenate(([0.0], np.cumsum(gaps)))
        table = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(n + 1, 2)
        table[0, 1] = table[-1, 0] = 0.0
        state = line.BoundState(kappa, table, pts, residual=0.0)
        h = 1e-5
        for side in (1.0, -1.0):
            value, deriv = state.one_sided(pts, int(side))
            np.testing.assert_allclose(value, state.evaluate(pts + side * 1e-12), rtol=0, atol=1e-10)
            f1, f2, f3 = (state.evaluate(pts + side * m * h) for m in (1, 2, 3))
            np.testing.assert_allclose(deriv, side * (8 * f2 - 5 * f1 - 3 * f3) / (2 * h),
                                       rtol=0, atol=1e-6)

    def test_exact_total_outgrows_the_default_window(self):
        # close wells bind deeper than any one alone: the deepest state
        # decays faster than the former default window end 4 max 2/|beta|
        sys = delta_prime_system([0.0, 0.0962, 0.1486], [-3.9678, -4.0866, -3.5949])
        assert count_negative(sys, 4.0 * 2.0 / 3.5949) == 2
        assert count_negative(sys) == len(find_bound_states(sys)) == 3
        # the dense plane, counted over its own window
        dense = PointSystem(sys.points, relation=dense_relation(sys))
        assert count_negative(dense) == len(find_bound_states(dense)) == 3

    def test_close_weak_wells_keep_small_residuals(self):
        # gaps of 1e-3 to 0.02 and weak binding, kappa ~ 2/|beta|, make each
        # 2 x 2 gap solve ill-conditioned, like 1/(kappa g)
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            pts = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 0.02, n - 1))))
            states = find_bound_states(delta_prime_system(pts, -rng.uniform(5.0, 50.0, n)))
            assert len(states) == n
            assert max(s.residual for s in states) <= 1e-11


@st.composite
def mirrored_delta_prime_systems(draw):
    """1-12 delta' points mirrored about a center, gaps down to 0.01, free
    points (beta = 0) allowed; the middle point of odd N on the center."""
    n = draw(st.integers(1, 12))
    half = np.cumsum(draw(st.lists(st.floats(0.005, 0.5), min_size=n // 2, max_size=n // 2)))
    if n % 2 == 0:
        half = half - half[0] + draw(st.floats(0.005, 0.5))
    betas = [m * s for m, s in zip(draw(st.lists(st.floats(0.2, 5.0), min_size=(n + 1) // 2,
                                                 max_size=(n + 1) // 2)),
                                   draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=(n + 1) // 2,
                                                 max_size=(n + 1) // 2)))]
    center = draw(st.sampled_from([0.0, 1.0, -7.25]) | st.floats(-10.0, 10.0))
    pts = center + np.concatenate((-half[::-1], [0.0] * (n % 2), half))
    return pts, np.array(betas[::-1] + betas[n % 2:])


def root_resolution(sys: PointSystem, kappa: float) -> float:
    """eps ||T|| / |lambda'(kappa)|: the error in a root kappa of the eigenvalue lambda
    of T nearest 0 that an error of eps ||T|| in lambda makes; lambda' by central
    difference on the dense T."""
    dense = lambda k: (lambda d, o: np.diag(d) + np.diag(o, 1) + np.diag(o, -1))(*line._tridiagonal(sys, k))
    j, h = np.argmin(np.abs(np.linalg.eigvalsh(dense(kappa)))), 1e-6 * kappa
    slope = (np.linalg.eigvalsh(dense(kappa + h))[j] - np.linalg.eigvalsh(dense(kappa - h))[j]) / (2.0 * h)
    return tridiagonal.resolution(*line._tridiagonal(sys, kappa)) / abs(slope)


class TestMirrorHalves:
    """A mirror-symmetric delta' system counts, finds roots and builds states on
    the even and odd halves of T; each state is even or odd by construction."""

    @settings(max_examples=600, deadline=None)
    @given(case=mirrored_delta_prime_systems(), log_kappa=st.floats(-4.0, 3.0))
    # the full T at kappa ~ 140 splits into blocks sharing eigenvalues to the last
    # bit, where dstebz cannot bracket one index (INFO = 2)
    @example(case=(np.array([5.495, 5.5, 6.0, 6.5, 7.5, 8.0, 8.5, 8.504999999999999]),
                   np.array([-0.2, -0.2, -0.3953744435377363, 0.0, 0.0, -0.3953744435377363, -0.2, -0.2])),
             log_kappa=0.0)
    def test_halves_are_the_full_route(self, case, log_kappa):
        pts, betas = case
        sys = delta_prime_system(pts, betas)
        assert sys._mirrored == (pts.size > 1)      # a lone point's T is its own even half
        full = delta_prime_system(pts, betas)
        full._mirrored = False                  # the unsplit T, as for asymmetric points
        kappa = float(np.exp(log_kappa))
        diag, off = line._tridiagonal(sys, kappa)
        # an eigenvalue within rounding of 0 has its sign, so the counts, set by rounding
        if np.abs(eigh_tridiagonal(diag, off, eigvals_only=True)).min() > 4.0 * tridiagonal.resolution(diag, off):
            assert sum(tridiagonal.negatives(*t) for t in line._t_blocks(sys, kappa)) == \
                tridiagonal.negatives(diag, off)
            assert count_negative(sys, kappa) == count_negative(full, kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = find_bound_states(sys), find_bound_states(full)
        assert len(got) == len(want) == count_negative(sys) == int(np.sum(betas < 0))
        # within 1e-13, or within the roots' own resolution where an eigenvalue error
        # of eps ||T|| moves them further: gaps of 0.005 reach 1e-12 at kappa ~ 1
        for s, w in zip(got, want):
            assert abs(s.kappa - w.kappa) <= 1e-13 * w.kappa + 4.0 * root_resolution(sys, w.kappa)
        assert all(s.parity in ("even", "odd") for s in got)
        # a simple root's state is the full route's, and its table is its own
        # mirror image, reversed in both axes, times its parity's sign
        for s, w in zip(got, want):
            if sum(abs(o.kappa - s.kappa) <= 1e-4 * s.kappa for o in got) == 1:
                sign = 1.0 if s.parity == "even" else -1.0
                assert np.abs(s.pieces - sign * s.pieces[::-1, ::-1]).max() <= 1e-9 * np.abs(s.pieces).max()
                assert min(np.abs(s.pieces - w.pieces).max(), np.abs(s.pieces + w.pieces).max()) <= 1e-9

    @pytest.mark.parametrize("depth", range(3, 9))
    def test_bridges_label_every_state(self, depth):
        sys = measures.atomic_to_point_system(measures.cantor_measure(depth),
                                              measures.BetaFunction.constant(-1.0))
        assert sys._mirrored
        states = find_bound_states(sys)
        assert len(states) == count_negative(sys) == 2 ** depth
        assert {s.parity for s in states} <= {"even", "odd"}
        for kappa in (1.0, 30.0, 200.0, 3e3):
            assert sum(tridiagonal.negatives(*t) for t in line._t_blocks(sys, kappa)) == \
                tridiagonal.negatives(*line._tridiagonal(sys, kappa))

    def test_symmetric_pair_needs_no_lapack(self, monkeypatch):
        # the pair's halves are 1 x 1: no bisection, no inverse iteration
        monkeypatch.setattr(tridiagonal, "_lapack", lambda: pytest.fail("LAPACK called"))
        states = find_bound_states(delta_prime_pair(-1.0), 10.0)
        assert [s.kappa for s in states] == [KAPPA_EVEN, KAPPA_ODD]
        assert [s.parity for s in states] == ["even", "odd"]

    def test_asymmetry_past_the_tolerance_keeps_the_full_route(self):
        # points 4 eps max|x| off their mirror images, or an intensity 4 ulps off, split;
        # a step beyond either does not
        eps, x = np.finfo(float).eps, np.array([-2.0, -1.0, 1.0, 2.0])
        assert delta_prime_system(x, [-1.0] * 4)._mirrored
        assert delta_prime_system(x + [0, 0, 0, 8 * eps], [-1.0] * 4)._mirrored
        assert not delta_prime_system(x + [0, 0, 0, 16 * eps], [-1.0] * 4)._mirrored
        beta = np.nextafter(-1.0, -2.0)
        assert delta_prime_system(x, [-1.0, -1.0, -1.0, beta])._mirrored
        assert not delta_prime_system(x, [-1.0, -1.0, -1.0, -1.0 - 8 * eps])._mirrored
        assert not from_kinds([(p, Delta(-1.0)) for p in x])._mirrored


class TestProvedBrackets:
    @pytest.mark.parametrize("sys", [delta_prime_pair(-1.0)] + [
        measures.atomic_to_point_system(measures.cantor_measure(d), measures.BetaFunction.constant(-1.0))
        for d in (3, 4, 5)], ids=["pair", "cantor-3", "cantor-4", "cantor-5"])
    def test_every_root_has_a_proved_bracket(self, sys):
        # interval counts prove that the (i+1)-th largest decay rate lies
        # within a relative 1e-13 of the computed one
        states = find_bound_states(sys)
        assert len(states) == count_negative(sys)
        r = 1e-13
        for i, s in enumerate(states):
            below = certified_count(sys.points, sys.delta_prime_betas(), s.kappa * (1 - r))
            above = certified_count(sys.points, sys.delta_prime_betas(), s.kappa * (1 + r))
            assert below is not None and above is not None, s.kappa
            assert below >= i + 1 and above <= i, (i, s.kappa, below, above)


class TestWeakAttraction:
    # a weak attractive delta' intensity binds at kappa ~ 2/|beta|: the state
    # is normalized without underflow while -kappa^2 is a finite float, and
    # beyond that the search raises DomainError naming the intensity
    @staticmethod
    def systems(b):
        return delta_prime_system([0.0, 0.5], [b, -1.0]), delta_prime_system([0.0], [b])

    @pytest.mark.parametrize("b", [-1e-110, -1e-150])
    def test_fast_decaying_states_are_finite_unit_states(self, b):
        for sys in self.systems(b):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                states = find_bound_states(sys)
            assert len(states) == count_negative(sys)
            assert states[0].kappa == pytest.approx(2.0 / abs(b), rel=1e-12)
            for s in states:
                assert np.all(np.isfinite(s.pieces)) and np.isfinite(s.energy)
                assert s.norm_squared() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("b", [-1e-158, -1e-300, -1e-310])
    def test_energy_beyond_the_float_range_raises(self, b):
        for sys in self.systems(b):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=f"intensity {b:.3g} "):
                    find_bound_states(sys)
                assert count_negative(sys) == len(sys.points)

    def test_eigenvalue_below_the_solver_resolution_raises(self):
        # the crossing eigenvalue of T, about |beta| = 1e-20, lies below the
        # bisection's resolution eps ||T|| ~ 2e-16, so its sign at the window
        # ends is noise
        with pytest.raises(DomainError, match="resolution"):
            find_bound_states(delta_prime_system([0.0, 1.0, 2.0], [1.0, -1e-20, 0.0]))

    @pytest.mark.parametrize("pts, betas", [
        ([0.0, 0.77, 1.55], [-9.3e-19, -9.8e-19, -0.385]),
        ([0.0, 0.94, 1.62, 2.61], [-1.5e-256, 0.0, -8.6e-92, 1.41]),
    ])
    def test_root_eigenvalues_below_the_solver_resolution_raise(self, pts, betas):
        # Brent lands both weak branches on one root: their eigenvalues there
        # vanish to eps ||T|| but not relative to their scale sum |beta| u^2,
        # which may underflow to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="resolution"):
                find_bound_states(delta_prime_system(pts, betas))

    def test_decay_rate_near_the_float_limit_keeps_t_finite(self):
        # hi ~ 1.3e308 across a unit gap: 2 kappa g would overflow in T(hi)
        # without the cap on kappa g
        sys = delta_prime_system([0.0, 1.0], [-3e-308, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="intensity -3e-308 "):
                find_bound_states(sys)
            assert count_negative(sys) == 2

    def test_a_finite_cap_closes_an_overflowing_window(self):
        # hi overflows for beta = -1e-310; the cap excludes that state and
        # brackets the other one
        sys = delta_prime_system([0.0, 0.5], [-1e-310, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (state,) = find_bound_states(sys, 10.0)
        assert state.kappa == pytest.approx(2.0, rel=1e-12)
        assert state.residual <= 1e-12
        with pytest.raises(DomainError, match="not a finite float"):
            find_bound_states(sys, np.inf)


class TestCappedSearch:
    # kappa_max never moves the bracket; it selects branches by the count at
    # min(hi, kappa_max), so a capped search solves each branch exactly as
    # the uncapped one does
    @settings(max_examples=60, deadline=None)
    @given(case=delta_prime_systems(), data=st.data())
    def test_delta_prime_capped_roots_are_uncapped_ones(self, case, data):
        self.check(delta_prime_system(*case), data)

    @settings(max_examples=60, deadline=None)
    @given(case=local_systems(), data=st.data())
    def test_krein_capped_roots_are_uncapped_ones(self, case, data):
        pts, c, prime = case
        self.check(from_kinds([(x, DeltaPrime(a) if p else Delta(a))
                               for x, a, p in zip(pts, c, prime)]), data)

    @staticmethod
    def check(sys, data):
        uncapped = [s.kappa for s in find_bound_states(sys)]
        # anywhere, or within a few ulps of a root
        kappa_max = st.floats(-4.0, 3.0).map(np.exp)
        if uncapped:
            kappa_max |= st.tuples(st.sampled_from(uncapped), st.integers(-3, 3)).map(
                lambda t: t[0] * (1.0 + t[1] * np.finfo(float).eps))
        kappa_max = data.draw(kappa_max)
        m = count_negative(sys, kappa_max)
        capped = [s.kappa for s in find_bound_states(sys, kappa_max)]
        assert capped == uncapped[len(uncapped) - m:]

    @pytest.mark.parametrize("sys", [
        delta_prime_pair(-1.0), delta_prime_system([0.0, 1.0, 2.5], [-1.0, 0.5, -2.0]),
    ], ids=["pair", "asymmetric"])
    def test_cap_below_the_window_selects_nothing(self, sys):
        # T > 0 up to the window's lower end lo, so no state decays at a smaller kappa_max;
        # a count of T at such a cap is lost to rounding or overflows
        lo = line._exact_window(sys)[0]
        for kappa_max in (1e-300, 1e-200, 1e-100, 1e-20, lo / 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert count_negative(sys, kappa_max) == 0
                assert find_bound_states(sys, kappa_max) == []


def one_root(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b]: line._brent_steps driven by one f, a reference
    for a single root beside the package's one driver, line._lockstep."""
    steps, fx = line._brent_steps(a, b, xtol, rtol, maxiter), None
    while True:
        try:
            fx = f(steps.send(fx))
        except StopIteration as done:
            return done.value


@pytest.fixture
def twin_brent(monkeypatch):
    """Replays every _brent_steps run of the package, each driven by
    _lockstep (find_bound_states and characteristic_root alike), into
    scipy's brentq on the same bracket and tolerances: brentq must ask for
    the same points, in order, as the generator yielded, and return the
    same root, bit for bit.  Gives the list of roots compared."""
    steps, roots = line._brent_steps, []

    def twin(a, b, xtol, rtol, maxiter=100):
        pairs, run = [], steps(a, b, xtol, rtol, maxiter)
        x = next(run)
        while True:
            fx = yield x
            pairs.append((x, fx))
            try:
                x = run.send(fx)
            except StopIteration as done:
                got = done.value
                break
        replay = iter(pairs)

        def f(x):
            want_x, fx = next(replay)
            assert float(x).hex() == want_x.hex()
            return fx

        want = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        assert next(replay, None) is None
        assert type(got) is float and got.hex() == float(want).hex()
        roots.append(got)
        return got

    monkeypatch.setattr(line, "_brent_steps", twin)
    return roots


class TestBrent:
    # _brent_steps ports scipy's C brentq step for step, so the package's roots
    # keep their bits without importing scipy.optimize

    def test_delta_prime_sweeps_match_brentq(self, twin_brent):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            pts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))))
            betas = rng.uniform(0.2, 5.0, n) * rng.choice([-1.0, 1.0], n)
            assert len(find_bound_states(delta_prime_system(pts, betas))) == np.sum(betas < 0)
        bridge = measures.atomic_to_point_system(measures.cantor_measure(3),
                                                 measures.BetaFunction.constant(-1.0))
        assert len(find_bound_states(bridge)) == 8
        assert len(twin_brent) > 150

    def test_h_route_systems_match_brentq(self, twin_brent):
        # delta and mixed systems, their delta-magnetic gauges and the nonlocal example
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            pts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.5, n - 1))))
            c = rng.uniform(0.2, 5.0, n) * rng.choice([-1.0, 1.0], n)
            kinds = [rng.choice([Delta, DeltaPrime])(a) for a in c]
            find_bound_states(from_kinds(list(zip(pts, kinds))))
            mats = [np.exp(1j * rng.uniform(-np.pi, np.pi)) * lambda_of(Delta(a)).entries for a in c]
            find_bound_states(PointSystem(pts, lambdas=[TransmissionMatrix(m) for m in mats]))
        assert len(find_bound_states(nonlocal_example())) == 1
        assert len(twin_brent) > 30

    def test_characteristic_roots_match_brentq(self, twin_brent):
        assert [characteristic_root(TANH_EQ), characteristic_root(COTH_EQ)] == twin_brent

    @pytest.mark.parametrize("f, a, b", [
        pytest.param(lambda x: x, 0.0, 1.0, id="f(a)=0"),
        pytest.param(lambda x: x - 1.0, 0.0, 1.0, id="f(b)=0"),
        pytest.param(lambda x: -x - 0.0, -1.0, 0.0, id="f(b)=-0"),
        pytest.param(lambda x: x ** 3 - 0.1, 0.0, 1.0, id="cubic"),
        # the inverse quadratic divisor dblk dpre (fblk - fpre), about 1e-480,
        # underflows to 0 at every such step: C bisects on its inf or nan
        pytest.param(lambda x: 1e-160 * (x ** 3 - 0.1), 0.0, 1.0, id="zero-divisor"),
    ])
    def test_edge_roots_match_brentq(self, f, a, b):
        want = brentq(f, a, b, xtol=line.ROOT_XTOL, rtol=line.ROOT_RTOL)
        got = one_root(f, a, b, line.ROOT_XTOL, line.ROOT_RTOL)
        assert type(got) is float and got.hex() == want.hex()

    @pytest.mark.parametrize("f, maxiter, error, message", [
        pytest.param(lambda x: x + 2.0, 100, ValueError, "different signs", id="one-sign"),
        pytest.param(lambda x: math.nan, 100, ValueError, "NaN", id="nan-at-a"),
        pytest.param(lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 100, ValueError, "NaN",
                     id="nan-inside"),
        pytest.param(lambda x: x ** 3 - 0.1, 3, RuntimeError, "Failed to converge", id="maxiter"),
    ])
    def test_errors_match_brentq(self, f, maxiter, error, message):
        with pytest.raises(error, match=message):
            brentq(f, 0.0, 1.0, xtol=line.ROOT_XTOL, rtol=line.ROOT_RTOL, maxiter=maxiter)
        with pytest.raises(error, match=message):
            one_root(f, 0.0, 1.0, line.ROOT_XTOL, line.ROOT_RTOL, maxiter)


class TestLockstep:
    # a search advances all its roots together, on one batched T(kappa) per
    # round, and builds all its states in one pass: both keep the bits of the
    # one-root runs and of the per-cluster builds

    def test_unconverged_root_is_a_domain_error(self):
        # a sign step at 0.5 in [0, 1.52e19]: the ROOT_RTOL bracket takes more than
        # 100 steps, and the error names the eigenvalue and the bracket
        with pytest.raises(DomainError, match=re.escape("eigenvalue 0 crossing zero in [0, 1.52e+19]: "
                                                        "Failed to converge after 100 iterations")):
            line._lockstep(lambda ks, js: [1.0 if k > 0.5 else -1.0 for k in ks], 0.0, 1.52e19, range(1))

    def test_strong_delta_search_is_a_domain_error(self):
        # the H route's Brent does not converge next to a delta of -1e10
        with pytest.raises(DomainError, match="Failed to converge"):
            find_bound_states(from_kinds([(0.0, Delta(-1e10)), (1.0, Delta(-3.0))]))

    @settings(max_examples=200, deadline=None)
    @given(case=delta_prime_systems(),
           kappas=st.lists(st.floats(1e-6, 1e6) | st.floats(1e6, 1e300), min_size=1, max_size=8))
    def test_tridiagonal_rows_are_the_scalar_builds(self, case, kappas):
        sys = delta_prime_system(*case)
        diag, off = line._tridiagonal(sys, np.array(kappas)[:, None])
        assert diag.shape == (len(kappas), sys.n_points) and off.shape == (len(kappas), sys.n_points - 1)
        for kappa, d, o in zip(kappas, diag, off):
            want_d, want_o = line._tridiagonal(sys, kappa)
            assert d.tobytes() == want_d.tobytes() and o.tobytes() == want_o.tobytes()

    @pytest.mark.parametrize("sys", [
        from_kinds([(0.0, Delta(-2.0)), (0.4, DeltaPrime(1.3)), (1.5, DeltaPrimePotential(0.7)),
                    (3.0, Delta(-1.5))]),
        PointSystem([0.0, 1.2, 2.3], lambdas=[
            TransmissionMatrix(np.exp(1j * eta) * np.array([[1.0, 0.0], [a, 1.0]]))
            for eta, a in ((0.9, -2.5), (-1.4, -3.0), (2.1, 1.5))]),
        nonlocal_example(),
    ], ids=["mixed-real", "gauged-complex", "nonlocal"])
    @settings(max_examples=40, deadline=None)
    @given(kappas=st.lists(st.floats(1e-6, 1e3) | st.floats(1e3, 1e300), max_size=6))
    def test_krein_rows_are_the_scalar_builds(self, sys, kappas):
        # kappa = 0 takes the limits 1/g; kappa g past 746 meets the cap of _gaps
        kappas = [0.0, 800.0 / np.diff(sys.points).min(), *kappas]
        col = np.array(kappas)[:, None]
        h, lam = line._krein(sys, col), line._eigenvalues(sys, col)
        assert h.shape[0] == lam.shape[0] == len(kappas)
        for kappa, hk, lk in zip(kappas, h, lam):
            assert np.array_equal(hk, line._krein(sys, kappa))
            assert np.array_equal(lk, line._eigenvalues(sys, kappa))

    @settings(max_examples=100, deadline=None)
    @given(case=delta_prime_systems(), complex_values=st.booleans(), data=st.data())
    def test_anchored_columns_are_the_one_column_builds(self, case, complex_values, data):
        # one call on a kappa per column keeps the bits of one call per column on its own row
        # of the gap table, for real values (T) and complex ones (H)
        sys = delta_prime_system(*case)
        kappas = np.array(data.draw(st.lists(st.floats(1e-6, 1e3) | st.floats(1e3, 1e300), min_size=1,
                                             max_size=5)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        vp, vm = rng.standard_normal((2, sys.n_points, kappas.size))
        if complex_values:
            vp, vm = vp + 1j * rng.standard_normal(vp.shape), vm + 1j * rng.standard_normal(vm.shape)
        r, den = line._gaps(sys._spacing, kappas[:, None])
        tables = line._anchored(vp, vm, r.T, den.T)
        assert tables.shape == (kappas.size, sys.n_points + 1, 2) and tables.dtype == vp.dtype
        for i, kappa in enumerate(kappas):
            r1, den1 = (c[:, None] for c in line._gaps(sys._spacing, kappa))
            assert tables[i].tobytes() == line._anchored(vp[:, i:i + 1], vm[:, i:i + 1], r1, den1)[0].tobytes()

    def test_gap_constants_are_read_only(self):
        sys = delta_prime_system([0.0, 0.5, 2.0], [-1.0, 1.0, -2.0])
        g, cap = spacing = sys._spacing
        assert sys._spacing is spacing          # built once, on first use
        np.testing.assert_array_equal(g, [0.5, 1.5])
        np.testing.assert_array_equal(cap, [2e3, 1e3 / 1.5])
        for a in (spacing, g, cap):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    @staticmethod
    def systems(rng):
        """Random delta' sweeps, a depth-5 Cantor bridge and H-route systems."""
        out = []
        for _ in range(40):
            n = int(rng.integers(1, 9))
            pts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))))
            out.append(delta_prime_system(pts, rng.uniform(0.2, 5.0, n) * rng.choice([-1.0, 1.0], n)))
        out.append(measures.atomic_to_point_system(measures.cantor_measure(5),
                                                   measures.BetaFunction.constant(-1.0)))
        # far-apart copies of one well: roots within CLUSTER_RTOL form clusters, on T
        # itself when the copies are not mirror-symmetric, and within each half of T
        # when they are (the two copies of two mirror-symmetric wells are not clusters)
        out.append(delta_prime_system([0.0, 1.0, 40.0, 41.0], [-1.0] * 4))
        out.append(delta_prime_system([0.0, 1.0, 40.0, 41.0, 90.0, 91.0], [-1.0] * 6))
        out.append(delta_prime_system([0.0, 1.0, 40.0, 41.0, 80.0, 81.0, 120.0, 121.0], [-1.0] * 8))
        out.append(delta_prime_system([-2.0, -1.0, 1.0, 2.0], [-0.7, -1.3, -1.3, -0.7]))
        out.append(from_kinds([(0.0, Delta(-2.0)), (30.0, Delta(-2.0))]))
        out.append(from_kinds([(-1.0, DeltaPrime(-1.5)), (0.0, Delta(-1.0)), (1.0, DeltaPrime(-1.5))]))
        out.append(nonlocal_example())
        return out

    def test_roots_are_the_one_root_runs(self):
        for sys in self.systems(np.random.default_rng(19)):
            lo, hi, crossing, ends = line._window(sys, None)
            if sys.delta_prime_betas() is None:
                value = lambda k, key: line._eigenvalues(sys, k)[key[1]]
            else:
                value = lambda k, key: float(k) * float(
                    tridiagonal.eigenvalues(*line._t_blocks(sys, k)[key[0]], key[1], key[1])[0])
            want = sorted((one_root(lambda k: value(k, key), lo, hi, line.ROOT_XTOL, line.ROOT_RTOL), key)
                          for key in crossing)
            got = line._lockstep(lambda ks, js: line._values(sys, ks, js, ends), lo, hi, crossing)
            assert [(k.hex(), j) for k, j in sorted(got)] == [(k.hex(), j) for k, j in want]
            kappas = [s.kappa for s in find_bound_states(sys)]
            assert [k.hex() for k in kappas] == [k.hex() for k, _ in reversed(want)]

    def test_states_of_all_clusters_are_those_of_each_alone(self, monkeypatch):
        builder, seen = line._states, []
        monkeypatch.setattr(line, "_states", lambda sys, clusters: seen.append(clusters) or
                            builder(sys, clusters))
        multiple = 0
        for sys in self.systems(np.random.default_rng(20)):
            seen.clear()
            together = find_bound_states(sys)
            if not together:
                continue
            (clusters,) = seen
            alone = [s for cluster in clusters for s in builder(sys, [cluster])]
            multiple += sum(len(cluster) > 1 for cluster in clusters)
            assert len(together) == len(alone)
            for a, b in zip(together, alone):
                assert a.kappa.hex() == b.kappa.hex() and a.parity == b.parity
                assert a.pieces.shape == b.pieces.shape and a.pieces.tobytes() == b.pieces.tobytes()
        assert multiple >= 2

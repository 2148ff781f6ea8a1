"""Point systems on the line: secular roots, bound states, counting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, null_space

from deltaprime import line
from deltaprime.errors import DomainError, NotAnEigenvalue, NotSelfAdjoint, SplitNotSupported
from deltaprime.interactions import (
    BoundaryTraces,
    Delta,
    DeltaMagnetic,
    DeltaPrime,
    DeltaPrimePotential,
    Split,
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
    eigenfunction,
    find_bound_states,
    from_kinds,
    nonlocal_example,
)
from oracles import jump_sum_amplitudes, secular_values

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
        a = nl.normalized_relation()
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
        amat = pair.normalized_relation()
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
        amat = verb.normalized_relation()
        res = np.linalg.norm(amat @ traces) / np.linalg.norm(traces)
        assert res > 1e-3

    def test_defect_is_the_exact_form_norm(self):
        # sup of |omega(p, q)| over unit traces p, q of the plane is the
        # spectral norm of the form on an orthonormal basis of the plane
        verb = nonlocal_example(verbatim=True)
        basis = null_space(verb.relation)
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
        sys = delta_prime_system([0.0, 0.7, 1.9], [-1.0, -0.5, -2.5])
        base = [st.kappa for st in find_bound_states(sys, 20.0)]
        shifted = [st.kappa for st in find_bound_states(sys.translated(13.7), 20.0)]
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
        systems = [PointSystem(free.points, relation=free.relation),
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
        monkeypatch.setattr(line, "_cluster_states", refuse)
        assert count_negative(delta_prime_system([0.0, 25.0], [-1.0, -1.0])) == 2
        assert count_negative(nonlocal_example()) == 1
        # the patch is live: a search extracts through it
        with pytest.raises(AssertionError, match="extracted"):
            find_bound_states(nonlocal_example())

    def test_extraction_failure_raises(self, monkeypatch):
        # every counted root yields a state or the search fails loudly
        monkeypatch.setattr(line, "RESIDUAL_TOL", 0.0)
        for sys in (delta_prime_pair(-1.0), nonlocal_example()):
            with pytest.raises(NotAnEigenvalue):
                find_bound_states(sys, 10.0)


class TestEigenfunction:
    def test_evaluate_and_norm_match_a_segment_loop(self):
        # reference: one pass per interval, the right interval at each point
        systems = [(delta_prime_system([0.0, 0.4, 1.1, 1.5], [-1.0, -0.7, 0.5, -2.0]), 20.0),
                   (nonlocal_example(), 10.0)]
        for sys, kappa_max in systems:
            for st in find_bound_states(sys, kappa_max):
                pts, k = st.points, st.kappa
                xs = np.concatenate((np.linspace(pts[0] - 2.0, pts[-1] + 2.0, 1001), pts))
                want = np.zeros(xs.shape, dtype=complex)
                left, right = xs < pts[0], xs >= pts[-1]
                want[left] = st.c_left * np.exp(k * (xs[left] - pts[0]))
                want[right] = st.c_right * np.exp(-k * (xs[right] - pts[-1]))
                total = (abs(st.c_left) ** 2 + abs(st.c_right) ** 2) / (2 * k)
                for i in range(pts.size - 1):
                    seg = (xs >= pts[i]) & (xs < pts[i + 1])
                    a, b = st.interior[i]
                    want[seg] = a * np.exp(k * (xs[seg] - pts[i + 1])) + b * np.exp(
                        -k * (xs[seg] - pts[i]))
                    e = np.exp(-k * (pts[i + 1] - pts[i]))
                    total += (abs(a) ** 2 + abs(b) ** 2) * (1 - e * e) / (2 * k)
                    total += 2 * np.real(a * np.conj(b)) * e * (pts[i + 1] - pts[i])
                np.testing.assert_array_equal(st.evaluate(xs), want)
                assert st.evaluate(pts[1]) == want[-pts.size + 1]
                # same terms, summed in another order
                assert abs(st.norm_squared() - total) <= 8 * pts.size * np.finfo(float).eps * total

    def test_single_delta_shape(self):
        # |psi| = sqrt(kappa) e^{-kappa |x|}: a delta (H route) and a delta' (T route)
        for kind, kappa in ((Delta(-2.0), 1.0), (DeltaPrime(-1.0), 2.0)):
            st = eigenfunction(from_kinds([(0.0, kind)]), kappa)
            for x in (-0.7, 0.0, 1.3):
                assert abs(abs(st.evaluate(x)) - np.sqrt(kappa) * np.exp(-kappa * abs(x))) < 1e-9
            assert abs(st.norm_squared() - 1.0) < 1e-12

    def test_off_root_raises(self):
        for kind in (Delta(-2.0), DeltaPrime(-1.0)):
            sys = from_kinds([(0.0, kind)])
            for kappa in (1.5, 0.0):
                with pytest.raises(NotAnEigenvalue):
                    eigenfunction(sys, kappa)

    def test_symmetric_systems_have_definite_parity(self):
        for beta in (-0.6, -1.7):
            states = find_bound_states(delta_prime_pair(beta), 4.0 * 2.0 / abs(beta))
            assert {st.parity for st in states} == {"even", "odd"}

    def test_parity_needs_exactly_mirrored_points(self):
        # a palindrome of amplitudes is even only on mirror-symmetric points;
        # points 1e-5 off their mirror image are not, at any scale
        amps = np.array([1.0, 0.5, 0.2, 0.3, 0.3, 0.2, 0.5, 1.0])
        for pts, parity in (([-2.0, -1.0, 1.0, 2.0], "even"), ([-2.0, -1.0, 1.00001, 2.0], "none"),
                            ([1e3, 1e3 + 1.0, 1e3 + 2.0, 1e3 + 3.0], "even")):
            state = line.BoundState(1.0, -1.0, amps[0], amps[-1], amps[1:-1].reshape(-1, 2),
                                    np.array(pts), residual=0.0)
            assert line._detect_parity(state) == parity
        states = find_bound_states(delta_prime_system([-2.0, -1.0, 1.00001, 2.0], [-1.0] * 4))
        assert len(states) == 4 and {st.parity for st in states} == {"none"}


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

    def test_split_not_supported(self):
        with pytest.raises(SplitNotSupported):
            from_kinds([(0.0, Split(0.1, 0.2))])

    def test_flat_traces_satisfy_pair(self):
        # constant-1 function: traces (1, 1, 0, 0) at each point
        pair = delta_prime_pair(-1.0)
        v = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        assert np.linalg.norm(pair.normalized_relation() @ v) < 1e-14

    def test_empty_system(self):
        assert find_bound_states(PointSystem([]), 5.0) == []

    def test_relation_built_once_and_read_only(self):
        pair = delta_prime_pair(-1.0)
        with pytest.raises(ValueError):
            pair.relation[0, 0] = 2.0
        with pytest.raises(ValueError):
            pair.normalized_relation()[0, 0] = 2.0
        # both are built on demand; the shifted copy shares what is built
        moved = pair.translated(3.0)
        assert moved.relation is pair.relation
        assert moved.normalized_relation() is pair.normalized_relation()
        np.testing.assert_array_equal(moved.points, pair.points + 3.0)

    def test_count_without_kappa_max(self):
        # every system has an exact total, global relations included
        assert count_negative(nonlocal_example()) == 1
        assert count_negative(delta_prime_system([0.0, 1.0], [-0.5, 2.0])) == 1
        assert count_negative(delta_prime_system([0.0], [0.0])) == 0

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
            assert np.abs(sysg.relation.imag).max() > 0.1
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
        relation = mix @ PointSystem(self.PTS, lambdas=gauged).relation
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
    """
    v, d = pts[~prime], pts[prime]
    base = int(np.sum(c[~prime] < 0)) + int(d.size)

    def count(k):
        e = lambda a, b: np.exp(-k * np.abs(a[:, None] - b[None, :]))
        s = np.sign(v[:, None] - d[None, :]) * e(v, d) / 2.0
        m = np.block([[np.diag(1.0 / c[~prime]) + e(v, v) / (2.0 * k), s],
                      [s.T, -np.diag(1.0 / c[prime]) - 0.5 * k * e(d, d)]])
        return base - int(np.sum(np.linalg.eigvalsh(m) < 0))

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
        lo, hi, _ = line._window(sys, None)
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

    def test_window_ends_are_diagonalized_once_per_search(self, monkeypatch):
        # every root shares the bracket [0, hi]: H(0) is diagonalized by the
        # total and once for Brent, H(hi) by the count at hi and once for Brent
        sys = from_kinds([(0.0, Delta(-2.0)), (3.0, Delta(-1.5)), (6.0, Delta(-3.0))])
        _, hi, crossing = line._window(sys, None)
        seen = []
        eigenvalues = line._eigenvalues
        monkeypatch.setattr(line, "_eigenvalues", lambda s, k: seen.append(k) or eigenvalues(s, k))
        assert len(find_bound_states(sys)) == len(crossing) == 3
        assert seen.count(0.0) <= 2 and seen.count(hi) <= 2


@st.composite
def mirror_systems(draw):
    """delta and delta' points mirrored about 0, with an optional one at 0."""
    m = draw(st.integers(1, 3))
    half = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    kind = st.builds(lambda prime, c: DeltaPrime(c) if prime else Delta(c),
                     st.booleans(), st.floats(0.2, 5.0) | st.floats(-5.0, -0.2))
    right = draw(st.lists(kind, min_size=m, max_size=m))
    middle = draw(st.lists(kind, max_size=1))
    pts = np.concatenate((-half[::-1], [0.0] * len(middle), half))
    return from_kinds(list(zip(pts, right[::-1] + middle + right)))


class TestParity:
    @settings(max_examples=60, deadline=None)
    @given(sys=mirror_systems())
    def test_simple_roots_of_mirror_systems_have_exact_parity(self, sys):
        # per point (T or H) and as a global relation (H); the reflection
        # x -> -x is checked on psi itself, off the points
        span = sys.points[-1] - sys.points[0]
        ys = np.linspace(0.013, 1.71, 37) * max(span, 1.0)
        ys = ys[np.abs(ys[:, None] - sys.points[None, :]).min(axis=1) > 1e-6]
        for s in (sys, PointSystem(sys.points, relation=sys.relation)):
            states = find_bound_states(s)
            kappas = np.array([st_.kappa for st_ in states])
            for st_ in states:
                others = np.delete(kappas, np.flatnonzero(kappas == st_.kappa)[0])
                if np.any(np.abs(others - st_.kappa) <= 1e-4 * st_.kappa):
                    continue          # not a simple root: any basis of the cluster will do
                assert st_.parity in ("even", "odd")
                sign = 1.0 if st_.parity == "even" else -1.0
                fp, fm = st_.evaluate(ys), st_.evaluate(-ys)
                scale = max(np.abs(fp).max(), np.abs(fm).max())
                assert np.abs(fm - sign * fp).max() <= 1e-7 * scale


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
        dense = PointSystem(pts, relation=sys.relation)
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
        # root: one 2 x 2 solve per gap against sums of the jumps -beta u
        pts, betas = case
        sys = delta_prime_system(pts, betas)
        for s in find_bound_states(sys):
            diag, off = line._tridiagonal(sys, s.kappa)
            j = int(np.argmin(np.abs(eigh_tridiagonal(diag, off, eigvals_only=True))))
            _, u = eigh_tridiagonal(diag, off, select="i", select_range=(j, j))
            want = jump_sum_amplitudes(pts, betas, s.kappa, u[:, 0])
            got = line._t_amplitudes(sys, s.kappa, j, 1)[2][:, 0]
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

    def test_search_leaves_the_dense_relation_unbuilt(self):
        # the route reads the per-point blocks; the dense 2N x 4N relation,
        # its row-normalized copy and the frame are never built
        sys = delta_prime_system([0.0, 0.3, 1.1, 1.2], [-1.0, -0.4, 0.5, -2.0])
        assert len(find_bound_states(sys)) == count_negative(sys) == 3
        assert not {"relation", "_normalized", "_plane"} & set(vars(sys))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), data=st.data(), kappa=st.floats(0.1, 5.0))
    def test_traces_match_the_evaluated_state(self, n, data, kappa):
        # (v+, v-, d+, d-) from the amplitudes against psi just right and
        # left of each point, derivatives by second-order one-sided
        # differences on nodes h, 2h, 3h away from it
        gaps = data.draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
        parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n, max_size=4 * n))
        pts = np.concatenate(([0.0], np.cumsum(gaps)))
        amps = np.array(parts[::2]) + 1j * np.array(parts[1::2])
        state = line.BoundState(kappa, -kappa ** 2, amps[0], amps[-1], amps[1:-1].reshape(-1, 2),
                                pts, residual=0.0)
        got = line._traces(pts, kappa, amps)
        h = 1e-5
        for side, value, deriv in ((1.0, got[:, 0], got[:, 2]), (-1.0, got[:, 1], got[:, 3])):
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
        dense = PointSystem(sys.points, relation=sys.relation)
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

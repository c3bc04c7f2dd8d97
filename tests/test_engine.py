import hashlib
import itertools
import json
import os
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cijt import _search
from cijt.cli import load_dataset, main
from cijt.scalars import Exact, floor_mult
from cijt.normal_forms import D, N1, N2, R, SymplecticClass, crossing_sum, m_check, nullity
from cijt.iteration import PathClass, index_iterate, jump_index, mean_index
from cijt.engine import (
    CertificationError,
    CheckRecord,
    CijtTuple,
    NonPositiveMeanIndex,
    NotFoundWithinBound,
    SelectionProblem,
    VerificationReport,
    VertexSpec,
    common_period,
    delta_zero,
    find_tuple,
    m_bar_for_geodesics,
    opposite_tuple,
    verify_tuple,
)
from cijt._search import _PathData, _least_residual, _next_hit, _return_time
from test_normal_forms import classes
from test_iteration import _bit_angles, _index_iterate_by_unit_angles, _spectral_by_unit_angles
from test_scalars import Lattice, frac_mult, is_near_lattice, time_limit
from test_morse import DATASETS, GOLDEN

SQRT2M1 = Exact.surd(-1, 1, 2)
T35 = Exact.surd(3, -1, 5)
PHI_M1 = Exact.surd(Fraction(-1, 2), Fraction(1, 2), 5)


def path(i1, *blocks):
    return PathClass(i1, SymplecticClass(tuple(blocks)))


@pytest.fixture(scope="module")
def sqrt2_problem():
    return SelectionProblem((path(1, R(SQRT2M1)),), delta=Fraction(1, 100))


@pytest.fixture(scope="module")
def sqrt2_tuple(sqrt2_problem):
    return find_tuple(sqrt2_problem)


class TestCommonPeriod:
    def test_no_rational_angles(self):
        assert common_period([path(1, R(SQRT2M1))]) == 1

    def test_lcm(self):
        p = path(1, R(Exact(Fraction(2, 3))), R(Exact(Fraction(1, 2))))
        assert common_period([p]) == 6

    def test_single(self):
        assert common_period([path(1, R(Exact(Fraction(3, 5))))]) == 5

    @given(st.lists(classes, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_least_common_period(self, monodromies):
        # theta/pi of every rational eigen-angle: 0 and 1 for N1(+-1, .)
        angles = [
            Fraction(1 - b.lam, 2) if isinstance(b, N1) else Fraction(b.theta.A, b.theta.q)
            for M in monodromies
            for b in M.blocks
            if isinstance(b, N1) or (isinstance(b, (R, N2)) and b.theta.is_rational)
        ]
        brute = next(k for k in range(1, 61) if all((k * t).denominator == 1 for t in angles))
        assert common_period([PathClass(1, M) for M in monodromies]) == brute


class TestDeltaZero:
    def test_no_irrational(self):
        assert delta_zero([path(1, D(Exact(2)))], 1) == Fraction(1, 2)

    def test_sqrt2_band(self):
        d0 = delta_zero([path(1, R(SQRT2M1))], 1)
        exact_min = SQRT2M1 * Fraction(1, 2)        # {theta/2pi} ~ 0.2071
        assert Exact(d0) < exact_min
        assert exact_min - d0 < Exact(Fraction(1, 100000))
        assert d0.denominator <= 10**6

    def test_mbar_3_same_band(self):
        gap = delta_zero([path(1, R(SQRT2M1))], 3) - delta_zero([path(1, R(SQRT2M1))], 1)
        assert -Fraction(1, 100000) < gap < Fraction(1, 100000)


def _delta_zero_exact(paths, m_bar):
    """delta_0 as it was computed before the integer rule, kept as an oracle:
    each {h*theta/2pi} by frac_mult, the least lattice distance by Exact
    comparisons, then (floor - 2)/10**6 or halving from 1/2."""
    half = Exact(Fraction(1, 2))
    best = half
    for p in paths:
        for t in _bit_angles(p):
            for h in range(1, m_bar + 1):
                f = frac_mult(t * half, h)
                for cand in (f, 1 - f):
                    if cand < best:
                        best = cand
    if best.is_rational:
        return Fraction(best.A, best.q)
    approx = Fraction(floor_mult(best, 10**6) - 2, 10**6)
    if approx <= 0:
        approx = Fraction(1, 2)
        while not Exact(approx) < best:
            approx /= 2
    return approx


@st.composite
def _d0_angle(draw):
    """An irrational theta/pi in (0, 2): a random surd, or p/q plus a tiny
    surd, where h*theta/2pi comes within 1e-16 of an integer for some h."""
    s = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        q = draw(st.integers(1, 6))
        tiny = Fraction(draw(st.integers(-99, 99).filter(bool)), 10 ** draw(st.integers(3, 16)))
        theta = Exact(Fraction(draw(st.integers(0, 2 * q)), q)) + Exact.surd(0, tiny, s)
    else:
        theta = Exact.surd(
            Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 9))),
            Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))),
            s,
        )
    assume(Exact(0) < theta < Exact(2))
    return theta


@st.composite
def _d0_path(draw):
    blocks = [R(t) if draw(st.booleans()) else N2(t, draw(st.booleans()))
              for t in draw(st.lists(_d0_angle(), max_size=2))]
    if draw(st.booleans()) or not blocks:
        blocks.append(draw(st.sampled_from([R(Exact(Fraction(1, 3))), D(Exact(2)), N1(1, 1)])))
    return path(1, *blocks)


class TestDeltaZeroOracle:
    @given(st.lists(_d0_path(), min_size=1, max_size=3), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_minimum(self, paths, m_bar):
        assert delta_zero(paths, m_bar) == _delta_zero_exact(paths, m_bar)

    @pytest.mark.parametrize("p, q, m_bar", [(1, 2, 4), (2, 3, 3), (1, 1, 2), (0, 1, 1), (5, 3, 6)])
    def test_power_of_two_branch(self, p, q, m_bar):
        """theta/pi = p/q + 1e-12*sqrt(2): h*theta/2pi is within 1e-11 of an
        integer at h = 2q/gcd(p, 2q) <= m_bar, below 3/10**6, so delta_0 is
        the largest 1/2**j under it."""
        theta = Exact(Fraction(p, q)) + Exact.surd(0, Fraction(1, 10**12), 2)
        paths = [path(1, R(theta)), path(2, R(T35))]
        d0 = delta_zero(paths, m_bar)
        assert d0 == _delta_zero_exact(paths, m_bar)
        assert d0.numerator == 1 and d0.denominator & (d0.denominator - 1) == 0
        assert d0 < Fraction(3, 10**6)


class TestSelectionProblem:
    def test_rejects_nonpositive_mean(self):
        with pytest.raises(NonPositiveMeanIndex):
            SelectionProblem((path(0, R(SQRT2M1)),))  # ihat = sqrt2 - 1 - 1 < 0

    def test_delta_shrinks_below_delta_zero(self):
        prob = SelectionProblem((path(1, R(SQRT2M1)),), delta=Fraction(2, 5))
        assert prob.delta_shrunk
        assert prob.delta == prob.delta_zero_value / 2
        assert Exact(prob.delta) < SQRT2M1 * Fraction(1, 2)

    def test_delta_kept_when_small(self):
        prob = SelectionProblem((path(1, R(SQRT2M1)),), delta=Fraction(1, 100))
        assert not prob.delta_shrunk

    def test_float_delta_refused(self):
        """0.01 is not 1/100 but its binary value: refused, as Exact(0.5) is."""
        with pytest.raises(TypeError, match="float"):
            SelectionProblem((path(1, R(SQRT2M1)),), delta=0.01)


class TestFindTuple:
    def test_sqrt2_auto(self, sqrt2_tuple):
        t = sqrt2_tuple
        assert (t.N, t.m, t.Delta) == (29, (70,), (0,))
        assert is_near_lattice(SQRT2M1, 70, Fraction(1, 100)) is Lattice.HIGH
        assert t.report is not None and t.report.ok

    def test_sqrt2_opposite(self, sqrt2_problem, sqrt2_tuple):
        opp = opposite_tuple(sqrt2_tuple, sqrt2_problem)
        assert (opp.N, opp.m, opp.Delta) == (70, (169,), (1,))
        # Claim: Delta + Delta' = C
        assert sqrt2_tuple.Delta[0] + opp.Delta[0] == 1 == crossing_sum(
            sqrt2_problem.paths[0].monodromy
        )

    def test_opposite_with_rational_elliptic_path(self):
        # R(1/3) carries S^- weight but no vertex bit, so Delta + Delta'
        # equals the irrational S^- weight (0 there), not C = 1
        problem = SelectionProblem(
            (path(1, R(SQRT2M1)), path(2, R(Exact(Fraction(1, 3))))),
            delta=Fraction(1, 1000),
        )
        t = find_tuple(problem)
        assert (t.N, t.Delta) == (4348, (0, 0))
        opp = opposite_tuple(t, problem)
        assert (opp.N, opp.m, opp.Delta) == (5572, (13452, 4179), (1, 0))
        assert opp.report.ok

    def test_brute_force_oracle(self, sqrt2_problem):
        """Independent scan of all m <= 10^4: enumerate candidate (N, m)
        pairs directly from the definitions and confirm the smallest N."""
        delta = Fraction(1, 100)
        ihat = SQRT2M1
        hits = []
        for m in range(1, 10**4 + 1):
            f = frac_mult(SQRT2M1, m)
            if not (f < delta or f > 1 - delta):
                continue
            d = 1 if f < delta else 0
            # I(m) = E(m * theta/pi); candidate N from I = N + Delta
            from cijt.scalars import ceil_mult
            N = ceil_mult(SQRT2M1, m) - d
            # m must equal [N/ihat] + chi for chi in {0,1}
            from cijt.scalars import floor_mult
            base = floor_mult(Exact(1) / ihat, N)
            if m in (base, base + 1):
                hits.append((N, m, d))
        assert min(hits)[0:2] == (29, 70)
        # opposite vertex: Low band AND chi-proximity {N/ihat} within delta of 1
        # (this is what rules out the nearer Low hit (41, 99))
        assert (41, 99, 1) in hits
        u = Exact(1) / ihat
        lows = [
            (N, m, d)
            for N, m, d in hits
            if d == 1 and frac_mult(u, N) > 1 - delta
        ]
        assert min(lows)[0:2] == (70, 169)

    def test_hyperbolic_any_n(self):
        prob = SelectionProblem((path(1, D(Exact(2))),))
        t = find_tuple(prob)
        assert (t.N, t.m, t.Delta) == (1, (1,), (0,))
        t5 = find_tuple(prob, min_N=5)
        assert (t5.N, t5.m) == (5, (5,))

    def test_n_multiple_respected(self, sqrt2_problem):
        prob = SelectionProblem(
            sqrt2_problem.paths, delta=Fraction(1, 100), N_multiple_of=10
        )
        t = find_tuple(prob)
        assert t.N % 10 == 0

    def test_exhaustion_raises_with_residual(self):
        prob = SelectionProblem((path(1, R(SQRT2M1)),), delta=Fraction(1, 100), N_bound=20)
        with pytest.raises(NotFoundWithinBound) as exc:
            find_tuple(prob)
        assert exc.value.best_residual is not None

    def test_long_delta_adds_no_more_bits_than_the_range(self):
        """A delta with a 3001-digit denominator and N_bound 10 fixes the
        kernel at fewer than 100 bits, not about 10^4 from the denominator,
        and the search reports the residual of a delta with 301 digits."""
        residuals = []
        for digits in (300, 3000):
            prob = SelectionProblem((path(1, R(SQRT2M1)),), delta=Fraction(1, 10**digits), N_bound=10)
            with time_limit(10), pytest.raises(NotFoundWithinBound) as exc:
                find_tuple(prob)
            residuals.append(exc.value.best_residual)
        assert [pd.kernel[0] < 100 for pd in prob.data] == [True]
        assert residuals[0] is not None and residuals[0] == residuals[1]

    @pytest.mark.parametrize("paths, delta, N_bound, min_N", [
        ((path(1, R(SQRT2M1)),), Fraction(1, 100), 20, 1),
        ((path(1, R(SQRT2M1)),), Fraction(1, 10**5), 4000, 1),
        # the range starts at k = 70, the best approximation in it
        ((path(1, R(SQRT2M1)),), Fraction(1, 10**5), 60, 29),
        ((path(2, R(T35), R(Exact(2) - T35 * 2)), path(1, R(Exact(Fraction(1, 3))))),
         Fraction(1, 10**5), 3000, 500),
        ((path(1, N2(PHI_M1, True)), path(3, R(Exact(Fraction(3, 5))))),
         Fraction(1, 10**4), 2000, 1),
        ((path(1, R(SQRT2M1), R(Exact.surd(-1, 1, 3))),), Fraction(1, 10**4), 200, 1),
    ])
    def test_residual_is_brute_minimum(self, paths, delta, N_bound, min_N):
        """best_residual is the least, over the iterates m = k*Mbar the search
        covers ([u*min_N] <= k <= [u*N_bound] + 1, u = 1/(Mbar*ihat)), of the
        largest lattice distance of the angles of the residual's path, the
        first with the most irrational angles."""
        prob = SelectionProblem(paths, delta=delta, N_bound=N_bound)
        with pytest.raises(NotFoundWithinBound) as exc:
            find_tuple(prob, min_N=min_N)
        mbar = common_period(paths)
        rp = max((_PathData(p, mbar) for p in paths), key=lambda pd: len(_bit_angles(pd.path)))
        k_lo, k_cap = max(1, floor_mult(rp.u, min_N)), floor_mult(rp.u, N_bound) + 1
        brute = min(
            max(min(f, 1 - f) for f in (frac_mult(t, k * mbar) for t in _bit_angles(rp.path)))
            for k in range(k_lo, k_cap + 1)
        )
        assert exc.value.best_residual == float(brute)

    def test_demanded_vertex_matches_realized(self, sqrt2_problem, sqrt2_tuple):
        again = find_tuple(sqrt2_problem, vertex=sqrt2_tuple.vertex)
        assert (again.N, again.m) == (sqrt2_tuple.N, sqrt2_tuple.m)

    def test_demanded_vertex_shape_checked(self, sqrt2_problem):
        with pytest.raises(ValueError):
            find_tuple(sqrt2_problem, vertex=VertexSpec((0, 1), ((0,), (1,))))

    def test_infinitude_probe(self, sqrt2_problem, sqrt2_tuple):
        t2 = find_tuple(
            sqrt2_problem, vertex=sqrt2_tuple.vertex, min_N=sqrt2_tuple.N + 1
        )
        assert sqrt2_tuple.N < t2.N <= 100 * sqrt2_tuple.N

    def test_two_path_dataset(self):
        prob = SelectionProblem(
            (path(1, R(T35)), path(2, R(PHI_M1))),
            delta=Fraction(1, 200),
            N_multiple_of=2,
        )
        t = find_tuple(prob)
        assert (t.N, t.m) == (754, (987, 466))
        opp = opposite_tuple(t, prob)
        assert (opp.N, opp.m) == (1220, (1597, 754))
        # complementary Low/High pattern on both angles
        assert t.vertex.angle_bits == ((0,), (0,))
        assert opp.vertex.angle_bits == ((1,), (1,))


def _bands_by_exact(pd, m, delta):
    """Low/High bits (0/1) of the path's bit angles at iterate m, or None if
    any is Interior or Zero: one is_near_lattice per angle.  The search's
    classify_bits as it was before the fixed-point probe, kept as an oracle."""
    bits = []
    for t in _bit_angles(pd.path):
        cls = is_near_lattice(t, m, delta)
        if cls is Lattice.LOW:
            bits.append(0)
        elif cls is Lattice.HIGH:
            bits.append(1)
        else:
            return None
    return tuple(bits)


def _delta_by_exact(pd, m, delta):
    """Delta: S^- weight of irrational angles theta with {m*theta/pi} in the
    Low band, over the merged unit angles (the old delta_count)."""
    return sum(
        w for ht, w in _spectral_by_unit_angles(pd.path)[2]
        if not ht.is_rational and is_near_lattice(ht, 2 * m, delta) is Lattice.LOW
    )


def _chi_proximity_by_exact(pd, N, chi, eps):
    """|{N*u} - chi| < eps by the lattice band test (the old _chi_proximity_ok)."""
    if pd.u.is_rational:
        return True
    band = is_near_lattice(pd.u, N, eps)
    if chi == 0:
        return band is Lattice.ZERO or band is Lattice.LOW
    return band is Lattice.HIGH


def _try_path_by_exact(pd, N, mbar, delta, want_chi, want_bits, chi_eps):
    """One path at candidate N by the oracles above: (m, chi, bits, Delta) or
    None, as _try_path decided it before the fixed-point probe."""
    base = floor_mult(pd.u, N)
    chis = (want_chi,) if want_chi is not None and not pd.u.is_rational else (0, 1)
    for chi in chis:
        m = (base + chi) * mbar
        if m < 1:
            continue
        bits = _bands_by_exact(pd, m, delta)
        if bits is None or (want_bits is not None and bits != want_bits):
            continue
        if chi_eps is not None and not _chi_proximity_by_exact(pd, N, chi, chi_eps):
            continue
        d = _delta_by_exact(pd, m, delta)
        if _index_iterate_by_unit_angles(pd.path, 2 * m) != jump_index(pd.path, N, d):
            continue
        return m, chi, bits, d
    return None


def _chi_proximity_by_frac(pd, N, chi, eps):
    """The chi test on {N*u} itself: frac_mult, then Exact comparisons."""
    if pd.u.is_rational:
        return True
    f = frac_mult(pd.u, N)
    return f < eps if chi == 0 else f > 1 - eps


class TestChiProximity:
    def test_matches_frac_formula(self):
        paths = (
            path(1, R(SQRT2M1)),                               # u in Q(sqrt2)
            path(2, R(PHI_M1), R(Exact(Fraction(1, 3)))),      # Mbar = 3
            path(1, R(SQRT2M1), R(T35)),                       # u with two radicands
            path(1, R(Exact(Fraction(2, 3)))),                 # pinned
            path(1, D(Exact(2))),                              # pinned
        )
        eps_values = (Fraction(1, 3), Fraction(1, 100), Fraction(7, 1000), Fraction(1, 10**30 + 7))
        Ns = list(range(1, 250)) + [10**15 + j for j in range(5)] + [2**100 + 1, 470832]
        seen = set()
        for p in paths:
            pd = _PathData(p, common_period([p]))
            for N in Ns:
                for chi in (0, 1):
                    for eps in eps_values:
                        got = _chi_proximity_by_exact(pd, N, chi, eps)
                        assert got is _chi_proximity_by_frac(pd, N, chi, eps)
                        seen.add((pd.u.is_rational, chi, got))
        assert seen == {(False, c, b) for c in (0, 1) for b in (False, True)} | {
            (True, 0, True), (True, 1, True)
        }

    def test_chi_eps_range_checked(self, sqrt2_problem):
        for eps in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
            with pytest.raises(ValueError, match="chi_eps"):
                find_tuple(sqrt2_problem, chi_eps=eps)

    def test_float_chi_eps_refused(self, sqrt2_problem):
        with pytest.raises(TypeError, match="float"):
            find_tuple(sqrt2_problem, chi_eps=0.1)


def _probe_by_exact(pd, m, delta):
    """(bits, Delta, 2N) from the exact oracles, or None: 2N solves the jump
    identity i(c^{2m}) = 2N - (S^+ + C - 2*Delta)."""
    bits = _bands_by_exact(pd, m, delta)
    if bits is None:
        return None
    sp, c, _ = _spectral_by_unit_angles(pd.path)
    dl = _delta_by_exact(pd, m, delta)
    return bits, dl, _index_iterate_by_unit_angles(pd.path, 2 * m) + sp + c - 2 * dl


PROBE_ANGLES = [SQRT2M1, T35, PHI_M1, Exact(2) - T35, SQRT2M1 * Fraction(1, 2) + T35 * Fraction(1, 7)]
PROBE_RATIONALS = [Fraction(1, 3), Fraction(2, 3), Fraction(3, 5), Fraction(5, 4)]
PROBE_DELTAS = [Fraction(1, 3), Fraction(1, 7), Fraction(3, 100), Fraction(1, 1000), Fraction(5, 1024)]


def _probe_path(rng, theta=None):
    """A path of one to three blocks, R or N2 at theta first when given:
    one- and two-radicand surds, rational R and N2, D and N1; mean > 0."""
    while True:
        out = [] if theta is None else [R(theta) if rng.random() < 0.6 else N2(theta, rng.random() < 0.5)]
        for _ in range(rng.randint(0 if out else 1, 2)):
            kind, t = rng.randrange(5), rng.choice(PROBE_ANGLES)
            if kind == 0:
                out.append(R(t))
            elif kind == 1:
                out.append(N2(t, rng.random() < 0.5))
            elif kind == 2:
                r = Exact(rng.choice(PROBE_RATIONALS))
                out.append(R(r) if rng.random() < 0.5 else N2(r, rng.random() < 0.5))
            elif kind == 3:
                out.append(D(Exact(rng.choice([2, -3]))))
            else:
                out.append(N1(rng.choice([1, -1]), rng.choice([-1, 0, 1])))
        p = path(rng.randint(1, 4), *out)
        if p.mean > 0:
            return p


def _near_edge(rng, m0, K, delta):
    """An irrational theta/pi in (0, 2) whose {m0*theta} lies within m0/2^K
    of 0, delta, 1 - delta or 1 (at times within a fraction of 1/2^K), on a
    random side; None if that leaves (0, 1)."""
    off = SQRT2M1 * Fraction(rng.randint(1, 2 * m0), 1 << (K + rng.choice([0, 0, 2, 6])))
    edge, sign = rng.choice([(0, 1), (delta, 1), (delta, -1), (1 - delta, 1), (1 - delta, -1), (1, -1)])
    target = off * sign + edge
    if not Exact(0) < target < Exact(1):
        return None
    return (target + rng.randrange(2 * m0)) * Fraction(1, m0)


@pytest.fixture
def floors(monkeypatch):
    """Counts the exact floors that the fixed-point kernel falls back to."""
    calls, floor = [0], _search._floor

    def counting(*args):
        calls[0] += 1
        return floor(*args)

    monkeypatch.setattr(_search, "_floor", counting)
    return calls


@pytest.fixture
def descents(monkeypatch):
    """Counts the Euclid descents of ``_search._next_hit``: under "returns"
    those that ``_returns`` makes to set up a window's return times, under
    "stepper" every other."""
    calls, where, descent, returns = Counter(), ["stepper"], _search._next_hit, _search._returns

    def counting(*args):
        calls[where[0]] += 1
        return descent(*args)

    def setting_up(*args):
        where[0] = "returns"
        try:
            return returns(*args)
        finally:
            where[0] = "stepper"

    monkeypatch.setattr(_search, "_next_hit", counting)
    monkeypatch.setattr(_search, "_returns", setting_up)
    return calls


class TestProbeOracle:
    """_PathData.probe and chi against the exact oracles, at fixed points
    2^-K small enough that the exact fallback runs often."""

    def _agree(self, pd, m, delta, floors, seen):
        before = floors[0]
        got = pd.probe(m)
        seen["fallback" if floors[0] > before else "fixed point"] += 1
        seen["none" if got is None else "bits"] += 1
        assert got == _probe_by_exact(pd, m, delta), (pd.path, m, delta, pd.kernel)

    def test_random_iterates(self, floors):
        rng = random.Random(23)
        seen = Counter()
        for _ in range(250):
            pd = _PathData(_probe_path(rng), 1)
            delta = rng.choice(PROBE_DELTAS)
            K = rng.choice([rng.randint(4, 16), rng.randint(40, 120)])
            pd.fix(K, delta, None)
            for m in (rng.randint(1, 50), rng.randint(1, 1 << K), rng.randint(1, 10**12)):
                self._agree(pd, m, delta, floors, seen)
        assert min(seen.values()) >= 20, seen

    def test_near_band_edges(self, floors):
        """{m0*theta} within m0/2^K of 0, delta, 1 - delta or 1: the interval
        of the fixed point meets the edge, or ends a unit away from it."""
        rng = random.Random(29)
        seen = Counter()
        while seen["cases"] < 1500:
            m0 = rng.choice([rng.randint(1, 4), rng.randint(1, 60)])
            K, delta = rng.randint(6, 20), rng.choice(PROBE_DELTAS)
            theta = _near_edge(rng, m0, K, delta)
            if theta is None:
                continue
            seen["cases"] += 1
            pd = _PathData(_probe_path(rng, theta), 1)
            pd.fix(K, delta, None)
            self._agree(pd, m0, delta, floors, seen)
        assert min(seen.values()) >= 50, seen

    def test_chi(self, floors):
        """[N*u] and the band of {N*u} against chi_eps, pinned u included."""
        rng = random.Random(31)
        seen = Counter()
        for _ in range(150):
            p = _probe_path(rng)
            pd = _PathData(p, common_period([p]))
            delta = rng.choice(PROBE_DELTAS)
            for eps in (None, delta, Fraction(1, 3)):
                pd.fix(rng.choice([rng.randint(4, 16), rng.randint(40, 90)]), delta, eps)
                for N in (rng.randint(1, 100), rng.randint(1, 10**6), rng.randint(1, 10**15)):
                    before = floors[0]
                    base, band = pd.chi(N)
                    seen["fallback" if floors[0] > before else "fixed point"] += not pd.u.is_rational
                    assert base == floor_mult(pd.u, N), (p, N)
                    assert band is None or not pd.u.is_rational  # a pinned u has no band
                    if pd.u.is_rational or eps is None:
                        seen["pinned" if pd.u.is_rational else "no eps"] += 1
                        continue
                    for chi in (0, 1):
                        assert (band == chi) == _chi_proximity_by_exact(pd, N, chi, eps), (p, N, eps)
                    seen[band] += 1
        assert min(seen.values()) >= 10 and len(seen) == 7, seen


class TestResidualOnTable:
    def test_table_and_residual_match_block_walk(self):
        """On seeded ``_probe_path`` draws (R, N2 of both kinds, N1, D,
        rational and two-radicand angles): the irrational entries of
        ``PathClass.spectral`` are the block walk's angles in count, order and
        value, and an exhausted search's residual, read off those entries,
        is the frac_mult brute-force minimum over the k range of the
        residual's path, the first with the most irrational angles."""
        rng = random.Random(47)
        seen = Counter()
        while seen["residual checked"] < 120:
            paths = [_probe_path(rng) for _ in range(rng.randint(1, 2))]
            for p in paths:
                table = [sum((Exact.surd(0, b, s) for s, b in terms), Exact(A)) / q
                         for A, terms, q, _, _ in p.spectral[2] if terms]
                assert tuple(table) == _bit_angles(p), p
            prob = SelectionProblem(paths, delta=Fraction(1, 10**7), N_bound=rng.choice([40, 300, 2000]))
            try:
                find_tuple(prob)
            except NotFoundWithinBound as exc:
                residual = exc.best_residual
            else:
                seen["found"] += 1
                continue
            mbar = prob.period
            res = max(range(len(paths)), key=lambda i: len(_bit_angles(paths[i])))
            rp, angles = prob.data[res], _bit_angles(paths[res])
            if not angles:
                assert residual is None, paths
                seen["no angle"] += 1
                continue
            k_lo, k_cap = max(1, floor_mult(rp.u, 1)), floor_mult(rp.u, prob.N_bound) + 1
            brute = min(
                max(min(f, 1 - f) for f in (frac_mult(t, k * mbar) for t in angles))
                for k in range(k_lo, k_cap + 1)
            )
            assert _least_residual(rp, k_lo, k_cap) == brute, paths
            assert residual == float(brute), paths
            seen["residual checked"] += 1
            seen["residual path angles>1"] += len(angles) > 1
            seen["two radicands"] += any(len(a.B) > 1 for a in angles)
            seen["mbar>1"] += mbar > 1
        assert min(seen.values()) >= 2 and len(seen) == 6, seen


class TestDeepDelta:
    def test_sqrt2_at_1e_12_gives_pell_numbers(self):
        """sqrt(2) - 1 at delta = 1e-12: the tuples sit on consecutive Pell
        numbers P_{n+1} = 2 P_n + P_{n-1}, the convergent denominators of
        sqrt(2); a linear scan would visit about 10^12 iterates."""
        pell = [0, 1]
        while len(pell) < 34:
            pell.append(2 * pell[-1] + pell[-2])
        prob = SelectionProblem(
            (path(1, R(SQRT2M1)),), delta=Fraction(1, 10**12), N_bound=10**18
        )
        t = find_tuple(prob)
        assert (t.N, t.m) == (pell[31], (pell[32],)) == (259717522849, (627013566048,))
        opp = opposite_tuple(t, prob)
        assert (opp.N, opp.m) == (pell[32], (pell[33],))
        assert t.report.ok and opp.report.ok


def _next_hit_by_loop(a, b, M, lo, hi):
    window = {v % M for v in range(lo, hi + 1)}
    # a*j + b mod M has period at most M
    return next((j for j in range(M) if (a * j + b) % M in window), None)


class TestNextHit:
    def test_all_small_cases(self):
        """Every a, b and window, wrapped ones included, for M <= 9."""
        for M in range(1, 10):
            for lo in range(-M, M):
                for hi in range(lo, lo + M + 1):
                    for a in range(M):
                        for b in range(M):
                            assert _next_hit(a, b, M, lo, hi) == _next_hit_by_loop(
                                a, b, M, lo, hi
                            ), (a, b, M, lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_loop(self, data):
        M = data.draw(st.integers(1, 1 << 12))
        a, b = data.draw(st.integers(0, 3 * M)), data.draw(st.integers(0, M - 1))
        lo = data.draw(st.integers(-2 * M, 2 * M))
        hi = lo + data.draw(st.integers(0, M + 1))
        assert _next_hit(a, b, M, lo, hi) == _next_hit_by_loop(a, b, M, lo, hi)


class TestHitStepper:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_band_hit_is_in_its_window(self, data):
        """theta is built so that {k0*mbar*theta} sits about 1e-30 away from
        0, delta, 1 - delta or 1, where the residue k*a*mbar mod 2^K of the
        path's kernel a = [2^K*theta] lags across a window edge: k0 must still
        be a hit."""
        mbar = data.draw(st.integers(1, 6))
        k0 = data.draw(st.integers(1, 60))
        k_cap = k0 + data.draw(st.integers(0, 10**6))
        delta = Fraction(1, data.draw(st.integers(3, 10**9)))
        # a second radicand makes theta a sum, floored by the enclosure path
        eps = Exact.surd(0, Fraction(data.draw(st.integers(1, 99)), 10**30), 2) + Exact.surd(
            0, Fraction(data.draw(st.integers(0, 99)), 10**30), 3
        )
        target = data.draw(st.sampled_from([
            eps, Exact(delta) - eps, Exact(1 - delta) + eps, Exact(1) - eps,
        ]))
        j = data.draw(st.integers(0, k0 * mbar - 1))
        theta = (target + j) * Fraction(1, k0 * mbar)
        # the least K find_tuple picks for m <= k_cap*mbar and this delta
        g = _PathData(path(1, R(theta)), mbar)
        g.fix((k_cap * mbar).bit_length() + delta.denominator.bit_length() + 16, delta, None)
        cls = is_near_lattice(theta, k0 * mbar, delta)
        assert cls in (Lattice.LOW, Lattice.HIGH)
        for bit in (None, 0 if cls is Lattice.LOW else 1):
            assert next(g.hits(k0, k_cap, g.kernel[2], bit)) == k0

    def test_window_widens_by_k_cap_times_mbar(self):
        """{k_cap*mbar*theta} a hair above 0, where k*a*mbar mod 2^K lags by up
        to k_cap*mbar units: k_cap is a hit, and some cases lag by more than
        k_cap + 1 units."""
        delta, k_cap, lags_past = Fraction(1, 1000), 50, set()
        for mbar, j in itertools.product(range(2, 7), range(50)):
            theta = (Exact.surd(0, Fraction(1, 10**30), 2) + j) * Fraction(1, k_cap * mbar)
            g = _PathData(path(1, R(theta)), mbar)
            g.fix((k_cap * mbar).bit_length() + delta.denominator.bit_length() + 16, delta, None)
            lag = floor_mult(theta, k_cap * mbar << g.kernel[0]) - k_cap * mbar * g.a[0]
            lags_past.add(lag > k_cap + 1)
            for bit in (None, 0):
                assert next(g.hits(k_cap, k_cap, g.kernel[2], bit)) == k_cap
        assert lags_past == {False, True}

    def test_hit_after_hit_or_jump(self):
        """Within one generator each hit (a step by the window's return times
        after the first) is the least hit past the one before that the descent
        finds; a jump to a k past a hit starts a new generator, whose first
        hit is the descent from k."""
        rng = random.Random(29)
        for theta, mbar, bit in itertools.product((SQRT2M1, T35, PHI_M1), (1, 3), (None, 0, 1)):
            g = _PathData(path(1, R(theta)), mbar)
            g.fix(40, Fraction(1, 10), None)
            M, step, h, k_cap = 1 << 40, g.a[0] * mbar % (1 << 40), g.kernel[2], 10**4
            w = k_cap * mbar + 1
            lo, hi = -w if bit == 0 else -h - w, -1 if bit == 1 else h
            k = rng.randint(1, 100)
            hits = g.hits(k, k_cap, h, bit)
            for _ in range(200):
                hit = next(hits)
                assert hit == k + _next_hit(step, step * k % M, M, lo, hi), (theta, mbar, bit, k)
                k = hit + 1
                if rng.random() < 0.3:
                    k += rng.randint(1, 30)
                    hits = g.hits(k, k_cap, h, bit)


_FLOAT_GUARD = 1e-6


def _float_band_ok(frac, delta, want):
    low, high = frac < delta + _FLOAT_GUARD, frac > 1 - delta - _FLOAT_GUARD
    return low if want == 0 else high if want == 1 else low or high


def _find_tuple_by_scan(problem, vertex=None, chi_eps=None, min_N=1):
    """The search as it was before hit stepping, kept as an oracle: every
    m = 0 (mod Mbar) up to a float cap, a float band test with a 1e-6 guard
    on every angle, then the same exact certification."""
    mbar = common_period(problem.paths)
    data = [_PathData(p, mbar) for p in problem.paths]
    delta = problem.delta
    if vertex is not None and (len(vertex.chi) != len(data) or any(
        len(bits) != len(_bit_angles(pd.path)) for bits, pd in zip(vertex.angle_bits, data)
    )):
        raise ValueError("vertex spec shape does not match the problem")
    gen = max(range(len(data)), key=lambda i: len(_bit_angles(data[i].path)))
    g = data[gen]
    sp, C, _ = g.path.spectral

    def I(m):  # m*rho + sum of E(m*theta/pi) * S^-
        return (_index_iterate_by_unit_angles(g.path, 2 * m) + sp + C) // 2

    def accept(N):
        if N < max(1, min_N) or N > problem.N_bound or N % problem.N_multiple_of:
            return None
        got = []
        for i, pd in enumerate(data):
            want_chi = vertex.chi[i] if vertex is not None else None
            want_bits = vertex.angle_bits[i] if vertex is not None else None
            one = _try_path_by_exact(pd, N, mbar, delta, want_chi, want_bits, chi_eps)
            if one is None:
                return None
            got.append(one)
        ms, chis, bits, deltas = zip(*got)
        return CijtTuple(N, ms, chis, deltas, mbar, VertexSpec(chis, bits), delta)

    best = None
    if _bit_angles(g.path):
        want = vertex.angle_bits[gen] if vertex is not None else None
        df, ihat = float(delta), float(g.path.mean)
        floats = [float(t) for t in _bit_angles(g.path)]
        m_cap = int((problem.N_bound + 2 * C + 4) / ihat) + 2 * mbar
        m = max(mbar, (int(min_N / ihat) // mbar) * mbar)
        while m <= m_cap:
            if all(
                _float_band_ok((m * tf) % 1.0, df, want[j] if want else None)
                for j, tf in enumerate(floats)
            ):
                bits = _bands_by_exact(g, m, delta)
                if bits is not None and (want is None or bits == want):
                    cand = accept(I(m) - _delta_by_exact(g, m, delta))
                    if cand is not None and (best is None or cand.N < best.N):
                        if cand.m[gen] == m:
                            best = cand
                            m_cap = min(m_cap, int((best.N + 2 * C + 4) / ihat) + 2 * mbar)
            m += mbar
    else:
        start = max(1, min_N)
        start += (-start) % problem.N_multiple_of
        for N in range(start, problem.N_bound + 1, problem.N_multiple_of):
            best = accept(N)
            if best is not None:
                break
    if best is None:
        raise NotFoundWithinBound("no tuple with N <= %d" % problem.N_bound)
    report = verify_tuple(best, problem)
    if not report.ok:
        raise CertificationError("uncertifiable tuple")
    return CijtTuple(
        best.N, best.m, best.chi, best.Delta, best.M_bar, best.vertex, best.delta, report
    )


SCAN_BASES = [
    SQRT2M1, T35, PHI_M1, Exact.surd(-1, 1, 3), Exact.surd(Fraction(-1, 2), Fraction(1, 2), 7)
]
SCAN_RATIONALS = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(3, 5)]


def _scan_problem(rng, q_range=(1, 3),
                  deltas=(Fraction(1, 50), Fraction(1, 120), Fraction(1, 300))):
    """q <= 3 paths: at most one irrationally elliptic (one or two angles of
    one base surd), the rest hyperbolic or rational elliptic (Mbar > 1)."""
    q = rng.randint(*q_range)
    irr = rng.randrange(q)
    paths = []
    for j in range(q):
        if j == irr and rng.random() < 0.85:
            base = rng.choice(SCAN_BASES)
            blocks = [R(base) if rng.random() < 0.7 else N2(base, rng.random() < 0.5)]
            if rng.random() < 0.4:
                twice = base * 2
                blocks.append(R(twice if Exact(0) < twice < Exact(2) else Exact(2) - base))
            paths.append(path(rng.randint(1, 3), *blocks))
        elif rng.random() < 0.4:
            paths.append(path(rng.randint(1, 4), D(Exact(rng.choice([2, -2, 3])))))
        else:
            paths.append(path(rng.randint(1, 3), R(Exact(rng.choice(SCAN_RATIONALS)))))
    return SelectionProblem(
        paths,
        delta=rng.choice(deltas),
        m_bar=rng.randint(1, 3),
        N_bound=rng.choice([300, 1000, 3000]),
        N_multiple_of=rng.choice([1, 1, 2]),
    )


def _outcome(search, *args, **kw):
    try:
        return search(*args, **kw)
    except (NotFoundWithinBound, ValueError, CertificationError) as exc:
        return type(exc)


class TestHitSteppingOracle:
    def test_matches_linear_scan(self):
        """Random problems in the style of criterion 3: hit stepping and the
        old linear float scan return the same tuple or the same exception at
        the auto, opposite and explicit vertices and with min_N > 1, problems
        without an irrational angle (scanned N by N in the oracle) included."""
        rng = random.Random(5)
        seen = dict.fromkeys(("mbar>1", "opposite", "explicit", "min_N", "exhausted", "no angle"), 0)
        for _ in range(60):
            try:
                prob = _scan_problem(rng)
            except NonPositiveMeanIndex:
                continue
            mbar = common_period(prob.paths)
            data = [_PathData(p, mbar) for p in prob.paths]
            seen["no angle"] += not any(_bit_angles(pd.path) for pd in data)
            calls = [{}]
            t = _outcome(find_tuple, prob)
            if isinstance(t, CijtTuple):
                seen["mbar>1"] += mbar > 1 and any(_bit_angles(pd.path) for pd in data)
                opp = VertexSpec(
                    tuple(c if pd.u.is_rational else 1 - c for c, pd in zip(t.chi, data)),
                    tuple(tuple(1 - b for b in bits) for bits in t.vertex.angle_bits),
                )
                calls += [
                    {"vertex": opp, "chi_eps": prob.delta},
                    {"vertex": t.vertex, "min_N": t.N + 1},
                    {"min_N": rng.randint(2, prob.N_bound)},
                ]
            explicit = VertexSpec(
                tuple(rng.randint(0, 1) for _ in data),
                tuple(tuple(rng.randint(0, 1) for _ in _bit_angles(pd.path)) for pd in data),
            )
            calls.append({"vertex": explicit})
            if isinstance(t, CijtTuple) and t.N > 1:
                # the search range ends exactly at the last admissible m
                tight = SelectionProblem(
                    prob.paths, prob.delta, prob.m_bar, t.N, prob.N_multiple_of
                )
                assert find_tuple(tight) == t
                calls.append({"min_N": t.N - 1})
            for kw in calls:
                fast = t if not kw else _outcome(find_tuple, prob, **kw)
                assert fast == _outcome(_find_tuple_by_scan, prob, **kw), (prob, kw)
                seen["opposite"] += "chi_eps" in kw
                seen["explicit"] += kw.keys() == {"vertex"}
                seen["min_N"] += "min_N" in kw
                seen["exhausted"] += fast is NotFoundWithinBound
        assert all(seen.values()), seen

    def test_steps_by_every_return_time(self, monkeypatch):
        """Two or three paths at delta >= 1/20, so that a window has many
        hits: the search steps by each of the return times n1, n2 and n1 + n2
        and still finds what the linear scan finds, at the auto and opposite
        vertices and from min_N > 1."""
        taken = Counter()

        def return_time(ret, y, M, L):
            n = _return_time(ret, y, M, L)
            n1 = ret[0][0] if ret[0][1] < L else ret[1][0]  # n1*a mod M < L
            taken["n1 + n2" if len(ret) == 3 and n == ret[2][0] else "n1" if n == n1 else "n2"] += 1
            return n

        monkeypatch.setattr(_search, "_return_time", return_time)
        rng = random.Random(29)
        wide = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 6))
        for _ in range(30):
            try:
                prob = _scan_problem(rng, (2, 3), wide)
            except NonPositiveMeanIndex:
                continue
            t = _outcome(find_tuple, prob)
            calls = [{"min_N": rng.randint(2, prob.N_bound)}]
            if isinstance(t, CijtTuple):
                opp = VertexSpec(
                    tuple(c if pd.u.is_rational else 1 - c for c, pd in zip(t.chi, prob.data)),
                    tuple(tuple(1 - b for b in bits) for bits in t.vertex.angle_bits),
                )
                calls.append({"vertex": opp, "chi_eps": prob.delta})
            assert t == _outcome(_find_tuple_by_scan, prob), prob
            for kw in calls:
                assert _outcome(find_tuple, prob, **kw) == _outcome(_find_tuple_by_scan, prob, **kw)
        assert len(taken) == 3, taken

    def test_theorem_1_5_descents(self, descents, capsys):
        """The 1.5 verdict on s3_elliptic runs the Euclid descent fewer than
        20 times (105 when every hit was one): the hits after a window's
        second come from its return times."""
        assert main(["verify", os.path.join(DATASETS, "s3_elliptic.json"), "--theorem", "1.5"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out[:-1].encode()).hexdigest() == GOLDEN["1.5 s3"]
        assert descents["stepper"] + descents["returns"] < 20, descents

    @pytest.mark.parametrize("argv, stepper, returns", [
        (["cijt", "single_sqrt2.json", "--delta", "1/100"], 1, 0),
        (["verify", "s3_elliptic.json", "--theorem", "1.5"], 2, 4),
    ], ids=["single_sqrt2", "s3_elliptic-1.5"])
    def test_no_descent_past_the_cap(self, descents, capsys, argv, stepper, returns):
        """A search asks for no hit past its cap, which an accepted tuple
        lowers to k_max(N - 1), and a lowered cap keeps the window: the
        stepper's Euclid descents and those that set up a window's return
        times, counted apart.  A descent past the cap made the stepper's
        counts 2 and 5; a window restarted at each lowered cap, 3 on
        s3_elliptic."""
        assert main([argv[0], os.path.join(DATASETS, argv[1]), *argv[2:]]) == 0
        capsys.readouterr()
        assert (descents["stepper"], descents["returns"]) == (stepper, returns), descents

    @pytest.mark.parametrize("argv", [
        ["cijt", "s3_elliptic.json"],
        ["cijt", "single_sqrt2.json", "--delta", "1/10000"],
    ], ids=["s3_elliptic", "single_sqrt2-1e-4"])
    def test_generator_probed_once_per_hit(self, monkeypatch, capsys, argv):
        """The generator path (the one whose stepper runs) is probed once at
        each hit and at no other m: a candidate N takes its row from the hit
        (19 more probes on s3_elliptic and 1 on single_sqrt2 when the
        generator was searched again at both chi)."""
        probes, hits = Counter(), Counter()
        probe, stepper = _PathData.probe, _PathData.hits

        def probing(pd, m):
            probes[pd, m] += 1
            return probe(pd, m)

        def stepping(pd, *args):
            for k in stepper(pd, *args):
                hits[pd, k * pd.m_bar] += 1
                yield k

        monkeypatch.setattr(_PathData, "probe", probing)
        monkeypatch.setattr(_PathData, "hits", stepping)
        assert main([argv[0], os.path.join(DATASETS, argv[1]), *argv[2:]]) == 0
        capsys.readouterr()
        gens = {pd for pd, _ in hits}
        on_gen = Counter({key: n for key, n in probes.items() if key[0] in gens})
        assert on_gen and on_gen <= hits, sorted(m for _, m in on_gen - hits)


    @pytest.mark.parametrize("p, q", [(1, 1), (1, 3), (2, 3), (1, 5), (4, 7)])
    def test_near_rational_angles(self, p, q):
        """theta/pi = p/q +- 1e-9 * (sqrt(2) - 1): every multiple of q is a
        hit for a long stretch (each k for q = 1)."""
        tiny = SQRT2M1 * Fraction(1, 10**9)
        for theta in (Exact(Fraction(p, q)) + tiny, Exact(Fraction(p, q)) - tiny):
            prob = SelectionProblem(
                (path(1, R(theta)),), delta=Fraction(1, 10**7), N_bound=2000
            )
            fast = _outcome(find_tuple, prob)
            assert isinstance(fast, CijtTuple) and fast.m[0] % q == 0
            assert fast == _outcome(_find_tuple_by_scan, prob)
            after = {"min_N": fast.N + 1}
            assert _outcome(find_tuple, prob, **after) == _outcome(_find_tuple_by_scan, prob, **after)


class TestSteppedPath:
    """find_tuple steps the path with the least cap among those with an
    irrational angle, while the exit-3 residual stays on the first path with
    the most irrational angles."""

    @pytest.fixture
    def stepped(self, monkeypatch):
        """The hits each path's stepper yields, counted by path."""
        hits, stepper = Counter(), _PathData.hits

        def stepping(pd, *args):
            for k in stepper(pd, *args):
                hits[pd.path] += 1
                yield k

        monkeypatch.setattr(_PathData, "hits", stepping)
        return hits

    def test_exhausted_search_steps_the_sparse_path(self, stepped, tmp_path, capsys):
        """s2_elliptic with c2's initial index at 10^6: c2's k range up to
        N = 10^6 is two k wide, c1's about 1.3*10^6.  Stepping c1, the first of
        the two one-angle paths, took 26,189 hits; stepping c2 and ratcheting
        the residual on c1 takes 11, and the exit-3 line stays."""
        with open(os.path.join(DATASETS, "s2_elliptic.json")) as fh:
            doc = json.load(fh)
        doc["records"][1]["initial_index"] = 10**6
        dataset = tmp_path / "exhausted.json"
        dataset.write_text(json.dumps(doc))
        assert main(["cijt", str(dataset), "--delta", "1/100", "--n-bound", "1000000"]) == 3
        assert capsys.readouterr().err == (
            "search exhausted: no tuple with N <= 1000000 "
            "(delta = 1/100, best lattice residual 5.37e-07)\n"
        )
        assert sum(stepped.values()) < 100, stepped

    def test_theorem_1_1_steps_c2(self, stepped, capsys):
        """On s2_elliptic both records have one irrational angle, and c2's
        larger mean index gives it the smaller cap: every search of the 1.1
        verdict steps c2."""
        path = os.path.join(DATASETS, "s2_elliptic.json")
        assert main(["verify", path, "--theorem", "1.1"]) == 0
        capsys.readouterr()
        records = load_dataset(path).records
        assert records[1].name == "c2" and set(stepped) == {records[1].path}, stepped


def _opposite_from_one(t, problem, chi_eps=None):
    """opposite_tuple as it was before it started at the primary N, kept as
    an oracle: the opposite vertex searched over every N from 1."""
    data = problem.data
    chi = tuple(c if pd.u.is_rational else 1 - c for c, pd in zip(t.chi, data))
    bits = tuple(tuple(1 - b for b in path_bits) for path_bits in t.vertex.angle_bits)
    opp = find_tuple(
        problem, vertex=VertexSpec(chi, bits), chi_eps=problem.delta if chi_eps is None else chi_eps
    )
    if any(t.Delta[k] + opp.Delta[k] != sum(e[3] + e[4] for e in pd.blocks)
           for k, pd in enumerate(data)):
        raise CertificationError("Delta + Delta' is not the irrational S^- weight")
    return opp


def _opposite_problem(rng):
    """One to three paths, each irrationally elliptic (one surd angle, with a
    rational one beside it at times), rationally elliptic or hyperbolic."""
    paths = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.55:
            base = rng.choice(SCAN_BASES)
            blocks = [R(base) if rng.random() < 0.7 else N2(base, rng.random() < 0.5)]
            if rng.random() < 0.3:
                blocks.append(R(Exact(rng.choice(SCAN_RATIONALS))))
            paths.append(path(rng.randint(1, 3), *blocks))
        elif kind < 0.8:
            paths.append(path(rng.randint(1, 3), R(Exact(rng.choice(SCAN_RATIONALS)))))
        else:
            paths.append(path(rng.randint(1, 4), D(Exact(rng.choice([2, -2, 3])))))
    return SelectionProblem(
        paths,
        delta=rng.choice([Fraction(1, 20), Fraction(1, 50), Fraction(1, 120)]),
        m_bar=rng.randint(1, 3),
        N_bound=rng.choice([300, 2000, 10000, 50000]),
        N_multiple_of=rng.choice([1, 2, 3]),
    )


class TestOppositeFromPrimaryN:
    def test_matches_search_from_one(self):
        """The opposite search starts at the primary N; the search over every
        N from 1 finds the same tuple or raises the same exception, with
        chi_eps None and delta at both searches.  An exhausted opposite search
        reports the least residual on the residual's path (the first with the
        most irrational angles) over k >= [u*N] of the primary tuple."""
        rng = random.Random(15)
        seen = Counter()
        while seen["problems"] < 220:
            try:
                prob = _opposite_problem(rng)
            except NonPositiveMeanIndex:
                continue
            seen["problems"] += 1
            rp = max(prob.data, key=lambda pd: len(_bit_angles(pd.path)))  # the residual's path
            for chi_eps in (None, prob.delta):
                t = _outcome(find_tuple, prob, chi_eps=chi_eps)
                if not isinstance(t, CijtTuple):
                    continue
                try:
                    fast = opposite_tuple(t, prob, chi_eps=chi_eps)
                except NotFoundWithinBound as exc:
                    fast, residual = NotFoundWithinBound, exc.best_residual
                except (ValueError, CertificationError) as exc:
                    fast = type(exc)
                assert fast == _outcome(_opposite_from_one, t, prob, chi_eps=chi_eps), (prob, chi_eps)
                seen["mbar>1"] += prob.period > 1
                seen["N multiple>1"] += prob.N_multiple_of > 1
                seen["irrational paths>1"] += sum(bool(_bit_angles(pd.path)) for pd in prob.data) > 1
                if isinstance(fast, CijtTuple):
                    seen["found"] += 1
                    seen["found above primary N"] += fast.N > t.N
                    continue
                seen["exhausted"] += fast is NotFoundWithinBound
                k_lo = max(1, floor_mult(rp.u, t.N))
                k_cap = floor_mult(rp.u, prob.N_bound) + 1
                if fast is NotFoundWithinBound and _bit_angles(rp.path) and k_cap - k_lo < 4000:
                    fracs = ([frac_mult(a, k * prob.period) for a in _bit_angles(rp.path)]
                             for k in range(k_lo, k_cap + 1))
                    brute = min(max(min(f, 1 - f) for f in fs) for fs in fracs)
                    assert residual == float(brute), (prob, chi_eps)
                    seen["residual checked"] += 1
        assert len(seen) == 8 and min(seen.values()) >= 3, seen


def q_correction(path, m_k, m):
    """Q_k(m): S^- weight of angles with {m_k*theta/pi} = {m*theta/2pi} = 0,
    summed over the merged unit angles theta/2pi of the Exact oracle."""
    return sum(
        w for x, w in _spectral_by_unit_angles(path)[2]
        if x.is_rational and (2 * m_k * x.A) % x.q == 0 and (m * x.A) % x.q == 0
    )


def _verify_tuple_by_definition(t, problem):
    """verify_tuple as it was before each value was evaluated once, kept as
    an oracle: every check evaluates both of its sides afresh."""
    checks = []
    for k, (p, m_k) in enumerate(zip(problem.paths, t.m)):
        sp, mc, two_n = p.spectral[0], m_check(p.monodromy), 2 * t.N
        for m in range(1, problem.m_bar + 1):
            for side, it in (("+", 2 * m_k + m), ("-", 2 * m_k - m)):
                if it < 1:
                    continue
                eq = "nullity(2m%s m)" % side
                checks.append(CheckRecord(k, m, eq, nullity(p.monodromy, it), nullity(p.monodromy, m)))
                if mc is None or m < mc:
                    checks.append(
                        CheckRecord(k, m, eq + " = nullity(1)", nullity(p.monodromy, it), nullity(p.monodromy, 1))
                    )
            checks.append(CheckRecord(
                k, m, "index(2m+m)", index_iterate(p, 2 * m_k + m), two_n + index_iterate(p, m)
            ))
            if 2 * m_k - m >= 1:
                rhs = two_n - index_iterate(p, m) - 2 * (sp + q_correction(p, m_k, m))
                checks.append(CheckRecord(k, m, "index(2m-m)", index_iterate(p, 2 * m_k - m), rhs))
        checks.append(
            CheckRecord(k, 0, "index(2m)", index_iterate(p, 2 * m_k), jump_index(p, t.N, t.Delta[k]))
        )
    return VerificationReport(tuple(checks))


class TestVerifyTupleOracle:
    def test_matches_checks_by_definition(self):
        """The same CheckRecords in the same order as a report that evaluates
        every side afresh, at found tuples (rational paths carry nullity) and
        at tuples whose N or m_k is moved, so that checks fail too."""
        rng = random.Random(16)
        seen = Counter()
        while seen["tuples"] < 60:
            try:
                prob = _opposite_problem(rng)
            except NonPositiveMeanIndex:
                continue
            t = _outcome(find_tuple, prob)
            if not isinstance(t, CijtTuple):
                continue
            seen["tuples"] += 1
            moved_m = tuple(m + 1 for m in t.m)  # off the multiples of Mbar
            for u in (t, CijtTuple(t.N + 1, t.m, t.chi, t.Delta, t.M_bar, t.vertex, t.delta),
                      CijtTuple(t.N, moved_m, t.chi, t.Delta, t.M_bar, t.vertex, t.delta)):
                report = verify_tuple(u, prob)
                assert report == _verify_tuple_by_definition(u, prob), (prob, u)
                seen["failing"] += not report.ok
                seen["nullity"] += any(c.lhs for c in report.checks if "nullity" in c.equation)
                seen["nullity fails"] += any(c.lhs != c.rhs for c in report.checks if "nullity" in c.equation)
        assert min(seen.values()) >= 3, seen

    def test_matches_on_probe_paths(self):
        """The same on one or two paths of ``_probe_path``: rational R and N2
        blocks, N1(-1, b) and two-radicand angles, with m_bar up to 6, where
        Q_k > 0 comes from an N1 or N2 block as well as from an R block."""
        rng = random.Random(41)
        seen = Counter()
        for _ in range(46):
            paths = [_probe_path(rng) for _ in range(rng.randint(1, 2))]
            prob = SelectionProblem(paths, delta=Fraction(1, 50), m_bar=rng.randint(1, 6), N_bound=3000)
            t = _outcome(find_tuple, prob)
            if not isinstance(t, CijtTuple):
                continue
            seen["tuples"] += 1
            moved_m = tuple(m + 1 for m in t.m)
            for u in (t, CijtTuple(t.N, moved_m, t.chi, t.Delta, t.M_bar, t.vertex, t.delta)):
                assert verify_tuple(u, prob) == _verify_tuple_by_definition(u, prob), (prob, u)
                seen["Q_k > 0 beside N1 or N2"] += any(
                    q_correction(p, m_k, m) > 0
                    for p, m_k in zip(paths, u.m) if any(isinstance(b, (N1, N2)) for b in p.monodromy.blocks)
                    for m in range(1, prob.m_bar + 1) if 2 * m_k - m >= 1
                )
        assert seen["tuples"] >= 30 and seen["Q_k > 0 beside N1 or N2"] >= 5, seen


class TestVerifyTuple:
    def test_report_values(self, sqrt2_problem, sqrt2_tuple):
        report = verify_tuple(sqrt2_tuple, sqrt2_problem)
        assert report.ok
        p = sqrt2_problem.paths[0]
        # i(140 +- 1) = 58 -+ ... : 59 and 57
        assert index_iterate(p, 141) == 59 == 58 + index_iterate(p, 1)
        assert index_iterate(p, 139) == 57 == 58 - index_iterate(p, 1)
        assert index_iterate(p, 140) == 57  # 2N - (S+ + C - 2 Delta)

    def test_mismatch_detected(self, sqrt2_problem, sqrt2_tuple):
        from cijt.engine import CijtTuple

        broken = CijtTuple(
            sqrt2_tuple.N + 1,
            sqrt2_tuple.m,
            sqrt2_tuple.chi,
            sqrt2_tuple.Delta,
            sqrt2_tuple.M_bar,
            sqrt2_tuple.vertex,
            sqrt2_tuple.delta,
        )
        report = verify_tuple(broken, sqrt2_problem)
        assert not report.ok
        assert report.mismatches

    def test_window_invariants(self, sqrt2_problem, sqrt2_tuple):
        p = sqrt2_problem.paths[0]
        two_n, m_k = 2 * sqrt2_tuple.N, sqrt2_tuple.m[0]
        for m in range(1, 2 * m_k):
            assert index_iterate(p, 2 * m_k - m) <= two_n - 1
        for m in range(1, 10 * m_k + 1):
            assert index_iterate(p, 2 * m_k + m) >= two_n + 1


class TestMBarForGeodesics:
    def test_examples(self):
        hyp = path(1, D(Exact(2)))
        rot = path(1, R(T35))
        assert m_bar_for_geodesics([hyp], 2, 1) == 3
        assert m_bar_for_geodesics([rot], 2, 1) == 3
        assert m_bar_for_geodesics([hyp, rot], 2, 1) == 3

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(NonPositiveMeanIndex):
            m_bar_for_geodesics([path(0, R(SQRT2M1))], 2, 1)


class TestSerialization:
    def test_tuple_json(self, sqrt2_tuple):
        doc = sqrt2_tuple.to_json()
        assert doc["N"] == 29 and doc["m"] == [70]
        assert doc["verification"]["ok"] is True
        report = doc["verification"]["checks"]
        assert report is sqrt2_tuple.report  # dumps writes its rows
        assert report.to_json()[0] == {
            "path": 0, "m": 1, "equation": "nullity(2m+ m)", "lhs": 0, "rhs": 0, "ok": True,
        }
        assert [(c["path"], c["m"], c["equation"], c["lhs"], c["rhs"], c["ok"]) for c in report.to_json()] == [
            (*c, c.lhs == c.rhs) for c in report.checks
        ]

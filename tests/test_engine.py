from fractions import Fraction

import pytest

from cijt.scalars import Exact, Lattice, frac_mult, is_near_lattice
from cijt.normal_forms import D, R, SymplecticClass, crossing_sum
from cijt.iteration import PathClass, index_iterate, mean_index
from cijt.engine import (
    NonPositiveMeanIndex,
    NotFoundWithinBound,
    SelectionProblem,
    VertexSpec,
    common_period,
    delta_zero,
    find_tuple,
    m_bar_for_geodesics,
    opposite_tuple,
    verify_tuple,
)

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
        assert abs(delta_zero([path(1, R(SQRT2M1))], 3) - delta_zero([path(1, R(SQRT2M1))], 1)) \
            < Fraction(1, 100000)


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

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cijt.iteration import CohomologyShape
from cijt.loop_homology import (
    _in_omega,
    alternating_betti_sum,
    betti,
    betti_partial_sum,
    epsilon_correction,
    resonance_constant,
)

EVEN_SHAPES = [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (6, 1), (8, 2)]
ODD_SHAPES = [(3, 1), (5, 1), (7, 1), (9, 1)]


class TestShape:
    def test_odd_d_forces_n_1(self):
        with pytest.raises(ValueError):
            CohomologyShape(3, 2)

    def test_derived_quantities(self):
        s = CohomologyShape(4, 2)
        assert (s.dim, s.D) == (8, 10)


class TestResonanceConstant:
    def test_values(self):
        assert resonance_constant(CohomologyShape(2, 1)) == -1
        assert resonance_constant(CohomologyShape(3, 1)) == 1
        assert resonance_constant(CohomologyShape(4, 2)) == Fraction(-6, 5)


class TestBetti:
    def test_odd_sphere(self):
        s = CohomologyShape(3, 1)
        assert betti(s, 2) == 1
        assert betti(s, 4) == 2
        assert betti(s, 0) == 0
        assert betti(s, 3) == 0

    def test_even_low_degrees(self):
        s = CohomologyShape(2, 1)
        assert betti(s, 1) == 1
        assert betti(s, 3) == 2
        assert betti(s, 0) == 0

    @pytest.mark.parametrize("d,n", EVEN_SHAPES)
    def test_even_support_and_bound(self, d, n):
        s = CohomologyShape(d, n)
        for p in range(0, 300):
            b = betti(s, p)
            assert 0 <= b <= n + 1
            if p % 2 == 0:
                assert b == 0

    @pytest.mark.parametrize("d,n", ODD_SHAPES)
    def test_odd_bound(self, d, n):
        s = CohomologyShape(d, n)
        assert all(betti(s, p) <= 2 for p in range(300))


def _in_omega_by_loop(shape, p):
    """Omega membership by a loop over i, O(p/D) per degree: the oracle."""
    d, n, D = shape.d, shape.n, shape.D
    r = p - (d - 1)
    i = 1
    while i * D <= r:
        j, rem = divmod(r - i * D, d)
        if rem == 0 and 0 <= j <= n - 1:
            return True
        i += 1
    return False


class TestOmegaMembership:
    @pytest.mark.parametrize("d", range(2, 15, 2))
    def test_matches_i_loop(self, d):
        for n in range(1, 8):
            shape = CohomologyShape(d, n)
            for p in range(4000):
                assert _in_omega(shape, p) == _in_omega_by_loop(shape, p), (d, n, p)


class TestPartialSums:
    def test_spec_examples(self):
        assert betti_partial_sum(CohomologyShape(3, 1), 4) == (3, 3)
        assert betti_partial_sum(CohomologyShape(3, 1), 7) == (5, 5)
        assert betti_partial_sum(CohomologyShape(2, 1), 5) == (5, 5)

    @pytest.mark.parametrize("d,n", EVEN_SHAPES + ODD_SHAPES)
    def test_agreement_gate(self, d, n):
        """Closed form and periodic direct sum both equal the degree-by-degree sum."""
        shape = CohomologyShape(d, n)
        lo = (d - 1) if d % 2 else (d * n - 1)
        running = sum(betti(shape, p) for p in range(lo))
        for l in range(lo, 3000):
            running += betti(shape, l)
            assert betti_partial_sum(shape, l) == (running, running), (d, n, l)

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError):
            betti_partial_sum(CohomologyShape(4, 2), 3)


def epsilon_by_fractions(shape, l):
    """The epsilon correction as it was computed before it became integers
    over one denominator, kept as its oracle: x = {(l - (d-1))/D} and
    {D/(dn)*x} - (2/d + (d-2)/(dn))*x - n*{D/2*x} - {D/d*x} in Fractions."""
    d, n, D = shape.d, shape.n, shape.D

    def frac(x):
        return x - (x.numerator // x.denominator)

    x = frac(Fraction(l - (d - 1), D))
    return (
        frac(Fraction(D, d * n) * x)
        - (Fraction(2, d) + Fraction(d - 2, d * n)) * x
        - n * frac(Fraction(D, 2) * x)
        - frac(Fraction(D, d) * x)
    )


def closed_form_by_fractions(shape, l):
    """The even-d closed form of sum_{p<=l} b_p in Fractions, with the
    epsilon oracle."""
    d, n = shape.d, shape.n
    return (
        Fraction(n * (n + 1) * d, 2 * shape.D) * (l - (d - 1))
        - Fraction(n * (n - 1) * d, 4)
        + 1
        + epsilon_by_fractions(shape, l)
    )


class TestEpsilon:
    @given(st.integers(1, 5).map(lambda h: 2 * h), st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_form_against_fractions(self, d, n, data):
        """Even d <= 10, n <= 5, l across three periods D past dn - 1: the
        integer epsilon and closed form against their Fraction forms."""
        shape = CohomologyShape(d, n)
        l = data.draw(st.integers(d * n - 1, d * n - 1 + 3 * shape.D))
        assert epsilon_correction(shape, l) == epsilon_by_fractions(shape, l)
        closed, direct = betti_partial_sum(shape, l)
        assert closed == closed_form_by_fractions(shape, l) == direct

    def test_d2_vanishes_on_integer_points(self):
        s = CohomologyShape(2, 1)
        for l in (1, 3, 5, 99):
            assert epsilon_correction(s, l) == 0

    @pytest.mark.parametrize("d,n", EVEN_SHAPES)
    def test_two_n_minus_one_identity(self, d, n):
        # at l = 2N - 1 with N a multiple of D: epsilon = -(d-2)/D
        s = CohomologyShape(d, n)
        for k in (1, 2, 7):
            N = k * s.D
            assert epsilon_correction(s, 2 * N - 1) == Fraction(-(d - 2), s.D)

    def test_4_2_example_value(self):
        s = CohomologyShape(4, 2)
        eps = epsilon_correction(s, 13)
        closed, direct = betti_partial_sum(s, 13)
        assert closed == direct  # eps is exactly what closes the gap

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            epsilon_correction(CohomologyShape(3, 1), 5)


class TestAlternatingSum:
    def test_even_d_is_minus_partial(self):
        s = CohomologyShape(2, 1)
        for N in (2, 4, 10):
            assert alternating_betti_sum(s, 2 * N) == -2 * N + 1

    def test_odd_d_formula(self):
        s = CohomologyShape(3, 1)
        for N in (2, 4, 10):  # multiples of d - 1
            assert alternating_betti_sum(s, 2 * N) == 2 * N - 1

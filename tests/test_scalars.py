import decimal
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cijt.scalars import (
    Exact,
    _below_half,
    _enclosure,
    _floor,
    _squarefree_split,
    ceil_mult,
    floor_mult,
)
from cijt._search import _next_hit, _return_time, _returns
from oracles import SQRT2M1, Lattice, frac_mult, is_near_lattice, shipped, time_limit

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
surd_bases = st.sampled_from([2, 3, 5, 7, 10, 13, 6])
# radicands whose products share primes: sqrt6*sqrt10 = 2*sqrt15
shared_primes = st.sampled_from([2, 3, 6, 5, 10, 15, 30, 7])
# small iterates and ones far beyond float precision (m*x near 2**53 and up)
multipliers = st.one_of(st.integers(1, 500), st.integers(1, 10**15))


def convergent_below(s, max_den):
    """The last continued-fraction convergent p/q < sqrt(s) with q < max_den."""
    a0 = math.isqrt(s)
    m, d, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    best = Fraction(a0)
    while True:
        m = d * a - m
        d = (s - m * m) // d
        a = (a0 + m) // d
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 >= max_den:
            return best
        if p1 * p1 < s * q1 * q1:
            best = Fraction(p1, q1)


@st.composite
def exacts(draw, max_terms=2, bases=surd_bases):
    x = Exact(draw(fractions))
    for _ in range(draw(st.integers(0, max_terms))):
        x = x + Exact.surd(0, draw(fractions), draw(bases))
    return x


class FractionOracle:
    """r + sum_s c_s*sqrt(s) with Fraction r and c_s: Exact's arithmetic as it
    was before Exact held integers, kept to check the integer kernel."""

    def __init__(self, r, terms=None):
        self.r = Fraction(r)
        self.terms = {s: c for s, c in (terms or {}).items() if c != 0}

    @staticmethod
    def of(x: Exact) -> "FractionOracle":
        return FractionOracle(Fraction(x.A, x.q), {s: Fraction(b, x.q) for s, b in x.B.items()})

    def __eq__(self, other):
        return self.r == other.r and self.terms == other.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, Fraction(0)) + c
        return FractionOracle(self.r + other.r, terms)

    def __neg__(self):
        return FractionOracle(-self.r, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        r, terms = self.r * other.r, {}
        for s, c in self.terms.items():
            terms[s] = terms.get(s, 0) + c * other.r
        for s, c in other.terms.items():
            terms[s] = terms.get(s, 0) + c * self.r
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                if s1 == s2:
                    r += c1 * c2 * s1
                else:
                    g = math.gcd(s1, s2)
                    k = (s1 // g) * (s2 // g)
                    terms[k] = terms.get(k, 0) + c1 * c2 * g
        return FractionOracle(r, terms)

    def inverse(self) -> "FractionOracle":
        if not self.terms:
            return FractionOracle(1 / self.r)
        b = max(self.terms)
        for t in self.terms:
            if math.gcd(t, b) > 1:
                b = math.gcd(t, b)
        P = FractionOracle(self.r, {t: c for t, c in self.terms.items() if t % b})
        Q = FractionOracle(
            self.terms.get(b, 0),
            {t // b: c for t, c in self.terms.items() if t % b == 0 and t != b},
        )
        denominator = P * P - Q * Q * FractionOracle(b)
        return (P - Q * FractionOracle(0, {b: 1})) * denominator.inverse()

    def sign(self) -> int:
        """Zero only with every coefficient zero (the roots of distinct
        squarefree integers are independent over Q); else 400-digit decimals."""
        if not self.r and not self.terms:
            return 0
        with decimal.localcontext(decimal.Context(prec=400)):
            def dec(f):
                return decimal.Decimal(f.numerator) / f.denominator

            value = dec(self.r) + sum(dec(c) * decimal.Decimal(s).sqrt()
                                      for s, c in self.terms.items())
            assert abs(value) > decimal.Decimal(10) ** -300, "oracle cannot decide"
            return 1 if value > 0 else -1


def assert_normal(x: Exact):
    """(A + sum B_s*sqrt(s))/q in lowest terms, q > 0, squarefree s > 1."""
    assert x.q > 0 and math.gcd(x.A, x.q, *x.B.values()) == 1
    assert all(b != 0 and s > 1 and _squarefree_split(s)[0] == 1 for s, b in x.B.items())


class TestConstruction:
    def test_squarefree_reduction(self):
        assert Exact.surd(0, 1, 8) == Exact.surd(0, 2, 2)
        assert Exact.surd(0, 1, 9) == Exact(3)
        assert Exact.surd(0, 1, 12) == Exact.surd(0, 2, 3)

    def test_perfect_square_collapses_to_rational(self):
        assert Exact.surd(1, 2, 16).is_rational
        assert (Exact.surd(1, 2, 16).A, Exact.surd(1, 2, 16).q) == (9, 1)

    def test_zero_coefficient_drops_term(self):
        assert Exact.surd(3, 0, 7).is_rational

    def test_integer_form(self):
        """Held as (A + sum B_s*sqrt(s))/q in lowest terms with q > 0."""
        x = Exact.surd(Fraction(-2, 4), Fraction(3, -6), 2) + Exact.surd(0, Fraction(1, 3), 7)
        assert (x.A, x.B, x.q) == (-3, {2: -3, 7: 2}, 6)
        assert x.to_json() == {"kind": "sum", "rational": [-1, 2], "terms": [
            {"coeff": [-1, 2], "s": 2}, {"coeff": [1, 3], "s": 7}]}
        assert repr(x) == "Exact(-1/2 + -1/2*sqrt(2) + 1/3*sqrt(7))"
        assert (Exact.surd(6, 4, 2) / 2).B == {2: 2}

    def test_floats_refused(self):
        """A float is no exact value: it is refused, not converted."""
        refused = [
            lambda: Exact(0.1),
            lambda: Exact.surd(0, 0.5, 2),
            lambda: Exact.surd(0.5, 1, 2),
            lambda: SQRT2M1 + 0.5,
            lambda: SQRT2M1 * 0.5,
            lambda: SQRT2M1 / 0.5,
            lambda: 0.5 - SQRT2M1,
            lambda: SQRT2M1 < 0.5,
            lambda: is_near_lattice(Exact.surd(0, 1, 2), 5, 0.01),
        ]
        for make in refused:
            with pytest.raises(TypeError):
                make()

    def test_hash_agrees_with_eq(self):
        """Equal values hash equal, whatever route built them."""
        sqrt2, sqrt3 = Exact.surd(0, 1, 2), Exact.surd(0, 1, 3)
        x = Exact.surd(2, -3, 5)
        pairs = [
            (Exact(1), 1),
            (Exact(Fraction(6, 4)), Fraction(3, 2)),
            (Exact.surd(0, 1, 9), 3),
            (Exact.surd(0, 1, 8), Exact.surd(0, 2, 2)),
            (Exact(0) + Exact.surd(0, 1, 8), Exact.surd(0, 2, 2)),
            (Exact(1) + Exact.surd(0, Fraction(1, 2), 4), 2),
            (Exact.surd(0, 1, 12), sqrt3 * 2),
            (x * x, Exact.surd(49, -12, 5)),
            (sqrt2 * sqrt3, Exact.surd(0, 1, 6)),
            (Exact(1) / SQRT2M1, Exact.surd(1, 1, 2)),
            ((sqrt2 + sqrt3) - sqrt3, sqrt2),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), (a, b)
        assert {Exact(1): "v"}.get(1) == "v"
        assert {Fraction(1, 2): "v"}.get(Exact(Fraction(1, 2))) == "v"


# numerators and denominators up to 2^200, and the hash modulus, where a
# Fraction's hash is inf
_BIG = 2**200
_P = sys.hash_info.modulus


class TestRationalParity:
    """A rational Exact prints, hashes and compares as the equal Fraction, so
    that it can stand in for one byte for byte."""

    @given(p=st.one_of(st.integers(-_BIG, _BIG), st.sampled_from([0, 1, -1])),
           q=st.one_of(st.integers(1, _BIG), st.just(1)),
           p2=st.integers(-_BIG, _BIG), q2=st.integers(1, _BIG))
    @example(p=1, q=_P, p2=-1, q2=_P)  # hash inf, and -inf
    @example(p=-(_P + 2), q=2, p2=0, q2=1)  # a hash of -1 is -2
    @example(p=3, q=6, p2=1, q2=2)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_fraction(self, p, q, p2, q2):
        x, f = Exact(p, q), Fraction(p, q)
        y, g = Exact(p2, q2), Fraction(p2, q2)
        assert (x.numerator, x.denominator) == (f.numerator, f.denominator)
        assert str(x) == str(f) and hash(x) == hash(f)
        assert x == f and f == x and (x == g) == (f == g) == (g == x) == (x == y)
        assert (x < g) == (f < g) == (g > x) == (x < y)
        assert (g < x) == (g < f) == (x > g) == (y < x)
        assert x.to_json() == {"kind": "rational", "num": f.numerator, "den": f.denominator}
        assert repr(x) == "Exact(%s)" % f

    def test_shipped_angles_print_as_before(self):
        """The repr of every block of the shipped datasets, as it read when
        the rational parts printed through Fraction."""
        want = {
            "s2_elliptic": ["R(theta=Exact(3 + -1*sqrt(5)))", "R(theta=Exact(-1/2 + 1/2*sqrt(5)))"],
            "s3_elliptic": [
                "R(theta=Exact(-2/3 + 2/3*sqrt(5)))", "R(theta=Exact(-4/3 + 4/3*sqrt(5)))",
                "R(theta=Exact(-2/3 + 2/3*sqrt(5)))", "R(theta=Exact(-4/3 + 4/3*sqrt(5)))",
                "R(theta=Exact(-1/2 + 1/2*sqrt(5)))", "R(theta=Exact(5/2 + -1/2*sqrt(5)))",
                "R(theta=Exact(-1/2 + 1/2*sqrt(5)))", "R(theta=Exact(5/2 + -1/2*sqrt(5)))",
                "R(theta=Exact(-1/6 + 1/6*sqrt(5)))", "R(theta=Exact(-1/3 + 1/3*sqrt(5)))",
            ],
            "s2_hyperbolic": ["D(lam=Exact(2))", "D(lam=Exact(-3))"],
            "single_sqrt2": ["R(theta=Exact(-1 + 1*sqrt(2)))"],
        }
        for name, reprs in want.items():
            ds = shipped(name)
            assert [repr(b) for r in ds.records for b in r.path.monodromy.blocks] == reprs, name

    def test_irrational_has_no_ratio(self):
        """An irrational Exact has no numerator or denominator, so every
        entry point that reads a rational refuses it."""
        assert not hasattr(SQRT2M1, "numerator") and not hasattr(SQRT2M1, "denominator")
        with pytest.raises(TypeError):
            _below_half(SQRT2M1 * Fraction(1, 10), "delta")
        with pytest.raises(TypeError):
            Exact(SQRT2M1)
        assert str(SQRT2M1) == repr(SQRT2M1) == "Exact(-1 + 1*sqrt(2))"
        assert _below_half(Exact(1, 3), "delta") == Fraction(1, 3)
        with pytest.raises(ZeroDivisionError):
            Exact(1, 0)


class TestArithmetic:
    def test_division_by_conjugation(self):
        # 1/(sqrt2 - 1) = sqrt2 + 1
        assert Exact(1) / SQRT2M1 == Exact.surd(1, 1, 2)

    def test_mixed_radicand_product(self):
        # sqrt6 * sqrt10 = 2*sqrt15
        assert Exact.surd(0, 1, 6) * Exact.surd(0, 1, 10) == Exact.surd(0, 2, 15)

    def test_square_of_surd(self):
        x = Exact.surd(2, -3, 5)
        assert x * x == Exact.surd(49, -12, 5)

    @given(
        exacts(max_terms=4, bases=shared_primes),
        exacts(max_terms=4, bases=shared_primes),
        multipliers,
    )
    @example(Exact.surd(0, 1, 6) - Exact.surd(0, 1, 2),
             Exact(1) + Exact.surd(0, 1, 2) + Exact.surd(0, 1, 3) + Exact.surd(0, 1, 5), 10**15)
    @example(Exact.surd(0, 1, 8), Exact.surd(0, 2, 2), 7)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_oracle(self, a, b, m):
        """+, -, *, /, comparisons and floor_mult equal the Fraction oracle's,
        on up to four radicands sharing primes (sqrt2*sqrt3 = sqrt6), and every
        result is in normal form."""
        oa, ob = FractionOracle.of(a), FractionOracle.of(b)
        results = [(a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob)]
        if b:
            with time_limit(10):
                results.append((a / b, oa * ob.inverse()))
        for got, want in results:
            assert_normal(got)
            assert FractionOracle.of(got) == want
        d = (oa - ob).sign()
        assert (a < b, a <= b, a == b, a > b, a >= b) == (d < 0, d <= 0, d == 0, d > 0, d >= 0)
        ma = oa * FractionOracle(m)
        k = floor_mult(a, m)
        assert (ma - FractionOracle(k)).sign() >= 0 > (ma - FractionOracle(k + 1)).sign()

    @given(exacts(max_terms=4))
    @example(Exact(1) + Exact.surd(0, 1, 2) + Exact.surd(0, 1, 3) + Exact.surd(0, 1, 5))
    @settings(max_examples=100, deadline=None)
    def test_division_round_trip(self, a):
        """Each step of the inverse peels a radicand factor, so it ends even
        where radicands share primes (sqrt2*sqrt3 = sqrt6)."""
        if not a:
            return
        with time_limit(10):
            assert (a / a) == Exact(1)
            assert a * (Exact(1) / a) == Exact(1)


def decimal_value(a):
    """a as a Decimal, in the current decimal context."""
    return (decimal.Decimal(a.A) + sum(b * decimal.Decimal(s).sqrt() for s, b in a.B.items())) / a.q


class TestSign:
    def test_single_surd_sign(self):
        assert SQRT2M1.sign() == 1
        assert Exact.surd(3, -2, 2).sign() == 1      # 3 - 2*sqrt2 > 0
        assert Exact.surd(2, -3, 2).sign() == -1     # 2 - 3*sqrt2 < 0

    def test_multi_surd_sign(self):
        # sqrt2 + sqrt3 - sqrt5 > 0 needs interval refinement
        x = Exact.surd(0, 1, 2) + Exact.surd(0, 1, 3) - Exact.surd(0, 1, 5)
        assert x.sign() == 1

    def test_tight_multi_surd(self):
        # sqrt2 + sqrt3 - sqrt(5 + epsilon-free tight combo): sign via escalation
        x = Exact.surd(0, 1, 2) * 99 - Exact.surd(0, 1, 3) * Fraction(140008, 1732)
        assert x.sign() == (1 if float(x) > 0 else -1)

    def test_sign_about_2_to_minus_4200(self):
        """(sqrt2 - p/q) + (sqrt3 - r/t), both convergents from below with
        denominators under 2**2100: 4200 bits below 1, past any fixed cap."""
        x = Exact.surd(-convergent_below(2, 2**2100), 1, 2) + Exact.surd(
            -convergent_below(3, 2**2100), 1, 3
        )
        assert x.sign() == 1 and (-x).sign() == -1
        assert Exact(0) < x < Exact(Fraction(1, 2**4000))
        # the same hair above a nonzero integer: the floor must separate it
        assert Exact(3) < x + 3 < Exact(3) + Fraction(1, 2**4000)
        assert floor_mult(x + 3, 1) == 3 and ceil_mult(x + 3, 1) == 4
        assert floor_mult(3 - x, 1) == 2

    @given(st.data(), surd_bases, fractions, fractions)
    @settings(max_examples=200, deadline=None)
    def test_comparisons_match_sign_of_difference(self, data, s, r, c):
        """Comparisons on the integer forms (one shared radicand or none)
        agree with the sign of the difference, for every kind of operand."""
        a = Exact.surd(r, c, s)
        b = data.draw(st.one_of(
            st.builds(lambda r2, c2: Exact.surd(r2, c2, s), fractions, fractions),
            fractions.map(Exact),
            exacts(),
            st.just(a),
            st.integers(-3, 3).map(lambda k: a + Exact.surd(0, Fraction(k, 10**30), s)),
        ))
        for x, y in ((a, b), (b, a)):
            d = (x - y).sign()
            assert (x < y, x <= y, x > y, x >= y) == (d < 0, d <= 0, d > 0, d >= 0)
        d = (a - r).sign()
        assert (a < r, a <= r, a > r, a >= r) == (d < 0, d <= 0, d > 0, d >= 0)

    @given(exacts(max_terms=4), multipliers)
    @settings(max_examples=150, deadline=None)
    def test_enclosures_hold_the_value(self, a, m):
        """lo < m*a*den < hi at the first three precisions (0, 64 and 128
        bits), against 400-digit decimal square roots: each bound is off the
        value by a fraction of a unit, so a bound rounded the wrong way shows
        on about half the draws.  One radicand gives hi - lo = 1, which
        alone decides the floor."""
        with decimal.localcontext(decimal.Context(prec=400)):
            value = m * decimal_value(a)
            for bits in (0, 64, 128):
                lo, hi, den = _enclosure(a.A, a.B.items(), a.q, m, bits)
                assert hi - lo == len(a.B)
                if a.B:
                    assert lo < value * den < hi
                else:  # a rational enclosure is the value itself
                    assert lo == hi == m * Fraction(a.A, a.q) * den

    @given(exacts())
    @settings(max_examples=150, deadline=None)
    def test_sign_matches_float_when_clear(self, a):
        f = float(a)
        if abs(f) > 1e-6:
            assert a.sign() == (1 if f > 0 else -1)


# sqrt(s) - p/q for a convergent p/q below it, times a rational: down to 2**-400
hair_widths = st.builds(
    lambda s, bits, c: Exact.surd(-convergent_below(s, 2**bits), 1, s) * c,
    st.sampled_from([2, 3, 5, 7]), st.integers(1, 200), fractions.filter(bool),
)


def _floor_by_enclosure(A, terms, q, m=1):
    """The floor by the enclosure loop alone, from 0 bits: the first
    enclosure at 0, 64, 128, ... bits that lies within one step."""
    bits = 0
    while True:
        lo, hi, den = _enclosure(A, terms, q, m, bits)
        k = lo // den
        if hi <= (k + 1) * den:
            return k
        bits = 2 * bits or 64


class TestFloorOracle:
    """_floor takes the 0-bit enclosure directly for at most one radicand
    (one isqrt) and loops only for several; the loop from 0 bits agrees."""

    @given(
        st.one_of(st.integers(-(10**6), 10**6), st.integers(-(2**200), 2**200)),
        st.one_of(st.just(0), st.integers(-(10**6), 10**6), st.integers(-(2**100), 2**100)),
        st.sampled_from([2, 3, 5, 6, 7, 10, 13, 9999991]),
        st.one_of(st.integers(1, 1000), st.integers(1, 2**120)),
        st.one_of(multipliers, st.integers(1, 2**200)),
    )
    @example(-1, 1, 2, 1, 70)  # [70*(sqrt2 - 1)] = 28
    @example(0, -1, 2, 1, 2**200)
    @example(-7, 0, 2, 3, 10**15 - 1)
    @settings(max_examples=400, deadline=None)
    def test_one_radicand_or_none(self, A, b, s, q, m):
        terms = ((s, b),) if b else ()
        assert _floor(A, terms, q, m) == _floor_by_enclosure(A, terms, q, m)
        assert _floor(A, dict(terms).items(), q, m) == _floor_by_enclosure(A, terms, q, m)

    @given(exacts(max_terms=3), st.one_of(multipliers, st.integers(1, 2**200)))
    @settings(max_examples=100, deadline=None)
    def test_any_exact(self, x, m):
        assert _floor(x.A, x.B.items(), x.q, m) == _floor_by_enclosure(x.A, x.B.items(), x.q, m)


class TestFloat:
    def test_convergent_gap(self):
        """225058681*sqrt2 - 318281039: its terms summed in floats cancel to 0.0."""
        x = Exact.surd(-318281039, 225058681, 2)
        with decimal.localcontext(decimal.Context(prec=50)):
            want = decimal_value(x)
        assert "%.15g" % float(x) == "%.15g" % want == "1.57093869484321e-09"
        assert float(-x) < 0

    def test_zero_and_large(self):
        assert float(Exact(0)) == 0.0
        assert float(Exact.surd(10**300, 1, 2)) == 1e300
        assert math.isclose(float(Exact.surd(0, 10**300, 2)), 10**300 * math.sqrt(2), rel_tol=2**-50)

    @given(st.one_of(exacts(max_terms=3), hair_widths, st.tuples(hair_widths, hair_widths).map(sum)))
    @settings(max_examples=200, deadline=None)
    def test_matches_decimal_oracle(self, a):
        with decimal.localcontext(decimal.Context(prec=400)):
            want = decimal_value(a)
            assert abs(decimal.Decimal(float(a)) - want) <= abs(want) * decimal.Decimal(2) ** -50


class TestFloors:
    def test_spec_values(self):
        assert floor_mult(SQRT2M1, 70) == 28
        assert ceil_mult(SQRT2M1, 70) == 29
        assert floor_mult(Exact(Fraction(7, 2)), 3) == 10
        assert ceil_mult(Exact(Fraction(7, 2)), 2) == 7  # integral: ceil == value

    def test_frac_169(self):
        # {169*(sqrt2-1)} = 169*sqrt2 - 239, a hair above zero
        f = frac_mult(SQRT2M1, 169)
        assert f == Exact.surd(-239, 169, 2)
        assert Exact(0) < f < Exact(Fraction(1, 100))

    @given(exacts(), multipliers)
    @example(Exact(Fraction(-7, 3)), 10**15 - 1)
    @example(Exact.surd(Fraction(1, 3), Fraction(-5, 7), 3), 10**15)
    @settings(max_examples=200, deadline=None)
    def test_floor_frac_consistency(self, x, m):
        k = floor_mult(x, m)
        f = frac_mult(x, m)
        assert Exact(0) <= f < Exact(1)
        assert x * m == f + k

    @given(exacts(max_terms=3), st.integers(1, 2**200))
    @example(Exact.surd(0, 1, 2) + Exact.surd(0, 1, 3), 2**120 + 1)
    @example(Exact.surd(Fraction(1, 3), Fraction(-5, 7), 3), 2**200)
    @settings(max_examples=100, deadline=None)
    def test_floor_far_beyond_float_precision(self, x, m):
        """m up to 2**200, as the fixed-point tuple search asks: a float guess
        is off by about m * 2**-53 there, so the floor must not start from one."""
        k = floor_mult(x, m)
        assert (x * m - k).sign() >= 0 > (x * m - (k + 1)).sign()

    @given(exacts(), multipliers)
    @example(Exact(Fraction(7, 3)), 3 * 10**14)
    @example(Exact.surd(2, Fraction(-3, 4), 5), 10**15)
    @settings(max_examples=100, deadline=None)
    def test_ceil_vs_floor(self, x, m):
        c, f = ceil_mult(x, m), floor_mult(x, m)
        mx = x * m
        if mx.is_rational and mx.q == 1:
            assert c == f
        else:
            assert c == f + 1


def _bands_by_exact(x, m, delta):
    """The band test on {m*x} itself: frac_mult, then Exact comparisons."""
    f = frac_mult(x, m)
    if not f:
        return Lattice.ZERO
    if f < delta:
        return Lattice.LOW
    if f > 1 - delta:
        return Lattice.HIGH
    return Lattice.INTERIOR


@st.composite
def deltas(draw):
    """delta = p/r in (0, 1/2), denominators up to 10**40."""
    r = draw(st.one_of(st.integers(3, 1000), st.integers(3, 10**40)))
    return Fraction(draw(st.integers(1, (r - 1) // 2)), r)


class TestLattice:
    def test_bands(self):
        d = Fraction(1, 100)
        assert is_near_lattice(SQRT2M1, 169, d) is Lattice.LOW
        assert is_near_lattice(SQRT2M1, 70, d) is Lattice.HIGH
        assert is_near_lattice(SQRT2M1, 1, d) is Lattice.INTERIOR
        assert is_near_lattice(Exact(Fraction(1, 3)), 3, d) is Lattice.ZERO

    def test_boundary_is_interior(self):
        # {m x} = delta exactly -> not inside the open band
        assert is_near_lattice(Exact(Fraction(1, 100)), 1, Fraction(1, 100)) is Lattice.INTERIOR

    def test_delta_range_validated(self):
        with pytest.raises(ValueError):
            is_near_lattice(SQRT2M1, 1, Fraction(1, 2))


class TestSerialization:
    @given(exacts())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, x):
        assert Exact.from_json(x.to_json()) == x


class TestLatticeOracle:
    """is_near_lattice on the integer form against the Exact classification."""

    @given(exacts(max_terms=1), st.one_of(multipliers, st.integers(1, 2**200)), deltas())
    @example(SQRT2M1, 169, Fraction(1, 100))
    @example(Exact(Fraction(-7, 3)), 10**15 - 1, Fraction(1, 3))
    @example(Exact.surd(Fraction(1, 3), Fraction(-5, 7), 3), 2**200, Fraction(1, 2**199 + 1))
    @settings(max_examples=400, deadline=None)
    def test_single_radicand(self, x, m, delta):
        assert is_near_lattice(x, m, delta) is _bands_by_exact(x, m, delta)

    @given(
        st.integers(1, 2**200),
        st.integers(-(2**64), 2**64),
        deltas(),
        st.sampled_from(["zero", "delta", "one_minus_delta"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rational_boundaries(self, m, k, delta, where):
        """{m*x} = 0 is ZERO; {m*x} = delta and 1 - delta sit outside the open bands."""
        f = {"zero": 0, "delta": delta, "one_minus_delta": 1 - delta}[where]
        x = Exact(Fraction(k + f) / m)
        want = Lattice.ZERO if where == "zero" else Lattice.INTERIOR
        assert is_near_lattice(x, m, delta) is want
        assert _bands_by_exact(x, m, delta) is want

    @given(
        st.integers(1, 10**12),
        st.integers(-(10**6), 10**6),
        deltas(),
        st.sampled_from([0, 1]),
        st.sampled_from(
            [Exact.surd(-1, 1, s) for s in (2, 3, 5, 7)]
            + [Exact.surd(-3, 1, 2) + Exact.surd(0, 1, 3)]
        ),
        st.integers(0, 100),
        st.sampled_from([-1, 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_surds_next_to_boundaries(self, m, k, delta, side, base, digits, sign):
        """{m*x} a hair under delta * 10**-digits from delta or 1 - delta, either
        side; the hair has one radicand or two (sqrt2 + sqrt3 - 3)."""
        edge = delta if side == 0 else 1 - delta
        # 0 < base < 2: the hair is shorter than delta, so {m*x}
        # stays within delta of the edge and away from 0 and 1
        hair = base * (sign * delta / (2 * 10**digits))
        x = (Exact(k + edge) + hair) * Fraction(1, m)
        got = is_near_lattice(x, m, delta)
        assert got is _bands_by_exact(x, m, delta)
        inside = (sign < 0) if side == 0 else (sign > 0)
        band = Lattice.LOW if side == 0 else Lattice.HIGH
        assert (got is band) == inside

    @given(exacts(max_terms=3), st.one_of(multipliers, st.integers(1, 2**200)), deltas())
    @example(Exact.surd(0, 1, 2) + Exact.surd(0, 1, 3), 2**120 + 1, Fraction(1, 1000))
    @example(
        Exact.surd(0, 1, 2) + Exact.surd(0, 1, 3) - Exact.surd(0, 1, 5), 10**15, Fraction(1, 7)
    )
    @settings(max_examples=100, deadline=None)
    def test_several_radicands(self, x, m, delta):
        assert is_near_lattice(x, m, delta) is _bands_by_exact(x, m, delta)


def _step_by_descent(a, M, lo, L, y):
    """1 + the least j >= 0 with a*j + b mod M in {lo..lo + L - 1}, b the
    residue after the one at y of the window: the next return by ``_next_hit``."""
    return _next_hit(a, (lo + y + a) % M, M, lo, lo + L - 1) + 1


class TestReturnTimes:
    """Stepping from a point of a window by its three return times lands
    where the Euclid descent ``_next_hit`` from the next step does."""

    def test_every_small_window(self):
        """Every M = 2^K <= 16, every step a, every window (wrapped ones, a
        single point and the whole circle included) and every point in it."""
        for K in range(5):
            M = 1 << K
            for a in range(M):
                for L in range(1, M + 1):
                    ret = _returns(a, M, L)
                    assert [n for n, _ in ret] == sorted(n for n, _ in ret)
                    assert all(d == n * a % M for n, d in ret)
                    for lo in range(M):
                        for y in range(L):
                            got = _return_time(ret, y, M, L)
                            assert got == _step_by_descent(a, M, lo, L, y), (a, M, lo, L, y)

    def test_three_gaps(self):
        """n1 is the least n with n*a mod M below L, n2 the least above
        M - L, and the third return time is their sum."""
        M = 1 << 10
        for a in (0, 1, 3, 512, 641, 1000, 1023):
            for L in (1, 2, 37, 500, 700, M):
                n1 = next(n for n in range(1, M + 1) if n * a % M < L)
                n2 = next((n for n in range(1, M + 1) if n * a % M > M - L), None)
                want = [n1] if n2 is None else sorted((n1, n2, n1 + n2))
                assert _returns(a, M, L) == tuple((n, n * a % M) for n in want), (a, L)
        assert _returns(4, 16, 3) == ((4, 0),)  # gcd(a, M) >= L: no return from above

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_large_moduli(self, data):
        """M up to 2^128, a with any power of two in it, and windows short,
        long or covering the circle."""
        M = 1 << data.draw(st.integers(1, 128))
        a = (data.draw(st.integers(0, M - 1)) << data.draw(st.integers(0, 8))) % M
        L = data.draw(st.one_of(st.integers(1, 64), st.integers(1, M)))
        lo = data.draw(st.integers(0, M - 1))
        y = data.draw(st.one_of(st.integers(0, min(L, 64) - 1), st.integers(0, L - 1)))
        ret = _returns(a, M, L)
        assert _return_time(ret, y, M, L) == _step_by_descent(a, M, lo, L, y)

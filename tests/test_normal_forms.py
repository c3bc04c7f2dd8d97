import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cijt.scalars import Exact
from cijt.normal_forms import (
    D,
    N1,
    N2,
    R,
    SymplecticClass,
    block_from_json,
    block_to_json,
    crossing_sum,
    elliptic_height,
    is_hyperbolic,
    m_check,
    nullity,
    validate_bumpy,
)

SQRT2M1 = Exact.surd(-1, 1, 2)
T35 = Exact.surd(3, -1, 5)

SplittingPair = namedtuple("SplittingPair", "plus minus")


def block_pairs(b):
    """A block's nonzero splitting pairs (S^+, S^-) by angle theta/pi, from its
    ``minus`` = (S^-(theta), S^-(2 - theta)) and conjugate symmetry S^+(w) =
    S^-(conj w): theta = 0 and 1 are their own conjugates."""
    t = b.angle
    if t is None:
        return ()
    wl, wh = b.minus
    if t == 0 or t == 1:
        pairs = ((t, SplittingPair(wl, wl)),)
    else:
        pairs = ((t, SplittingPair(wh, wl)), (2 - t, SplittingPair(wl, wh)))
    return tuple((w, pair) for w, pair in pairs if pair != (0, 0))


def add_pairs(*pairs):
    return SplittingPair(sum(p.plus for p in pairs), sum(p.minus for p in pairs))


def splitting_numbers(M, omega):
    """(S^+, S^-) of M at omega = +-1 or an Exact angle theta/pi, summed over
    the blocks' pairs: the package's query until nothing there asked it."""
    w = Exact(0) if omega == 1 else Exact(1) if omega == -1 else omega
    return add_pairs(*(pair for b in M.blocks for t, pair in block_pairs(b) if t == w))


def unit_angles(M):
    """Eigenvalue angles theta/pi in (0,2), sorted, each once with its summed
    splitting pair; a block adds its angle and the conjugate 2 - theta.  Kept
    as the oracle of the integer spectral data that PathClass reads off the
    blocks' minus."""
    acc = {}
    for b in M.blocks:
        for w, pair in block_pairs(b):
            if w:  # not 0 (eigenvalue 1)
                acc[w] = add_pairs(acc.get(w, SplittingPair(0, 0)), pair)
    return sorted(acc.items(), key=lambda kv: kv[0])


def s_plus_one(M):
    """S^+_M(1)."""
    return splitting_numbers(M, 1).plus


def cls(*blocks):
    return SymplecticClass(tuple(blocks))


def diamond(M, N):
    """The diamond product: the class of the direct sum of M and N."""
    return SymplecticClass(M.blocks + N.blocks)


def is_elliptic(M):
    return elliptic_height(M) == 2 * M.half_dimension


def is_irrationally_elliptic(M):
    return is_elliptic(M) and all(
        isinstance(b, (R, N2)) and not b.theta.is_rational for b in M.blocks
    )


rational_angles = st.sampled_from(
    [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(3, 5), Fraction(5, 4)]
)


@st.composite
def blocks(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return N1(draw(st.sampled_from([1, -1])), draw(st.sampled_from([-1, 0, 1])))
    if kind == 1:
        lam = draw(st.sampled_from([2, -2, 3, Fraction(5, 2), -7]))
        return D(Exact(lam))
    if kind == 2:
        return R(Exact(draw(rational_angles)))
    theta = draw(
        st.sampled_from([SQRT2M1, T35, Exact.surd(Fraction(1, 2), Fraction(1, 7), 3)])
    )
    if kind == 3:
        return R(theta)
    return N2(theta, draw(st.booleans()))


classes = st.lists(blocks(), min_size=1, max_size=3).map(lambda bs: cls(*bs))


class TestBlockValidation:
    def test_angle_domain(self):
        with pytest.raises(ValueError):
            R(Exact(1))
        with pytest.raises(ValueError):
            R(Exact(2))
        with pytest.raises(ValueError):
            D(Exact(1))

    def test_one_floor_matches_comparisons(self):
        """R and N2 accept theta/pi exactly when 0 < theta/pi < 2 and
        theta/pi != 1 by Exact comparison, and hold theta as their angle with
        S^- 1 at theta for R and at both theta and 2 - theta for a nontrivial
        N2."""
        tiny = SQRT2M1 * Fraction(1, 10**30)
        bases = [Exact(0), Exact(1), Exact(2), Exact(-1), Exact(3), Exact(Fraction(1, 3)),
                 Exact(Fraction(5, 3)), Exact(Fraction(7, 3)), SQRT2M1, T35, -SQRT2M1]
        thetas = [b + e for b in bases for e in (0, tiny, -tiny, tiny + T35 * Fraction(1, 10**31))]
        for theta in thetas:
            ok = Exact(0) < theta < Exact(2) and theta != Exact(1)
            for build, minus in ((R, (1, 0)), (lambda t: N2(t, True), (1, 1)),
                                 (lambda t: N2(t, False), (0, 0))):
                if not ok:
                    with pytest.raises(ValueError):
                        build(theta)
                    continue
                b = build(theta)
                assert (b.angle, b.minus) == (theta, minus)

    def test_half_dimension(self):
        assert cls(R(SQRT2M1), N2(T35, True)).half_dimension == 3


class TestSplittingNumbers:
    def test_n1_at_one(self):
        assert splitting_numbers(cls(N1(1, 1)), 1) == SplittingPair(1, 1)
        assert splitting_numbers(cls(N1(1, 0)), 1) == SplittingPair(1, 1)
        assert splitting_numbers(cls(N1(1, -1)), 1) == SplittingPair(0, 0)

    def test_n1_at_minus_one(self):
        assert splitting_numbers(cls(N1(-1, -1)), -1) == SplittingPair(1, 1)
        assert splitting_numbers(cls(N1(-1, 0)), -1) == SplittingPair(1, 1)
        assert splitting_numbers(cls(N1(-1, 1)), -1) == SplittingPair(0, 0)

    def test_rotation(self):
        assert splitting_numbers(cls(R(SQRT2M1)), SQRT2M1) == SplittingPair(0, 1)
        assert splitting_numbers(cls(R(SQRT2M1)), Exact(2) - SQRT2M1) == SplittingPair(1, 0)
        assert splitting_numbers(cls(R(SQRT2M1)), T35) == SplittingPair(0, 0)

    def test_n2(self):
        assert splitting_numbers(cls(N2(T35, True)), T35) == SplittingPair(1, 1)
        assert splitting_numbers(cls(N2(T35, False)), T35) == SplittingPair(0, 0)

    def test_hyperbolic_empty(self):
        assert splitting_numbers(cls(D(Exact(2))), 1) == SplittingPair(0, 0)

    @given(classes, st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_additive_under_diamond(self, M, omega):
        double = diamond(M, M)
        s1 = splitting_numbers(M, omega)
        s2 = splitting_numbers(double, omega)
        assert s2 == add_pairs(s1, s1)

    @given(classes)
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, M):
        # S+(conj omega) = S-(omega) at every listed angle
        for theta, _ in unit_angles(M):
            if theta == Exact(1):
                continue
            a = splitting_numbers(M, theta)
            b = splitting_numbers(M, Exact(2) - theta)
            assert (a.plus, a.minus) == (b.minus, b.plus)


def _block_splitting(b, w):
    """One block's splitting pair at w = theta/pi, worked out per query as it
    was before each block set its splitting numbers; kept as an oracle."""
    t = b.angle
    if t is None or (w != t and w + t != 2):
        return SplittingPair(0, 0)
    if isinstance(b, N1):
        return SplittingPair(1, 1) if b.lam * b.b_sign >= 0 else SplittingPair(0, 0)
    if isinstance(b, R):
        return SplittingPair(0, 1) if w == t else SplittingPair(1, 0)
    return SplittingPair(1, 1) if b.nontrivial else SplittingPair(0, 0)


def _unit_angles_by_query(M):
    acc = {}
    for b in M.blocks:
        if not b.angle:
            continue
        for w in {b.angle, 2 - b.angle}:
            pair = _block_splitting(b, w)
            if pair != SplittingPair(0, 0):
                acc[w] = add_pairs(acc.get(w, SplittingPair(0, 0)), pair)
    return sorted(acc.items(), key=lambda kv: kv[0])


@st.composite
def _blocks_or_conjugates(draw):
    """A block, or an R/N2 block at the conjugate angle 2 - theta, so that a
    multiset can hold an angle and its conjugate."""
    b = draw(blocks())
    if isinstance(b, (R, N2)) and draw(st.booleans()):
        return R(2 - b.theta) if isinstance(b, R) else N2(2 - b.theta, b.nontrivial)
    return b


class TestSplittingTableOracle:
    @given(st.lists(_blocks_or_conjugates(), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_query_table(self, bs):
        """splitting_numbers at each block angle, its conjugate, omega = +-1
        and an unrelated angle, and unit_angles, against the per-query table."""
        M = cls(*bs)
        assert unit_angles(M) == _unit_angles_by_query(M)
        omegas = [1, -1, Exact.surd(0, Fraction(1, 3), 7)]
        omegas += [w for b in M.blocks if b.angle and b.angle != 1 for w in (b.angle, 2 - b.angle)]
        for omega in omegas:
            w = Exact(0) if omega == 1 else Exact(1) if omega == -1 else omega
            want = add_pairs(*(_block_splitting(b, w) for b in M.blocks))
            assert splitting_numbers(M, omega) == want


class TestExactOrder:
    def test_angles_closer_than_a_float_sort_by_value(self):
        # a and b differ by ~1e-30: one float, two exact values
        a = Exact(Fraction(1, 2)) + SQRT2M1 * Fraction(1, 10**30)
        b = Exact(Fraction(1, 2)) + T35 * Fraction(1, 10**30)
        assert float(a) == float(b) and b > a
        want = (D(Exact(-3)), D(Exact(2)), R(a), R(b))
        for order in (want, want[::-1], (want[1], want[3], want[0], want[2])):
            assert cls(*order).blocks == want
        assert [t for t, _ in unit_angles(cls(R(b), R(a)))] == [a, b, 2 - b, 2 - a]
        assert cls(N2(b, True), N2(a, False), N2(a, True)).blocks == (
            N2(a, False), N2(a, True), N2(b, True)
        )


class TestCrossingSum:
    def test_examples(self):
        assert crossing_sum(cls(R(SQRT2M1))) == 1
        assert crossing_sum(cls(N1(1, 1))) == 0     # eigenvalue sits at angle 0
        assert crossing_sum(cls(N1(-1, 0))) == 1
        assert crossing_sum(cls(D(Exact(2)))) == 0
        assert crossing_sum(cls(N2(T35, True))) == 2
        assert crossing_sum(cls(N2(T35, False))) == 0

    @given(classes)
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, M):
        assert crossing_sum(diamond(M, M)) == 2 * crossing_sum(M)


def _block_matrix(b, m=1):
    if isinstance(b, N1):
        base = np.array([[b.lam, float(b.b_sign)], [0.0, b.lam]])
    elif isinstance(b, D):
        lam = float(b.lam)
        base = np.array([[lam, 0.0], [0.0, 1.0 / lam]])
    elif isinstance(b, R):
        t = float(b.theta) * math.pi
        base = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    else:
        t = float(b.theta) * math.pi
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        off = np.array([[1.0, 0.0], [0.0, 2.0 if b.nontrivial else 1.0]])
        base = np.block([[rot, rot @ off], [np.zeros((2, 2)), rot]])
    return np.linalg.matrix_power(base, m)


class TestNullityRankOracle:
    """nullity(M, m) must match dim ker(M^m - I) of a dense realization."""

    @pytest.mark.parametrize(
        "block",
        [
            N1(1, 1), N1(1, 0), N1(1, -1), N1(-1, 1), N1(-1, 0),
            D(Exact(2)), D(Exact(-3)),
            R(Exact(Fraction(2, 3))), R(Exact(Fraction(1, 2))), R(Exact(Fraction(3, 5))),
            R(SQRT2M1),
            N2(Exact(Fraction(2, 3)), True), N2(Exact(Fraction(2, 3)), False),
            N2(SQRT2M1, True),
        ],
    )
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 10, 12])
    def test_against_rank(self, block, m):
        mat = _block_matrix(block, m)
        dim = mat.shape[0]
        rank = np.linalg.matrix_rank(mat - np.eye(dim), tol=1e-8)
        assert nullity(cls(block), m) == dim - rank


def _rank_nullity(blocks, m):
    """dim ker(M^m - I) of the block-diagonal realization: the kernel of a
    block-diagonal map is the sum of its blocks' kernels, and one rank per
    block keeps a hyperbolic lambda^m out of the other blocks' tolerance."""
    total = 0
    for b in blocks:
        mat = _block_matrix(b, m)
        dim = mat.shape[0]
        total += dim - np.linalg.matrix_rank(mat - np.eye(dim), tol=1e-8)
    return total


def _dense(M):
    dim = 2 * M.half_dimension
    out = np.zeros((dim, dim))
    at = 0
    for b in M.blocks:
        out[at : at + b.dim, at : at + b.dim] = _block_matrix(b)
        at += b.dim
    return out


class TestDenseOracle:
    """Every block fact against a dense realization of the whole class."""

    @given(classes)
    @settings(max_examples=80, deadline=None)
    def test_elliptic_height_counts_unit_eigenvalues(self, M):
        eig = np.linalg.eigvals(_dense(M))
        assert elliptic_height(M) == int(np.sum(np.abs(np.abs(eig) - 1) < 1e-6))

    @given(classes, st.integers(1, 24))
    @settings(max_examples=120, deadline=None)
    def test_nullity_of_several_blocks(self, M, m):
        assert nullity(M, m) == _rank_nullity(M.blocks, m)

    @given(classes)
    @settings(max_examples=60, deadline=None)
    def test_validate_bumpy(self, M):
        assert validate_bumpy(M) == all(
            _rank_nullity(M.blocks, m) == 0 for m in range(1, 121)
        )

    @given(classes)
    @settings(max_examples=60, deadline=None)
    def test_m_check_is_first_return(self, M):
        rest = [b for b in M.blocks if not (isinstance(b, N1) and b.lam == 1)]
        first = next((m for m in range(1, 121) if _rank_nullity(rest, m) > 0), None)
        assert m_check(M) == first


class TestPredicates:
    def test_elliptic_height(self):
        assert elliptic_height(cls(D(Exact(2)))) == 0
        assert elliptic_height(cls(R(SQRT2M1), N2(T35, True))) == 6

    def test_hyperbolic_elliptic(self):
        assert is_hyperbolic(cls(D(Exact(2)), D(Exact(-3))))
        assert is_elliptic(cls(R(SQRT2M1)))
        assert is_irrationally_elliptic(cls(R(SQRT2M1)))
        assert not is_irrationally_elliptic(cls(R(Exact(Fraction(1, 3)))))

    def test_m_check(self):
        assert m_check(cls(R(Exact(Fraction(2, 3))))) == 3      # even numerator
        assert m_check(cls(R(Exact(Fraction(1, 3))))) == 6      # odd numerator
        assert m_check(cls(N1(-1, 0))) == 2
        assert m_check(cls(N1(1, 1), N1(1, 0))) is None        # angle 0 returns at once
        assert m_check(cls(R(SQRT2M1))) is None

    def test_validate_bumpy(self):
        assert validate_bumpy(cls(D(Exact(2)), R(SQRT2M1)))
        assert not validate_bumpy(cls(N1(1, 1)))
        assert not validate_bumpy(cls(R(Exact(Fraction(1, 3)))))


class TestSerialization:
    @given(blocks())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, b):
        assert block_from_json(block_to_json(b)) == b

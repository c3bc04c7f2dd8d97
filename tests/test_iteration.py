import functools
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cijt.scalars import Exact, ceil_mult, floor_mult
from cijt.normal_forms import D, N1, N2, R, SymplecticClass, nullity, validate_bumpy
from cijt.cli import load_dataset
from cijt.engine import SelectionProblem, find_tuple, opposite_tuple
from cijt.iteration import (
    PathClass,
    index_bracket,
    index_iterate,
    index_window,
    jump_index,
    mean_index,
)
from test_normal_forms import blocks, s_plus_one, unit_angles

SQRT2M1 = Exact.surd(-1, 1, 2)
T35 = Exact.surd(3, -1, 5)


def path(i1, *blocks):
    return PathClass(i1, SymplecticClass(tuple(blocks)))


def index_iterate_bumpy(i_c: int, r: int, angles: list[Exact], m: int) -> int:
    """i(c^m) = m*(i(c)-r) + 2*sum_j [m*theta_j/(2pi)] + r, rotation angles
    only: the non-degenerate shortcut, kept as the oracle that gates the
    splitting table.  Rational angles are rejected because the shortcut is
    only claimed for irrational ones."""
    if m < 1:
        raise ValueError("m must be positive")
    if len(angles) != r:
        raise ValueError("expected %d rotation angles" % r)
    half = Exact(Fraction(1, 2))
    total = m * (i_c - r) + r
    for t in angles:
        if t.is_rational:
            raise ValueError("bumpy shortcut needs irrational theta/pi")
        total += 2 * floor_mult(t * half, m)
    return total


def index_iterate_bumpy_class(p: PathClass, m: int) -> int:
    """index_iterate_bumpy with r and the rotation angles read off the class."""
    if not validate_bumpy(p.monodromy):
        raise ValueError("class is degenerate at some iterate")
    angles = [b.theta for b in p.monodromy.blocks if isinstance(b, R)]
    return index_iterate_bumpy(p.i1, len(angles), angles, m)


class TestIndexIterate:
    def test_hyperbolic_linear(self):
        p = path(1, D(Exact(2)))
        assert [index_iterate(p, m) for m in (1, 2, 3)] == [1, 2, 3]

    def test_sqrt2_rotation(self):
        p = path(1, R(SQRT2M1))
        assert index_iterate(p, 70) == 29
        assert index_iterate(p, 1) == 1

    def test_three_sqrt5_rotation(self):
        p = path(1, R(T35))
        assert [index_iterate(p, m) for m in (1, 2, 3)] == [1, 1, 3]

    def test_m_positive(self):
        with pytest.raises(ValueError):
            index_iterate(path(1, D(Exact(2))), 0)


class TestBumpyShortcut:
    def test_direct_example(self):
        assert index_iterate_bumpy(1, 1, [SQRT2M1], 70) == 29

    def test_rejects_rational_angle(self):
        with pytest.raises(ValueError):
            index_iterate_bumpy(1, 1, [Exact(Fraction(1, 3))], 5)

    def test_class_wrapper_rejects_degenerate(self):
        with pytest.raises(ValueError):
            index_iterate_bumpy_class(path(1, N1(1, 1)), 2)


class TestMeanIndex:
    def test_values(self):
        assert mean_index(path(1, R(SQRT2M1))) == SQRT2M1
        assert mean_index(path(1, D(Exact(2)))) == Exact(1)
        assert mean_index(path(2, R(Exact.surd(Fraction(-1, 2), Fraction(1, 2), 5)))) == \
            Exact.surd(Fraction(1, 2), Fraction(1, 2), 5)  # 2 - 1 + (sqrt5-1)/2

    @given(st.integers(1, 6), st.integers(200, 400))
    @settings(max_examples=30, deadline=None)
    def test_mean_is_asymptotic_slope(self, i1, m):
        p = path(i1, R(SQRT2M1), D(Exact(2)))
        ihat = float(mean_index(p))
        assert abs(index_iterate(p, m) / m - ihat) < 5.0 / m


SHIPPED = [
    (name, r.name, r.path)
    for name in ("s2_elliptic", "s3_elliptic", "s2_hyperbolic", "single_sqrt2")
    for r in load_dataset(
        os.path.join(os.path.dirname(__file__), os.pardir, "datasets", name + ".json")
    ).records
]


def _spectral_by_unit_angles(p):
    """PathClass.spectral as it was first built, kept as an oracle: S^+(1),
    C and ((theta/2pi, S^- weight), ...) over the merged, sorted unit angles,
    each an Exact product."""
    half = Exact(Fraction(1, 2))
    minus = tuple((t * half, pair.minus) for t, pair in unit_angles(p.monodromy) if pair.minus)
    return s_plus_one(p.monodromy), sum(w for _, w in minus), minus


def _bit_angles(p):
    """Each block's irrational angle theta/pi, in block order, read off the
    blocks themselves: the irrational entries of ``PathClass.spectral``."""
    return tuple(
        b.angle for b in p.monodromy.blocks
        if b.angle is not None and not b.angle.is_rational
    )


def _mean_by_unit_angles(p):
    sp, c, minus = _spectral_by_unit_angles(p)
    out = Exact(p.i1 + sp - c)
    for half_theta, w in minus:
        out = out + half_theta * (2 * w)
    return out


def _index_iterate_by_unit_angles(p, m):
    """index_iterate as it was: one ceil_mult of each Exact theta/2pi."""
    sp, c, minus = _spectral_by_unit_angles(p)
    total = m * (p.i1 + sp - c) - (sp + c)
    for half_theta, w in minus:
        total += 2 * ceil_mult(half_theta, m) * w
    return total


def _merged_minus(p):
    """spectral's integer entries as {theta/2pi: summed S^- weight}: wl at
    theta/2pi and wh at 1 - theta/2pi, weight 0 left out."""
    acc = {}
    for A, terms, q, wl, wh in p.spectral[2]:
        x = sum((Exact.surd(0, Fraction(b, 2 * q), s) for s, b in terms), Exact(Fraction(A, 2 * q)))
        for y, w in ((x, wl), (1 - x, wh)):
            if w:
                acc[y] = acc.get(y, 0) + w
    return acc


@st.composite
def _block_mixes(draw):
    """Up to four blocks of every kind, an R or N2 at times at the conjugate
    2 - theta (so that two blocks share a unit angle), and an angle with two
    radicands."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        b = draw(blocks())
        if isinstance(b, (R, N2)) and draw(st.booleans()):
            t = draw(st.sampled_from([2 - b.theta, SQRT2M1 + T35 * Fraction(1, 3)]))
            b = R(t) if isinstance(b, R) else N2(t, b.nontrivial)
        out.append(b)
    return path(draw(st.integers(0, 5)), *out)


class TestSpectralOracle:
    @given(_block_mixes(), st.lists(st.one_of(st.integers(1, 60), st.integers(1, 10**15)),
                                    min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_unit_angles(self, p, ms):
        """S^+(1), C, the weighted angles, the mean index and i(c^m) equal
        those of the construction over unit_angles."""
        sp, c, minus = _spectral_by_unit_angles(p)
        assert p.spectral[:2] == (sp, c)
        assert _merged_minus(p) == dict(minus)
        assert p.mean == _mean_by_unit_angles(p)
        for m in ms:
            assert index_iterate(p, m) == _index_iterate_by_unit_angles(p, m), (p, m)

    def test_seeded_mixes(self):
        """Seeded mixes of rational, one- and two-radicand angles, with
        iterates up to 2^80."""
        rng = random.Random(17)
        angles = [SQRT2M1, T35, 2 - SQRT2M1, Exact(Fraction(1, 3)), Exact(Fraction(5, 4)),
                  SQRT2M1 * Fraction(1, 2) + T35 * Fraction(1, 7)]
        for _ in range(150):
            bs = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(4)
                if kind == 0:
                    bs.append(N1(rng.choice([1, -1]), rng.choice([-1, 0, 1])))
                elif kind == 1:
                    bs.append(D(Exact(rng.choice([2, -3]))))
                elif kind == 2:
                    bs.append(R(rng.choice(angles)))
                else:
                    bs.append(N2(rng.choice(angles), rng.random() < 0.5))
            p = path(rng.randint(0, 4), *bs)
            assert p.spectral[:2] == _spectral_by_unit_angles(p)[:2]
            assert p.mean == _mean_by_unit_angles(p)
            for m in [rng.randint(1, 200), rng.randint(1, 2**80)]:
                assert index_iterate(p, m) == _index_iterate_by_unit_angles(p, m), (p, m)


class TestIndexBracket:
    @given(st.one_of(st.integers(1, 1000), st.integers(1, 10**12)))
    @example(1)
    @example(10**12)
    @settings(max_examples=60, deadline=None)
    def test_holds_on_shipped_records(self, m):
        for where in SHIPPED:
            p = where[-1]
            lo, hi = index_bracket(p)
            gap = index_iterate(p, m) - mean_index(p) * m
            assert Exact(lo) <= gap < Exact(hi), (where, m)
            if p.spectral[1] == 0:  # C = 0: no angle term, the gap is exact
                assert gap == Exact(lo), (where, m)

    def test_values(self):
        # S^+ = 0, one rotation angle (C = 1): [-1, 1); hyperbolic: exactly 0
        assert index_bracket(path(1, R(SQRT2M1))) == (-1, 1)
        assert index_bracket(path(1, D(Exact(2)))) == (0, 1)


def _index_window_by_exact(p, a=None, b=None):
    """index_window as it first read the bracket: 1/ihat built per call and
    each bound an Exact product, floored or ceiled once."""
    inv = 1 / p.mean
    lo, hi = index_bracket(p)
    may_start = sure_start = 1
    may_stop = sure_stop = sys.maxsize
    if a is not None:
        may_start = max(1, floor_mult(inv * (a - hi), 1) + 1)
        sure_start = max(1, ceil_mult(inv * (a - lo), 1))
    if b is not None:
        may_stop = floor_mult(inv * (b - lo), 1) + 1
        sure_stop = floor_mult(inv * (b + 1 - hi), 1) + 1
    return range(may_start, may_stop), range(sure_start, max(sure_start, sure_stop))


class TestIndexWindowOracle:
    """index_window reads each bound as [c/ihat] off the path's 1/ihat; the
    Exact products of _index_window_by_exact give the same ranges."""

    ANGLES = [
        Exact(Fraction(1, 3)), Exact(Fraction(7, 5)),  # rational
        SQRT2M1, T35, Exact.surd(Fraction(1, 2), Fraction(1, 7), 3),  # Q(sqrt2), Q(sqrt5), Q(sqrt3)
        Exact.surd(Fraction(3, 2), Fraction(-1, 9), 13),
    ]

    def _random_path(self, rng):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randint(0, 3)
            if kind == 0:
                blocks.append(D(Exact(rng.choice([2, -2, 3, -5]))))
            elif kind == 1:
                blocks.append(R(rng.choice(self.ANGLES)))
            elif kind == 2:
                blocks.append(N2(rng.choice(self.ANGLES), rng.random() < 0.5))
            else:
                blocks.append(N1(rng.choice([1, -1]), rng.choice([-1, 0, 1])))
        return PathClass(rng.randint(0, 6), SymplecticClass(tuple(blocks)))

    def test_matches_exact_products(self):
        rng = random.Random(16)
        kinds = set()
        tried = 0
        while tried < 150:
            p = self._random_path(rng)
            if not p.mean:
                continue
            tried += 1
            kinds.add(len(p.mean.B))
            top = 3 * (abs(p.mean.A) // p.mean.q + 2) + 50
            bounds = [None, 0, -1, 1, -rng.randint(2, top), rng.randint(2, top), rng.randint(2, 10**15)]
            for a in bounds:
                for b in bounds:
                    assert index_window(p, a, b) == _index_window_by_exact(p, a, b), (p, a, b)
        assert kinds == {0, 1, 2}  # rational, one-radicand and two-radicand means

    def test_inverse_mean(self):
        p = path(1, R(SQRT2M1), D(Exact(2)))
        assert p.inverse_mean == 1 / p.mean == Exact.surd(1, 1, 2)
        assert p.inverse_mean is p.inverse_mean  # built once per path


class TestCrossCheckGate:
    """The precise formula and the non-degenerate shortcut must agree on
    bumpy classes; this gates every transcribed splitting-table entry."""

    SURDS = [
        Exact.surd(-1, 1, 2),
        Exact.surd(3, -1, 5),
        Exact.surd(Fraction(1, 2), Fraction(1, 7), 3),
        Exact.surd(1, Fraction(1, 5), 7),
        Exact.surd(Fraction(3, 2), Fraction(-1, 9), 13),
    ]

    def _random_bumpy(self, rng):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randint(0, 2)
            theta = rng.choice(self.SURDS)
            if kind == 0:
                blocks.append(D(Exact(rng.choice([2, -2, 3, -5]))))
            elif kind == 1:
                blocks.append(R(theta))
            else:
                blocks.append(N2(theta, rng.random() < 0.5))
        return PathClass(rng.randint(0, 6), SymplecticClass(tuple(blocks)))

    def test_agreement(self):
        rng = random.Random(7)
        for _ in range(40):
            p = self._random_bumpy(rng)
            for m in list(range(1, 30)) + [97, 211, 317]:
                assert index_iterate(p, m) == index_iterate_bumpy_class(p, m), (p, m)

    def test_nullity_zero_on_bumpy(self):
        rng = random.Random(11)
        for _ in range(20):
            p = self._random_bumpy(rng)
            for m in (1, 2, 5, 12):
                assert nullity(p.monodromy, m) == 0


# -- Bott's formula: index and nullity oracles apart from the iteration formula


@functools.cache
def _roots(m):
    """The angles 2j/m, 0 < j < m, of the m-th roots of unity other than 1, over pi."""
    return tuple(Exact(2 * j, m) for j in range(1, m))


def _eigenvalues(b):
    """(theta/pi, S^-, S^+, nu) of each eigenvalue e^{i theta} of a block on
    the unit circle.  A block's minus gives S^- at theta and at 2pi - theta,
    and S^+(w) = S^-(conj w), so at w = +-1 S^+ = S^-."""
    if isinstance(b, N1):
        return [(b.angle, b.minus[0], b.minus[0], 1 if b.b_sign else 2)]
    if isinstance(b, D):
        return []
    (wl, wh), t = b.minus, b.angle
    return [(t, wl, wh, 1), (2 - t, wh, wl, 1)]


def index_by_bott(p: PathClass, m: int) -> int:
    """i(gamma^m) by Bott's formula, the sum of the omega-indices i_omega(gamma)
    over the m-th roots of unity (R. Bott, Comm. Pure Appl. Math. 9 (1956);
    Y. Long, Index Theory for Symplectic Paths (2002), ch. 9): an oracle
    that shares no floor with the iteration formula.  i_1 is i(gamma); round
    the unit circle from 1, i_omega rises by S^+(w) - S^-(w) past each
    eigenvalue w, and at w it is S^-(w) below its value just before.  Each
    comparison of theta/pi with 2j/m is one Exact comparison."""
    points = [e for b in p.monodromy.blocks for e in _eigenvalues(b)]
    after_one = p.i1 + sum(s_plus for t, _, s_plus, _ in points if t == 0)
    total = p.i1
    for x in _roots(m):
        i = after_one
        for t, s_minus, s_plus, _ in points:
            c = t._cmp(x)
            i += s_plus - s_minus if c < 0 else -s_minus if c == 0 else 0
        total += i
    return total


def nullity_by_bott(p: PathClass, m: int) -> int:
    """nu(gamma^m), the sum of nu_omega(gamma) over the m-th roots of unity:
    each eigenvalue at 1 or at a root 2j/m adds its nu."""
    roots = _roots(m)
    return sum(nu for b in p.monodromy.blocks for t, _, _, nu in _eigenvalues(b)
               if t == 0 or t in roots)


def _seeded_paths(rng, count):
    """Paths of one to four N1, D, R and N2 blocks at rational and surd
    angles, some of them roots of unity of small order, and i(gamma) from -3
    to 6."""
    angles = [SQRT2M1, T35, 2 - SQRT2M1, Exact(1, 3), Exact(2, 3), Exact(1, 2), Exact(5, 4),
              Exact(3, 2), Exact(7, 5)]
    for _ in range(count):
        bs = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(4)
            if kind == 0:
                bs.append(N1(rng.choice([1, -1]), rng.choice([-1, 0, 1])))
            elif kind == 1:
                bs.append(D(Exact(rng.choice([2, -3]))))
            elif kind == 2:
                bs.append(R(rng.choice(angles)))
            else:
                bs.append(N2(rng.choice(angles), rng.random() < 0.5))
        yield path(rng.randint(-3, 6), *bs)


class TestBottOracle:
    def test_shipped_records(self):
        for where in SHIPPED:
            p = where[-1]
            for m in range(1, 41):
                assert index_iterate(p, m) == index_by_bott(p, m), (where, m)

    def test_seeded_paths(self):
        """index_iterate and nullity equal the oracle's, and the oracle's
        i(gamma^m) lies in index_bracket, for m <= 40 on 100 seeded paths."""
        for p in _seeded_paths(random.Random(15), 100):
            lo, hi = index_bracket(p)
            for m in range(1, 41):
                i = index_by_bott(p, m)
                assert index_iterate(p, m) == i, (p, m)
                assert nullity(p.monodromy, m) == nullity_by_bott(p, m), (p, m)
                assert Exact(lo) <= i - p.mean * m < Exact(hi), (p, m)

    def test_jump_identity_at_tuples(self):
        """i(gamma^{2m_k}) by the oracle is jump_index's 2N - (S^+ + C - 2 Delta_k)
        at the auto and opposite tuples on two shipped datasets."""
        root = os.path.join(os.path.dirname(__file__), os.pardir, "datasets")
        for name, delta in (("single_sqrt2", Exact(1, 100)), ("s2_elliptic", Exact(1, 200))):
            paths = load_dataset(os.path.join(root, name + ".json")).paths
            problem = SelectionProblem(paths, delta=delta)
            t = find_tuple(problem)
            for tt in (t, opposite_tuple(t, problem)):
                for p, m_k, d_k in zip(paths, tt.m, tt.Delta):
                    assert index_by_bott(p, 2 * m_k) == jump_index(p, tt.N, d_k), (name, tt)

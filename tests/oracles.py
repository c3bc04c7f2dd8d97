"""The test oracles, builders and constants that more than one test module
reads.  pytest collects no test here; an oracle with one user stays beside
its tests."""

import contextlib
import os
import signal
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from hypothesis import strategies as st

from cijt.scalars import Exact, _floor, ceil_mult, floor_mult
from cijt.normal_forms import D, N1, N2, R, SymplecticClass, validate_bumpy
from cijt.iteration import CohomologyShape, PathClass
from cijt.engine import SelectionProblem
from cijt.cli import load_dataset

SQRT2M1 = Exact.surd(-1, 1, 2)
T35 = Exact.surd(3, -1, 5)
PHI_M1 = Exact.surd(Fraction(-1, 2), Fraction(1, 2), 5)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DATASETS = os.path.join(ROOT, "datasets")


def ds(name):
    """The path of the shipped dataset datasets/<name>.json."""
    return os.path.join(DATASETS, name + ".json")


def shipped(name):
    """The shipped dataset datasets/<name>.json, as cijt loads it."""
    return load_dataset(ds(name))


def path(i1, *blocks):
    return PathClass(i1, SymplecticClass(tuple(blocks)))


# sha256 of each verdict as the CLI prints it, recorded before the three
# pipelines were folded onto one driver: check names, their order and the
# lhs/rhs types are all part of the contract.
GOLDEN = {
    "1.1 s2": "9542a83055f794888910cdc12502c6a4559526e92607478cefd5e281a1af7713",
    "1.1 s2[:1]": "f623d4a70aa6b2785e7d542f5061d555922054f86e3bf00b3d013142a5c236f4",
    "1.5 s3": "2baaa1b5cc15ee033142d43ad60c291a4ac667929c9a3de1f612f3cf3396c792",
    "1.5 s3[:3]": "618f9b55c39059a0e0c6c17bdacadb9ad18a2828ac87772b408f5f951d0e7ee4",
    "1.8 hyp": "4f338ebbd2e379a768826bd8a1dd6a3ed02a11d465c465f1d1000f767c399f7a",
    "1.8 hyp[:1]": "6c596bbbb445bc92cf035bedd8e2707db77ca0087ecaf96295d56b9475ba2a66",
    # the shipped datasets at delta = 1e-12, n_bound 1e18: both tuple searches
    # run at N ~ 1e12..1e14, far past the default delta
    "1.1 s2 1e-12": "d2552174dbe79564fab9f00199a77602cd205b2226db2848bb17ef9e8d3f6fc6",
    "1.5 s3 1e-12": "ff4a03dda4f650b179584b20fdf437a6b04d40a6c22e330c10850e8c4e96a2e4",
}


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, instead of hanging, when the body runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError("no result within %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- lattice distances


Lattice = Enum("Lattice", "ZERO LOW HIGH INTERIOR")


def frac_mult(x: Exact, m: int) -> Exact:
    """{m*x} = m*x - [m*x] in [0,1), exact: the oracle of every lattice
    distance the search reads off one floor."""
    return x * m - floor_mult(x, m)


def is_near_lattice(x: Exact, m: int, delta: Fraction | Exact) -> Lattice:
    """{m*x} against the open bands (0, delta) and (1 - delta, 1), from one
    floor: the search's band test before its fixed-point kernels."""
    if not isinstance(delta, (Fraction, Exact)):  # a float is no exact band
        raise TypeError("delta must be a Fraction or an Exact, not %s" % type(delta).__name__)
    p, r = delta.numerator, delta.denominator
    if not 0 < 2 * p < r:
        raise ValueError("delta must lie in (0, 1/2)")
    F = _floor(x.A, x.B.items(), x.q, r * m) % r
    whole = not x.B and r * m * x.A % x.q == 0  # r*m*x is an integer
    if whole and F == 0:
        return Lattice.ZERO
    if F < p:
        return Lattice.LOW
    if F + (not whole) > r - p:
        return Lattice.HIGH
    return Lattice.INTERIOR


# -- splitting numbers and the block strategies


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


# -- the index iteration as it was first built


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


def _index_iterate_by_unit_angles(p, m):
    """index_iterate as it was: one ceil_mult of each Exact theta/2pi."""
    sp, c, minus = _spectral_by_unit_angles(p)
    total = m * (p.i1 + sp - c) - (sp + c)
    for half_theta, w in minus:
        total += 2 * ceil_mult(half_theta, m) * w
    return total


# -- seeded search problems


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


# -- Betti partial sums in closed form


def epsilon_correction(shape: CohomologyShape, l: int) -> Exact:
    """The rational defect of the linear closed form for sum_{p<=l} b_p, even d:
    with r = (l - (d-1)) mod D, it is {r/dn} - (2n + d - 2)*r/(dnD) - n*{r/2}
    - {r/d}, summed as integers over the common denominator 2dnD."""
    if shape.d % 2:
        raise ValueError("defined for even d only")
    d, n, D = shape.d, shape.n, shape.D
    r = (l - (d - 1)) % D
    return Exact(
        2 * D * (r % (d * n)) - 2 * (2 * n + d - 2) * r - d * n * n * D * (r % 2)
        - 2 * n * D * (r % d),
        2 * d * n * D,
    )


def betti_closed_form(shape: CohomologyShape, l: int) -> int:
    """sum_{p<=l} b_p in closed form, with epsilon_correction for even d: the
    package's second partial sum until betti_by_sullivan held betti, kept as
    the check on betti_partial_sum."""
    d, n, D = shape.d, shape.n, shape.D
    if d % 2:
        if l < d - 1:
            raise ValueError("closed form needs l >= d - 1")
        return l // (d - 1) + l // 2 - (d - 1) // 2  # d - 1 is even
    if l < d * n - 1:
        raise ValueError("closed form needs l >= dn - 1")
    # n(n+1)d/2D * (l - (d-1)) - n(n-1)d/4 + 1 over 4D, plus epsilon
    linear = 2 * n * (n + 1) * d * (l - (d - 1)) - n * (n - 1) * d * D + 4 * D
    closed = epsilon_correction(shape, l) + Exact(linear, 4 * D)
    if closed.denominator != 1:
        raise AssertionError("closed form is not an integer: %s" % closed)
    return closed.numerator


# -- Betti numbers from the Sullivan model of the free loop space


def _model(shape):
    """The generators of (ΛV ⊗ ΛsV ⊗ Q[u], D), in the order u, x, sx and, for
    even d, y, sy: their degrees, and D of each as {monomial: coefficient},
    a monomial being its tuple of exponents."""
    d, n = shape.d, shape.n
    odd = d % 2
    degrees = (2, d, d - 1) if odd else (2, d, d - 1, d * (n + 1) - 1, d * (n + 1) - 2)

    def mono(u=0, x=0, sx=0, y=0, sy=0):
        return (u, x, sx, y, sy)[: len(degrees)]

    D = [{}, {mono(u=1, sx=1): 1}, {}]  # Du = 0, Dx = u sx, D(sx) = 0
    if not odd:  # Dy = x^{n+1} + u sy, D(sy) = -s(x^{n+1})
        D += [{mono(x=n + 1): 1, mono(u=1, sy=1): 1}, {mono(x=n, sx=1): -(n + 1)}]
    return degrees, D


def _times(a, b, degrees):
    """The graded-commutative product of monomials a, b: (sign, a*b), or None
    when an odd letter would square."""
    odd = [i for i, g in enumerate(degrees) if g % 2]
    if any(a[i] + b[i] > 1 for i in odd):
        return None
    # each odd letter of b moves left past the odd letters of a after it
    swaps = sum(b[i] * a[j] for i in odd for j in odd if j > i)
    return (-1) ** swaps, tuple(x + y for x, y in zip(a, b))


def _differential(chain, degrees, D):
    """D of a combination {monomial: coefficient}, by the graded Leibniz rule:
    D(g^e) = e g^{e-1} D(g) for an even letter g, and D passes the letters
    before g with the sign of their total degree."""
    out = {}
    for m, a in chain.items():
        for i, e in enumerate(m):
            if not e:
                continue
            left = m[:i] + (e - 1,) + (0,) * (len(m) - i - 1)
            right = (0,) * (i + 1) + m[i + 1:]
            sign = (-1) ** sum(k * g for k, g in zip(m[:i], degrees))
            for dg, c in D[i].items():
                first = _times(left, dg, degrees)
                whole = first and _times(first[1], right, degrees)
                if whole:
                    key = whole[1]
                    out[key] = out.get(key, 0) + sign * e * c * a * first[0] * whole[0]
    return {k: c for k, c in out.items() if c}


def _rank(rows):
    """The rank over Q of sparse rows {column: coefficient}, by Fraction
    elimination on each row's largest column."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            if col not in pivots:
                pivots[col] = row
                break
            pivot = pivots[col]
            f = Fraction(row[col]) / pivot[col]
            for c, v in pivot.items():
                v = row.get(c, 0) - f * v
                if v:
                    row[c] = v
                else:
                    del row[c]
    return len(pivots)


def betti_by_sullivan(shape: CohomologyShape, p_max: int) -> list:
    """[b_0, ..., b_{p_max}] from first principles: b_p = dim H^p of the ideal
    of sV in the S^1-equivariant model (ΛV ⊗ ΛsV ⊗ Q[u], D) of the free loop
    space of M (Sullivan, Publ. IHES 47, 1977; Vigue-Poirrier and Burghelea,
    J. Differential Geom. 22, 1985), for H*(M; Q) = Q[x]/(x^{n+1}).  The
    quotient by that ideal models the constant loops.  D keeps w = (number of
    sV letters) - (power of u), so ranks are taken block by block in (p, w),
    and each block's D is checked to square to zero."""
    degrees, D = _model(shape)
    blocks = {}  # (p, w) -> the ideal's monomials of degree p and weight w

    def grow(prefix, p):
        i = len(prefix)
        if i == len(degrees):
            s = sum(prefix[2::2])  # the sV letters sx and sy
            if s:
                blocks.setdefault((p, s - prefix[0]), []).append(prefix)
            return
        top = (p_max - p) // degrees[i]
        if degrees[i] % 2:
            top = min(top, 1)  # an odd letter squares to zero
        for k in range(top + 1):
            grow(prefix + (k,), p + k * degrees[i])

    grow((), 0)
    dims, ranks = [0] * (p_max + 1), [0] * (p_max + 1)  # ranks[p]: of D on degree p
    for (p, w), monos in blocks.items():
        rows = [_differential({m: 1}, degrees, D) for m in monos]
        if any(_differential(row, degrees, D) for row in rows):
            raise AssertionError("D o D is not zero in degree %d" % p)
        dims[p] += len(monos)
        ranks[p] += _rank(rows)
    return [dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(p_max + 1)]

"""Index iteration: i(gamma, m) and the mean index.

The precise formula sums ceilings of m*theta/(2*pi) over the unit-circle
spectrum, weighted by minus-splitting numbers.  Each path reads that spectrum
off its blocks once, one integer entry per block angle that the engine reads
too, and every ceiling is one exact floor.  The tests hold the non-degenerate
shortcut, floors over rotation angles only; the two agree on non-degenerate
classes, which gates the splitting table in normal_forms.

The dataset model sits beside ``PathClass``: a shape H^*(M;Q) = T_{d,n+1}(x)
and one named path per prime closed geodesic, so reading a dataset and
searching a tuple need neither loop_homology nor morse.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

from .scalars import Exact, _exact, _floor, ceil_mult, floor_mult
from .normal_forms import SymplecticClass, validate_bumpy
from .record import FrozenRecord, Record, _shown


class HypothesisRejected(ValueError):
    """Dataset violates a theorem hypothesis; a diagnostic, not a verdict."""


class CohomologyShape(FrozenRecord):
    _fields = ("d", "n")

    def __init__(self, d: int, n: int):
        if d < 2 or n < 1:
            raise ValueError("need d >= 2 and n >= 1")
        if d % 2 and n != 1:
            raise ValueError("odd d forces n = 1 (x^2 = 0)")
        self.__dict__.update(d=d, n=n)

    @property
    def dim(self) -> int:
        return self.d * self.n

    @property
    def D(self) -> int:
        return self.d * (self.n + 1) - 2


class PathClass(FrozenRecord):
    """A symplectic path up to homotopy: initial index plus end-matrix class."""

    _fields = ("i1", "monodromy")

    def __init__(self, i1: int, monodromy: SymplecticClass):
        self.__dict__.update(i1=i1, monodromy=monodromy)

    @cached_property
    def spectral(self) -> tuple[int, int, tuple[tuple[int, tuple, int, int, int], ...]]:
        """(S^+(1), C(M), angles) off the blocks' minus: one integer entry (A,
        terms, q, wl, wh) per block angle theta/pi = (A + sum b*sqrt(s))/q != 0,
        (s, b) over terms, S^- weight wl at theta, wh at 2 - theta; S^+(1) is
        S^-(1) at theta = 0.  f = [m*theta/2pi] = _floor(A, terms, 2q, m) gives
        E(m*theta/2pi) = f + 1 (f at an integer), E(m*(2pi - theta)/2pi) = m - f."""
        sp, angles = 0, []
        for b in self.monodromy.blocks:
            t, (wl, wh) = b.angle, b.minus
            if t:
                angles.append((t.A, tuple(t.B.items()), t.q, wl, wh))
            else:
                sp += wl
        return sp, sum(e[3] + e[4] for e in angles), tuple(angles)

    @cached_property
    def mean(self) -> Exact:
        """i-hat = i1 + S^+(1) - C(M) + sum theta/pi * S^-, summed as integers
        over the common denominator of the angles."""
        sp, c, angles = self.spectral
        L = math.lcm(1, *(e[2] for e in angles))
        A, B = (self.i1 + sp - c) * L, {}
        for a, terms, q, wl, wh in angles:
            f = (wl - wh) * (L // q)
            A += f * a + 2 * wh * L
            for s, b in terms:
                B[s] = B.get(s, 0) + f * b
        return _exact(A, B, L)

    @cached_property
    def inverse_mean(self) -> Exact:
        """1/i-hat, which every ``index_window`` bound is a multiple of."""
        return 1 / self.mean

    @cached_property
    def two_gamma(self) -> int:
        """2*gamma_c, the gamma invariant doubled to an integer: sign
        (-1)^{i(c)}, magnitude 2 when i(c^2) - i(c) is even, else 1."""
        mag = 2 - (index_iterate(self, 2) - self.i1) % 2
        return -mag if self.i1 % 2 else mag

    def rho(self) -> int:
        sp, c, _ = self.spectral
        return self.i1 + sp - c


class GeodesicRecord(FrozenRecord):
    _fields = ("name", "path")

    def __init__(self, name: str, path: PathClass):
        self.__dict__.update(name=name, path=path)


class GeodesicDataset(Record):
    _fields = ("shape", "records", "bumpy_required")

    def __init__(self, shape: CohomologyShape, records: tuple[GeodesicRecord, ...],
                 bumpy_required: bool = True):
        self.shape, self.records, self.bumpy_required = shape, tuple(records), bumpy_required
        if not self.records:
            raise ValueError("dataset needs at least one record")
        names = [r.name for r in self.records]
        if len(set(names)) != len(names):
            twice = next(name for k, name in enumerate(names) if name in names[:k])
            raise ValueError("duplicate record name %s" % _shown(twice))
        want = shape.dim - 1
        for r in self.records:
            if r.path.monodromy.half_dimension != want:
                raise ValueError(
                    "record %s: half-dimension %d, expected dn - 1 = %d"
                    % (_shown(r.name), r.path.monodromy.half_dimension, want)
                )
            if not mean_index(r.path) > 0:
                raise ValueError("record %s: mean index must be positive" % _shown(r.name))
            if self.bumpy_required and not validate_bumpy(r.path.monodromy):
                raise ValueError("record %s: degenerate iterate present" % _shown(r.name))

    @property
    def paths(self) -> tuple[PathClass, ...]:
        return tuple(r.path for r in self.records)


def index_iterate(p: PathClass, m: int) -> int:
    """i(gamma, m) by the precise iteration formula."""
    if m < 1:
        raise ValueError("m must be positive")
    sp, c, angles = p.spectral
    total = m * (p.i1 + sp - c) - (sp + c)
    for A, terms, q, wl, wh in angles:
        f = _floor(A, terms, 2 * q, m)  # [m*theta/2pi]
        total += 2 * wl * (f + 1 if terms or m * A % (2 * q) else f)
        if wh:
            total += 2 * wh * (m - f)
    return total


def mean_index(p: PathClass) -> Exact:
    """i-hat of the path, computed once per PathClass (``PathClass.mean``)."""
    return p.mean


def index_bracket(p: PathClass) -> tuple[int, int]:
    """(lo, hi) with lo <= i(gamma, m) - m*ihat < hi for every m >= 1, the
    mean-index estimate of the common index jump theorem (Long-Zhu, Ann. of
    Math. 155 (2002)): i(gamma, m) - m*ihat is -(S^+ + C) plus 2w(E(m*x) - m*x)
    in [0, 2w) per weighted angle x, so hi = lo + 2C, or lo + 1 when C = 0."""
    sp, c, _ = p.spectral
    lo = -(sp + c)
    return lo, lo + max(2 * c, 1)


def _over_mean(inv: Exact, c: int) -> int:
    """[c/ihat] from inv = 1/ihat, for an integer c of either sign."""
    if c > 0:
        return floor_mult(inv, c)
    return -ceil_mult(inv, -c) if c else 0


def index_window(p: PathClass, a: int | None = None, b: int | None = None) -> tuple[range, range]:
    """(may, sure): the m >= 1 that may have a <= i(gamma, m) <= b and those
    that surely do, by ``index_bracket``; None leaves a side open, and an open
    top ends both ranges at sys.maxsize.  For a <= b, sure lies inside may."""
    inv = p.inverse_mean
    lo, hi = index_bracket(p)
    may_start = sure_start = 1
    may_stop = sure_stop = sys.maxsize
    if a is not None:  # i >= a for all m >= (a - lo)/ihat, for no m <= (a - hi)/ihat
        may_start = max(1, _over_mean(inv, a - hi) + 1)
        sure_start = max(1, -_over_mean(inv, lo - a))
    if b is not None:  # i <= b for all m <= (b + 1 - hi)/ihat, for no m > (b - lo)/ihat
        may_stop = _over_mean(inv, b - lo) + 1
        sure_stop = _over_mean(inv, b + 1 - hi) + 1
    return range(may_start, may_stop), range(sure_start, max(sure_start, sure_stop))


def jump_index(p: PathClass, N: int, delta: int) -> int:
    """The jump identity i(gamma, 2m_k) = 2N - (S^+ + C - 2*Delta_k), delta = Delta_k."""
    sp, c, _ = p.spectral
    return 2 * N - (sp + c - 2 * delta)

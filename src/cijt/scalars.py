"""Exact scalars of the form r + sum_i c_i*sqrt(s_i) with rational r, c_i.

Rotation numbers theta/pi, mean indices and every derived quantity live in
this field, so floors, fractional parts and comparisons of integer multiples
are decided by integer arithmetic (never by floating point).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction


# Largest radicand ``Exact.from_json`` accepts.  Reducing s to its squarefree
# part is trial division, about 0.35 s at this size and without end beyond it.
MAX_RADICAND = 10**12


def _squarefree_split(s: int) -> tuple[int, int]:
    """s = f**2 * s0 with s0 squarefree; returns (f, s0)."""
    if s <= 0:
        raise ValueError("radicand must be positive")
    f, d = 1, 2
    while d * d <= s:
        while s % (d * d) == 0:
            s //= d * d
            f *= d
        d += 1
    return f, s


def _capped(s):
    """A radicand read from outside the program, refused above MAX_RADICAND."""
    if s > MAX_RADICAND:
        raise ValueError("radicand %d exceeds the cap %d" % (s, MAX_RADICAND))
    return s


def _enclosures(x: Exact, m: int = 1):
    """Integers (lo, hi, den) with lo < m*x*den < hi, at 64, 128, 256, ... bits.

    For x with radicands, written (A + sum_i B_i*sqrt(s_i))/q in integers:
    den = q*2**bits, and each B_i*sqrt(s_i)*2**bits lies strictly between
    two consecutive integers, so hi - lo is the number of radicands.  Square roots of
    distinct squarefree integers are linearly independent over Q
    (Besicovitch, J. London Math. Soc. 15 (1940)), so m*x is irrational and
    the enclosures come to exclude any given integer.
    """
    q = math.lcm(x.r.denominator, *(c.denominator for c in x.terms.values()))
    A = m * x.r.numerator * (q // x.r.denominator)
    terms = [(m * c.numerator * (q // c.denominator), s) for s, c in x.terms.items()]
    bits = 64
    while True:
        lo = hi = A << bits
        for B, s in terms:
            root = math.isqrt(B * B * s << 2 * bits)  # root < |B|*sqrt(s)*2**bits
            if B > 0:
                lo, hi = lo + root, hi + root + 1
            else:
                lo, hi = lo - root - 1, hi - root
        yield lo, hi, q << bits
        bits *= 2


class Exact:
    """Immutable element of Q adjoined with square roots of squarefree ints."""

    __slots__ = ("r", "terms", "_hash", "_int_form")

    def __init__(self, r: Fraction | int = 0, terms: dict[int, Fraction] | None = None):
        self.r = Fraction(r)
        self.terms = {s: c for s, c in (terms or {}).items() if c != 0}
        self._hash = None
        self._int_form = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def surd(a, b, s: int) -> "Exact":
        """a + b*sqrt(s); s is reduced to its squarefree part."""
        a, b = Fraction(a), Fraction(b)
        f, s0 = _squarefree_split(int(s))
        if s0 == 1:
            return Exact(a + b * f)
        return Exact(a, {s0: b * f})

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.terms

    @property
    def int_form(self) -> tuple[int, int, int, int]:
        """Integers (A, B, s, q) with self = (A + B*sqrt(s))/q and q > 0.

        Defined for at most one radicand (B = s = 0 when rational); computed
        once per value.
        """
        if self._int_form is None:
            if len(self.terms) > 1:
                raise ValueError("several radicands: %r" % (self,))
            s, c = next(iter(self.terms.items()), (0, Fraction(0)))
            q = math.lcm(self.r.denominator, c.denominator)
            self._int_form = (
                self.r.numerator * (q // self.r.denominator),
                c.numerator * (q // c.denominator),
                s,
                q,
            )
        return self._int_form

    # -- ring/field operations ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Exact):
            return other
        if isinstance(other, (int, Fraction)):
            return Exact(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        terms = dict(self.terms)
        for s, c in o.terms.items():
            terms[s] = terms.get(s, Fraction(0)) + c
        return Exact(self.r + o.r, terms)

    __radd__ = __add__

    def __neg__(self):
        return Exact(-self.r, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        r = self.r * o.r
        terms: dict[int, Fraction] = {}

        def put(s, c):
            if s in terms:
                terms[s] += c
            else:
                terms[s] = c

        for s, c in self.terms.items():
            if o.r:
                put(s, c * o.r)
        for s, c in o.terms.items():
            if self.r:
                put(s, c * self.r)
        for s1, c1 in self.terms.items():
            for s2, c2 in o.terms.items():
                if s1 == s2:
                    r += c1 * c2 * s1
                else:
                    # sqrt(s1)*sqrt(s2) = g*sqrt((s1/g)(s2/g)), g = gcd;
                    # the product of coprime squarefree ints is squarefree.
                    g = math.gcd(s1, s2)
                    put((s1 // g) * (s2 // g), c1 * c2 * g)
        return Exact(r, terms)

    __rmul__ = __mul__

    def _inverse(self) -> "Exact":
        if not self.terms:
            if self.r == 0:
                raise ZeroDivisionError("division by zero Exact")
            return Exact(1 / self.r)
        # Peel a radicand b that every radicand is a multiple of or coprime
        # to: self = P + Q*sqrt(b) with P and Q free of b's primes, and
        # 1/self = (P - Q*sqrt(b)) / (P^2 - Q^2*b), a denominator with fewer
        # primes under its roots.  It is nonzero: flipping the sign of
        # sqrt(p) for one prime p | b is a field automorphism.
        b = max(self.terms)
        for t in self.terms:  # a divisor of b keeps earlier t multiples or coprime
            g = math.gcd(t, b)
            if g > 1:
                b = g
        P = Exact(self.r, {t: c for t, c in self.terms.items() if t % b})
        Q = Exact(
            self.terms.get(b, 0),
            {t // b: c for t, c in self.terms.items() if t % b == 0 and t != b},
        )
        conj = P - Q * Exact(0, {b: 1})
        return conj * (P * P - Q * Q * b)._inverse()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o._inverse()

    def __rtruediv__(self, other):
        return Exact(other) * self._inverse()

    # -- exact sign and comparisons ----------------------------------------

    def sign(self) -> int:
        if len(self.terms) <= 1:
            A, B, s, _ = self.int_form  # q > 0 leaves the sign alone
            return _cmp_single(A, B, s, 0)
        for lo, hi, _ in _enclosures(self):  # nonzero, so some lo > 0 or hi < 0
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.r == o.r and self.terms == o.terms

    def _cmp(self, other) -> int:
        """Sign of self - other; one integer comparison when both values have
        the same radicand or none."""
        o = self._coerce(other)
        if o is not NotImplemented and len(self.terms) <= 1 and len(o.terms) <= 1:
            A, B, s, q = self.int_form
            C, D, t, r = o.int_form
            if not (B and D) or s == t:
                return _cmp_single(A * r, B * r - D * q, s or t, C * q)
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.r) or bool(self.terms)

    def __float__(self):
        return float(self.r) + sum(float(c) * math.sqrt(s) for s, c in self.terms.items())

    def __repr__(self):
        parts = [str(self.r)] if self.r or not self.terms else []
        for s in sorted(self.terms):
            parts.append("%s*sqrt(%d)" % (self.terms[s], s))
        return "Exact(%s)" % " + ".join(parts)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        if not self.terms:
            return {"kind": "rational", "num": self.r.numerator, "den": self.r.denominator}
        if len(self.terms) == 1:
            ((s, c),) = self.terms.items()
            return {
                "kind": "surd",
                "a": [self.r.numerator, self.r.denominator],
                "b": [c.numerator, c.denominator],
                "s": s,
            }
        return {
            "kind": "sum",
            "rational": [self.r.numerator, self.r.denominator],
            "terms": [
                {"coeff": [c.numerator, c.denominator], "s": s}
                for s, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(obj) -> "Exact":
        if not isinstance(obj, dict):
            raise TypeError("scalar %r is not an object" % (obj,))
        kind = obj.get("kind")
        if kind == "rational":
            return Exact(Fraction(obj["num"], obj["den"]))
        if kind == "surd":
            return Exact.surd(
                Fraction(*obj["a"]), Fraction(*obj["b"]), _capped(obj["s"])
            )
        if kind == "sum":
            out = Exact(Fraction(*obj["rational"]))
            for t in obj["terms"]:
                out = out + Exact.surd(0, Fraction(*t["coeff"]), _capped(t["s"]))
            return out
        raise ValueError("unknown scalar kind: %r" % (kind,))


# -- floors / fractional parts of integer multiples -------------------------


def _cmp_single(A: int, B: int, s: int, t: int) -> int:
    """Sign of A + B*sqrt(s) - t, all integers."""
    a = A - t
    if B == 0:
        return (a > 0) - (a < 0)
    if a >= 0 and B > 0:
        return 1
    if a <= 0 and B < 0:
        return -1
    lhs, rhs = a * a, B * B * s
    if lhs == rhs:
        raise AssertionError("surd equals integer")
    big_rational = lhs > rhs
    return (1 if big_rational else -1) if a > 0 else (-1 if big_rational else 1)


def floor_mult(x: Exact, m: int) -> int:
    """[m*x], exact."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if len(x.terms) > 1:
        # several radicands: m*x is irrational, so some enclosure of it lies
        # strictly between two consecutive integers
        for lo, hi, den in _enclosures(x, m):
            k = lo // den
            if hi < (k + 1) * den:
                return k
    A, B, s, q = x.int_form
    A, B = m * A, m * B
    # guess from integer sqrt, then certify k <= m*x < k+1
    if B >= 0:
        k = (A + math.isqrt(B * B * s)) // q
    else:
        k = (A - math.isqrt(B * B * s) - 1) // q
    while _cmp_single(A, B, s, k * q) < 0:
        k -= 1
    while _cmp_single(A, B, s, (k + 1) * q) >= 0:
        k += 1
    return k


def ceil_mult(x: Exact, m: int) -> int:
    """E(m*x) = min{k in Z | k >= m*x}, exact."""
    f = floor_mult(x, m)
    if not x.terms and (m * x.r.numerator) % x.r.denominator == 0:
        return f
    return f + 1


def frac_mult(x: Exact, m: int) -> Exact:
    """{m*x} = m*x - [m*x] in [0,1), exact."""
    return x * m - floor_mult(x, m)


class Lattice(Enum):
    ZERO = "zero"
    LOW = "low"
    HIGH = "high"
    INTERIOR = "interior"


def is_near_lattice(x: Exact, m: int, delta: Fraction) -> Lattice:
    """Classify {m*x} against the open bands (0, delta) and (1-delta, 1).

    Boundary hits {m*x} = delta or 1-delta are Interior (strict inequalities).
    With x = (A + B*sqrt(s))/q, k = [m*x] and delta = p/r, {m*x} < delta is
    r*m*A + r*m*B*sqrt(s) < (r*k + p)*q and {m*x} > 1 - delta compares with
    (r*(k + 1) - p)*q: one integer comparison per band.  Values with several
    radicands have no such form and compare {m*x} itself.
    """
    if not isinstance(delta, Fraction):
        delta = Fraction(delta)
    p, r = delta.numerator, delta.denominator
    if not 0 < 2 * p < r:
        raise ValueError("delta must lie in (0, 1/2)")
    if len(x.terms) > 1:
        f = frac_mult(x, m)
        if f < delta:
            return Lattice.LOW
        if f > 1 - delta:
            return Lattice.HIGH
        return Lattice.INTERIOR
    A, B, s, q = x.int_form
    k = floor_mult(x, m)
    if B == 0 and m * A == k * q:
        return Lattice.ZERO
    rmA, rmB = r * m * A, r * m * B
    if _cmp_single(rmA, rmB, s, (r * k + p) * q) < 0:
        return Lattice.LOW
    if _cmp_single(rmA, rmB, s, (r * (k + 1) - p) * q) > 0:
        return Lattice.HIGH
    return Lattice.INTERIOR

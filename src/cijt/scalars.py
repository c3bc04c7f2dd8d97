"""Exact scalars of the form r + sum_i c_i*sqrt(s_i) with rational r, c_i.

Rotation numbers theta/pi, mean indices and every derived quantity live in
this field, so floors, fractional parts and comparisons of integer multiples
are decided by integer arithmetic (never by floating point).  Each value is
held as integers (A, {s: B_s}, q) with value (A + sum_s B_s*sqrt(s))/q, and
every operation works on those integers.  One integer floor of such a form
decides every sign, comparison, floor and lattice band.
"""

from __future__ import annotations

import math
import sys

from .record import fields, integer, item, listed, named, pair, refuse


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


def _radicand(node, where: str) -> int:
    """A radicand read from a document: an integer from 1 to MAX_RADICAND."""
    if not 0 < integer(node, where) <= MAX_RADICAND:
        raise refuse(where, node, "not a radicand from 1 to %d" % MAX_RADICAND)
    return node


def _term(node, where: str):
    """(coeff, s) of a term {"coeff": [n, d], "s": s} of a sum."""
    coeff, s = fields(node, where, ("coeff", "s"))
    return pair(coeff, where + ".coeff"), _radicand(s, where + ".s")


def _rational(x) -> tuple[int, int]:
    """(numerator, denominator) of an int, a caller's Fraction or a rational
    Exact; a float or an irrational Exact, which have neither, is refused."""
    try:
        return x.numerator, x.denominator
    except AttributeError:
        raise TypeError("expected an int or a rational, not %s" % type(x).__name__) from None


def _below_half(x, name: str):
    """x, once its integer pair p/q shows 0 < x < 1/2; a float is refused."""
    p, q = _rational(x)
    if not 0 < 2 * p < q:
        raise ValueError("%s must lie in (0, 1/2)" % name)
    return x


def _enclosure(A: int, terms, q: int, m: int, bits: int) -> tuple[int, int, int]:
    """Integers (lo, hi, den) enclosing m*(A + sum b*sqrt(s))*den/q at `bits`
    bits, over the pairs (s, b) of `terms`: s squarefree > 1 and b != 0.

    den = q*2**bits, and each m*b*sqrt(s)*2**bits lies strictly between two
    consecutive integers, so hi - lo is the number of radicands: lo = hi is
    the value itself when there is none, and otherwise lo < value*den < hi.
    """
    lo = hi = m * A << bits
    for s, b in terms:
        root = math.isqrt(b * b * s * m * m << 2 * bits)  # root < |m*b|*sqrt(s)*2**bits
        if b > 0:
            lo, hi = lo + root, hi + root + 1
        else:
            lo, hi = lo - root - 1, hi - root
    return lo, hi, q << bits


def _floor(A: int, terms, q: int, m: int = 1) -> int:
    """[m*(A + sum b*sqrt(s))/q], q > 0, from the first enclosure at 0, 64,
    128, 256, ... bits that lies within one step [k, k + 1).

    A rational value or one radicand ends at 0 bits, where hi - lo is 0 or 1,
    so that enclosure is taken directly: one isqrt and no loop.  With several,
    the value is irrational (square roots of distinct squarefree integers are
    linearly independent over Q: Besicovitch, J. London Math. Soc. 15
    (1940)), so the enclosures come to exclude every integer.
    """
    if len(terms) <= 1:
        for s, b in terms:
            root = math.isqrt(b * b * s * m * m)  # [m*|b|*sqrt(s)], never an integer
            return (m * A + (root if b > 0 else -root - 1)) // q
        return m * A // q
    bits = 0
    while True:
        lo, hi, den = _enclosure(A, terms, q, m, bits)
        k = lo // den
        if hi <= (k + 1) * den:
            return k
        bits = 2 * bits or 64


def _sign(A: int, terms) -> int:
    """Sign of A + sum b*sqrt(s); with radicands the value is not 0."""
    if not terms:
        return (A > 0) - (A < 0)
    return 1 if _floor(A, terms, 1) >= 0 else -1


def _lowest(A: int, B: dict[int, int], q: int) -> tuple[int, dict[int, int], int]:
    """(A, B, q) divided by their gcd, with q > 0 and no zero B[s]; q != 0."""
    if B and not all(B.values()):
        B = {s: b for s, b in B.items() if b}
    g = math.gcd(A, q, *B.values())
    if q < 0:
        g = -g
    if g != 1:
        A, q = A // g, q // g
        B = {s: b // g for s, b in B.items()}
    return A, B, q


def _exact(A: int, B: dict[int, int], q: int) -> Exact:
    """The Exact (A + sum_s B[s]*sqrt(s))/q; B is kept, not copied."""
    x = object.__new__(Exact)
    x.A, x.B, x.q = _lowest(A, B, q)
    return x


def _parts(x):
    """(A, B, q) of an Exact, int or Fraction; None for any other type."""
    if isinstance(x, Exact):
        return x.A, x.B, x.q
    try:
        return x.numerator, {}, x.denominator
    except AttributeError:
        return None


def _single(B: dict[int, int]) -> tuple[int, int]:
    """(s, B_s) of at most one radicand; (0, 0) when there is none."""
    return next(iter(B.items()), (0, 0))


class Exact:
    """Immutable element of Q adjoined with square roots of squarefree ints;
    cijt's one rational type, a rational value acts as the equal Fraction.

    Held as integers: the value is (A + sum_s B[s]*sqrt(s))/q with q > 0, no
    zero B[s], and gcd(A, q, *B.values()) = 1, so equal values hold equal
    integers.
    """

    __slots__ = ("A", "B", "q")

    def __init__(self, r=0, d: int = 1):  # r/d, r an int, Fraction or rational Exact
        n, q = _rational(r)
        if not d:
            raise ZeroDivisionError("Exact(%s, 0)" % r)
        self.A, self.B, self.q = _lowest(n, {}, q * d)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def surd(a, b, s: int) -> "Exact":
        """a + b*sqrt(s); s is reduced to its squarefree part."""
        return _from_pairs(_rational(a), ((_rational(b), int(s)),))

    @property
    def is_rational(self) -> bool:
        return not self.B

    def _ratio(self) -> tuple[int, int]:
        if self.B:  # so that an irrational value reads as no rational
            raise AttributeError("an irrational Exact has no numerator or denominator")
        return self.A, self.q

    # p and q of a rational value p/q in lowest terms, as a Fraction has them
    numerator = property(lambda self: self._ratio()[0])
    denominator = property(lambda self: self._ratio()[1])

    # -- ring/field operations ---------------------------------------------

    def _plus(self, other, sign: int):
        """self + sign*other."""
        o = _parts(other)
        if o is None:
            return NotImplemented
        C, D, r = o
        g = math.gcd(self.q, r)
        f, h = r // g, sign * (self.q // g)  # self.q*f == r*|h|
        terms = {s: b * f for s, b in self.B.items()}
        for s, d in D.items():
            terms[s] = terms.get(s, 0) + d * h
        return _exact(self.A * f + C * h, terms, self.q * f)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _exact(-self.A, {s: -b for s, b in self.B.items()}, self.q)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        C, D, r = o
        # every pair of terms, a rational part as the coefficient of sqrt(1):
        # sqrt(s)*sqrt(t) = g*sqrt(st/g^2), g = gcd, and st/g^2, the product of
        # coprime squarefree ints, is squarefree (1 when s = t)
        terms: dict[int, int] = {}
        right = ((1, C), *D.items())
        for s, b in ((1, self.A), *self.B.items()):
            for t, d in right:
                g = math.gcd(s, t)
                k = s * t // (g * g)
                terms[k] = terms.get(k, 0) + b * d * g
        return _exact(terms.pop(1), terms, self.q * r)

    __rmul__ = __mul__

    def _inverse(self) -> "Exact":
        A, B, q = self.A, self.B, self.q
        if not B:
            if not A:
                raise ZeroDivisionError("division by zero Exact")
            return _exact(q, {}, A)
        if len(B) == 1:
            ((s, b),) = B.items()  # q/(A + b*sqrt(s)) = q*(A - b*sqrt(s))/(A^2 - b^2*s)
            return _exact(q * A, {s: -q * b}, A * A - b * b * s)
        # Peel a radicand t that every radicand is a multiple of or coprime
        # to: the numerator is P + Q*sqrt(t) with P and Q free of t's primes,
        # and 1/(P + Q*sqrt(t)) = (P - Q*sqrt(t)) / (P^2 - Q^2*t), a
        # denominator with fewer primes under its roots.  It is nonzero:
        # flipping the sign of sqrt(p) for one prime p | t is a field
        # automorphism.
        t = max(B)
        for u in B:  # a divisor of t keeps earlier u multiples or coprime
            g = math.gcd(u, t)
            if g > 1:
                t = g
        P = _exact(A, {u: c for u, c in B.items() if u % t}, 1)
        Q = _exact(B.get(t, 0), {u // t: c for u, c in B.items() if u % t == 0 and u != t}, 1)
        conj = P - Q * _exact(0, {t: 1}, 1)
        return conj * (P * P - Q * Q * t)._inverse() * q

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self * _exact(*o)._inverse()

    def __rtruediv__(self, other):
        if _parts(other) is None:
            return NotImplemented
        return self._inverse() * other

    # -- exact sign and comparisons ----------------------------------------

    def sign(self) -> int:
        return _sign(self.A, self.B.items())  # q > 0 leaves the sign alone

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self.A == o[0] and self.q == o[2] and self.B == o[1]

    def _cmp(self, other) -> int:
        """Sign of self - other; one integer comparison when both values have
        the same radicand or none."""
        o = _parts(other)
        if o is None:
            raise TypeError("cannot compare Exact with %s" % type(other).__name__)
        C, D, r = o
        if len(self.B) <= 1 and len(D) <= 1:
            (s, b), (t, d) = _single(self.B), _single(D)
            if not (b and d) or s == t:
                c = b * r - d * self.q
                return _sign(self.A * r - C * self.q, ((s or t, c),) if c else ())
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
        # a rational value hashes as the equal Fraction (and int), so that
        # Exact(1) and 1 are one dict key: A/q modulo the prime P of the
        # Python docs' "Hashing of numeric types", +-inf when P divides q
        if self.B:
            return hash((self.A, self.q, frozenset(self.B.items())))
        P = sys.hash_info.modulus
        if self.q % P:
            return hash(self.A * pow(self.q, -1, P))  # hash(n): |n| mod P, n's sign
        return sys.hash_info.inf if self.A > 0 else -sys.hash_info.inf

    def __bool__(self):
        return bool(self.A) or bool(self.B)

    def __float__(self):
        """K/2**k for the exact floor K of value*2**k, with k raised until |K|
        has 54 bits: a float sum of the terms can cancel to 0.0."""
        k = 0
        while True:
            K = _floor(self.A, self.B.items(), self.q, 1 << k)
            bits = abs(K).bit_length()
            if bits >= 54 or not self:
                return K / (1 << k)
            k += 54 - bits if bits > 1 else k or 64

    def __repr__(self):
        parts = [str(_exact(self.A, {}, self.q))] if self.A or not self.B else []
        parts += ["%s*sqrt(%d)" % (_exact(b, {}, self.q), s) for s, b in sorted(self.B.items())]
        return "Exact(%s)" % " + ".join(parts)

    def __str__(self):
        """A rational value as a Fraction prints it: "p/q", or "p" when q = 1."""
        if self.B:
            return repr(self)
        return "%d/%d" % (self.A, self.q) if self.q != 1 else "%d" % self.A

    # -- serialization ------------------------------------------------------

    def to_json(self):
        A, B, q = self.A, self.B, self.q
        if not B:
            return {"kind": "rational", "num": A, "den": q}
        a = [*_exact(A, {}, q)._ratio()]
        terms = [{"coeff": [*_exact(b, {}, q)._ratio()], "s": s} for s, b in sorted(B.items())]
        if len(B) == 1:
            return {"kind": "surd", "a": a, "b": terms[0]["coeff"], "s": terms[0]["s"]}
        return {"kind": "sum", "rational": a, "terms": terms}

    @staticmethod
    def from_json(obj, where: str = "scalar") -> "Exact":
        """The Exact of a to_json object at the place where."""
        kind = named(item(obj, where, "kind"), where + ".kind", ("rational", "surd", "sum"))
        if kind == "rational":
            _, num, den = fields(obj, where, ("kind", "num", "den"))
            if not integer(den, where + ".den"):
                raise refuse(where + ".den", den, "a zero denominator")
            return _from_pairs((integer(num, where + ".num"), den), ())
        if kind == "surd":
            _, a, b, s = fields(obj, where, ("kind", "a", "b", "s"))
            return _from_pairs(pair(a, where + ".a"),
                               ((pair(b, where + ".b"), _radicand(s, where + ".s")),))
        _, a, terms = fields(obj, where, ("kind", "rational", "terms"))
        return _from_pairs(pair(a, where + ".rational"), listed(terms, where + ".terms", _term))


def _from_pairs(a, terms) -> Exact:
    """The Exact a[0]/a[1] + sum (c[0]/c[1])*sqrt(s) over the pairs (c, s) of
    terms, from integers over one common denominator; each s is reduced to
    its squarefree part."""
    (A, q), B = a, {}
    Q = q * math.prod([c[1] for c, _ in terms])
    for (n, d), s in terms:
        f, s = _squarefree_split(s)
        B[s] = B.get(s, 0) + n * f * (Q // d)
    return _exact(A * (Q // q) + B.pop(1, 0), B, Q)  # s = 1: a rational term


# -- floors and ceilings of integer multiples ------------------------------


def floor_mult(x: Exact, m: int) -> int:
    """[m*x], exact."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return _floor(x.A, x.B.items(), x.q, m)


def ceil_mult(x: Exact, m: int) -> int:
    """E(m*x) = min{k in Z | k >= m*x}, exact."""
    f = floor_mult(x, m)
    if not x.B and (m * x.A) % x.q == 0:
        return f
    return f + 1

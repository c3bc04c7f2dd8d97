"""Independent exact arithmetic for the benchmark's correctness gate.

Nothing here imports cijt.  Angles are quadratic surds a + b*sqrt(s) with
rational a, b and squarefree s, held as Fractions; every floor is decided by
integer square roots, so the brute-force scan below is an oracle for the
engine's tuple search that shares no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Surd:
    """a + b*sqrt(s); s is squarefree and > 1 unless b == 0."""

    a: Fraction
    b: Fraction
    s: int

    def __add__(self, k):
        return Surd(self.a + k, self.b, self.s)

    def scale(self, k):
        return Surd(self.a * k, self.b * k, self.s)

    def inverse(self) -> "Surd":
        # 1/(a + b√s) = (a - b√s) / (a² - b²s); the norm is nonzero for irrational values
        norm = self.a * self.a - self.b * self.b * self.s
        return Surd(self.a / norm, -self.b / norm, self.s)

    def sign(self) -> int:
        if self.b == 0 or self.s == 1:
            v = self.a + self.b
            return (v > 0) - (v < 0)
        if self.a >= 0 and self.b >= 0:
            return 1
        if self.a <= 0 and self.b <= 0:
            return -1
        # opposite signs: the larger magnitude wins; equality is impossible for irrationals
        rational_wins = self.a * self.a > self.b * self.b * self.s
        return (1 if self.a > 0 else -1) if rational_wins else (1 if self.b > 0 else -1)

    def integers(self) -> tuple[int, int, int]:
        """(A, B, q) with a + b*sqrt(s) = (A + B*sqrt(s)) / q and q > 0."""
        q = self.a.denominator * self.b.denominator // math.gcd(self.a.denominator, self.b.denominator)
        return self.a.numerator * (q // self.a.denominator), self.b.numerator * (q // self.b.denominator), q

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.s)

    def to_json(self):
        if self.b == 0:
            return {"kind": "rational", "num": self.a.numerator, "den": self.a.denominator}
        return {
            "kind": "surd",
            "a": [self.a.numerator, self.a.denominator],
            "b": [self.b.numerator, self.b.denominator],
            "s": self.s,
        }


def floor_mult(x: Surd, m: int) -> int:
    """floor(m*x) for an irrational surd x, by one integer square root."""
    A, B, q = x.integers()
    root = math.isqrt(m * m * B * B * x.s)  # floor(m|B|sqrt(s)); never exact, sqrt(s) is irrational
    return (m * A + root) // q if B >= 0 else (m * A - root - 1) // q


def frac_band(x: Surd, m: int, delta: Fraction) -> int | None:
    """0 if {m*x} < delta, 1 if {m*x} > 1 - delta, else None (x irrational)."""
    k, p = delta.denominator, delta.numerator
    # floor(k*{m x}) = floor(k*m*x) - k*floor(m*x); k*{m x} is never an integer
    g = floor_mult(x.scale(k), m) - k * floor_mult(x, m)
    if g < p:
        return 0
    if g >= k - p:
        return 1
    return None


def single_angle_hits(i1: int, theta: Surd, delta: Fraction, m_max: int, chi_eps=None):
    """Every admissible (N, m, chi, bit) with m <= m_max for one path with a
    single rotation block R(theta), straight from the definitions:

      bit 0 (Low):  {m theta} in (0, delta), Delta = 1;
      bit 1 (High): {m theta} in (1 - delta, 1), Delta = 0;
      N = m (i1 - 1) + ceil(m theta) - Delta, the index identity I(m) = N + Delta;
      m = floor(N / ihat) + chi with ihat = i1 - 1 + theta and chi in {0, 1};
      with chi_eps, {N / ihat} < chi_eps when chi = 0 and > 1 - chi_eps when chi = 1.
    """
    u = (theta + (i1 - 1)).inverse()
    out = []
    for m in range(1, m_max + 1):
        bit = frac_band(theta, m, delta)
        if bit is None:
            continue
        N = m * (i1 - 1) + floor_mult(theta, m) + 1 - (1 if bit == 0 else 0)
        if N < 1:
            continue
        chi = m - floor_mult(u, N)
        if chi not in (0, 1):
            continue
        if chi_eps is not None and frac_band(u, N, chi_eps) != (0 if chi == 0 else 1):
            continue
        out.append((N, m, chi, bit))
    return out

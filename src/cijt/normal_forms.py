"""Basic symplectic normal forms and their spectral bookkeeping.

A conjugacy class is a multiset of 2x2/4x4 blocks:

    N1(lam, b)   lam = +-1, with only sign(b) retained
    D(lam)       real hyperbolic pair lam, 1/lam
    R(theta)     rotation, theta/pi in (0,2) \\ {1}
    N2(theta, k) 4x4 spinning block, trivial or nontrivial

Everything downstream (splitting numbers, C(M), nullity, elliptic height,
the return time of rational angles) is a pure function of this data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .scalars import Exact


def _check_angle(theta: Exact) -> Exact:
    if not isinstance(theta, Exact):
        raise TypeError("theta/pi must be an Exact scalar")
    if not 0 < theta < 2:
        raise ValueError("theta/pi must lie in (0, 2)")
    if theta == 1:
        raise ValueError("theta = pi is encoded by N1(-1, b), not by R/N2")
    return theta


@dataclass(frozen=True)
class N1:
    lam: int          # +1 or -1
    b_sign: int       # -1, 0, +1

    def __post_init__(self):
        if self.lam not in (1, -1) or self.b_sign not in (-1, 0, 1):
            raise ValueError("bad N1 block")

    dim = 2


@dataclass(frozen=True)
class D:
    lam: Exact

    def __post_init__(self):
        a = self.lam if self.lam.sign() > 0 else -self.lam
        if a == 0 or a == 1:
            raise ValueError("D(lam) needs lam real with |lam| not in {0, 1}")

    dim = 2


@dataclass(frozen=True)
class R:
    theta: Exact      # theta/pi

    def __post_init__(self):
        _check_angle(self.theta)

    dim = 2


@dataclass(frozen=True)
class N2:
    theta: Exact      # theta/pi
    nontrivial: bool  # sign of (b2-b3)*sin(theta) < 0

    def __post_init__(self):
        _check_angle(self.theta)

    dim = 4


Block = Union[N1, D, R, N2]


def _block_key(b: Block):
    """Canonical order: block type, then the exact eigenvalue or angle."""
    if isinstance(b, N1):
        return (0, b.lam, b.b_sign)
    if isinstance(b, D):
        return (1, b.lam)
    if isinstance(b, R):
        return (2, b.theta)
    return (3, b.theta, b.nontrivial)


@dataclass(frozen=True)
class SymplecticClass:
    """Multiset of blocks in canonical order; total dimension 2*half_dimension."""

    blocks: tuple[Block, ...]
    half_dimension: int = field(default=0)

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=_block_key))
        object.__setattr__(self, "blocks", blocks)
        total = sum(b.dim for b in blocks)
        if self.half_dimension == 0:
            object.__setattr__(self, "half_dimension", total // 2)
        if 2 * self.half_dimension != total:
            raise ValueError(
                "blocks span dimension %d, expected 2n = %d"
                % (total, 2 * self.half_dimension)
            )


@dataclass(frozen=True)
class SplittingPair:
    plus: int
    minus: int

    def __add__(self, other):
        return SplittingPair(self.plus + other.plus, self.minus + other.minus)


_ZERO_PAIR = SplittingPair(0, 0)

# Unit-circle eigenvalue encoding: the integer 1 or -1, or an Exact theta/pi
# in (0,2)\{1} for e^{i*theta}.
Omega = Union[int, Exact]


def _conjugate_angle(theta: Exact) -> Exact:
    return 2 - theta


def _block_splitting(b: Block, omega: Omega) -> SplittingPair:
    # The per-block table.  Only the N1(1,b) value at omega=1 is printed in
    # the iteration-formula sources; the rest is fixed by conjugate symmetry
    # S^+(w) = S^-(conj w), additivity, and the requirement that the two
    # iteration formulas (precise and non-degenerate shortcut) agree -- the
    # cross-check suite gates every entry.
    if isinstance(b, N1):
        if omega == b.lam:
            if b.lam == 1:
                hit = b.b_sign >= 0
            else:
                hit = b.b_sign <= 0
            return SplittingPair(1, 1) if hit else _ZERO_PAIR
        return _ZERO_PAIR
    if isinstance(b, D):
        return _ZERO_PAIR
    if isinstance(b, R):
        if isinstance(omega, Exact):
            if omega == b.theta:
                return SplittingPair(0, 1)
            if omega == _conjugate_angle(b.theta):
                return SplittingPair(1, 0)
        return _ZERO_PAIR
    if isinstance(b, N2):
        if isinstance(omega, Exact) and omega in (b.theta, _conjugate_angle(b.theta)):
            return SplittingPair(1, 1) if b.nontrivial else _ZERO_PAIR
        return _ZERO_PAIR
    raise TypeError("unknown block %r" % (b,))


def splitting_numbers(M: SymplecticClass, omega: Omega) -> SplittingPair:
    if isinstance(omega, int):
        if omega not in (1, -1):
            raise ValueError("integer omega must be +-1")
    elif isinstance(omega, Exact):
        _check_angle(omega)
    else:
        raise TypeError("omega must be +-1 or an Exact angle")
    out = _ZERO_PAIR
    for b in M.blocks:
        out = out + _block_splitting(b, omega)
    return out


def unit_angles(M: SymplecticClass) -> list[tuple[Exact, SplittingPair]]:
    """Eigenvalue angles theta/pi in (0,2) with their splitting pairs.

    theta = pi (angle 1) appears for N1(-1, .) blocks.  Angles are listed
    once with aggregated pairs, in sorted order.
    """
    acc: dict[Exact, SplittingPair] = {}

    def add(theta, pair):
        if pair == _ZERO_PAIR:
            return
        acc[theta] = acc.get(theta, _ZERO_PAIR) + pair

    one = Exact(1)
    for b in M.blocks:
        if isinstance(b, N1) and b.lam == -1:
            add(one, _block_splitting(b, -1))
        elif isinstance(b, R):
            add(b.theta, _block_splitting(b, b.theta))
            add(_conjugate_angle(b.theta), _block_splitting(b, _conjugate_angle(b.theta)))
        elif isinstance(b, N2):
            add(b.theta, _block_splitting(b, b.theta))
            add(_conjugate_angle(b.theta), _block_splitting(b, _conjugate_angle(b.theta)))
    return sorted(acc.items(), key=lambda kv: kv[0])


def s_plus_one(M: SymplecticClass) -> int:
    """S^+_M(1)."""
    return splitting_numbers(M, 1).plus


def crossing_sum(M: SymplecticClass) -> int:
    """C(M) = sum over theta in (0, 2pi) of S^-_M(e^{i theta})."""
    return sum(pair.minus for _, pair in unit_angles(M))


def nullity(M: SymplecticClass, m: int) -> int:
    """Geometric multiplicity of eigenvalue 1 of the m-th power."""
    if m < 1:
        raise ValueError("m must be positive")
    total = 0
    for b in M.blocks:
        if isinstance(b, N1):
            if b.lam == 1 or m % 2 == 0:
                total += 2 if b.b_sign == 0 else 1
        elif isinstance(b, (R, N2)):
            # (M^m - I) kernel is nonzero iff m*theta in 2*pi*Z
            t = b.theta
            if t.is_rational and (m * t.A) % (2 * t.q) == 0:
                total += 2
    return total


def elliptic_height(M: SymplecticClass) -> int:
    total = 0
    for b in M.blocks:
        if isinstance(b, (N1, R)):
            total += 2
        elif isinstance(b, N2):
            total += 4
    return total


def is_hyperbolic(M: SymplecticClass) -> bool:
    return elliptic_height(M) == 0


def _return_time(theta: Exact) -> int | None:
    """Least k with k*theta in 2*pi*N, for rational theta/pi; None otherwise."""
    if not theta.is_rational:
        return None
    p, q = theta.A, theta.q
    # k*p/q even: k = q for even p, 2q for odd p (p, q coprime)
    return q if p % 2 == 0 else 2 * q


def m_check(M: SymplecticClass) -> Optional[int]:
    """First iterate returning a rational elliptic angle to 1; None if none."""
    times = []
    for b in M.blocks:
        if isinstance(b, N1) and b.lam == -1:
            times.append(2)
        elif isinstance(b, (R, N2)):
            k = _return_time(b.theta)
            if k is not None:
                times.append(k)
    return min(times) if times else None


def validate_bumpy(M: SymplecticClass) -> bool:
    """True iff nullity vanishes for every iterate: no N1, no rational angles."""
    for b in M.blocks:
        if isinstance(b, N1):
            return False
        if isinstance(b, (R, N2)) and b.theta.is_rational:
            return False
    return True


# -- serialization -----------------------------------------------------------


def block_to_json(b: Block):
    if isinstance(b, N1):
        sign = {1: "positive", 0: "zero", -1: "negative"}[b.b_sign]
        return {"type": "N1", "lambda": b.lam, "b_sign": sign}
    if isinstance(b, D):
        return {"type": "D", "lambda": b.lam.to_json()}
    if isinstance(b, R):
        return {"type": "R", "theta_over_pi": b.theta.to_json()}
    return {
        "type": "N2",
        "theta_over_pi": b.theta.to_json(),
        "kind": "nontrivial" if b.nontrivial else "trivial",
    }


def block_from_json(obj) -> Block:
    t = obj.get("type")
    if t == "N1":
        sign = {"positive": 1, "zero": 0, "negative": -1}[obj["b_sign"]]
        return N1(obj["lambda"], sign)
    if t == "D":
        return D(Exact.from_json(obj["lambda"]))
    if t == "R":
        return R(Exact.from_json(obj["theta_over_pi"]))
    if t == "N2":
        return N2(Exact.from_json(obj["theta_over_pi"]), obj["kind"] == "nontrivial")
    raise ValueError("unknown block type: %r" % (t,))

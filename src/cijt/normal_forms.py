"""Basic symplectic normal forms and their spectral bookkeeping.

A conjugacy class is a multiset of 2x2/4x4 blocks:

    N1(lam, b)   lam = +-1, with only sign(b) retained
    D(lam)       real hyperbolic pair lam, 1/lam
    R(theta)     rotation, theta/pi in (0,2) \\ {1}
    N2(theta, k) 4x4 spinning block, trivial or nontrivial

Each block holds one eigen-angle ``angle`` = theta/pi, set at construction:
0 for N1(1, .), 1 for N1(-1, .), theta for R and N2, and None for D, whose
eigenvalues lie off the unit circle.  Beside it the block sets ``minus`` =
(S^-(theta), S^-(2 - theta)), and S^+(w) = S^-(conj w).  The angle drives
nullity, the return time of rational angles, bumpiness and the elliptic height.
"""

from __future__ import annotations

from typing import Optional, Union

from .scalars import Exact, _floor
from .record import FrozenRecord, fields, integer, item, named


def _check_angle(theta: Exact) -> None:
    """One floor shows 0 < theta/pi < 2, and theta/pi != 1."""
    if not isinstance(theta, Exact):
        raise TypeError("theta/pi must be an Exact scalar")
    A, B, q = theta.A, theta.B, theta.q
    whole = not B and q == 1  # lowest terms: theta/pi is an integer
    if whole and A == 1:
        raise ValueError("theta = pi is encoded by N1(-1, b), not by R/N2")
    if whole or _floor(A, B.items(), q) not in (0, 1):
        raise ValueError("theta/pi must lie in (0, 2)")


_ZERO, _ONE = Exact(0), Exact(1)

# The per-block splitting numbers ``minus``.  Only the N1(1,b) value at
# omega=1 is printed in the iteration-formula sources; the rest is fixed by
# conjugate symmetry S^+(w) = S^-(conj w), additivity, and the requirement
# that the two iteration formulas (precise and non-degenerate shortcut)
# agree -- the cross-check suite gates every entry.


class N1(FrozenRecord):
    _fields = ("lam", "b_sign")

    def __init__(self, lam: int, b_sign: int):  # lam = +-1, b_sign in {-1, 0, 1}
        if lam not in (1, -1) or b_sign not in (-1, 0, 1):
            raise ValueError("bad N1 block")
        angle = _ZERO if lam == 1 else _ONE  # b >= 0 at omega = 1, b <= 0 at omega = -1
        self.__dict__.update(lam=lam, b_sign=b_sign, angle=angle, minus=(int(lam * b_sign >= 0), 0))

    dim = 2


class D(FrozenRecord):
    _fields = ("lam",)

    def __init__(self, lam: Exact):
        a = lam if lam.sign() > 0 else -lam
        if a == 0 or a == 1:
            raise ValueError("D(lam) needs lam real with |lam| not in {0, 1}")
        self.__dict__["lam"] = lam

    dim = 2
    angle, minus = None, (0, 0)


class R(FrozenRecord):
    _fields = ("theta",)

    def __init__(self, theta: Exact):  # theta/pi
        _check_angle(theta)
        self.__dict__.update(theta=theta, angle=theta, minus=(1, 0))

    dim = 2


class N2(FrozenRecord):
    _fields = ("theta", "nontrivial")

    def __init__(self, theta: Exact, nontrivial: bool):
        # theta/pi; nontrivial: sign of (b2-b3)*sin(theta) < 0
        _check_angle(theta)
        self.__dict__.update(theta=theta, nontrivial=nontrivial, angle=theta,
                             minus=(1, 1) if nontrivial else (0, 0))

    dim = 4


Block = Union[N1, D, R, N2]
_KINDS = {N1: 0, D: 1, R: 2, N2: 3}


def _block_key(b: Block):
    """Canonical order: block kind, then the block's own fields."""
    return (_KINDS[type(b)], *b._values())


class SymplecticClass(FrozenRecord):
    """Multiset of blocks in canonical order; half_dimension is half their
    total dimension."""

    _fields = ("blocks", "half_dimension")

    def __init__(self, blocks: tuple[Block, ...]):
        blocks = tuple(sorted(blocks, key=_block_key))
        self.__dict__.update(blocks=blocks, half_dimension=sum(b.dim for b in blocks) // 2)


def crossing_sum(M: SymplecticClass) -> int:
    """C(M) = sum over theta in (0, 2pi) of S^-_M(e^{i theta})."""
    return sum(sum(b.minus) for b in M.blocks if b.angle)


def nullity(M: SymplecticClass, m: int) -> int:
    """Geometric multiplicity of eigenvalue 1 of the m-th power: a block counts
    when m*theta/pi is even, with 1 for N1(., b != 0) and 2 for any other."""
    if m < 1:
        raise ValueError("m must be positive")
    total = 0
    for b in M.blocks:
        t = b.angle
        if t is not None and t.is_rational and (m * t.A) % (2 * t.q) == 0:
            total += 1 if isinstance(b, N1) and b.b_sign else 2
    return total


def elliptic_height(M: SymplecticClass) -> int:
    return sum(b.dim for b in M.blocks if b.angle is not None)


def is_hyperbolic(M: SymplecticClass) -> bool:
    return elliptic_height(M) == 0


def m_check(M: SymplecticClass) -> Optional[int]:
    """First iterate returning a rational angle p/q in (0, 2) to 1: k*p/q is
    first even at k = q for even p, 2q for odd p; None if there is none."""
    times = [(1 + t.A % 2) * t.q for t in (b.angle for b in M.blocks) if t and t.is_rational]
    return min(times, default=None)


def validate_bumpy(M: SymplecticClass) -> bool:
    """True iff nullity vanishes for every iterate: no rational angle."""
    return not any(b.angle is not None and b.angle.is_rational for b in M.blocks)


# -- serialization -----------------------------------------------------------


_SIGNS = {"positive": 1, "zero": 0, "negative": -1}


def block_to_json(b: Block):
    if isinstance(b, N1):
        sign = {v: k for k, v in _SIGNS.items()}[b.b_sign]
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


def block_from_json(obj, where: str = "block") -> Block:
    """The block of a block_to_json object at the place where; a refusal
    of its constructor is prefixed with that place."""
    t = named(item(obj, where, "type"), where + ".type", ("N1", "D", "R", "N2"))
    if t == "N1":
        _, lam, sign = fields(obj, where, ("type", "lambda", "b_sign"))
        make, args = N1, (integer(lam, where + ".lambda"),
                          _SIGNS[named(sign, where + ".b_sign", _SIGNS)])
    elif t == "N2":
        _, theta, kind = fields(obj, where, ("type", "theta_over_pi", "kind"))
        make, args = N2, (Exact.from_json(theta, where + ".theta_over_pi"),
                          named(kind, where + ".kind", ("trivial", "nontrivial")) == "nontrivial")
    else:
        make, key = (D, "lambda") if t == "D" else (R, "theta_over_pi")
        _, x = fields(obj, where, ("type", key))
        args = (Exact.from_json(x, "%s.%s" % (where, key)),)
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc))

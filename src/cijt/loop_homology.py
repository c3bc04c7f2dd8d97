"""Free-loop-space Betti numbers for rationally monogenic manifolds.

H^*(M;Q) = T_{d,n+1}(x) (truncated polynomial algebra, deg x = d, height
n+1).  Odd d forces n = 1 (x^2 = 0).  Everything here is an integer or
rational computation.  The exceptional degree set Omega(d,n) is read with j
running from 0: its published range (j starting at 1) contradicts the
Sullivan model of the free loop space at (d,n) = (2,1).

Membership p in Omega(d,n) is O(n) per degree: p - (d-1) = i*D + j*d with
i >= 1 and 0 <= j <= n-1 holds iff some such j leaves a remainder
p - (d-1) - j*d that is a positive multiple of D.  Past a head of O(d*n)
degrees b_p is periodic (period D for even d, d-1 for odd d), so a partial
sum takes O(D + d*n) betti() calls, O((D + d*n)*n) in all, whatever l is.
"""

from __future__ import annotations

from .iteration import CohomologyShape
from .scalars import Exact


def resonance_constant(shape: CohomologyShape) -> Exact:
    """B(d,n): the exact value of sum gamma_c / ihat(c) over all geodesics."""
    d, n = shape.d, shape.n
    if d % 2 == 0:
        return Exact(-n * (n + 1) * d, 2 * d * (n + 1) - 4)
    return Exact(d + 1, 2 * d - 2)


def _in_omega(shape: CohomologyShape, p: int) -> bool:
    # p odd with p - (d-1) = i*D + j*d for some i >= 1, 0 <= j <= n-1
    d, n, D = shape.d, shape.n, shape.D
    r = p - (d - 1)
    return any(r - j * d >= D and (r - j * d) % D == 0 for j in range(n))


def betti(shape: CohomologyShape, p: int) -> int:
    """b_p of the free loop space (S^1-equivariant, relative constant loops)."""
    if p < 0:
        raise ValueError("degree must be non-negative")
    d, n = shape.d, shape.n
    if d % 2:
        # rational S^d, d odd: support in even degrees >= d-1
        if p >= 2 * (d - 1) and p % (d - 1) == 0:
            return 2
        if p >= d - 1 and (p - (d - 1)) % 2 == 0:
            return 1
        return 0
    if p % 2 == 0 or p <= d - 2:
        return 0
    if p < d - 1 + (n - 1) * d:
        return (p - (d - 1)) // d + 1
    if _in_omega(shape, p):
        return n + 1
    return n


def betti_partial_sum(shape: CohomologyShape, l: int) -> int:
    """sum_{p<=l} b_p, read off betti() alone: head, whole periods, remainder."""
    d, n, D = shape.d, shape.n, shape.D
    if d % 2:
        # from 2(d-1) on, b_p depends on p mod d-1 (even) alone
        p0, period = 2 * (d - 1), d - 1
    else:
        # from (d-1) + (n-1)d on, b_p is 0, n or n+1; D further on, every j
        # passes the r - j*d >= D test of Omega, so b_p depends on p mod D
        # (even, so parity too) alone
        p0, period = (d - 1) + (n - 1) * d + D, D
    periods, rest = divmod(max(0, l + 1 - p0), period)
    return (
        sum(betti(shape, p) for p in range(min(l + 1, p0)))
        + periods * sum(betti(shape, p) for p in range(p0, p0 + period))
        + sum(betti(shape, p) for p in range(p0, p0 + rest))
    )


def alternating_betti_sum(shape: CohomologyShape, l: int) -> int:
    """sum_{p<=l} (-1)^p b_p.

    Even d: support is odd degrees, so this is minus the partial sum; odd d:
    support is even degrees, so it equals the partial sum.
    """
    total = betti_partial_sum(shape, l)
    return -total if shape.d % 2 == 0 else total

"""Free-loop-space Betti numbers for rationally monogenic manifolds.

H^*(M;Q) = T_{d,n+1}(x) (truncated polynomial algebra, deg x = d, height
n+1).  Odd d forces n = 1 (x^2 = 0).  Everything here is a closed-form
integer/rational computation; the partial sums are computed both directly and
in closed form and the two must agree -- that agreement pins down the reading
of the exceptional degree set Omega(d,n), whose published index range (j
starting at 1) contradicts the closed form at (d,n) = (2,1); j runs from 0
here.

Membership p in Omega(d,n) is O(n) per degree: p - (d-1) = i*D + j*d with
i >= 1 and 0 <= j <= n-1 holds iff some such j leaves a remainder
p - (d-1) - j*d that is a positive multiple of D.  Past a head of O(d*n)
degrees b_p is periodic (period D for even d, d-1 for odd d), so the direct
partial sum takes O(D + d*n) betti() calls, O((D + d*n)*n) in all, whatever
l is; it never reads the epsilon correction and stays the independent check
on the closed form.
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


def betti_partial_sum(shape: CohomologyShape, l: int) -> tuple[int, int]:
    """(closed form, direct sum) of sum_{p<=l} b_p; callers assert equality."""
    d, n, D = shape.d, shape.n, shape.D
    if d % 2:
        if l < d - 1:
            raise ValueError("closed form needs l >= d - 1")
        closed = l // (d - 1) + l // 2 - (d - 1) // 2  # d - 1 is even
        # from 2(d-1) on, b_p depends on p mod d-1 (even) alone
        p0, period = 2 * (d - 1), d - 1
    else:
        if l < d * n - 1:
            raise ValueError("closed form needs l >= dn - 1")
        # n(n+1)d/2D * (l - (d-1)) - n(n-1)d/4 + 1 over 4D, plus epsilon
        linear = 2 * n * (n + 1) * d * (l - (d - 1)) - n * (n - 1) * d * D + 4 * D
        closed_f = epsilon_correction(shape, l) + Exact(linear, 4 * D)
        if closed_f.denominator != 1:
            raise AssertionError("closed form is not an integer: %s" % closed_f)
        closed = closed_f.numerator
        # from (d-1) + (n-1)d on, b_p is 0, n or n+1; D further on, every j
        # passes the r - j*d >= D test of Omega, so b_p depends on p mod D
        # (even, so parity too) alone
        p0, period = (d - 1) + (n - 1) * d + D, D
    # the direct sum reads betti() alone: head, whole periods, remainder
    periods, rest = divmod(max(0, l + 1 - p0), period)
    direct = (
        sum(betti(shape, p) for p in range(min(l + 1, p0)))
        + periods * sum(betti(shape, p) for p in range(p0, p0 + period))
        + sum(betti(shape, p) for p in range(p0, p0 + rest))
    )
    return closed, direct


def alternating_betti_sum(shape: CohomologyShape, l: int) -> int:
    """sum_{p<=l} (-1)^p b_p.

    Even d: support is odd degrees, so this is minus the partial sum; odd d:
    support is even degrees, so it equals the partial sum.
    """
    closed, direct = betti_partial_sum(shape, l)
    if closed != direct:
        raise AssertionError(
            "betti partial-sum mismatch at l=%d: closed %d, direct %d"
            % (l, closed, direct)
        )
    return -closed if shape.d % 2 == 0 else closed

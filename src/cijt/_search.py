"""The fixed-point search kernel of the tuple search.

The search steps from lattice hit to lattice hit of one angle of one path in
2^-K fixed point on that path's kernel, and each path answers a candidate from
its kernel: every irrational angle held as [2^K*theta] decides the floor and
the band of m*theta, and one exact floor settles the rare m whose error
interval meets an edge.
"""

from __future__ import annotations

from .scalars import Exact, _exact, _floor, floor_mult
from .iteration import PathClass


# -- fixed point: x held as the integer a = [2^K*x] --------------------------


def _edges(K: int, x: Exact) -> tuple[int, ...]:
    """(K, 2^K - 1, [2^K*x], [2^K*(1 - x)], p, d): the bands of x = p/d at
    fixed point 2^-K, as ``_locate`` reads them."""
    p, d = x.numerator, x.denominator
    return K, (1 << K) - 1, (p << K) // d, ((d - p) << K) // d, p, d


def _locate(a: int, n: int, kernel, A: int, terms, q: int):
    """([n*x], band) of irrational x = (A + sum b*sqrt(s))/q, a = [2^K*x]: band
    0 if {n*x} < p/d, 1 if {n*x} > 1 - p/d, else None.  2^K*n*x lies strictly
    between v = n*a and v + n, which decides unless that interval meets a
    multiple of 2^K or a band edge; then one exact floor [d*n*x] does."""
    K, mask, lo, hi, p, d = kernel
    v = n * a
    r = v & mask
    if r + n <= lo:
        return v >> K, 0
    if lo < r and r + n <= hi:
        return v >> K, None
    if hi < r and r + n <= mask + 1:
        return v >> K, 1
    F, f = divmod(_floor(A, terms, q, d * n), d)
    return F, 0 if f < p else 1 if f >= d - p else None


def _next_hit(a: int, b: int, M: int, lo: int, hi: int) -> int | None:
    """Least j >= 0 with (a*j + b) mod M in the circular window {lo..hi} mod M
    (integers lo <= hi), or None if the orbit never enters it.

    After a shift this asks for the least x with l <= a*x mod m <= r.  Either
    a multiple of a lies in [l, r] (x = ceil(l/a)), or [l, r] is shorter than
    a and the least x comes with the least y of a*x - m*y in [l, r], which
    is the same question for (m mod a, a): Euclid's steps, O(log M) of them.
    """
    l = (lo - b) % M
    r = l + hi - lo
    if r >= M:
        return 0  # the window wraps through b itself
    m, a = M, a % M
    frames = []
    x = 0
    while l:
        if a == 0:
            return None
        x = -(-l // a)
        if a * x <= r:
            break
        frames.append((m, a, l))
        m, a, l, r = a, m % a, (-r) % a, (-l) % a
    for m, a, l in reversed(frames):
        x = -(-(m * x + l) // a)
    return x


def _returns(a: int, M: int, L: int) -> tuple[tuple[int, int], ...]:
    """The pairs (n, n*a mod M), n increasing, of the return times of the
    rotation y -> y + a mod M to the window 0 <= y < L: n1, the least n >= 1
    with n*a mod M < L, n2, the least with n*a mod M > M - L (none if no n
    has it), and n1 + n2.  By the three gap theorem (Slater, Proc. Cambridge
    Philos. Soc. 63 (1967)) every first return takes one of them."""
    n1 = _next_hit(a, a, M, 0, L - 1) + 1
    j = _next_hit(a, a, M, 1 - L, -1) if L > 1 else None
    if j is None:  # every n*a mod M is a multiple of gcd(a, M) >= L: n1*a = 0
        return ((n1, n1 * a % M),)
    return tuple(sorted((n, n * a % M) for n in (n1, j + 1, n1 + j + 1)))


def _return_time(returns, y: int, M: int, L: int) -> int:
    """Least n >= 1 with (y + n*a) mod M < L, from 0 <= y < L and the
    ``_returns`` of a to that window: the least of them that lands in it."""
    for n, d in returns:
        if (y + d) % M < L:
            return n


class _PathData:
    """Per-path search constants, built once per problem; ``fix`` sets the
    fixed-point kernel of one search, which every other method reads."""

    def __init__(self, path: PathClass, m_bar_period: int):
        self.path, self.m_bar = path, m_bar_period
        sp, c, angles = path.spectral
        self.two_rho = 2 * (path.i1 + sp - c)
        # irrational and rational block angles (A, terms, q, wl, wh)
        self.blocks = tuple(e for e in angles if e[1])
        self.rational = tuple(e for e in angles if not e[1])
        # u = 1 / (Mbar * ihat): chi component of the torus vector
        inv = path.inverse_mean
        self.u = _exact(inv.A, inv.B, inv.q * m_bar_period)

    def fix(self, K: int, delta: Exact, eps: Exact | None) -> None:
        """The kernel at M = 2^K: a = [M*theta/pi] per irrational block angle,
        [M*u], and the band edges of delta and eps (none for eps None)."""
        M, u = 1 << K, self.u
        self.a = [_floor(A, terms, q, M) for A, terms, q, _, _ in self.blocks]
        self.ua = _floor(u.A, u.B.items(), u.q, M)
        self.kernel = _edges(K, delta)
        self.chi_kernel = _edges(K, eps or 0)  # band 0/0: [N*u] only

    def hits(self, k: int, k_cap: int, h: int, bit: int | None):
        """The k' >= k, increasing, whose 2^K*{k'*Mbar*theta}, theta the first
        bit angle, might lie below h + 1 (bit 0), above 2^K - h - 1 (bit 1) or
        either (None), none missed up to k_cap; every k' up to k_cap if the path
        has no bit angle.  The first is one descent, each later one a return time."""
        if not self.a:
            yield from range(k, k_cap + 1)
            return
        M, mbar = 1 << self.kernel[0], self.m_bar
        step = self.a[0] * mbar % M
        # k*step lags 2^K*k*Mbar*theta mod 2^K by k*Mbar*(2^K*theta - a) < k_cap*Mbar
        # units for k <= k_cap, so a window widened by k_cap*Mbar + 1 loses no hit
        # up to k_cap, nor up to any smaller cap the search lowers it to
        w = k_cap * mbar + 1
        lo, hi = -w if bit == 0 else -h - w, -1 if bit == 1 else h
        j = _next_hit(step, step * k % M, M, lo, hi)
        if j is None:
            return
        k, L = k + j, hi - lo + 1
        yield k
        ret = _returns(step, M, L)  # set up only when a second hit is asked for
        while True:
            k += _return_time(ret, (step * k - lo) % M, M, L)
            yield k

    def probe(self, m: int):
        """(bits, Delta, 2N), or None if an angle lies in neither band: bit 0
        Low, 1 High; Delta is the S^- weight at theta if Low, at 2 - theta if
        High; 2N = i(c^{2m}) + S^+ + C - 2*Delta solves the jump identity, with
        E(m*theta) = [m*theta] + 1 and E(m*(2 - theta)) = 2m - [m*theta]."""
        bits, dl, two_n = [], 0, m * self.two_rho
        for (A, terms, q, wl, wh), a in zip(self.blocks, self.a):
            fl, hi = _locate(a, m, self.kernel, A, terms, q)
            if hi is None:
                return None
            bits.append(hi)
            dl += wh if hi else wl
            two_n += 2 * (wl * (fl + 1) + wh * (2 * m - fl))
        for A, _, q, wl, wh in self.rational:
            f, r = divmod(m * A, q)
            two_n += 2 * (wl * (f + (r > 0)) + wh * (2 * m - f))
        return tuple(bits), dl, two_n - 2 * dl

    def chi(self, N: int):
        """([N*u], band of {N*u} against eps); a pinned u has no band."""
        u = self.u
        if u.is_rational:
            return N * u.A // u.q, None
        return _locate(self.ua, N, self.chi_kernel, u.A, u.B.items(), u.q)


def _try_path(pd: _PathData, N: int, want_chi: int | None,
              want_bits: tuple[int, ...] | None, chi_eps: Exact | None, hit):
    """Check one path at candidate N; returns (m, chi, bits, Delta) or None.
    On the generator path hit = (m, probe at m), and its row can only be that
    m; hit is None on every other path."""
    base, band = pd.chi(N)
    chis = (want_chi,) if want_chi is not None and not pd.u.is_rational else (0, 1)
    for chi in chis:
        m = (base + chi) * pd.m_bar
        if m < 1 or (chi_eps is not None and not pd.u.is_rational and band != chi):
            continue  # |{N*u} - chi| < chi_eps fails
        got = pd.probe(m) if hit is None else hit[1] if m == hit[0] else None
        if got is None or (want_bits is not None and got[0] != want_bits):
            continue
        bits, d, two_n = got
        if two_n == 2 * N:  # i(c^{2m}) = jump_index(path, N, d)
            return m, chi, bits, d
    return None


def _least_residual(g: _PathData, k_lo: int, k_cap: int) -> Exact:
    """min over k_lo <= k <= k_cap of the largest lattice distance |m*theta - n|
    over the path's irrational angles, m = k*Mbar, n = [(F + 1)/2], F = [2m*theta].

    A ratchet: only k whose first angle lies nearer the lattice than the best
    so far can improve on it, and those are the hits of a window shrunk to it.
    """

    def residual(k):
        m, d = k * g.m_bar, []
        for A, terms, q, _, _ in g.blocks:
            t = (-1) ** (F := _floor(A, terms, q, 2 * m))  # sign of m*theta - n
            d.append(_exact(t * (m * A - (F + 1 >> 1) * q), {s: t * m * b for s, b in terms}, q))
        return max(d)

    best, k = residual(k_lo), k_lo
    while True:
        k = next(g.hits(k + 1, k_cap, floor_mult(best, 1 << g.kernel[0]), None), None)
        if k is None or k > k_cap:
            return best
        best = min(best, residual(k))

"""Common-index-jump tuple construction and certification.

Given symplectic paths gamma_1..gamma_q with positive mean indices, find
(N, m_1, ..., m_q) with

    m_k = ([N / (Mbar * ihat_k)] + chi_k) * Mbar,
    {m_k * theta/pi} = 0 for rational angles,
    {m_k * theta/pi} within delta of the lattice for irrational angles,
    i(gamma_k, 2m_k) = 2N - (S^+_k + C_k - 2*Delta_k),

and certify the index identities for the iterates 2m_k +- m.  The search
steps through the lattice hits of ``_search``'s fixed-point kernel, so no
float decides anything, and reports the smallest admissible N.  The opposite
vertex search starts at the auto-vertex tuple's N, the least over every
vertex, so no range is searched twice; delta_0 comes from integer floors alone.
"""

from __future__ import annotations

import math

from .scalars import Exact, _below_half, _floor, floor_mult
from ._search import _PathData, _least_residual, _try_path
from .normal_forms import m_check, nullity, validate_bumpy
from .iteration import PathClass, index_iterate, index_window, jump_index, mean_index
from .record import CheckRecord, FrozenRecord, Record, VerificationReport, _check


class NonPositiveMeanIndex(ValueError):
    pass


class NotFoundWithinBound(RuntimeError):
    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class CertificationError(AssertionError):
    """A tuple accepted by the search failed re-verification (engine bug)."""


def common_period(paths: tuple[PathClass, ...] | list[PathClass]) -> int:
    """Least Mbar with Mbar * theta/pi integral for every rational angle."""
    return math.lcm(1, *(q for p in paths for _, terms, q, _, _ in p.spectral[2] if not terms))


def delta_zero(paths: tuple[PathClass, ...] | list[PathClass], m_bar: int) -> Exact:
    """Rational lower bound just below the least lattice distance
    min({h*theta/2pi}, 1 - {h*theta/2pi}) over irrational angles and h <= m_bar,
    capped at 1/2.  It is read off integer floors: with F = [D*h*theta/2pi]
    mod D, the floor of D times that minimum is the least F or D - 1 - F.  At
    D = 10**6 a floor k > 2 gives (k - 2)/10**6; else 1/2**j for the least
    j >= 1 whose floor of 2**j times the minimum is at least 1."""
    if m_bar < 1:
        raise ValueError("m_bar must be positive")
    halves = [(A, terms, 2 * q) for p in paths for A, terms, q, _, _ in p.spectral[2] if terms]
    if not halves:
        return Exact(1, 2)

    def floor_min(D: int) -> int:
        fs = [_floor(*x, h * D) % D for x in halves for h in range(1, m_bar + 1)]
        return min(min(f, D - 1 - f) for f in fs)

    k = floor_min(10**6)
    if k > 2:
        return Exact(k - 2, 10**6)
    j = 1
    while floor_min(1 << j) < 1:
        j += 1
    return Exact(1, 1 << j)


class SelectionProblem(Record):
    """A search: the paths, delta (delta_0/2 in place of a delta >= delta_0,
    which sets delta_shrunk) and the bounds.  The common period Mbar and the
    per-path search constants ``data`` are built once and stay out of == and
    the repr."""

    _fields = ("paths", "delta", "m_bar", "N_bound", "N_multiple_of", "delta_shrunk",
               "delta_zero_value")

    def __init__(self, paths: tuple[PathClass, ...] | list[PathClass],
                 delta: Exact = Exact(1, 200), m_bar: int = 1, N_bound: int = 10**8,
                 N_multiple_of: int = 1):
        self.paths = paths = tuple(paths)
        if not paths:
            raise ValueError("need at least one path")
        for p in paths:
            if not mean_index(p) > 0:
                raise NonPositiveMeanIndex("path %r has mean index <= 0" % (p,))
        self.delta = _below_half(delta, "delta")
        if m_bar < 1 or N_bound < 1 or N_multiple_of < 1:
            raise ValueError("m_bar, N_bound, N_multiple_of must be positive")
        self.m_bar, self.N_bound, self.N_multiple_of = m_bar, N_bound, N_multiple_of
        self.delta_zero_value = delta_zero(paths, m_bar)
        self.delta_shrunk = self.delta >= self.delta_zero_value
        if self.delta_shrunk:
            self.delta = self.delta_zero_value / 2
        self.period = common_period(paths)
        self.data = tuple(_PathData(p, self.period) for p in paths)


class VertexSpec(FrozenRecord):
    """chi bits per path, then one Low/High bit (0/1) per irrational block angle."""

    _fields = ("chi", "angle_bits")

    def __init__(self, chi: tuple[int, ...], angle_bits: tuple[tuple[int, ...], ...]):
        self.__dict__.update(chi=chi, angle_bits=angle_bits)


class CijtTuple(FrozenRecord):
    _fields = ("N", "m", "chi", "Delta", "M_bar", "vertex", "delta", "report")

    def __init__(self, N: int, m: tuple[int, ...], chi: tuple[int, ...], Delta: tuple[int, ...],
                 M_bar: int, vertex: VertexSpec, delta: Exact,
                 report: VerificationReport | None = None):
        self.__dict__.update(N=N, m=m, chi=chi, Delta=Delta, M_bar=M_bar, vertex=vertex,
                             delta=delta, report=report)

    def to_json(self):
        return {
            "N": self.N,
            "m": list(self.m),
            "chi": list(self.chi),
            "Delta": list(self.Delta),
            "M_bar": self.M_bar,
            "vertex": {
                "chi": list(self.vertex.chi),
                "angle_bits": [list(b) for b in self.vertex.angle_bits],
            },
            "delta": [self.delta.numerator, self.delta.denominator],
            "verification": None if self.report is None else {
                "ok": self.report.ok, "checks": self.report,  # dumps writes its rows
            },
        }


def find_tuple(
    problem: SelectionProblem,
    vertex: VertexSpec | None = None,
    chi_eps: Exact | None = None,
    min_N: int = 1,
) -> CijtTuple:
    """Smallest admissible N realizing the (demanded or first-found) vertex.

    chi_eps in (0, 1/2), when given, additionally enforces
    |{N/(Mbar*ihat_k)} - chi_k| < chi_eps on the non-pinned chi components
    (needed by the counting pipelines to convert floors into exact multiples
    of N).
    """
    if chi_eps is not None:
        _below_half(chi_eps, "chi_eps")
    mbar, data, delta = problem.period, problem.data, problem.delta
    if vertex is not None and (len(vertex.chi) != len(data) or any(
            len(bits) != len(pd.blocks) for bits, pd in zip(vertex.angle_bits, data))):
        raise ValueError("vertex spec shape does not match the problem")

    # an accepted tuple has m_k = ([u_k*N] + chi) * Mbar with chi in {0, 1}:
    # k = m_k / Mbar is at most k_max(path k, N)
    def k_max(pd, N: int) -> int:
        return floor_mult(pd.u, N) + 1 if N >= 1 else 0

    # K from a path's m and N caps and the band denominators, so that an exact
    # floor is rarely needed and a widened window is a sliver of its band; a
    # denominator longer than the caps adds no more bits than they have
    caps = [k_max(pd, problem.N_bound) for pd in data]
    slack = max(delta.denominator, chi_eps.denominator if chi_eps else 1).bit_length()
    for pd, cap in zip(data, caps):
        bits = max(cap * mbar, problem.N_bound).bit_length()
        pd.fix(bits + min(slack, bits) + 16, delta, chi_eps)

    # generator path: the least cap among paths with a bit angle, since a path
    # steps one angle's window, about cap*2*delta hits; one with none last
    gen = min(range(len(data)), key=lambda i: (not data[i].blocks, caps[i]))
    g = data[gen]

    wants = [(None, None)] * len(data) if vertex is None else [*zip(vertex.chi, vertex.angle_bits)]

    def accept(N: int, hit):
        if N < max(1, min_N) or N > problem.N_bound or N % problem.N_multiple_of:
            return None
        rows = []
        for i, (pd, (want_chi, want_bits)) in enumerate(zip(data, wants)):
            got = _try_path(pd, N, want_chi, want_bits, chi_eps, hit if i == gen else None)
            if got is None:
                return None
            rows.append(got)
        ms, chis, all_bits, deltas = zip(*rows)
        return CijtTuple(N, ms, chis, deltas, mbar, VertexSpec(chis, all_bits), delta)

    best: CijtTuple | None = None
    want_bits = wants[gen][1]

    # step k = m_gen / Mbar over [k_lo, k_cap] from hit to hit of one angle
    k_lo = max(1, floor_mult(g.u, max(1, min_N)))
    k_cap = caps[gen]
    h = g.kernel[2]  # [2^K*delta], the Low edge
    bit = want_bits[0] if want_bits else None
    for k in g.hits(k_lo, k_cap, h, bit):
        if k > k_cap:
            break
        m = k * mbar
        got = g.probe(m)
        if got is not None and (want_bits is None or got[0] == want_bits):
            cand = accept(got[2] // 2, (m, got))  # N: half the 2N of m's jump identity
            if cand is not None and (best is None or cand.N < best.N):
                best = cand
                # a later m can only help with N <= best.N - 1
                k_cap = k_max(g, cand.N - 1)
        # ask for no hit past the cap an accepted tuple may have just lowered
        if k >= k_cap:
            break
    if best is None:
        # on the first path with the most bit angles, over its own k range,
        # whichever path stepped
        r = max(range(len(data)), key=lambda i: len(data[i].blocks))
        k_lo = max(1, floor_mult(data[r].u, max(1, min_N)))
        best_residual = (float(_least_residual(data[r], k_lo, caps[r]))
                         if data[r].blocks and k_lo <= caps[r] else None)
        raise NotFoundWithinBound(
            "no tuple with N <= %d (delta = %s, best lattice residual %s)"
            % (problem.N_bound, problem.delta,
               "n/a" if best_residual is None else "%.3g" % best_residual),
            best_residual=best_residual,
        )
    report = verify_tuple(best, problem)
    if not report.ok:
        bad = report.mismatches
        raise CertificationError(
            "search produced an uncertifiable tuple: %d of %d checks fail, the first %r"
            % (len(bad), len(report.checks), bad[0])
        )
    return CijtTuple(
        best.N, best.m, best.chi, best.Delta, best.M_bar, best.vertex, best.delta, report
    )


def verify_tuple(t: CijtTuple, problem: SelectionProblem) -> VerificationReport:
    """Re-derive the index/nullity identities of the jump interval from scratch:
    nullities by ``nullity``, Q_k(m) (the S^- weight of rational angles with
    {m_k*theta/pi} = {m*theta/2pi} = 0) off the path's rational block angles,
    weighed wl + wh, indices by ``index_iterate``.  On a bumpy path every
    nullity and Q_k is 0."""
    checks: list[CheckRecord] = []
    row = checks.append
    two_n = 2 * t.N
    for k, (path, m_k) in enumerate(zip(problem.paths, t.m)):
        sp, _, angles = path.spectral
        M = path.monodromy
        mc, bumpy = m_check(M), validate_bumpy(M)
        pinned = [(A, 2 * q, wl + wh) for A, B, q, wl, wh in angles if not B and m_k * A % q == 0]
        nu1 = nullity(M, 1)
        nu_m = nu_up = nu_down = q_k = 0
        for m in range(1, problem.m_bar + 1):
            up, down, i_m = 2 * m_k + m, 2 * m_k - m, index_iterate(path, m)
            if not bumpy:
                nu_m, nu_up = nullity(M, m), nullity(M, up)
                nu_down = nullity(M, down) if down >= 1 else 0
                q_k = sum([w for A, q, w in pinned if m * A % q == 0])
            first = mc is None or m < mc
            row(_check((k, m, "nullity(2m+ m)", nu_up, nu_m)))
            if first:
                row(_check((k, m, "nullity(2m+ m) = nullity(1)", nu_up, nu1)))
            if down >= 1:
                row(_check((k, m, "nullity(2m- m)", nu_down, nu_m)))
                if first:
                    row(_check((k, m, "nullity(2m- m) = nullity(1)", nu_down, nu1)))
            row(_check((k, m, "index(2m+m)", index_iterate(path, up), two_n + i_m)))
            if down >= 1:
                rhs = two_n - i_m - 2 * (sp + q_k)
                row(_check((k, m, "index(2m-m)", index_iterate(path, down), rhs)))
        rhs = jump_index(path, t.N, t.Delta[k])
        row(_check((k, 0, "index(2m)", index_iterate(path, 2 * m_k), rhs)))
    return VerificationReport(tuple(checks))


def opposite_tuple(
    t: CijtTuple,
    problem: SelectionProblem,
    chi_eps: Exact | None = None,
) -> CijtTuple:
    """Tuple at the opposite cube vertex; pinned chi components stay free.

    t must come from find_tuple at the auto vertex (vertex None, min_N 1)
    with chi_eps None or no smaller than this one: that N is the least over
    every vertex, so this search starts at min_N = t.N and finds what a
    search from N = 1 would.  Checks that Delta_k + Delta'_k equals the S^-
    weight on the irrational angles of path k (all of C(M_k) when no
    rational angle carries S^-).
    """
    data = problem.data
    chi = tuple(
        t.chi[i] if data[i].u.is_rational else 1 - t.chi[i] for i in range(len(data))
    )
    bits = tuple(tuple(1 - b for b in path_bits) for path_bits in t.vertex.angle_bits)
    if chi_eps is None:
        chi_eps = problem.delta
    try:
        opp = find_tuple(problem, vertex=VertexSpec(chi, bits), chi_eps=chi_eps, min_N=t.N)
    except NotFoundWithinBound as exc:
        raise NotFoundWithinBound("opposite vertex: %s" % exc, exc.best_residual) from None
    for k, pd in enumerate(data):
        if t.Delta[k] + opp.Delta[k] != (c := sum(e[3] + e[4] for e in pd.blocks)):
            raise CertificationError(
                "Delta + Delta' = %d != irrational S^- weight %d on path %d"
                % (t.Delta[k] + opp.Delta[k], c, k)
            )
    return opp


def m_bar_for_geodesics(paths: tuple[PathClass, ...] | list[PathClass], d: int, n: int) -> int:
    """max over paths of the least m with i(c^m) >= i(c) + 2(dn-1)."""
    out = 1
    for p in paths:
        if not mean_index(p) > 0:
            raise NonPositiveMeanIndex("path %r has mean index <= 0" % (p,))
        target = p.i1 + 2 * (d * n - 1)
        may, sure = index_window(p, target)
        for m in range(may.start, sure.start + 1):
            if index_iterate(p, m) >= target:
                out = max(out, m)
                break
        else:
            raise AssertionError("stopping bound missed for %r" % (p,))
    return out

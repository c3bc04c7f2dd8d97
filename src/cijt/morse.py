"""Morse-theoretic counting over finite geodesic datasets.

A dataset is a cohomology shape plus, per prime closed geodesic, its initial
Morse index and linearized-Poincare-map class.  On top of the index iteration
and tuple machinery this module computes the gamma invariant, the Morse-type
numbers (counted by bracket and parity, not listed) and the jump censuses
around 2N.  One driver, ``verify``, runs theorems 1.1, 1.5 and 1.8 (tuple,
opposite tuple and censuses where used, Morse chain, Betti sum); the table
``_THEOREMS`` holds only what differs per theorem.  Verdicts never assume an identity that
can be computed: both sides of every (in)equality appear in the emitted report.
"""

from __future__ import annotations

from collections import namedtuple

from .scalars import Exact
from .normal_forms import is_hyperbolic
from .iteration import (
    GeodesicDataset,
    HypothesisRejected,
    PathClass,
    index_iterate,
    index_window,
    jump_index,
)
from .engine import (
    CijtTuple,
    SelectionProblem,
    find_tuple,
    m_bar_for_geodesics,
    opposite_tuple,
)
from .loop_homology import alternating_betti_sum, betti, resonance_constant
from .record import FrozenRecord, _shown


class ResonanceReport(FrozenRecord):
    _fields = ("lhs", "rhs", "passes")

    def __init__(self, lhs: Exact, rhs: Exact, passes: bool):
        self.__dict__.update(lhs=lhs, rhs=rhs, passes=passes)

    def to_json(self):
        return {
            "sum_gamma_over_mean_index": self.lhs.to_json(),
            "resonance_constant": [self.rhs.numerator, self.rhs.denominator],
            "pass": self.passes,
        }


def resonance_check(dataset: GeodesicDataset) -> ResonanceReport:
    """sum gamma_c / ihat(c) = B(d, n), summed as sum 2*gamma_c * (1/ihat(c)), halved."""
    lhs = sum([r.path.inverse_mean * r.path.two_gamma for r in dataset.records], Exact(0)) / 2
    rhs = resonance_constant(dataset.shape)
    return ResonanceReport(lhs, rhs, lhs == rhs)


def tuple_resonance_identity(dataset: GeodesicDataset, t: CijtTuple):
    """Integer identity sum_k 2 m_k gamma_k = 2 N B(d,n): the integer left side
    and the exact right side."""
    lhs = sum([mk * r.path.two_gamma for r, mk in zip(dataset.records, t.m)])
    rhs = 2 * t.N * resonance_constant(dataset.shape)
    return lhs, rhs, lhs == rhs


class JumpCensus(FrozenRecord):
    _fields = ("plus_e", "plus_o", "minus_e", "minus_o", "margin", "classification")

    def __init__(self, plus_e: int, plus_o: int, minus_e: int, minus_o: int, margin: int,
                 classification: dict[str, tuple[int, str | None]]):
        # classification: name -> (i(c^{2m_k}), bucket in {"+e","+o","-e","-o",None})
        self.__dict__.update(plus_e=plus_e, plus_o=plus_o, minus_e=minus_e, minus_o=minus_o,
                             margin=margin, classification=classification)

    def to_json(self):
        return {
            "N_plus_e": self.plus_e,
            "N_plus_o": self.plus_o,
            "N_minus_e": self.minus_e,
            "N_minus_o": self.minus_o,
            "margin": self.margin,
            "records": {
                name: {"index_at_2mk": i, "bucket": b}
                for name, (i, b) in self.classification.items()
            },
        }


def jump_census(dataset: GeodesicDataset, t: CijtTuple, margin: int) -> JumpCensus:
    """Bucket records by the position of i(c^{2m_k}) relative to 2N.

    Counts only records with i(c^{2m_k}) - i(c) even (the ones whose top
    iterate carries a critical module).  The window inequalities around the
    jump, i(c^j) <= 2N - margin for 0 < j < 2m_k and i(c^j) >= 2N + margin for
    2m_k < j <= 4m_k, are proved for every j: ``index_window`` settles all
    but a few j near 2m_k, and ``index_iterate`` decides those few.  A
    violation, or a jump value other than ``jump_index``, is an engine bug.
    """
    two_n = 2 * t.N
    counts = {"+e": 0, "+o": 0, "-e": 0, "-o": 0}
    classification = {}
    for rec, m_k, d_k in zip(dataset.records, t.m, t.Delta):
        path = rec.path
        if path.i1 < margin:
            raise HypothesisRejected(
                "record %s: initial index %d < %d" % (_shown(rec.name), path.i1, margin)
            )
        i2m = index_iterate(path, 2 * m_k)
        expect = jump_index(path, t.N, d_k)
        if i2m != expect:
            raise AssertionError(
                "record %s: i(c^{2m_k}) = %d, spectral formula gives %d"
                % (_shown(rec.name), i2m, expect)
            )
        _, below = index_window(path, None, two_n - margin)
        for m in range(1, min(2 * m_k, 2 * m_k + 1 - below.stop)):
            if index_iterate(path, 2 * m_k - m) > two_n - margin:
                raise AssertionError("lower window violated at %s, m=%d" % (_shown(rec.name), m))
        _, above = index_window(path, two_n + margin)
        for m in range(1, min(2 * m_k + 1, above.start - 2 * m_k)):
            if index_iterate(path, 2 * m_k + m) < two_n + margin:
                raise AssertionError("upper window violated at %s, m=%d" % (_shown(rec.name), m))
        bucket = None
        if (i2m - path.i1) % 2 == 0:
            parity = "e" if path.i1 % 2 == 0 else "o"
            if i2m >= two_n + margin:
                bucket = "+" + parity
            elif i2m <= two_n - margin:
                bucket = "-" + parity
        if bucket:
            counts[bucket] += 1
        classification[rec.name] = (i2m, bucket)
    return JumpCensus(
        counts["+e"], counts["+o"], counts["-e"], counts["-o"], margin, classification
    )


def _critical(path: PathClass, a: int, b: int) -> int:
    """The m with a <= i(c^m) <= b whose iterate carries a critical module:
    i(c^m) - i(c) = (m - 1)*rho mod 2, so every m for even rho, odd m for odd
    rho.  The m ``index_window`` puts surely in [a, b] are counted in closed
    form; ``index_iterate`` decides the others it leaves possible:
    O((|lo| + 2C)/ihat) of them, whatever b - a is."""
    may, sure = index_window(path, a, b)
    start = min(max(sure.start, may.start), may.stop)
    stop = max(start, min(sure.stop, may.stop))
    count = stop - start if path.rho() % 2 == 0 else stop // 2 - start // 2
    for m in [*range(may.start, start), *range(stop, may.stop)]:
        i_m = index_iterate(path, m)
        if a <= i_m <= b and (i_m - path.i1) % 2 == 0:
            count += 1
    return count


def morse_type_numbers(dataset: GeodesicDataset, P: int) -> int:
    """sum_{p<=P} (-1)^p M_p: each critical iterate adds (-1)^{i(c)}."""
    return sum((-1) ** (r.path.i1 % 2) * _critical(r.path, 0, P) for r in dataset.records)


def morse_type_number(dataset: GeodesicDataset, p: int) -> int:
    """M_p, summed over all records and iterates; none when p - i(c) is odd."""
    if p < 0:
        raise ValueError("degree must be non-negative")
    return sum(_critical(r.path, p, p) for r in dataset.records if (p - r.path.i1) % 2 == 0)


def _check(name: str, lhs, rhs, op: str = "=="):
    ok = lhs == rhs if op == "==" else lhs >= rhs
    return {
        "check": name,
        "lhs": str(lhs) if isinstance(lhs, Exact) else lhs,
        "op": op,
        "rhs": str(rhs) if isinstance(rhs, Exact) else rhs,
        "pass": ok,
    }


class Verdict(FrozenRecord):
    _fields = ("theorem", "passed", "details")

    def __init__(self, theorem: str, passed: bool, details: dict):
        self.__dict__.update(theorem=theorem, passed=passed, details=details)

    def to_json(self):
        return {"theorem": self.theorem, "pass": self.passed, **self.details}


# what sets one theorem pipeline apart; ``verify`` runs the rest
_Theorem = namedtuple("_Theorem", [
    "shape_ok", "shape_msg",  # (shape) -> bool, and its refusal
    "record_ok", "record_msg",  # (path) -> bool, and its refusal, formatted with the record name
    "n_multiple",  # (shape) -> what N must be a multiple of
    "margin",  # census window margin; None: no opposite vertex
    "top",  # the Morse chain runs to degree 2N + top
    "conclude",  # (dataset, t, ..., chain) -> its own checks and details
    "passed_by",  # detail that must hold beside the checks
], defaults=(None,))


def verify(theorem: str, dataset: GeodesicDataset, delta: Exact | None = None,
           n_bound: int = 10**8) -> Verdict:
    """Theorem "1.1", "1.5" or "1.8" on a dataset: hypotheses, tuple (and the
    opposite tuple with censuses where the theorem has a census margin), Morse
    chain, Betti sum; its ``_THEOREMS`` entry says what it checks on top."""
    spec = _THEOREMS.get(theorem)
    if spec is None:
        raise ValueError("unknown theorem %r: choose 1.1, 1.5 or 1.8" % (theorem,))
    shape = dataset.shape
    if not spec.shape_ok(shape):
        raise HypothesisRejected(spec.shape_msg)
    for r in dataset.records:
        if not spec.record_ok(r.path):
            raise HypothesisRejected(spec.record_msg % _shown(r.name))
    res = resonance_check(dataset)
    paths = dataset.paths
    # the problem shrinks the default delta below delta_0 if needed
    problem = SelectionProblem(
        paths, delta=Exact(1, 200) if delta is None else delta,
        m_bar=m_bar_for_geodesics(paths, shape.d, shape.n), N_bound=n_bound,
        N_multiple_of=spec.n_multiple(shape),
    )
    # proximity 1/e, e = 1 + 2*Mbar*E(sum |gamma_k|), tight enough that floors
    # become exact multiples of N in the 2 m_k gamma_k resonance identity;
    # delta where that is smaller
    twice = sum([abs(r.path.two_gamma) for r in dataset.records])
    chi_eps = min(Exact(1, 1 + 2 * problem.period * ((twice + 1) // 2)), problem.delta)
    t = find_tuple(problem, chi_eps=chi_eps)

    checks, details, non_hyp = [], {}, []
    census = opp = None
    if spec.margin is not None:
        t_opp = opposite_tuple(t, problem, chi_eps=chi_eps)
        census, opp = jump_census(dataset, t, spec.margin), jump_census(dataset, t_opp, spec.margin)
        # the counting argument reads the even/odd buckets off the vertex
        # whose window puts the jump values above 2N; the tuples are each
        # other's opposite, so the strictly larger above-window census is
        # primary and a tie keeps the first-found vertex
        if opp.plus_e + opp.plus_o > census.plus_e + census.plus_o:
            t, t_opp, census, opp = t_opp, t, opp, census
        checks.append(_check("resonance identity", res.passes, True))
        for label, tt in (("primary", t), ("opposite", t_opp)):
            lhs, rhs, _ = tuple_resonance_identity(dataset, tt)
            checks.append(_check("sum 2 m_k gamma_k at %s tuple" % label, Exact(lhs), rhs))
        mirrored = (opp.minus_e, opp.minus_o, opp.plus_e, opp.plus_o)
        symmetry = (census.plus_e, census.plus_o, census.minus_e, census.minus_o) == mirrored
        checks.append(_check("opposite-census symmetry", symmetry, True))
        # certified non-hyperbolic: i(c^{2m_k}) != 2N at some tuple
        non_hyp = sorted({name for c, tt in ((census, t), (opp, t_opp))
                          for name, (i2m, _) in c.classification.items() if i2m != 2 * tt.N})
        details = {
            "opposite_tuple": t_opp.to_json(),
            "census": census.to_json(),
            "opposite_census": opp.to_json(),
            "non_hyperbolic": non_hyp,
        }

    alt_m = morse_type_numbers(dataset, 2 * t.N + spec.top)
    # 2NB + N_+^o - N_+^e; just 2NB without a census
    chain = 2 * t.N * resonance_constant(shape) + (census.plus_o - census.plus_e if census else 0)
    alt_b = alternating_betti_sum(shape, 2 * t.N)
    tail, extra = spec.conclude(dataset, t, census, opp, non_hyp, alt_m, alt_b, chain)
    checks += tail
    details.update(extra, checks=checks, tuple=t.to_json(), resonance=res.to_json())
    passed = all(c["pass"] for c in checks) and details.get(spec.passed_by, True)
    return Verdict(theorem, passed, details)


def _conclude_1_1(dataset, t, census, opp, non_hyp, alt_m, alt_b, chain):
    shape = dataset.shape
    quarter = Exact(shape.d * shape.n * (shape.n + 1), 4)
    return [
        _check("alternating Morse sum vs census chain", Exact(alt_m), chain),
        _check("Morse inequality at 2N", alt_m, alt_b, ">="),
        _check("N_+^o lower bound", Exact(census.plus_o), quarter, ">="),
        _check("N_-^o lower bound (opposite window)", Exact(opp.minus_o), quarter, ">="),
        _check("certified non-hyperbolic count", Exact(len(non_hyp)), 2 * quarter, ">="),
        _check("record count q", Exact(len(dataset.records)), 2 * quarter, ">="),
    ], {}


def _conclude_1_5(dataset, t, census, opp, non_hyp, alt_m, alt_b, chain):
    shape, two_n = dataset.shape, 2 * t.N
    # records pinned at 2N with an even jump: the M_{2N} >= b_{2N} = 2 pair
    pinned = sorted(
        r.name
        for r in dataset.records
        if census.classification[r.name][0] == two_n and (two_n - r.path.i1) % 2 == 0
    )
    even_jumps = [name for name, (_, b) in census.classification.items() if b in ("+e", "-e")]
    even_valued = sorted(set(pinned) | set(even_jumps))
    half_d = Exact(shape.d - 1, 2)
    return [
        _check("alternating Morse sum vs census chain (2N+1)", Exact(alt_m), chain),
        # odd top degree flips the Morse inequality: sum (-1)^p M_p <= sum b_p
        _check("Morse chain vs Betti sum", alt_b, alt_m, ">="),
        _check("H_+^e - H_+^o lower bound", Exact(census.plus_e - census.plus_o), half_d, ">="),
        _check(
            "H_-^e - H_-^o lower bound (opposite window)",
            Exact(opp.minus_e - opp.minus_o),
            half_d,
            ">=",
        ),
        _check("b_{2N}", betti(shape, two_n), 2),
        _check("M_{2N} >= b_{2N}", morse_type_number(dataset, two_n), 2, ">="),
        _check("records pinned at 2N with even jump", len(pinned), 2, ">="),
        _check("even-index classifications", len(even_valued), shape.d + 1, ">="),
        _check("certified non-hyperbolic count", len(non_hyp), shape.d - 1, ">="),
    ], {"pinned_at_2N": pinned, "even_index_records": even_valued}


def _conclude_1_8(dataset, t, census, opp, non_hyp, alt_m, alt_b, chain):
    shape = dataset.shape
    checks = [
        _check("i(%s^{2m_k}) pinned at 2N" % rec.name, index_iterate(rec.path, 2 * m_k), 2 * t.N)
        for rec, m_k in zip(dataset.records, t.m)
    ]
    checks.append(_check("alternating Morse sum equals 2NB", Exact(alt_m), chain))
    gap = alt_b - alt_m
    quarter = Exact(shape.d * shape.n * (shape.n + 1), 4)
    return checks, {
        "contradiction_found": alt_b > alt_m,
        "alternating_morse_sum": alt_m,
        "alternating_betti_sum": alt_b,
        "gap": str(gap),
        "expected_gap": str(quarter),
        "gap_matches": gap == quarter,
    }


_THEOREMS = {
    # even d, N a multiple of D: census bounds, Morse inequality at 2N, dn(n+1)/2 count
    "1.1": _Theorem(
        lambda shape: shape.d % 2 == 0, "theorem needs even d",
        lambda path: path.i1 >= 1, "record %s has zero Morse index",
        n_multiple=lambda shape: shape.D, margin=1, top=0, conclude=_conclude_1_1,
    ),
    # odd spheres: widened (+-2) jump windows, d + 1 even-index records
    "1.5": _Theorem(
        lambda shape: shape.d % 2 == 1 and shape.n == 1, "theorem needs odd d (so n = 1)",
        lambda path: path.i1 >= 2, "record %s has Morse index < 2",
        n_multiple=lambda shape: shape.d - 1, margin=2, top=1, conclude=_conclude_1_5,
    ),
    # all hyperbolic: the count's two sides differ by dn(n+1)/4, a contradiction
    "1.8": _Theorem(
        lambda shape: shape.d % 2 == 0, "pipeline needs even d",
        lambda path: is_hyperbolic(path.monodromy), "record %s is not hyperbolic",
        n_multiple=lambda shape: shape.D, margin=None, top=0, conclude=_conclude_1_8,
        passed_by="contradiction_found",
    ),
}

"""End-to-end acceptance gates.

Each test prints a single PASS/FAIL line so the suite output doubles as a
release checklist.  Everything here is exact arithmetic; no tolerances.
"""

import json
import os
import random
from fractions import Fraction

import pytest

from cijt.scalars import Exact, ceil_mult, floor_mult
from cijt.normal_forms import D, N2, R, SymplecticClass, crossing_sum
from cijt.iteration import CohomologyShape, GeodesicDataset, GeodesicRecord, PathClass, index_iterate
from cijt.engine import (
    NotFoundWithinBound,
    SelectionProblem,
    find_tuple,
    opposite_tuple,
    verify_tuple,
)
from cijt.loop_homology import betti, betti_partial_sum, epsilon_correction
from cijt.morse import jump_census, resonance_check, verify
from test_iteration import index_iterate_bumpy_class
from test_scalars import frac_mult

DATASETS = os.path.join(os.path.dirname(__file__), os.pardir, "datasets")


class _gate:
    """Context manager printing one PASS/FAIL line per criterion."""

    def __init__(self, label):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print("\n[acceptance] %s: %s" % (self.label, verdict))
        return False


def _surd_pool():
    pool = []
    for s in (2, 3, 5, 6, 7, 10, 11, 13):
        root = Exact.surd(0, Fraction(1, 1), s)
        # shift/scale into (0, 2) \ Q
        for shift in (Fraction(0), Fraction(-1), Fraction(1, 2)):
            theta = Exact.surd(shift, Fraction(1, 2), s)
            if Exact(0) < theta < Exact(2):
                pool.append(theta)
            theta = root * Fraction(1, 4) + Fraction(shift, 2)
            if Exact(0) < theta < Exact(2):
                pool.append(theta)
    return pool[:20]


def test_criterion_1_index_formula_cross_check():
    """500 random bumpy classes, all iterates to 1000: the precise index
    formula and the non-degenerate shortcut agree exactly."""
    with _gate("1 index-formula cross-check (500 classes, m <= 1000)"):
        pool = _surd_pool()
        assert len(pool) == 20
        rng = random.Random(2024)

        def rand_class():
            blocks = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.randint(0, 2)
                if kind == 0:
                    blocks.append(D(Exact(rng.choice([2, -2, 3, -5, Fraction(7, 2)]))))
                elif kind == 1:
                    blocks.append(R(rng.choice(pool)))
                else:
                    blocks.append(N2(rng.choice(pool), rng.random() < 0.5))
            return PathClass(rng.randint(0, 10), SymplecticClass(tuple(blocks)))

        for _ in range(500):
            p = rand_class()
            for m in range(1, 1001):
                assert index_iterate(p, m) == index_iterate_bumpy_class(p, m), (p, m)


def test_criterion_2_sqrt2_oracle():
    """Single-path sqrt(2)-1 instance against an independent brute force."""
    with _gate("2 certified tuple (29, 70) / opposite (70, 169) vs brute force"):
        theta = Exact.surd(-1, 1, 2)
        delta = Fraction(1, 100)
        prob = SelectionProblem(
            (PathClass(1, SymplecticClass((R(theta),))),), delta=delta
        )
        t = find_tuple(prob)
        assert (t.N, t.m, t.Delta) == (29, (70,), (0,))
        opp = opposite_tuple(t, prob)
        assert (opp.N, opp.m, opp.Delta) == (70, (169,), (1,))
        assert t.Delta[0] + opp.Delta[0] == crossing_sum(prob.paths[0].monodromy) == 1

        # brute force every m <= 10^4 straight from the definitions
        u = Exact(1) / theta
        hits = []
        for m in range(1, 10**4 + 1):
            f = frac_mult(theta, m)
            if not (f < delta or f > 1 - delta):
                continue
            d = 1 if f < delta else 0
            N = ceil_mult(theta, m) - d
            if m in (floor_mult(u, N), floor_mult(u, N) + 1):
                hits.append((N, m, d))
        assert min(hits)[0:2] == (29, 70)
        lows = [h for h in hits if h[2] == 1 and frac_mult(u, h[0]) > 1 - delta]
        assert min(lows)[0:2] == (70, 169)


BASES = [
    Exact.surd(-1, 1, 2),
    Exact.surd(3, -1, 5),
    Exact.surd(Fraction(-1, 2), Fraction(1, 2), 5),
    Exact.surd(-1, 1, 3),
    Exact.surd(Fraction(-1, 2), Fraction(1, 2), 7),
]
RATIONALS = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(3, 5)]


def _random_problem(rng):
    """q <= 3 paths: at most one irrationally elliptic (angles correlated to a
    single base surd so the search stays desk-scale), the rest hyperbolic or
    rational elliptic."""
    q = rng.randint(1, 3)
    irr_slot = rng.randrange(q)
    paths = []
    for j in range(q):
        if j == irr_slot and rng.random() < 0.8:
            base = rng.choice(BASES)
            blocks = [R(base)]
            if rng.random() < 0.4:
                twice = base * 2
                blocks.append(R(twice if Exact(0) < twice < Exact(2) else Exact(2) - base))
            paths.append(PathClass(rng.randint(1, 3), SymplecticClass(tuple(blocks))))
        elif rng.random() < 0.5:
            blocks = tuple(
                D(Exact(rng.choice([2, -2, 3]))) for _ in range(rng.randint(1, 2))
            )
            paths.append(PathClass(rng.randint(1, 4), SymplecticClass(blocks)))
        else:
            paths.append(
                PathClass(
                    rng.randint(1, 3),
                    SymplecticClass((R(Exact(rng.choice(RATIONALS))),)),
                )
            )
    return SelectionProblem(
        paths, delta=Fraction(1, 200), m_bar=rng.randint(1, 10), N_bound=10**8
    )


def _indices_always_positive(path):
    """i(m) >= 1 for every m: checked directly up to the horizon past which
    m * mean - halfdim >= 1 makes it automatic."""
    from cijt.iteration import mean_index

    ihat = float(mean_index(path))
    halfdim = path.monodromy.half_dimension
    horizon = int((halfdim + 1) / ihat) + 2
    return all(index_iterate(path, m) >= 1 for m in range(1, horizon + 1))


def test_criterion_3_tuple_postconditions_randomized():
    """100 randomized problems: verify_tuple has zero mismatches and both
    index-jump windows hold over their full horizons."""
    with _gate("3 tuple postconditions + windows (100 randomized problems)"):
        rng = random.Random(61)
        done = 0
        attempts = 0
        while done < 100:
            attempts += 1
            assert attempts < 1000
            prob = _random_problem(rng)
            # the lower-window bound presumes every iterate has index >= 1
            if not all(_indices_always_positive(p) for p in prob.paths):
                continue
            try:
                t = find_tuple(prob)
            except NotFoundWithinBound:
                continue
            if sum(t.m) > 10**5:  # keep the exact window sweeps affordable
                continue
            report = verify_tuple(t, prob)
            assert report.ok and not report.mismatches, report.mismatches
            two_n = 2 * t.N
            for path, m_k in zip(prob.paths, t.m):
                for m in range(1, 2 * m_k):
                    assert index_iterate(path, 2 * m_k - m) <= two_n - 1
                for m in range(1, 2 * m_k + 1):
                    assert index_iterate(path, 2 * m_k + m) >= two_n + 1
            done += 1


def test_criterion_4_betti_agreement_gate():
    """Direct Betti summation equals the closed forms on all shipped shapes,
    plus the boundary-value identity of the correction term."""
    with _gate("4 Betti closed forms vs direct sums (10 shapes, l <= 2000)"):
        shapes = [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (6, 1), (8, 2),
                  (3, 1), (5, 1), (7, 1)]
        for d, n in shapes:
            shape = CohomologyShape(d, n)
            lo = (d - 1) if d % 2 else (shape.dim - 1)
            running = sum(betti(shape, p) for p in range(lo))
            for l in range(lo, 2001):
                running += betti(shape, l)
                if d % 2:
                    closed = Fraction(l // (d - 1) + l // 2) - Fraction(d - 1, 2)
                else:
                    closed = (
                        Fraction(n * (n + 1) * d, 2 * shape.D) * (l - (d - 1))
                        - Fraction(n * (n - 1) * d, 4)
                        + 1
                        + epsilon_correction(shape, l)
                    )
                assert closed == running, (d, n, l)
        # correction at the top of a jump window, N any multiple of D
        for d, n in shapes:
            if d % 2:
                continue
            shape = CohomologyShape(d, n)
            for k in (1, 3, 10):
                N = k * shape.D
                assert epsilon_correction(shape, 2 * N - 1) == Fraction(-(d - 2), shape.D)
        # spot-check the library's own direct resummation path
        assert betti_partial_sum(CohomologyShape(3, 1), 7) == (5, 5)


def test_criterion_5_multiplicity_pipeline_s2():
    """Full even-d pipeline on the shipped two-geodesic dataset."""
    with _gate("5 resonance + multiplicity pipeline on the S^2 dataset"):
        from cijt.cli import load_dataset

        ds = load_dataset(os.path.join(DATASETS, "s2_elliptic.json"))
        res = resonance_check(ds)
        assert res.passes and res.lhs == Exact(-1)
        v = verify("1.1", ds)
        assert v.passed, [c for c in v.details["checks"] if not c["pass"]]
        census = v.details["census"]
        census_opp = v.details["opposite_census"]
        assert census["N_plus_o"] >= 1
        assert census_opp["N_minus_o"] >= 1
        assert v.details["non_hyperbolic"] == ["c1", "c2"]
        assert len(ds.records) >= 2
        # both records land one above 2N: odd index at the jump iterate
        for doc, two_n in (
            (census, 2 * v.details["tuple"]["N"]),
            (census_opp, 2 * v.details["opposite_tuple"]["N"]),
        ):
            for name in ("c1", "c2"):
                assert doc["records"][name]["index_at_2mk"] % 2 == 1
                assert doc["records"][name]["index_at_2mk"] != two_n


HYPERBOLIC_PLANS = {
    (2, 1): [1, 1],
    (2, 2): [1, 1, 1],
    (4, 1): [1, 3],
    (4, 2): [1, 1, 3, 15],
    (6, 1): [1, 5],
}


def _random_hyperbolic_dataset(rng):
    d, n = rng.choice(list(HYPERBOLIC_PLANS))
    shape = CohomologyShape(d, n)
    indices = list(HYPERBOLIC_PLANS[(d, n)])
    if rng.random() < 0.5:
        k = rng.choice([1, 3, 5])  # gamma/mean contributions 1/2k - 1/2k = 0
        indices += [2 * k, k]
    records = []
    for j, i1 in enumerate(indices):
        blocks = tuple(
            D(Exact(rng.choice([2, -2, 3, -5, Fraction(5, 2)])))
            for _ in range(shape.dim - 1)
        )
        records.append(GeodesicRecord("g%d" % j, PathClass(i1, SymplecticClass(blocks))))
    return GeodesicDataset(shape, tuple(records))


def test_criterion_6_hyperbolic_contradiction_randomized():
    """10 randomized all-hyperbolic datasets: the counting argument always
    overshoots by exactly dn(n+1)/4."""
    with _gate("6 all-hyperbolic contradiction (10 randomized datasets)"):
        rng = random.Random(88)
        for _ in range(10):
            ds = _random_hyperbolic_dataset(rng)
            assert resonance_check(ds).passes
            v = verify("1.8", ds)
            assert v.passed and v.details["contradiction_found"]
            assert v.details["gap_matches"], (
                v.details["gap"], v.details["expected_gap"])
            d, n = ds.shape.d, ds.shape.n
            assert Fraction(v.details["gap"]) == Fraction(d * n * (n + 1), 4)


def test_criterion_7_census_symmetry_randomized():
    """20 randomized bumpy datasets: the four census buckets swap exactly
    between a certified tuple and its opposite."""
    with _gate("7 opposite-vertex census symmetry (20 randomized datasets)"):
        rng = random.Random(17)
        done = 0
        attempts = 0
        while done < 20:
            attempts += 1
            assert attempts < 400
            base = rng.choice(BASES)
            q = rng.randint(1, 3)
            records = []
            for j in range(q):
                roll = rng.random()
                if roll < 0.4:
                    block = R(base)
                elif roll < 0.7:
                    block = R(Exact(2) - base)
                else:
                    block = D(Exact(rng.choice([2, -2, 3])))
                records.append(
                    GeodesicRecord(
                        "r%d" % j,
                        PathClass(rng.randint(1, 4), SymplecticClass((block,))),
                    )
                )
            ds = GeodesicDataset(CohomologyShape(2, 1), tuple(records))
            prob = SelectionProblem(ds.paths, delta=Fraction(1, 50), N_bound=10**6)
            try:
                t = find_tuple(prob)
                t_opp = opposite_tuple(t, prob)
            except NotFoundWithinBound:
                continue
            a = jump_census(ds, t, 1)
            b = jump_census(ds, t_opp, 1)
            assert (a.plus_e, a.plus_o, a.minus_e, a.minus_o) == (
                b.minus_e, b.minus_o, b.plus_e, b.plus_o
            ), (t.N, t_opp.N)
            done += 1

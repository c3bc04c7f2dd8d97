import dataclasses
import hashlib
import json
import math
import os
import random
from fractions import Fraction

import pytest

from cijt.scalars import Exact
from cijt.normal_forms import D, R, SymplecticClass, crossing_sum
from cijt.iteration import PathClass, index_iterate, mean_index
from cijt.cli import load_dataset
from cijt.engine import NotFoundWithinBound, SelectionProblem, find_tuple, opposite_tuple
from cijt.loop_homology import CohomologyShape, resonance_constant
from cijt.morse import (
    GeodesicDataset,
    GeodesicRecord,
    HypothesisRejected,
    JumpCensus,
    _open_offsets,
    alternating_morse_sum,
    alternating_sum_identity,
    critical_module_dim,
    gamma_invariant,
    jump_census,
    morse_type_numbers,
    resonance_check,
    tuple_resonance_identity,
    verify_theorem_1_1,
    verify_theorem_1_5,
    verify_theorem_1_8,
)

DATASETS = os.path.join(os.path.dirname(__file__), os.pardir, "datasets")
T35 = Exact.surd(3, -1, 5)
PHI_M1 = Exact.surd(Fraction(-1, 2), Fraction(1, 2), 5)

# sha256 of each verdict as the CLI prints it, recorded before the three
# pipelines were folded onto one driver: check names, their order and the
# lhs/rhs types are all part of the contract.
GOLDEN = {
    "1.1 s2": "9542a83055f794888910cdc12502c6a4559526e92607478cefd5e281a1af7713",
    "1.1 s2[:1]": "f623d4a70aa6b2785e7d542f5061d555922054f86e3bf00b3d013142a5c236f4",
    "1.5 s3": "2baaa1b5cc15ee033142d43ad60c291a4ac667929c9a3de1f612f3cf3396c792",
    "1.5 s3[:3]": "618f9b55c39059a0e0c6c17bdacadb9ad18a2828ac87772b408f5f951d0e7ee4",
    "1.8 hyp": "4f338ebbd2e379a768826bd8a1dd6a3ed02a11d465c465f1d1000f767c399f7a",
    "1.8 hyp[:1]": "6c596bbbb445bc92cf035bedd8e2707db77ca0087ecaf96295d56b9475ba2a66",
}


def digest(verdict):
    text = json.dumps(verdict.to_json(), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def failed_checks(verdict):
    return [c["check"] for c in verdict.details["checks"] if not c["pass"]]


def rec(name, i1, *blocks):
    return GeodesicRecord(name, PathClass(i1, SymplecticClass(tuple(blocks))))


@pytest.fixture(scope="module")
def s2_dataset():
    return GeodesicDataset(
        CohomologyShape(2, 1),
        (rec("c1", 1, R(T35)), rec("c2", 2, R(PHI_M1))),
    )


@pytest.fixture(scope="module")
def s3_dataset():
    aA = PHI_M1 * Fraction(4, 3)
    aB = PHI_M1 * Fraction(1, 3)
    return GeodesicDataset(
        CohomologyShape(3, 1),
        (
            rec("A1", 2, R(aA), R(aA * 2)),
            rec("A2", 2, R(aA), R(aA * 2)),
            rec("P1", 4, R(PHI_M1), R(Exact(2) - PHI_M1)),
            rec("P2", 4, R(PHI_M1), R(Exact(2) - PHI_M1)),
            rec("B1", 3, R(aB), R(aB * 2)),
        ),
    )


@pytest.fixture(scope="module")
def hyperbolic_dataset():
    return GeodesicDataset(
        CohomologyShape(2, 1),
        (rec("h1", 1, D(Exact(2))), rec("h2", 1, D(Exact(-3)))),
    )


class TestDatasetValidation:
    def test_dimension_budget(self):
        with pytest.raises(ValueError):
            GeodesicDataset(CohomologyShape(2, 1), (rec("x", 1, R(T35), R(PHI_M1)),))

    def test_degenerate_rejected_when_bumpy(self):
        with pytest.raises(ValueError):
            GeodesicDataset(
                CohomologyShape(2, 1), (rec("x", 1, R(Exact(Fraction(1, 3)))),)
            )


class TestCriticalModules:
    def test_base_degree(self, s2_dataset):
        c1 = s2_dataset.records[0]
        assert critical_module_dim(c1, 1, 1) == 1
        assert critical_module_dim(c1, 1, 2) == 0

    def test_iterate_example(self, s2_dataset):
        c1 = s2_dataset.records[0]
        assert index_iterate(c1.path, 2) == 1
        assert critical_module_dim(c1, 2, 1) == 1


class TestGamma:
    def test_values(self, s2_dataset, hyperbolic_dataset):
        assert gamma_invariant(s2_dataset.records[0]) == -1
        assert gamma_invariant(s2_dataset.records[1]) == Fraction(1, 2)
        assert gamma_invariant(hyperbolic_dataset.records[0]) == Fraction(-1, 2)
        assert gamma_invariant(rec("h", 2, D(Exact(2)))) == 1


class TestResonance:
    def test_s2_exact(self, s2_dataset):
        rep = resonance_check(s2_dataset)
        assert rep.passes and rep.lhs == Exact(-1)

    def test_fails_with_record_removed(self, s2_dataset):
        partial = GeodesicDataset(s2_dataset.shape, s2_dataset.records[:1])
        assert not resonance_check(partial).passes

    def test_s3_exact(self, s3_dataset):
        rep = resonance_check(s3_dataset)
        assert rep.passes and rep.lhs == Exact(1)

    def test_hyperbolic_exact(self, hyperbolic_dataset):
        assert resonance_check(hyperbolic_dataset).passes


class TestAlternatingSumIdentity:
    def test_hyperbolic(self):
        r = rec("h", 2, D(Exact(2)))
        lhs, rhs, ok = alternating_sum_identity(r, 5)
        assert ok and lhs == 10

    def test_elliptic(self, s2_dataset):
        c1 = s2_dataset.records[0]
        for m_k in (3, 10, 70):
            lhs, rhs, ok = alternating_sum_identity(c1, m_k)
            assert ok and lhs == -2 * m_k
            assert rhs == 2 * m_k * gamma_invariant(c1)

    def test_minimal(self, s2_dataset):
        c2 = s2_dataset.records[1]
        lhs, rhs, ok = alternating_sum_identity(c2, 1)
        assert ok and lhs == 2 * gamma_invariant(c2)


class TestJumpCensus:
    def test_s2_buckets(self, s2_dataset):
        prob = SelectionProblem(s2_dataset.paths, N_multiple_of=2)
        t = find_tuple(prob)
        census = jump_census(s2_dataset, t, 1)
        # c1: Delta = 1, C = 1 -> 2N+1, odd start, even jump -> +o
        assert census.classification["c1"] == (2 * t.N + 1, "+o")
        # c2: 2N+1 but even start makes the jump odd -> no bucket
        assert census.classification["c2"] == (2 * t.N + 1, None)
        assert (census.plus_o, census.plus_e) == (1, 0)

    def test_hyperbolic_pinned(self, hyperbolic_dataset):
        prob = SelectionProblem(hyperbolic_dataset.paths, N_multiple_of=2)
        t = find_tuple(prob)
        census = jump_census(hyperbolic_dataset, t, 1)
        for name in ("h1", "h2"):
            i2m, bucket = census.classification[name]
            assert i2m == 2 * t.N and bucket is None

    def test_symmetry_randomized(self):
        """Opposite-vertex census swap on randomized bumpy datasets."""
        rng = random.Random(23)
        surds = [T35, PHI_M1, Exact.surd(-1, 1, 2),
                 Exact.surd(Fraction(1, 2), Fraction(1, 7), 3)]
        done = 0
        while done < 6:
            q = rng.randint(1, 3)
            records = tuple(
                rec("r%d" % j, rng.randint(1, 4), R(rng.choice(surds)))
                for j in range(q)
            )
            ds = GeodesicDataset(CohomologyShape(2, 1), records)
            prob = SelectionProblem(ds.paths, delta=Fraction(1, 50), N_bound=10**6)
            try:
                t = find_tuple(prob)
                t_opp = opposite_tuple(t, prob)
            except Exception:
                continue
            a = jump_census(ds, t, 1)
            b = jump_census(ds, t_opp, 1)
            assert (a.plus_e, a.plus_o, a.minus_e, a.minus_o) == (
                b.minus_e, b.minus_o, b.plus_e, b.plus_o
            )
            done += 1


def _census_by_sweep(dataset, t, margin):
    """jump_census with both windows swept iterate by iterate: the oracle."""
    two_n = 2 * t.N
    counts = {"+e": 0, "+o": 0, "-e": 0, "-o": 0}
    classification = {}
    for r, m_k, d_k in zip(dataset.records, t.m, t.Delta):
        path = r.path
        if path.i1 < margin:
            raise HypothesisRejected(
                "record %s: initial index %d < %d" % (r.name, path.i1, margin)
            )
        i2m = index_iterate(path, 2 * m_k)
        expect = two_n - crossing_sum(path.monodromy) + 2 * d_k
        if i2m != expect:
            raise AssertionError(
                "record %s: i(c^{2m_k}) = %d, spectral formula gives %d"
                % (r.name, i2m, expect)
            )
        for m in range(1, 2 * m_k):
            if index_iterate(path, 2 * m_k - m) > two_n - margin:
                raise AssertionError("lower window violated at %s, m=%d" % (r.name, m))
        for m in range(1, 2 * m_k + 1):
            if index_iterate(path, 2 * m_k + m) < two_n + margin:
                raise AssertionError("upper window violated at %s, m=%d" % (r.name, m))
        bucket = None
        if (i2m - path.i1) % 2 == 0:
            parity = "e" if path.i1 % 2 == 0 else "o"
            if i2m >= two_n + margin:
                bucket = "+" + parity
            elif i2m <= two_n - margin:
                bucket = "-" + parity
        if bucket:
            counts[bucket] += 1
        classification[r.name] = (i2m, bucket)
    return JumpCensus(
        counts["+e"], counts["+o"], counts["-e"], counts["-o"], margin, classification
    )


def _outcome(census, dataset, t, margin):
    """The census, or the kind and message of the exception it raised."""
    try:
        return census(dataset, t, margin)
    except (AssertionError, HypothesisRejected) as exc:
        return type(exc).__name__, str(exc)


CENSUS_SURDS = [T35, PHI_M1, Exact.surd(-1, 1, 2), Exact.surd(Fraction(1, 2), Fraction(1, 7), 3)]


def _random_census_cases(rng, count):
    """(dataset, tuple) pairs in the style of criterion 7, tuples and their
    opposites.  Shape (2,2) puts three blocks on each record; with one angle
    repeated the index sequence need not be monotone in m.  One base angle per
    dataset keeps the search single-angle."""
    while count > 0:
        shape = CohomologyShape(2, rng.choice([1, 2]))
        base = rng.choice(CENSUS_SURDS)
        blocks = lambda: tuple(
            R(base) if rng.random() < 0.6 else D(Exact(rng.choice([2, -2, 3])))
            for _ in range(shape.dim - 1)
        )
        try:
            ds = GeodesicDataset(
                shape, tuple(rec("r%d" % j, rng.randint(1, 4), *blocks()) for j in range(rng.randint(1, 3)))
            )
            prob = SelectionProblem(ds.paths, delta=Fraction(1, 50), N_bound=10**5)
            t = find_tuple(prob)
            t_opp = opposite_tuple(t, prob)
        except (ValueError, NotFoundWithinBound):  # mean index <= 0, or no tuple
            continue
        if sum(t.m) + sum(t_opp.m) > 10**4:  # keep the oracle sweeps affordable
            continue
        yield ds, t
        yield ds, t_opp
        count -= 1


def _mutated(dataset, t, k, step):
    """t with m_k moved by step and Delta_k following i(c^{2m_k}) where parity allows."""
    m = list(t.m)
    m[k] += step
    Delta = list(t.Delta)
    path = dataset.records[k].path
    gap = index_iterate(path, 2 * m[k]) - 2 * t.N + crossing_sum(path.monodromy)
    if gap % 2 == 0:
        Delta[k] = gap // 2
    return dataclasses.replace(t, m=tuple(m), Delta=tuple(Delta))


class TestJumpCensusOracle:
    def test_bracket_matches_window_sweep(self):
        """The bracket-settled census equals the full sweep: the same census,
        or the same violation at the same iterate, on certified tuples, under
        margins 1..3 and on tuples mutated to m_k +- 1."""
        rng = random.Random(41)
        seen = {"census": 0, "window": 0}
        for ds, t in _random_census_cases(rng, 12):
            variants = [t] + [
                _mutated(ds, t, k, step)
                for k in range(len(t.m))
                for step in (-1, 1)
                if t.m[k] + step >= 1
            ]
            for tt in variants:
                for margin in (1, 2, 3):
                    got = _outcome(jump_census, ds, tt, margin)
                    assert got == _outcome(_census_by_sweep, ds, tt, margin), (tt, margin)
                    if isinstance(got, JumpCensus):
                        seen["census"] += 1
                    elif "window" in got[1]:
                        seen["window"] += 1
        assert seen["census"] > 0 and seen["window"] > 0, seen

    def test_settled_iterates_keep_their_window(self):
        """Every window iterate the bracket leaves out satisfies its window
        inequality, with 2N placed anywhere near i(c^{2m_k}) and not only at
        certified tuples, so that the iterates next to the settled ranges are
        the ones that break the windows."""
        rng = random.Random(8)
        for ds, _ in _random_census_cases(rng, 6):
            for r in ds.records:
                for _ in range(20):
                    m_k, margin = rng.randint(1, 60), rng.randint(1, 3)
                    two_n = 2 * ((index_iterate(r.path, 2 * m_k) + rng.randint(-4, 4)) // 2)
                    lower, upper = _open_offsets(r.path, two_n, m_k, margin)
                    for m in set(range(1, 2 * m_k)) - set(lower):
                        assert index_iterate(r.path, 2 * m_k - m) <= two_n - margin
                    for m in set(range(1, 2 * m_k + 1)) - set(upper):
                        assert index_iterate(r.path, 2 * m_k + m) >= two_n + margin


class TestMorseTypeNumbers:
    def test_exact_horizon_matches_float_horizon(self):
        """The bracket horizon gives the M_p of the older, looser float horizon
        ceil((P + 2(dn-1) + |i(c)|)/ihat) + 2."""
        rng = random.Random(5)
        for ds, t in _random_census_cases(rng, 6):
            P = 2 * t.N + 1
            M = [0] * (P + 1)
            for r in ds.records:
                slack = 2 * (ds.shape.dim - 1) + abs(r.path.i1)
                for m in range(1, math.ceil((P + slack) / float(mean_index(r.path))) + 3):
                    i_m = index_iterate(r.path, m)
                    if 0 <= i_m <= P and (i_m - r.path.i1) % 2 == 0:
                        M[i_m] += 1
            assert morse_type_numbers(ds, P) == M

    def test_hyperbolic_support(self):
        ds = GeodesicDataset(CohomologyShape(2, 1),
                             (rec("h", 1, D(Exact(2))), rec("h2", 1, D(Exact(3)))))
        M = morse_type_numbers(ds, 6)
        assert M == [0, 2, 0, 2, 0, 2, 0]

    def test_below_min_index(self, s2_dataset):
        assert morse_type_numbers(s2_dataset, 0) == [0]

    def test_chain_vs_tuple_identity(self, s2_dataset):
        prob = SelectionProblem(s2_dataset.paths, N_multiple_of=2)
        t = find_tuple(prob)
        lhs, rhs, ok = tuple_resonance_identity(s2_dataset, t)
        assert ok
        M = morse_type_numbers(s2_dataset, 2 * t.N)
        # chain: alternating M sum = 2NB + N_+^o - N_+^e
        census = jump_census(s2_dataset, t, 1)
        assert alternating_morse_sum(M, 2 * t.N) == (
            2 * t.N * resonance_constant(s2_dataset.shape)
            + census.plus_o
            - census.plus_e
        )


class TestTheorem11:
    def test_s2_passes(self, s2_dataset):
        v = verify_theorem_1_1(s2_dataset)
        assert v.passed
        assert v.details["non_hyperbolic"] == ["c1", "c2"]
        assert v.details["tuple"]["N"] == 754
        assert v.details["opposite_tuple"]["N"] == 1220
        assert digest(v) == GOLDEN["1.1 s2"]

    def test_shipped_s2_at_small_delta(self):
        # N = 35422 took minutes while the Betti sum and the census windows
        # were swept degree by degree and iterate by iterate
        ds = load_dataset(os.path.join(DATASETS, "s2_elliptic.json"))
        v = verify_theorem_1_1(ds, delta=Fraction(1, 5000))
        assert v.passed
        assert v.details["tuple"]["N"] == 35422

    def test_record_removed_fails(self, s2_dataset):
        partial = GeodesicDataset(s2_dataset.shape, s2_dataset.records[:1])
        v = verify_theorem_1_1(partial)
        assert not v.passed
        assert digest(v) == GOLDEN["1.1 s2[:1]"]

    def test_zero_index_rejected(self):
        ds = GeodesicDataset(CohomologyShape(2, 1),
                             (rec("z", 1, R(T35)),
                              rec("z0", 0, R(Exact(2) - Exact.surd(-1, 1, 2)))))
        with pytest.raises(HypothesisRejected):
            verify_theorem_1_1(ds)

    def test_odd_d_rejected(self, s3_dataset):
        with pytest.raises(HypothesisRejected):
            verify_theorem_1_1(s3_dataset)


class TestTheorem15:
    def test_s3_passes(self, s3_dataset):
        v = verify_theorem_1_5(s3_dataset)
        assert v.passed
        assert sorted(v.details["pinned_at_2N"]) == ["P1", "P2"]
        assert len(v.details["even_index_records"]) >= 4
        assert len(v.details["non_hyperbolic"]) >= 2
        assert digest(v) == GOLDEN["1.5 s3"]

    def test_records_removed_fails(self, s3_dataset):
        partial = GeodesicDataset(s3_dataset.shape, s3_dataset.records[:3])
        v = verify_theorem_1_5(partial)
        assert not v.passed
        assert len(failed_checks(v)) == 8
        assert digest(v) == GOLDEN["1.5 s3[:3]"]

    def test_low_index_rejected(self, s2_dataset):
        ds = GeodesicDataset(
            CohomologyShape(3, 1),
            (rec("x", 1, R(PHI_M1 * Fraction(4, 3)), R(PHI_M1 * Fraction(8, 3))),),
        )
        with pytest.raises(HypothesisRejected):
            verify_theorem_1_5(ds)

    def test_even_d_rejected(self, s2_dataset):
        with pytest.raises(HypothesisRejected):
            verify_theorem_1_5(s2_dataset)


class TestTheorem18:
    def test_contradiction(self, hyperbolic_dataset):
        v = verify_theorem_1_8(hyperbolic_dataset)
        assert v.passed and v.details["contradiction_found"]
        assert v.details["gap_matches"]
        assert digest(v) == GOLDEN["1.8 hyp"]

    def test_record_removed_fails(self, hyperbolic_dataset):
        partial = GeodesicDataset(hyperbolic_dataset.shape, hyperbolic_dataset.records[:1])
        v = verify_theorem_1_8(partial)
        assert not v.passed and not v.details["contradiction_found"]
        assert digest(v) == GOLDEN["1.8 hyp[:1]"]

    def test_mixed_rejected(self, s2_dataset):
        with pytest.raises(HypothesisRejected):
            verify_theorem_1_8(s2_dataset)

    def test_odd_d_rejected(self, s3_dataset):
        with pytest.raises(HypothesisRejected):
            verify_theorem_1_8(s3_dataset)

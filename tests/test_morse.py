import hashlib
import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from cijt.scalars import Exact, ceil_mult, floor_mult
from cijt.normal_forms import D, N1, N2, R, SymplecticClass
from cijt.iteration import (
    CohomologyShape,
    GeodesicDataset,
    GeodesicRecord,
    HypothesisRejected,
    PathClass,
    index_bracket,
    index_iterate,
    index_window,
    mean_index,
)
from cijt.cli import load_dataset
from cijt.record import dumps
from cijt.engine import (
    CijtTuple,
    NonPositiveMeanIndex,
    NotFoundWithinBound,
    SelectionProblem,
    find_tuple,
    m_bar_for_geodesics,
    opposite_tuple,
)
from cijt.loop_homology import resonance_constant
from cijt.morse import (
    JumpCensus,
    jump_census,
    morse_type_number,
    morse_type_numbers,
    resonance_check,
    tuple_resonance_identity,
    verify,
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
    # the shipped datasets at delta = 1e-12, n_bound 1e18: both tuple searches
    # run at N ~ 1e12..1e14, far past the default delta
    "1.1 s2 1e-12": "d2552174dbe79564fab9f00199a77602cd205b2226db2848bb17ef9e8d3f6fc6",
    "1.5 s3 1e-12": "ff4a03dda4f650b179584b20fdf437a6b04d40a6c22e330c10850e8c4e96a2e4",
}


def digest(verdict):
    doc = verdict.to_json()
    text = json.dumps(doc, indent=2, sort_keys=True, default=lambda o: o.to_json())
    assert dumps(doc) == text  # the CLI prints these bytes
    return hashlib.sha256(text.encode()).hexdigest()


def failed_checks(verdict):
    return [c["check"] for c in verdict.details["checks"] if not c["pass"]]


def gamma_invariant(record):
    """gamma_c as a Fraction, as it was computed before each path held
    2*gamma_c as an integer (``PathClass.two_gamma``), kept as its oracle:
    sign from the parity of i(c), magnitude 1/2 unless i(c^2) - i(c) is
    even."""
    i1 = record.path.i1
    diff = index_iterate(record.path, 2) - i1
    mag = Fraction(1) if diff % 2 == 0 else Fraction(1, 2)
    return mag if i1 % 2 == 0 else -mag


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

    def test_record_names_escaped(self):
        """Every message that names a record shows a name that is not an
        identifier escaped and quoted, so a line break cannot split it; an
        identifier is shown as it is."""
        s2 = CohomologyShape(2, 1)
        positive_at_zero = R(Exact(3) - Exact.surd(0, 1, 2))  # i(c) = 0, ihat = 2 - sqrt2
        for name, shown in (("c\n1", r'"c\n1"'), ("c\u2028 1", r'"c\u2028 1"'), ("c1", "c1")):
            cases = [
                (lambda: GeodesicDataset(s2, (rec(name, 1, R(T35), R(PHI_M1)),)),
                 "record %s: half-dimension 2, expected dn - 1 = 1"),
                (lambda: GeodesicDataset(s2, (rec(name, 0, R(PHI_M1)),)),
                 "record %s: mean index must be positive"),
                (lambda: GeodesicDataset(s2, (rec(name, 1, R(Exact(Fraction(1, 3)))),)),
                 "record %s: degenerate iterate present"),
                (lambda: verify("1.1", GeodesicDataset(
                    s2, (rec("z", 1, R(T35)), rec(name, 0, positive_at_zero)))),
                 "record %s has zero Morse index"),
            ]
            ds = GeodesicDataset(s2, (rec(name, 1, R(T35)), rec("c2", 2, R(PHI_M1))))
            t = find_tuple(SelectionProblem(ds.paths, N_multiple_of=2))
            cases.append((lambda: jump_census(ds, t, 2), "record %s: initial index 1 < 2"))
            for build, message in cases:
                with pytest.raises(ValueError) as exc:
                    build()
                assert str(exc.value) == message % shown


def critical_module_dim(record, m, degree):
    """dim C_degree(E, c^m) for a non-degenerate iterate: 0 or 1."""
    i_m = index_iterate(record.path, m)
    return 1 if degree == i_m and (i_m - record.path.i1) % 2 == 0 else 0


def alternating_sum_identity(record, m_k):
    """sum_{m<=2m_k} (-1)^{i(c^m)} dim C_{i(c^m)} vs 2 m_k gamma; both returned."""
    lhs = 0
    for m in range(1, 2 * m_k + 1):
        i_m = index_iterate(record.path, m)
        lhs += (-1) ** i_m * critical_module_dim(record, m, i_m)
    rhs = 2 * m_k * gamma_invariant(record)
    return lhs, rhs, lhs == rhs


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
        for r in (*s2_dataset.records, *hyperbolic_dataset.records, rec("h", 2, D(Exact(2)))):
            assert r.path.two_gamma == 2 * gamma_invariant(r)

    def test_two_gamma_against_fractions(self):
        """The integer 2*gamma_c against the Fraction form, and the resonance
        sums that read it against their Fraction forms: every shipped record,
        and the paths of random search problems."""
        from test_engine import _scan_problem

        for name in ("s2_elliptic", "s3_elliptic", "s2_hyperbolic", "single_sqrt2"):
            ds = load_dataset(os.path.join(DATASETS, name + ".json"))
            for r in ds.records:
                assert r.path.two_gamma == 2 * gamma_invariant(r), (name, r.name)
            lhs = Exact(0)
            for r in ds.records:
                lhs = lhs + Exact(gamma_invariant(r)) / mean_index(r.path)
            assert resonance_check(ds).lhs == lhs
            t = CijtTuple(7, tuple(range(3, 3 + len(ds.records))), (), (), 1, None, Fraction(1, 9))
            want = sum(2 * m_k * gamma_invariant(r) for r, m_k in zip(ds.records, t.m))
            assert tuple_resonance_identity(ds, t)[0] == want
        rng, seen = random.Random(23), 0
        while seen < 300:
            try:
                prob = _scan_problem(rng)
            except NonPositiveMeanIndex:
                continue
            for p in prob.paths:
                assert p.two_gamma == 2 * gamma_invariant(GeodesicRecord("c", p)), p
                seen += 1


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
        sp, c, _ = path.spectral
        expect = two_n - (sp + c - 2 * d_k)
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


def _census_block(rng, base):
    """R(base), a hyperbolic block, or now and then N1(1, +1), whose S^+(1) = 1
    puts S^+ into the jump identity."""
    x = rng.random()
    if x < 0.6:
        return R(base)
    if x < 0.7:
        return N1(1, 1)
    return D(Exact(rng.choice([2, -2, 3])))


def _random_census_cases(rng, count):
    """(dataset, tuple) pairs in the style of criterion 7, tuples and their
    opposites.  Shape (2,2) puts three blocks on each record; with one angle
    repeated the index sequence need not be monotone in m.  One base angle per
    dataset keeps the search single-angle."""
    while count > 0:
        shape = CohomologyShape(2, rng.choice([1, 2]))
        base = rng.choice(CENSUS_SURDS)
        blocks = lambda: tuple(_census_block(rng, base) for _ in range(shape.dim - 1))
        try:
            ds = GeodesicDataset(
                shape,
                tuple(rec("r%d" % j, rng.randint(1, 4), *blocks()) for j in range(rng.randint(1, 3))),
                bumpy_required=False,
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
    sp, c, _ = path.spectral
    gap = index_iterate(path, 2 * m[k]) - 2 * t.N + sp + c
    if gap % 2 == 0:
        Delta[k] = gap // 2
    return CijtTuple(t.N, tuple(m), t.chi, tuple(Delta), t.M_bar, t.vertex, t.delta, t.report)


class TestJumpCensusOracle:
    def test_bracket_matches_window_sweep(self):
        """The bracket-settled census equals the full sweep: the same census,
        or the same violation at the same iterate, on certified tuples, under
        margins 1..3 and on tuples mutated to m_k +- 1, records with S^+(1) > 0
        among them."""
        rng = random.Random(41)
        seen = {"census": 0, "window": 0, "S+ > 0": 0}
        for ds, t in _random_census_cases(rng, 12):
            seen["S+ > 0"] += sum(r.path.spectral[0] > 0 for r in ds.records)
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
        assert min(seen.values()) > 0, seen


def _inside(path, m, a, b):
    i_m = index_iterate(path, m)
    return (a is None or a <= i_m) and (b is None or i_m <= b)


def _m_bar_by_scan(paths, d, n):
    """m_bar_for_geodesics scanning each path from m = 1: the oracle."""
    target = lambda p: p.i1 + 2 * (d * n - 1)
    return max(
        [1] + [next(m for m in itertools.count(1) if index_iterate(p, m) >= target(p)) for p in paths]
    )


class TestIndexWindow:
    def test_census_windows(self):
        """The two census windows, i(c^j) <= 2N - margin below 2m_k and
        i(c^j) >= 2N + margin above it, with 2N placed anywhere near
        i(c^{2m_k}) and not only at certified tuples: every j the sure range
        settles keeps its window, and every j outside the possible range
        breaks it."""
        rng = random.Random(8)
        for ds, _ in _random_census_cases(rng, 6):
            for r in ds.records:
                for _ in range(20):
                    m_k, margin = rng.randint(1, 60), rng.randint(1, 3)
                    two_n = 2 * ((index_iterate(r.path, 2 * m_k) + rng.randint(-4, 4)) // 2)
                    for a, b in ((None, two_n - margin), (two_n + margin, None)):
                        may, sure = index_window(r.path, a, b)
                        for j in range(1, 4 * m_k + 1):
                            if j in sure:
                                assert _inside(r.path, j, a, b), (r, a, b, j)
                            elif j not in may:
                                assert not _inside(r.path, j, a, b), (r, a, b, j)

    def test_random_windows(self):
        """Mixed-block paths (degenerate iterates, negative indices, small mean
        indices) under random windows, either side open: sure members lie in
        the window, and no iterate outside the possible range does."""
        rng = random.Random(29)
        seen = set()
        for ds in _random_morse_datasets(rng, 25):
            for r in ds.records:
                for _ in range(8):
                    a = rng.choice([None, rng.randint(-6, 40)])
                    b = rng.choice([None, (a or 0) + rng.randint(0, 12)])
                    may, sure = index_window(r.path, a, b)
                    top = sure.start if b is None else may.stop
                    seen.add((a is None, b is None, len(sure) > 0))
                    for m in range(1, top + 20):
                        if m in sure:
                            assert _inside(r.path, m, a, b), (r, a, b, m)
                        elif m not in may:
                            assert not _inside(r.path, m, a, b), (r, a, b, m)
        assert {(False, False, True), (True, False, True), (False, True, True), (False, False, False)} <= seen

    def test_m_bar_matches_scan_from_one(self):
        """m_bar_for_geodesics starts at the first possible iterate, not at 1."""
        rng = random.Random(31)
        cases = [ds for ds, _ in _random_census_cases(rng, 4)] + list(_random_morse_datasets(rng, 30))
        for ds in cases:
            paths = ds.paths
            assert m_bar_for_geodesics(paths, ds.shape.d, ds.shape.n) == _m_bar_by_scan(
                paths, ds.shape.d, ds.shape.n
            ), ds


def _morse_by_sweep(dataset, P):
    """M_0..M_P with every iterate up to the exact horizon evaluated: the oracle."""
    M = [0] * (P + 1)
    for r in dataset.records:
        lo, _ = index_bracket(r.path)
        horizon = floor_mult((P - lo) / mean_index(r.path), 1)
        for m in range(1, horizon + 1):
            i_m = index_iterate(r.path, m)
            if 0 <= i_m <= P and (i_m - r.path.i1) % 2 == 0:
                M[i_m] += 1
    return M


def _alternating(M):
    return sum((-1) ** p * x for p, x in enumerate(M))


def _listed(dataset, P):
    """M_0..M_P, one degree at a time."""
    return [morse_type_number(dataset, p) for p in range(P + 1)]


MORSE_ANGLES = [T35, PHI_M1, PHI_M1 * Fraction(1, 9), Exact(2) - PHI_M1 * Fraction(1, 9),
                Exact.surd(-1, 1, 2), Exact(Fraction(1, 3)), Exact(Fraction(2, 5)),
                Exact(Fraction(1, 12)), Exact(Fraction(11, 6))]


def _random_block(rng, room):
    """An elliptic (irrational or rational angle), hyperbolic, N1 or, with room
    for it, N2 block."""
    kind = rng.choice("RRDN2" if room >= 2 else "RRDN")
    if kind == "R":
        return R(rng.choice(MORSE_ANGLES))
    if kind == "D":
        return D(Exact(rng.choice([2, -2, 3])))
    if kind == "N":
        return N1(rng.choice([1, -1]), rng.choice([-1, 0, 1]))
    return N2(rng.choice(MORSE_ANGLES), rng.random() < 0.5)


def _random_morse_datasets(rng, count):
    """Datasets of 1-3 records over mixed blocks, degenerate iterates allowed,
    initial indices -2..4: rho of both parities, lo = 0 and lo < 0, mean
    indices down to about 1/15, so that many iterates lie below the range the
    bracket settles, and iterates of negative index, which the count must
    leave out."""
    while count > 0:
        shape = CohomologyShape(*rng.choice([(2, 1), (2, 2), (3, 1), (4, 1)]))
        records = []
        for j in range(rng.randint(1, 3)):
            blocks, room = [], shape.dim - 1
            while room:
                blocks.append(_random_block(rng, room))
                room -= blocks[-1].dim // 2
            records.append(rec("r%d" % j, rng.randint(-2, 4), *blocks))
        try:
            ds = GeodesicDataset(shape, tuple(records), bumpy_required=False)
        except ValueError:  # mean index <= 0
            continue
        yield ds
        count -= 1


class TestMorseTypeNumbers:
    def test_exact_horizon_matches_float_horizon(self):
        """The bracket counts give the M_p of the older, looser float horizon
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
            assert _listed(ds, P) == M
            assert morse_type_numbers(ds, P) == _alternating(M)

    def test_hyperbolic_support(self):
        ds = GeodesicDataset(CohomologyShape(2, 1),
                             (rec("h", 1, D(Exact(2))), rec("h2", 1, D(Exact(3)))))
        assert _listed(ds, 6) == [0, 2, 0, 2, 0, 2, 0]
        assert morse_type_numbers(ds, 6) == _alternating([0, 2, 0, 2, 0, 2, 0])

    def test_negative_index_below_settled_range(self):
        # C = 0, so i(c^m) = 2m - 3 exactly: c^1 has index -1 although m = 1 is
        # only one below ceil(-lo/ihat) = 2, and the count must leave it out
        ds = GeodesicDataset(CohomologyShape(4, 1), (rec("n", -1, N1(1, 1), N1(1, 1), N1(1, 1)),),
                             bumpy_required=False)
        assert _listed(ds, 6) == _morse_by_sweep(ds, 6) == [0, 1, 0, 1, 0, 1, 0]
        assert morse_type_numbers(ds, 6) == -3

    def test_below_min_index(self, s2_dataset):
        assert _listed(s2_dataset, 0) == [0] and morse_type_numbers(s2_dataset, 0) == 0
        with pytest.raises(ValueError):
            morse_type_number(s2_dataset, -1)

    def test_chain_vs_tuple_identity(self, s2_dataset):
        prob = SelectionProblem(s2_dataset.paths, N_multiple_of=2)
        t = find_tuple(prob)
        lhs, rhs, ok = tuple_resonance_identity(s2_dataset, t)
        assert ok
        alt = morse_type_numbers(s2_dataset, 2 * t.N)
        assert alt == _alternating(_morse_by_sweep(s2_dataset, 2 * t.N))
        # chain: alternating M sum = 2NB + N_+^o - N_+^e
        census = jump_census(s2_dataset, t, 1)
        assert alt == (
            2 * t.N * resonance_constant(s2_dataset.shape)
            + census.plus_o
            - census.plus_e
        )


class TestMorseCountsOracle:
    def test_counts_match_sweep(self):
        """Bracket-and-parity counts equal the per-iterate sweep: the
        alternating sum at every P < 120 and at each P one off, or on, a value
        where a record's settled range or horizon gains an iterate; M_p for
        every p <= P at a few of those P."""
        rng = random.Random(17)
        seen = set()
        for ds in _random_morse_datasets(rng, 30):
            Ps = set(range(120))
            for r in ds.records:
                ihat = mean_index(r.path)
                lo, hi = index_bracket(r.path)
                seen.add("rho %d" % (r.path.rho() % 2))
                seen.add("lo < 0" if lo < 0 else "lo = 0")
                if ceil_mult(-lo / ihat, 1) > 2:
                    seen.add("iterates below the settled range")
                if min(index_iterate(r.path, m) for m in range(1, 4)) < 0:
                    seen.add("negative index")
                if r.path.monodromy.blocks and all(isinstance(b, D) for b in r.path.monodromy.blocks):
                    seen.add("hyperbolic")
                if any(isinstance(b, R) and b.theta.is_rational for b in r.path.monodromy.blocks):
                    seen.add("rational elliptic")
                for m in (rng.randint(1, 1 + math.floor(400 / float(ihat))) for _ in range(3)):
                    for edge in (ceil_mult(ihat, m) + hi - 1, ceil_mult(ihat, m) + lo):
                        Ps.update(P for P in (edge - 1, edge, edge + 1) if P >= 0)
            M = _morse_by_sweep(ds, max(Ps))
            for P in sorted(Ps):
                assert morse_type_numbers(ds, P) == _alternating(M[: P + 1]), (ds, P)
            for P in rng.sample(sorted(Ps), 2) + [min(r.path.i1 for r in ds.records) - 1, max(Ps)]:
                if P >= 0:
                    assert _listed(ds, P) == M[: P + 1], (ds, P)
        assert seen == {"rho 0", "rho 1", "lo < 0", "lo = 0", "iterates below the settled range",
                        "negative index", "hyperbolic", "rational elliptic"}, seen


class TestTheorem11:
    def test_s2_passes(self, s2_dataset):
        v = verify("1.1", s2_dataset)
        assert v.passed
        assert v.details["non_hyperbolic"] == ["c1", "c2"]
        assert v.details["tuple"]["N"] == 754
        assert v.details["opposite_tuple"]["N"] == 1220
        assert digest(v) == GOLDEN["1.1 s2"]

    def test_shipped_s2_at_small_delta(self):
        # N = 35422 took minutes while the Betti sum and the census windows
        # were swept degree by degree and iterate by iterate
        ds = load_dataset(os.path.join(DATASETS, "s2_elliptic.json"))
        v = verify("1.1", ds, delta=Fraction(1, 5000))
        assert v.passed
        assert v.details["tuple"]["N"] == 35422

    def test_shipped_s2_at_delta_1e12(self):
        # N ~ 3.1e12: the Morse chain and the Betti sum cost no more than at N = 754
        ds = load_dataset(os.path.join(DATASETS, "s2_elliptic.json"))
        v = verify("1.1", ds, delta=Fraction(1, 10**12), n_bound=10**18)
        assert v.passed and not failed_checks(v)
        assert v.details["tuple"]["N"] > 10**12
        assert digest(v) == GOLDEN["1.1 s2 1e-12"]

    def test_record_removed_fails(self, s2_dataset):
        partial = GeodesicDataset(s2_dataset.shape, s2_dataset.records[:1])
        v = verify("1.1", partial)
        assert not v.passed
        assert digest(v) == GOLDEN["1.1 s2[:1]"]

    def test_census_symmetry_is_checked(self, s2_dataset, monkeypatch):
        """Every census reports one more N_-^o: the plus counts, and so the
        orientation, stay, but no census mirrors the other any more, and the
        verdict fails on the symmetry row alone."""
        def skewed(dataset, t, margin):
            c = jump_census(dataset, t, margin)
            return JumpCensus(c.plus_e, c.plus_o, c.minus_e, c.minus_o + 1, margin, c.classification)

        monkeypatch.setattr("cijt.morse.jump_census", skewed)
        v = verify("1.1", s2_dataset)
        assert v.to_json()["pass"] is False
        assert failed_checks(v) == ["opposite-census symmetry"]
        assert v.details["opposite_tuple"]["N"] == 1220  # the first-found vertex stays primary

    def test_zero_index_rejected(self):
        ds = GeodesicDataset(CohomologyShape(2, 1),
                             (rec("z", 1, R(T35)),
                              rec("z0", 0, R(Exact(2) - Exact.surd(-1, 1, 2)))))
        with pytest.raises(HypothesisRejected):
            verify("1.1", ds)

    def test_odd_d_rejected(self, s3_dataset):
        with pytest.raises(HypothesisRejected):
            verify("1.1", s3_dataset)


class TestTheorem15:
    def test_s3_passes(self, s3_dataset):
        v = verify("1.5", s3_dataset)
        assert v.passed
        assert sorted(v.details["pinned_at_2N"]) == ["P1", "P2"]
        assert len(v.details["even_index_records"]) >= 4
        assert len(v.details["non_hyperbolic"]) >= 2
        assert digest(v) == GOLDEN["1.5 s3"]

    def test_shipped_s3_at_delta_1e12(self):
        ds = load_dataset(os.path.join(DATASETS, "s3_elliptic.json"))
        v = verify("1.5", ds, delta=Fraction(1, 10**12), n_bound=10**18)
        assert v.passed and not failed_checks(v)
        assert v.details["tuple"]["N"] > 10**13
        assert digest(v) == GOLDEN["1.5 s3 1e-12"]

    def test_records_removed_fails(self, s3_dataset):
        partial = GeodesicDataset(s3_dataset.shape, s3_dataset.records[:3])
        v = verify("1.5", partial)
        assert not v.passed
        assert len(failed_checks(v)) == 8
        assert digest(v) == GOLDEN["1.5 s3[:3]"]

    def test_low_index_rejected(self, s2_dataset):
        ds = GeodesicDataset(
            CohomologyShape(3, 1),
            (rec("x", 1, R(PHI_M1 * Fraction(4, 3)), R(PHI_M1 * Fraction(8, 3))),),
        )
        with pytest.raises(HypothesisRejected):
            verify("1.5", ds)

    def test_even_d_rejected(self, s2_dataset):
        with pytest.raises(HypothesisRejected):
            verify("1.5", s2_dataset)


class TestTheorem18:
    def test_contradiction(self, hyperbolic_dataset):
        v = verify("1.8", hyperbolic_dataset)
        assert v.passed and v.details["contradiction_found"]
        assert v.details["gap_matches"]
        assert digest(v) == GOLDEN["1.8 hyp"]

    def test_record_removed_fails(self, hyperbolic_dataset):
        partial = GeodesicDataset(hyperbolic_dataset.shape, hyperbolic_dataset.records[:1])
        v = verify("1.8", partial)
        assert not v.passed and not v.details["contradiction_found"]
        assert digest(v) == GOLDEN["1.8 hyp[:1]"]

    def test_broken_resonance_fails(self, hyperbolic_dataset):
        """A third hyperbolic record (a copy of h1) breaks the resonance
        identity: the Morse sum misses 2NB, and the gap is 3, not 1, though
        the contradiction alt_b > alt_m is still found."""
        extra = rec("h3", 1, D(Exact(2)))
        ds = GeodesicDataset(hyperbolic_dataset.shape, (*hyperbolic_dataset.records, extra))
        v = verify("1.8", ds)
        assert v.details["contradiction_found"] and v.details["resonance"]["pass"] is False
        assert failed_checks(v) == ["alternating Morse sum equals 2NB"]
        assert (v.details["gap"], v.details["expected_gap"]) == ("3", "1")
        assert not v.passed and v.to_json()["pass"] is False

    def test_mixed_rejected(self, s2_dataset):
        with pytest.raises(HypothesisRejected):
            verify("1.8", s2_dataset)

    def test_odd_d_rejected(self, s3_dataset):
        with pytest.raises(HypothesisRejected):
            verify("1.8", s3_dataset)


@pytest.mark.parametrize("theorem", ["2.0", "1.2", 1.5, ""], ids=["2.0", "1.2", "float", "empty"])
def test_unknown_theorem_rejected(s2_dataset, theorem):
    """Only the three theorem labels run a pipeline; any other is refused,
    before a search, with a message that names the three."""
    with pytest.raises(ValueError) as exc:
        verify(theorem, s2_dataset)
    assert not isinstance(exc.value, HypothesisRejected)
    assert all(label in str(exc.value) for label in ("1.1", "1.5", "1.8")), exc.value


@pytest.mark.parametrize("name, theorem, delta, want", [
    ("s2_hyperbolic", "1.8", Fraction(2, 5), [Fraction(1, 3)]),
    ("s2_hyperbolic", "1.8", None, [Fraction(1, 200)]),
    ("s3_elliptic", "1.5", None, [Fraction(1, 200)] * 2),
], ids=["1.8-delta-2/5", "1.8", "1.5"])
def test_chi_eps_given_to_both_searches(monkeypatch, name, theorem, delta, want):
    """chi_eps = min(1/(1 + 2*period*E(sum |gamma_k|)), delta): at delta = 2/5
    the hyperbolic pair (common period 1, |gamma| = 1/2 each) gets 1/e = 1/3,
    at the default delta it gets delta, and both searches of a census theorem
    get the same value."""
    seen = []

    def recorded(search):
        def wrapper(*args, chi_eps=None, **kwargs):
            seen.append(chi_eps)
            return search(*args, chi_eps=chi_eps, **kwargs)
        return wrapper

    monkeypatch.setattr("cijt.morse.find_tuple", recorded(find_tuple))
    monkeypatch.setattr("cijt.morse.opposite_tuple", recorded(opposite_tuple))
    ds = load_dataset(os.path.join(DATASETS, name + ".json"))
    verdict = verify(theorem, ds, delta=delta)
    assert seen == want
    assert verdict.passed


def _katok_pair(alpha):
    """Katok's metric on S^2: two closed geodesics whose rotation angles are
    read off alpha, the irrational parameter of the metric."""
    return GeodesicDataset(CohomologyShape(2, 1), (
        rec("c_minus", 1, R(2 / (1 + alpha))),
        rec("c_plus", 3, R(2 / (1 - alpha) - 2)),
    ))


class TestKatokPair:
    """The pair attains the sharp bound: dn(n+1)/2 = 2 non-hyperbolic closed
    geodesics, and no fewer records satisfy the resonance identity."""

    @pytest.mark.parametrize("alpha, N", [
        (Exact.surd(-1, 1, 2), 816),
        (Exact.surd(-2, 1, 5), 610),
    ], ids=["sqrt2-1", "sqrt5-2"])
    def test_attains_the_bound(self, alpha, N):
        ds = _katok_pair(alpha)
        assert resonance_check(ds).passes
        v = verify("1.1", ds)
        assert v.passed and not failed_checks(v)
        assert v.details["non_hyperbolic"] == ["c_minus", "c_plus"]
        d, n = ds.shape.d, ds.shape.n
        assert len(v.details["non_hyperbolic"]) == d * n * (n + 1) // 2
        assert v.details["tuple"]["N"] == N
        for kept in ds.records:
            assert not resonance_check(GeodesicDataset(ds.shape, (kept,))).passes


def _outcome_by_name(verdict, dataset):
    """What a verdict decides, with each m_k keyed by its record's name."""
    t = verdict.details["tuple"]
    return (verdict.passed, t["N"], verdict.details.get("non_hyperbolic"),
            dict(zip((r.name for r in dataset.records), t["m"])))


class TestRecordOrder:
    """Permuting a dataset's records changes no verdict: not pass, N,
    non_hyperbolic, nor m of any record."""

    @pytest.mark.parametrize("name, theorem, orders", [
        ("s3_elliptic", "1.5", 4),
        ("s2_elliptic", "1.1", 1),
        ("s2_hyperbolic", "1.8", 1),
    ])
    def test_permuted_records(self, name, theorem, orders):
        ds = load_dataset(os.path.join(DATASETS, name + ".json"))
        want = _outcome_by_name(verify(theorem, ds), ds)
        rng = random.Random(7)
        for _ in range(orders):
            records = list(ds.records)
            while records == list(ds.records):
                rng.shuffle(records)
            permuted = GeodesicDataset(ds.shape, records, ds.bumpy_required)
            assert _outcome_by_name(verify(theorem, permuted), permuted) == want

    @pytest.mark.parametrize("name, theorem", [
        ("s3_elliptic", "1.5"),
        ("s2_elliptic", "1.1"),
        ("s2_hyperbolic", "1.8"),
    ])
    def test_renamed_records(self, name, theorem):
        """Renaming every record changes only the names: the new names sort
        in the reverse order of the old ones, and the last of them holds a
        line break, a quote and a non-ASCII letter, so it prints escaped."""
        ds = load_dataset(os.path.join(DATASETS, name + ".json"))
        passed, N, non_hyp, ms = _outcome_by_name(verify(theorem, ds), ds)
        old = sorted(r.name for r in ds.records)
        new = {o: "r%02d" % (len(old) - i) for i, o in enumerate(old)}
        new[old[0]] += '\n"\u00e9'
        assert sorted(new.values()) == [new[o] for o in reversed(old)]
        renamed = GeodesicDataset(
            ds.shape, [GeodesicRecord(new[r.name], r.path) for r in ds.records], ds.bumpy_required
        )
        verdict = verify(theorem, renamed)
        assert _outcome_by_name(verdict, renamed) == (
            passed, N, None if non_hyp is None else sorted(new[o] for o in non_hyp),
            {new[o]: m for o, m in ms.items()},
        )
        digest(verdict)  # the escaped name prints as json.dumps prints it

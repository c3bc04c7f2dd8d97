"""The value semantics of cijt's record classes: equality within one class,
hashing of the compared fields, frozen fields, repr, the fields kept out of
SelectionProblem's equality, and the one positional constructor that Record
gives every record without an __init__ of its own."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cijt
from cijt.scalars import Exact
from cijt.normal_forms import D, N1, N2, R, SymplecticClass
from cijt.iteration import CohomologyShape, GeodesicDataset, GeodesicRecord, PathClass
from cijt.engine import (
    CheckRecord,
    CijtTuple,
    NonPositiveMeanIndex,
    SelectionProblem,
    VerificationReport,
    VertexSpec,
    find_tuple,
)
from cijt.morse import JumpCensus, ResonanceReport, Verdict
from cijt.record import FrozenRecord
from oracles import SQRT2M1, _bit_angles, path


class SplittingPair(FrozenRecord):
    """A two-field frozen record of the tests' own."""

    _fields = ("plus", "minus")


def _frozen_records():
    """One instance of each frozen record class, built twice: equal, not identical."""
    p = path(1, R(SQRT2M1))
    check = CheckRecord(1, 2, "i(2m+m)", 3, 3)
    vertex = VertexSpec((0,), ((1,),))
    return [
        N1(-1, 1), D(Exact(3)), R(SQRT2M1), N2(Exact(Fraction(1, 3)), True),
        SymplecticClass((R(SQRT2M1), N1(1, 0))), SplittingPair(1, 0), p,
        vertex, check, VerificationReport((check,)),
        CijtTuple(5, (6,), (0,), (1,), 1, vertex, Fraction(1, 100), VerificationReport((check,))),
        CohomologyShape(2, 1), GeodesicRecord("c1", p),
        ResonanceReport(Exact(1), Fraction(1), True),
        JumpCensus(1, 0, 0, 1, 1, {"c1": (4, "+e")}), Verdict("1.1", True, {"n": 1}),
    ]


class TestEquality:
    def test_equal_within_class(self):
        for a, b in zip(_frozen_records(), _frozen_records()):
            assert a is not b and a == b and not a != b

    def test_other_class_is_not_equal(self):
        """Only instances of the very same class compare equal: field values
        alike in another record class or in a tuple do not count."""
        assert SplittingPair(2, 1) != CohomologyShape(2, 1)
        assert R(SQRT2M1) != N2(SQRT2M1, False)
        assert SplittingPair(1, 2).__eq__((1, 2)) is NotImplemented
        assert SplittingPair(1, 2) != (1, 2)

    def test_field_changes_equality(self):
        assert SplittingPair(1, 0) != SplittingPair(0, 1)
        assert path(1, R(SQRT2M1)) != path(2, R(SQRT2M1))

    def test_block_order_is_canonical(self):
        assert SymplecticClass((R(SQRT2M1), N1(1, 0))) == SymplecticClass((N1(1, 0), R(SQRT2M1)))

    def test_block_order_by_kind_then_fields(self):
        """Two blocks of each kind that differ in their fields (the N2 pair
        in its last) come out in one order from every permutation: the
        order of the kind-by-kind key the blocks were once sorted by."""

        def ladder(b):
            if isinstance(b, N1):
                return (0, b.lam, b.b_sign)
            if isinstance(b, D):
                return (1, b.lam)
            if isinstance(b, R):
                return (2, b.theta)
            return (3, b.theta, b.nontrivial)

        blocks = (N2(SQRT2M1, True), R(SQRT2M1), D(Exact(2)), N1(1, -1), N2(SQRT2M1, False),
                  R(Exact(Fraction(1, 3))), D(Exact(-3)), N1(-1, 1))
        want = tuple(sorted(blocks, key=ladder))
        assert [type(b) for b in want] == [N1, N1, D, D, R, R, N2, N2]
        for order in itertools.permutations(blocks):
            assert SymplecticClass(order).blocks == want, order


class TestHash:
    def test_frozen_records_hash_their_fields(self):
        assert hash(SplittingPair(1, 2)) == hash((1, 2))
        assert hash(CohomologyShape(3, 1)) == hash((3, 1))
        assert hash(N1(1, -1)) == hash((1, -1))
        for a, b in zip(_frozen_records(), _frozen_records()):
            if not isinstance(a, (JumpCensus, Verdict)):
                assert hash(a) == hash(b)
        assert len({path(1, R(SQRT2M1)), path(1, R(SQRT2M1)), path(2, R(SQRT2M1))}) == 2

    def test_dict_fields_are_unhashable(self):
        for rec in (JumpCensus(0, 0, 0, 0, 1, {}), Verdict("1.1", True, {})):
            with pytest.raises(TypeError):
                hash(rec)

    def test_mutable_records_are_unhashable(self):
        p = path(1, R(SQRT2M1))
        problem = SelectionProblem((p,), delta=Fraction(1, 100))
        dataset = GeodesicDataset(CohomologyShape(2, 1), (GeodesicRecord("c1", p),))
        for rec in (problem, dataset):
            with pytest.raises(TypeError):
                hash(rec)


class TestFrozen:
    def test_fields_cannot_be_assigned_or_deleted(self):
        for rec in _frozen_records():
            name = rec._fields[0]
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            with pytest.raises(AttributeError):
                rec.not_a_field = 0

    def test_mutable_records_accept_assignment(self):
        p = path(1, R(SQRT2M1))
        problem = SelectionProblem((p,), delta=Fraction(1, 100))
        problem.N_bound = 7
        dataset = GeodesicDataset(CohomologyShape(2, 1), (GeodesicRecord("c1", p),))
        dataset.bumpy_required = False
        assert problem.N_bound == 7 and dataset.bumpy_required is False


class TestRepr:
    def test_field_order(self):
        assert repr(SplittingPair(1, 0)) == "SplittingPair(plus=1, minus=0)"
        assert repr(N1(1, 0)) == "N1(lam=1, b_sign=0)"
        assert repr(N2(Exact(Fraction(1, 3)), True)) == "N2(theta=Exact(1/3), nontrivial=True)"
        assert repr(path(0, D(Exact(2)))) == (
            "PathClass(i1=0, monodromy=SymplecticClass(blocks=(D(lam=Exact(2)),), half_dimension=1))"
        )
        assert repr(CheckRecord(1, 2, "eq", 3, 4)) == (
            "CheckRecord(k=1, m=2, equation='eq', lhs=3, rhs=4)"
        )

    def test_selection_problem_hides_data(self):
        problem = SelectionProblem((path(1, R(SQRT2M1)),), delta=Fraction(1, 100))
        text = repr(problem)
        assert text.startswith(
            "SelectionProblem(paths=(PathClass(i1=1, monodromy=SymplecticClass(blocks="
            "(R(theta=Exact(-1 + 1*sqrt(2))),), half_dimension=1)),), delta=Fraction(1, 100), "
            "m_bar=1, N_bound=100000000, N_multiple_of=1, delta_shrunk=False, "
            "delta_zero_value=Exact(3236/15625)"
        )
        assert "data=" not in text and "_PathData" not in text

    def test_non_positive_mean_index_message(self):
        with pytest.raises(NonPositiveMeanIndex) as info:
            SelectionProblem((path(0, D(Exact(2))),))
        assert str(info.value) == (
            "path PathClass(i1=0, monodromy=SymplecticClass(blocks=(D(lam=Exact(2)),), "
            "half_dimension=1)) has mean index <= 0"
        )


def _plain_records():
    """One instance of each record that Record.__init__ builds, with its
    values in field order and its repr."""
    p = path(1, D(Exact(2)))
    vertex = VertexSpec((0,), ((1,),))
    shown = "PathClass(i1=1, monodromy=SymplecticClass(blocks=(D(lam=Exact(2)),), half_dimension=1))"
    return [
        (PathClass, (1, p.monodromy), shown),
        (GeodesicRecord, ("c1", p), "GeodesicRecord(name='c1', path=%s)" % shown),
        (VertexSpec, ((0,), ((1,),)), "VertexSpec(chi=(0,), angle_bits=((1,),))"),
        (CijtTuple, (5, (6,), (0,), (1,), 1, vertex, Fraction(1, 100), None),
         "CijtTuple(N=5, m=(6,), chi=(0,), Delta=(1,), M_bar=1, vertex=VertexSpec(chi=(0,), "
         "angle_bits=((1,),)), delta=Fraction(1, 100), report=None)"),
        (ResonanceReport, (Exact(1), Fraction(1), True),
         "ResonanceReport(lhs=Exact(1), rhs=Fraction(1, 1), passes=True)"),
        (JumpCensus, (1, 0, 0, 1, 1, {"c1": (4, "+e")}),
         "JumpCensus(plus_e=1, plus_o=0, minus_e=0, minus_o=1, margin=1, "
         "classification={'c1': (4, '+e')})"),
        (Verdict, ("1.1", True, {"n": 1}), "Verdict(theorem='1.1', passed=True, details={'n': 1})"),
    ]


class TestSharedConstructor:
    def test_fields_in_order(self):
        for cls, values, shown in _plain_records():
            rec = cls(*values)
            assert "__init__" not in vars(cls)
            assert tuple(getattr(rec, f) for f in rec._fields) == values
            assert repr(rec) == shown

    def test_wrong_count_names_the_class(self):
        for cls, values, _ in _plain_records():
            least = len(values) - len(cls._defaults)
            for wrong in (values[:least - 1], values + (0,)):
                with pytest.raises(TypeError, match="^%s takes " % cls.__name__):
                    cls(*wrong)
        with pytest.raises(TypeError) as info:
            VertexSpec((0,))
        assert str(info.value) == "VertexSpec takes 2 values, not 1"
        with pytest.raises(TypeError) as info:
            CijtTuple(1, (1,))
        assert str(info.value) == "CijtTuple takes 7 to 8 values, not 2"

    def test_cijt_tuple_report_defaults_to_none(self):
        vertex = VertexSpec((0,), ((1,),))
        t = CijtTuple(5, (6,), (0,), (1,), 1, vertex, Fraction(1, 100))
        assert t.report is None
        assert t == CijtTuple(5, (6,), (0,), (1,), 1, vertex, Fraction(1, 100), None)

    def test_keywords_are_refused(self):
        for cls, values, _ in _plain_records():
            with pytest.raises(TypeError):
                cls(**dict(zip(cls._fields, values)))
            with pytest.raises(TypeError):
                cls(*values[:-1], **{cls._fields[-1]: values[-1]})


class TestSelectionProblem:
    def test_derived_fields_stay_out_of_equality(self):
        paths = (path(1, R(SQRT2M1)),)
        a = SelectionProblem(paths, delta=Fraction(1, 100))
        b = SelectionProblem(paths, delta=Fraction(1, 100))
        assert a == b and a.period == 1 and len(a.data) == 1
        b.period, b.data = 7, ()
        assert a == b
        b.delta_shrunk = True
        assert a != b

    def test_defaults(self):
        paths = (path(1, R(SQRT2M1)),)
        problem = SelectionProblem(paths)
        assert (problem.delta, problem.m_bar, problem.N_bound, problem.N_multiple_of) == (
            Fraction(1, 200), 1, 10**8, 1
        )
        assert problem.delta_shrunk is False
        assert problem.delta_zero_value == Fraction(3236, 15625)
        shrunk = SelectionProblem(paths, delta=Fraction(1, 4))
        assert shrunk.delta_shrunk is True and shrunk.delta == shrunk.delta_zero_value / 2
        for name in ("delta_shrunk", "delta_zero_value", "period", "data"):
            with pytest.raises(TypeError):
                SelectionProblem(paths, **{name: 1})

    def test_keyword_construction(self):
        paths = (path(1, R(SQRT2M1)),)
        a = SelectionProblem(paths, Fraction(1, 100), 1, 500, 2)
        b = SelectionProblem(
            paths=list(paths), delta=Fraction(1, 100), m_bar=1, N_bound=500, N_multiple_of=2
        )
        assert a == b and b.paths == paths
        t = find_tuple(a)
        assert t == find_tuple(b) and t.N % 2 == 0


class TestPathClassCache:
    def test_cached_properties(self):
        p = path(1, R(SQRT2M1), N1(1, 1))
        fresh = path(1, R(SQRT2M1), N1(1, 1))
        mean = p.mean
        assert p.mean is mean and mean == Exact(1) + SQRT2M1
        assert p.spectral is p.spectral and p.spectral[0] == 1
        assert _bit_angles(p) == (SQRT2M1,)
        assert {"mean", "spectral"} <= set(vars(p))
        assert p == fresh and hash(p) == hash(fresh)
        assert repr(p) == repr(fresh)


def test_import_loads_no_dataclasses():
    """Importing the CLI builds every record class without ``dataclasses``
    and so without ``inspect``, which it would import."""
    code = "import sys, cijt.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cijt.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"

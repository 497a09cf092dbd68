"""The seven record classes are ``typing.NamedTuple``s: immutable, with a
positional and keyword constructor, and equal to and hashed as the tuple
of their fields, with the repr a frozen dataclass of the same fields has.

The dataclass twin of each class (``make_dataclass`` over the same fields)
is the oracle for the repr and the hash; the package itself does not
import ``dataclasses``. The literal RatioParams repr is pinned in
test_ratio.py.
"""

from dataclasses import make_dataclass

import pytest

from hookratio import (
    STATUS_FAILS,
    STATUS_INTEGRAL,
    STATUS_UNKNOWN,
    FTable,
    LittlewoodDecomposition,
    PeriodSets,
    RatioParams,
    SumsetReport,
    Verdict,
    Witness,
    build_ftable,
    decide,
    decompose,
    parse_partition,
    period_sets,
    sumset,
)

EXCEPTION = RatioParams((1,), (2, 2))
FAILING = RatioParams((2,), (3, 6))


def _samples():
    failing = decide(FAILING, 12)
    return [
        FAILING,
        build_ftable(RatioParams((30, 1), (2, 3, 5))),
        decompose(parse_partition("18,7,6"), 3),
        period_sets(EXCEPTION),
        sumset({0, 1}, {0, 2}, 5),
        failing.witness,
        failing,
    ]


SAMPLES = _samples()
IDS = [type(obj).__name__ for obj in SAMPLES]


def fields(obj):
    return {name: getattr(obj, name) for name in type(obj).__match_args__}


def test_the_samples_cover_the_seven_classes():
    assert {type(obj) for obj in SAMPLES} == {
        RatioParams, FTable, LittlewoodDecomposition, PeriodSets,
        SumsetReport, Witness, Verdict,
    }
    assert SAMPLES[-1].status == STATUS_FAILS


@pytest.mark.parametrize("obj", SAMPLES, ids=IDS)
class TestRecordSemantics:
    def test_assignment_and_deletion_raise(self, obj):
        name = type(obj).__match_args__[0]
        before = fields(obj)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            obj.not_a_field = None
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert fields(obj) == before and not hasattr(obj, "not_a_field")

    def test_equal_fields_give_equal_objects_and_hashes(self, obj):
        cls = type(obj)
        by_keyword = cls(**fields(obj))
        by_position = cls(*fields(obj).values())
        assert by_keyword == obj == by_position and by_keyword is not obj
        assert hash(by_keyword) == hash(obj) == hash(by_position)
        assert not (by_keyword != obj)

    def test_equal_to_the_tuple_of_its_fields(self, obj):
        values = tuple(fields(obj).values())
        assert obj == values and values == obj
        assert hash(obj) == hash(values)

    def test_repr_and_hash_match_the_dataclass(self, obj):
        cls = type(obj)
        twin = make_dataclass(
            cls.__name__, list(cls.__match_args__), frozen=True
        )(**fields(obj))
        assert repr(obj) == repr(twin)
        assert hash(obj) == hash(twin)

    def test_match_args(self, obj):
        cls = type(obj)
        match obj:
            case cls(first, second):
                assert (first, second) == tuple(fields(obj).values())[:2]
            case _:
                pytest.fail("positional match failed")


def test_verdict_defaults_and_repr():
    verdict = Verdict(EXCEPTION, STATUS_INTEGRAL)
    assert (verdict.witness, verdict.bound, verdict.valuation_at_p) == (None,) * 3
    assert verdict == decide(EXCEPTION, 0)
    assert repr(verdict) == (
        "Verdict(params=RatioParams(gammas=(1,), deltas=(2, 2)), "
        "status='Integral-Certified', witness=None, bound=None, "
        "valuation_at_p=None)"
    )
    unknown = Verdict(status=STATUS_UNKNOWN, bound=7, params=EXCEPTION)
    assert (unknown.bound, unknown.witness) == (7, None)
    assert Verdict(EXCEPTION, STATUS_UNKNOWN, None, 7) == unknown


def test_constructor_rejects_bad_arguments():
    with pytest.raises(TypeError, match="missing"):
        RatioParams((1,))
    with pytest.raises(TypeError, match="missing"):
        Verdict(params=EXCEPTION)
    with pytest.raises(TypeError, match="positional"):
        RatioParams((1,), (2, 2), ())
    with pytest.raises(TypeError, match="unexpected keyword"):
        RatioParams((1,), (2, 2), height=1)
    with pytest.raises(TypeError, match="multiple values"):
        RatioParams((1,), gammas=(1,))


def test_post_init_runs_on_keyword_construction():
    params = RatioParams(deltas=[2, 2], gammas=[1])
    assert params == EXCEPTION and params.is_balanced
    with pytest.raises(ValueError, match="disjoint"):
        RatioParams(gammas=(2,), deltas=(2, 4))

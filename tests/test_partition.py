import operator
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookratio import (
    Partition,
    construct_hook_partition,
    dimension,
    enumerate_partitions,
    format_partition,
    hook_length,
    hook_multiset,
    parse_partition,
    render_hook_diagram,
    restricted_hooks,
)
from hookratio.partition import MAX_SIZE_ENV_VAR

from conftest import oracle_hooks, oracle_partition_count, syt_count

partition_strategy = st.lists(st.integers(1, 12), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestPartitionType:
    def test_valid_construction(self):
        assert Partition((3, 2, 2)).parts == (3, 2, 2)
        assert Partition().parts == ()
        assert Partition((5,)).size == 5

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    @pytest.mark.parametrize("bad", [(0,), (-1,), (3, 0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Partition(bad)

    def test_immutable_and_hashable(self):
        lam = Partition((2, 1))
        with pytest.raises(AttributeError):
            lam.parts = (3,)
        assert lam == Partition((2, 1))
        assert hash(lam) == hash(Partition((2, 1)))
        assert Partition((2, 1)) < Partition((3,))

    @pytest.mark.parametrize("other", [3, None])
    @pytest.mark.parametrize(
        "compare", [operator.lt, operator.le, operator.gt, operator.ge]
    )
    def test_order_against_a_non_partition_raises_type_error(self, compare, other):
        with pytest.raises(TypeError):
            compare(Partition((2,)), other)

    def test_immutable_when_built_from_runs(self):
        lam = Partition.from_runs([(2, 1), (1, 1)])
        with pytest.raises(AttributeError):
            lam.parts = (3,)
        with pytest.raises(AttributeError):
            lam.size = 4

    def test_iterates_its_rows_and_prints_its_literal(self):
        lam = Partition.from_runs([(3, 2), (1, 1)])
        assert list(lam) == [3, 3, 1]
        assert str(lam) == "3,3,1"
        assert list(Partition()) == [] and str(Partition()) == ""

    def test_conjugate(self):
        assert Partition((5, 2)).conjugate() == Partition((2, 2, 1, 1, 1))
        assert Partition().conjugate() == Partition()
        assert Partition((3, 1)).conjugate().conjugate() == Partition((3, 1))


def rows_to_runs(parts):
    runs = []
    for v in parts:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return [tuple(r) for r in runs]


class TestRuns:
    @pytest.mark.parametrize(
        "runs",
        [
            [(2, 1), (3, 1)],  # increasing values
            [(3, 1), (3, 2)],  # equal adjacent values
            [(3, 0)],  # multiplicity below 1
            [(3, 2), (1, -1)],
            [(0, 2)],  # value below 1
            [(2, 1), (-1, 1)],
        ],
    )
    def test_from_runs_rejects(self, runs):
        with pytest.raises(ValueError):
            Partition.from_runs(runs)

    def test_runs_view(self):
        assert Partition((5, 5, 3, 1, 1, 1)).runs == ((5, 2), (3, 1), (1, 3))
        assert Partition().runs == ()
        assert Partition.from_runs([]) == Partition()

    def test_every_partition_holds_its_runs(self):
        # the runs sit in a slot on every partition; reading the order,
        # hash or literal of a run-built shape never fills its rows, and
        # neither does parsing a literal
        assert Partition.__slots__ == ("runs", "parts")
        for lam in (
            Partition((5, 5, 3, 1, 1, 1)),
            Partition.from_runs([(5, 2), (3, 1), (1, 3)]),
        ):
            assert Partition.runs.__get__(lam) == ((5, 2), (3, 1), (1, 3))
            assert not hasattr(lam, "__dict__")
        lam = Partition.from_runs([(5, 2), (3, 1), (1, 3)])
        hash(lam), lam == Partition((5, 5, 3, 1, 1, 1)), lam < Partition((6,))
        assert format_partition(lam) == "5,5,3,1,1,1"
        with pytest.raises(AttributeError):
            Partition.parts.__get__(lam)
        lam = parse_partition("66^55")
        assert lam.runs == ((66, 55),)
        with pytest.raises(AttributeError):
            Partition.parts.__get__(lam)
        assert lam.parts == (66,) * 55

    def test_first(self):
        assert Partition((4, 1)).first == 4 and Partition().first == 0
        assert Partition.from_runs([(7, 10**9)]).first == 7
        assert Partition.from_runs([]).first == 0

    def test_parts_filled_on_first_read_only(self):
        lam = Partition.from_runs([(4, 2), (1, 3)])
        with pytest.raises(AttributeError):
            Partition.parts.__get__(lam)
        assert (lam.size, len(lam), bool(lam)) == (11, 5, True)
        assert format_partition(lam) == "4,4,1,1,1"
        assert hash(lam) == hash(Partition((4, 4, 1, 1, 1)))
        with pytest.raises(AttributeError):
            Partition.parts.__get__(lam)
        assert lam.parts == (4, 4, 1, 1, 1)
        assert Partition.parts.__get__(lam) is lam.parts

    def test_repr_reads_runs(self, partitions_by_size):
        assert repr(Partition()) == "Partition()"
        assert repr(Partition((5, 5, 3))) == "Partition.from_runs(((5, 2), (3, 1)))"
        for n in range(9):
            for lam in partitions_by_size[n]:
                for built in (lam, Partition.from_runs(lam.runs)):
                    assert eval(repr(built)) == lam
        lam = Partition.from_runs([(10**12, 10**12)])
        assert len(repr(lam)) < 60 and eval(repr(lam)) == lam
        with pytest.raises(AttributeError):
            Partition.parts.__get__(lam)

    def test_huge_run_is_never_expanded(self):
        lam = Partition.from_runs([(10**12, 10**12)])
        assert (lam.size, len(lam)) == (10**24, 10**12)
        assert format_partition(lam) == f"{10**12}^{10**12}"
        assert lam == Partition.from_runs([(10**12, 10**12)])
        assert lam != Partition.from_runs([(10**12, 10**12 - 1)])

    def test_run_and_row_built_agree(self, partitions_by_size):
        import pickle

        shapes = [lam for n in range(9) for lam in partitions_by_size[n]]
        assert len(shapes) == 67
        assert sorted(shapes) == sorted(shapes, key=lambda lam: lam.parts)
        for lam in shapes:
            runs = Partition.from_runs(rows_to_runs(lam.parts))
            rows = Partition(lam.parts)
            assert runs == rows and rows == runs and hash(runs) == hash(rows)
            assert (len(runs), runs.size, bool(runs)) == (len(rows), rows.size, bool(rows))
            assert format_partition(runs) == format_partition(rows)
            for other in shapes:
                fresh = Partition.from_runs(rows_to_runs(other.parts))
                assert (fresh < runs) == (other < rows) == (other.parts < lam.parts)
                assert (fresh <= runs) == (other <= rows) == (other.parts <= lam.parts)
                assert (fresh == runs) == (other == rows) == (other.parts == lam.parts)
                assert (hash(fresh) == hash(runs)) == (other.parts == lam.parts)
            for built in (runs, rows):
                back = pickle.loads(pickle.dumps(built))
                assert back == lam and back.parts == lam.parts


class TestParseFormat:
    def test_plain_literal(self):
        assert parse_partition("18,7,6") == Partition((18, 7, 6))

    def test_exponent_literal(self):
        lam = parse_partition("66^55")
        assert lam.parts == (66,) * 55

    def test_empty(self):
        assert parse_partition("") == Partition()
        assert parse_partition("   ") == Partition()

    def test_whitespace_and_order(self):
        assert parse_partition(" 6 , 18 , 7 ") == Partition((18, 7, 6))
        assert parse_partition("1,3^2") == Partition((3, 3, 1))

    @pytest.mark.parametrize("bad", ["0", "-3", "x", "3^0", "3^", "3^^2", ",", "2,,3"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)

    def test_format_compresses_long_runs(self):
        assert format_partition(Partition((3, 1, 1, 1, 1))) == "3,1^4"
        assert format_partition(Partition((2, 2, 2))) == "2,2,2"
        assert format_partition(Partition((66,) * 55)) == "66^55"
        assert format_partition(Partition()) == ""

    @given(partition_strategy)
    @settings(max_examples=60)
    def test_roundtrip(self, lam):
        assert parse_partition(format_partition(lam)) == lam


class TestHooks:
    def test_corner_hook_of_5_2(self):
        assert hook_length(Partition((5, 2)), (0, 0)) == 6

    def test_single_box(self):
        assert hook_length(Partition((1,)), (0, 0)) == 1

    def test_cell_0_6_of_18_7_6(self):
        # arm 11 plus leg 1 plus 1; cross-checked against the literal
        # box-counting oracle below
        lam = Partition((18, 7, 6))
        assert hook_length(lam, (0, 6)) == 13
        assert sorted(hook_multiset(lam).elements()) == oracle_hooks(lam.parts)

    def test_cell_outside_diagram(self):
        with pytest.raises(ValueError):
            hook_length(Partition((2, 1)), (0, 2))
        with pytest.raises(ValueError):
            hook_length(Partition((2, 1)), (2, 0))

    def test_multiset_5_2(self):
        assert hook_multiset(Partition((5, 2))) == Counter(
            {6: 1, 5: 1, 3: 1, 2: 2, 1: 2}
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_one_row_multiset(self, n):
        assert hook_multiset(Partition((n,))) == Counter(range(1, n + 1))

    def test_rectangle_6_by_5_rows(self):
        lam = Partition((6,) * 5)
        for i in range(5):
            row = [hook_length(lam, (i, j)) for j in range(6)]
            assert row == list(range(10 - i, 4 - i, -1))

    def test_cardinality_and_conjugation_invariance(self):
        for n in range(16):
            for lam in enumerate_partitions(n):
                hooks = hook_multiset(lam)
                assert sum(hooks.values()) == lam.size == n
                assert hooks == hook_multiset(lam.conjugate())

    def test_against_box_counting_oracle(self, partitions_by_size):
        for n in range(10):
            for lam in partitions_by_size[n]:
                assert sorted(hook_multiset(lam).elements()) == oracle_hooks(lam.parts)


class TestRestrictedHooks:
    def test_rectangle_cardinality(self):
        assert sum(restricted_hooks(Partition((6,) * 5), 2).values()) == 15

    def test_r_one_is_identity(self):
        for n in range(16):
            for lam in enumerate_partitions(n):
                assert restricted_hooks(lam, 1) == hook_multiset(lam)

    def test_18_7_6_at_3(self):
        assert restricted_hooks(Partition((18, 7, 6)), 3) == Counter(
            {6: 1, 5: 1, 3: 1, 2: 3, 1: 3}
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            restricted_hooks(Partition((2,)), 0)


class TestHookPartition:
    def test_paper_shape(self):
        assert construct_hook_partition(15, 24) == parse_partition("16,1^24")

    def test_degenerate(self):
        assert construct_hook_partition(0, 0) == Partition((1,))

    def test_3_1(self):
        lam = construct_hook_partition(2, 1)
        assert lam == Partition((3, 1))
        assert hook_multiset(lam) == Counter({4: 1, 2: 1, 1: 2})

    @pytest.mark.parametrize("arm,leg", [(0, 5), (4, 0), (3, 7), (6, 6)])
    def test_hook_multiset_shape(self, arm, leg):
        expected = Counter(range(1, arm + 1)) + Counter(range(1, leg + 1))
        expected[arm + leg + 1] += 1
        assert hook_multiset(construct_hook_partition(arm, leg)) == expected

    def test_matches_row_built_shape(self):
        # built from its runs; equal in every respect to the shape built
        # from its rows, also with no arm or no leg
        for arm in range(9):
            for leg in range(9):
                lam = construct_hook_partition(arm, leg)
                rows = Partition((1 + arm,) + (1,) * leg)
                assert lam == rows and hash(lam) == hash(rows), (arm, leg)
                assert lam.runs == rows.runs, (arm, leg)
                assert lam.parts == rows.parts, (arm, leg)
                assert (lam.size, len(lam)) == (rows.size, len(rows)), (arm, leg)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            construct_hook_partition(-1, 0)
        with pytest.raises(ValueError):
            construct_hook_partition(0, -1)


class TestDimension:
    def test_small_goldens(self):
        assert dimension(Partition((2, 1))) == 2
        assert dimension(Partition((2, 2))) == 2
        assert dimension(Partition()) == 1

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_one_row(self, n):
        assert dimension(Partition((n,))) == 1

    def test_against_tableau_enumeration(self, partitions_by_size):
        for n in range(9):
            for lam in partitions_by_size[n]:
                assert dimension(lam) == syt_count(lam.parts)


class TestEnumeration:
    def test_zero(self):
        assert list(enumerate_partitions(0)) == [Partition()]

    def test_four(self):
        assert [lam.parts for lam in enumerate_partitions(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_counts_against_recurrence(self):
        for n in range(13):
            assert len(list(enumerate_partitions(n))) == oracle_partition_count(n)

    def test_order_and_uniqueness(self):
        for n in (6, 9):
            seen = [lam.parts for lam in enumerate_partitions(n)]
            assert seen == sorted(set(seen), reverse=True)
            assert all(sum(p) == n for p in seen)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_default_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(41))

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_SIZE_ENV_VAR, "5")
        with pytest.raises(ValueError):
            list(enumerate_partitions(6))
        assert len(list(enumerate_partitions(5))) == 7


class TestDiagramRendering:
    def test_5_2(self):
        assert render_hook_diagram(Partition((5, 2))) == "6 5 3 2 1\n2 1"

    def test_padding_for_two_digit_hooks(self):
        lines = render_hook_diagram(Partition((18, 7, 6))).splitlines()
        assert len(lines) == 3
        assert lines[0].split() == [
            "20", "19", "18", "17", "16", "15", "13",
            "11", "10", "9", "8", "7", "6", "5", "4", "3", "2", "1",
        ]

    def test_empty(self):
        assert render_hook_diagram(Partition()) == ""

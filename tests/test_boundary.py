from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from hookratio import (
    BoundarySequence,
    Partition,
    from_boundary,
    hook_multiset,
    to_boundary,
)

from conftest import boundary_hook_pairs

partition_strategy = st.lists(st.integers(1, 10), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_18_7_6_golden():
    b = to_boundary(Partition((18, 7, 6)))
    assert [i for i in b.zero_positions() if i >= 0] == [3, 5, 17]
    assert b.render() == "...0111|1110101111111111101..."
    assert b.is_centered()


def test_empty_partition_has_no_deviations():
    b = to_boundary(Partition())
    assert b.window == ()
    assert b.offset == 0
    assert b.render() == "...0|1..."


def test_single_row_2():
    assert to_boundary(Partition((2,))).render() == "...01|101..."


def test_value_tails():
    b = to_boundary(Partition((2,)))
    assert b.value(-100) == 0
    assert b.value(100) == 1


def test_rejects_non_binary_window():
    with pytest.raises(ValueError):
        BoundarySequence((0, 2, 1))


def test_trimming_makes_equal_sequences_equal():
    assert BoundarySequence((0, 1, 1), -1) == BoundarySequence((), 0)
    assert BoundarySequence((0, 1, 0, 1, 1), -2) == BoundarySequence((1, 0), -1)


def test_charge_of_pure_shifts():
    for c in range(-3, 4):
        assert BoundarySequence((), c).charge() == c


def charge_by_definition(b, lo, hi):
    # zeros at indices >= 0 minus ones at indices < 0, over [lo, hi)
    return sum(
        (b.value(i) == 0 and i >= 0) - (b.value(i) == 1 and i < 0)
        for i in range(lo, hi)
    )


@given(st.lists(st.integers(0, 1), max_size=12), st.integers(-20, 20))
@example([1, 0, 1, 0], 5)  # the window starts above 0
@example([0, 1, 0, 1], -9)  # the window ends below 0
@settings(max_examples=200)
def test_charge_matches_definition(window, offset):
    b = BoundarySequence(window, offset)
    # every index that can count lies within [min(offset, 0), max(end, 0))
    lo = min(offset, 0) - 3
    hi = max(offset + len(window), 0) + 3
    assert b.charge() == charge_by_definition(b, lo, hi)


def test_roundtrip_all_small():
    from hookratio import enumerate_partitions

    for n in range(16):
        for lam in enumerate_partitions(n):
            b = to_boundary(lam)
            assert b.is_centered()
            assert from_boundary(b) == lam


def test_shift_invariance_of_shape():
    lam = Partition((4, 2, 1))
    b = to_boundary(lam)
    for t in range(-3, 4):
        shifted = b.shifted(t)
        assert from_boundary(shifted) == lam
        assert shifted.charge() == t
        assert shifted.recentered() == b


def test_hook_boundary_duality(partitions_by_size):
    # the multiset {j - i : 1 at i, 0 at j, i < j} is the hook multiset
    for n in range(13):
        for lam in partitions_by_size[n]:
            assert boundary_hook_pairs(to_boundary(lam)) == hook_multiset(lam)


@given(partition_strategy)
@settings(max_examples=80)
def test_roundtrip_random(lam):
    assert from_boundary(to_boundary(lam)) == lam


@given(partition_strategy, st.integers(-4, 4))
@settings(max_examples=80)
def test_recentering_random(lam, t):
    shifted = to_boundary(lam).shifted(t)
    assert shifted.recentered().is_centered()
    assert from_boundary(shifted) == lam

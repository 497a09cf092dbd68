import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hookratio.ratio as ratio_module
from hookratio import (
    InvariantError,
    RatioParams,
    bober_families,
    build_ftable,
    check_size_bound,
    f_value,
    g_value,
    landau_one_row_check,
    phi_bijection,
)
from hookratio.primes import factorize

from conftest import (
    WITNESS_LADDER,
    oracle_ftable,
    random_balanced_pairs,
    stretched,
)

CHEBYSHEV = RatioParams((30, 1), (2, 3, 5))
PAPER_ROW = (
    0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1,
    0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1,
)


class TestRatioParams:
    def test_basic_fields(self):
        p = CHEBYSHEV
        assert (p.K, p.L, p.height, p.modulus) == (2, 3, 1, 30)
        assert p.is_balanced

    def test_unbalanced(self):
        assert not RatioParams((2,), (3,)).is_balanced
        assert not RatioParams((6, 10, 15), (2, 3, 5)).is_balanced

    def test_rejects_shared_entries(self):
        with pytest.raises(ValueError):
            RatioParams((2, 3), (3, 4))

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            RatioParams((), (2,))
        with pytest.raises(ValueError):
            RatioParams((1,), ())
        with pytest.raises(ValueError):
            RatioParams((0,), (2,))

    def test_normalized_cancels_common_entries(self):
        p = RatioParams.normalized((1, 4), (2, 2, 4))
        assert (p.gammas, p.deltas) == ((1,), (2, 2))
        q = RatioParams.normalized((3, 6, 6), (6, 9))
        assert (q.gammas, q.deltas) == ((3, 6), (9,))

    def test_repeated_entries_on_one_side_allowed(self):
        p = RatioParams((1,), (2, 2))
        assert p.is_balanced and p.height == 1

    def test_balance_is_computed_once(self, monkeypatch):
        balanced, unbalanced = CHEBYSHEV, RatioParams((2,), (3,))

        def no_fractions(*args):
            raise AssertionError("is_balanced rebuilt its reciprocal sums")

        monkeypatch.setattr(ratio_module, "Fraction", no_fractions)
        assert balanced.is_balanced and not unbalanced.is_balanced

    def test_balance_takes_no_part_in_equality_or_repr(self):
        p, q = RatioParams((2, 3), (4, 4, 6, 6)), RatioParams((2, 3), (4, 4, 6, 6))
        assert p == q and hash(p) == hash(q)
        assert repr(p) == "RatioParams(gammas=(2, 3), deltas=(4, 4, 6, 6))"


class TestStepFunction:
    def test_paper_row(self):
        assert tuple(f_value(x, CHEBYSHEV) for x in range(30)) == PAPER_ROW

    def test_zero(self):
        assert f_value(0, CHEBYSHEV) == 0

    def test_parity_params(self):
        p = RatioParams((1,), (2, 2))
        assert [f_value(x, p) for x in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_g_at_6(self):
        assert g_value(6, CHEBYSHEV) == -1

    def test_g_at_1(self):
        assert g_value(1, RatioParams((1,), (2, 2))) == 1

    def test_g_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            g_value(0, CHEBYSHEV)

    def test_prefix_sums_reproduce_f(self, balanced_grid):
        rng = random.Random(2024)
        for params in rng.sample(balanced_grid, 25):
            m = params.modulus
            acc = 0
            for x in range(1, 2 * m + 1):
                acc += g_value(x, params)
                assert acc == f_value(x, params)


class TestFTable:
    def test_chebyshev_table(self):
        table = build_ftable(CHEBYSHEV)
        assert table.M == 30 and table.period == 30
        assert table.values == PAPER_ROW
        assert (table.min, table.max) == (0, 1)

    def test_parity_table(self):
        table = build_ftable(RatioParams((1,), (2, 2)))
        assert (table.M, table.period, table.values) == (2, 2, (0, 1))

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            build_ftable(RatioParams((2,), (3,)))

    def test_period_is_minimal(self, balanced_grid):
        for params in balanced_grid:
            table = build_ftable(params)
            assert table.M % table.period == 0
            for d in range(1, table.period):
                if table.period % d == 0:
                    assert any(
                        table.values[x] != table.values[x % d]
                        for x in range(table.M)
                    )

    def test_period_matches_scan_of_every_divisor(self, balanced_grid, survey_grid):
        # the period from the divisors of factorize(M) is the first period
        # found by trying every d in 1..M that divides M
        for params in balanced_grid + survey_grid:
            table = build_ftable(params)
            M = table.M
            scanned = next(
                d for d in range(1, M + 1)
                if M % d == 0
                and all(table.values[x] == table.values[x % d] for x in range(M))
            )
            assert table.period == scanned, params

    @staticmethod
    def _assert_matches_oracle(pairs):
        for params in pairs:
            table = build_ftable(params)
            assert (table.values, table.period) == oracle_ftable(params), params
        return len(pairs)

    def test_matches_per_x_oracle_on_grid_and_survey(
        self, balanced_grid, survey_grid
    ):
        assert self._assert_matches_oracle(balanced_grid) == 166
        assert self._assert_matches_oracle(survey_grid) == 850

    def test_matches_per_x_oracle_on_witness_ladder(self):
        assert self._assert_matches_oracle(WITNESS_LADDER) == 5

    def test_matches_per_x_oracle_on_random_pairs(self):
        pairs = random_balanced_pairs(random.Random(12), 12, 100_000)
        assert max(params.modulus for params in pairs) > 50_000
        assert self._assert_matches_oracle(pairs) == 12
        # disjoint vectors have no period below the lcm
        assert all(build_ftable(p).period == p.modulus for p in pairs)

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 12])
    def test_period_below_the_window_matches_oracle(self, k, balanced_grid):
        # a window of k periods: the descent must strip every prime of k,
        # and no more; uncached, so that no stretched table is memoised
        for params in (stretched(p, k) for p in balanced_grid[::8]):
            table = build_ftable.__wrapped__(params)
            assert (table.values, table.period) == oracle_ftable(params), params
            assert table.period * k == table.M

    @staticmethod
    def _corrupt_first_gamma(monkeypatch, params, offsets):
        # the column pass of the first gamma adds offsets[x] at x
        first = params.gammas[0]

        def patched(x, r):
            return x // r + (offsets.get(x, 0) if r == first else 0)

        monkeypatch.setattr(ratio_module, "floordiv", patched)

    def test_reflection_check_catches_a_corrupted_table(self, monkeypatch):
        self._corrupt_first_gamma(monkeypatch, CHEBYSHEV, {1: 1})
        with pytest.raises(InvariantError, match="reflection identity"):
            build_ftable.__wrapped__(CHEBYSHEV)

    def test_corner_check_catches_a_corrupted_table(self, monkeypatch):
        # f(0) - 1 and f(M - 1) + 1 keep every reflected pair summing to
        # L - K, so only the corner check can see it
        self._corrupt_first_gamma(monkeypatch, CHEBYSHEV, {0: -1, 29: 1})
        with pytest.raises(InvariantError, match=r"f\(P - 1\) != L - K"):
            build_ftable.__wrapped__(CHEBYSHEV)

    @pytest.mark.parametrize("memo", [build_ftable, factorize])
    def test_memo_is_bounded(self, memo):
        # bounded, and still large enough for all 850 survey pairs
        assert 850 <= memo.cache_info().maxsize < float("inf")

    def test_json_schema(self):
        payload = build_ftable(CHEBYSHEV).to_json_dict()
        assert sorted(payload) == ["M", "P", "max", "min", "values"]
        assert payload["values"] == list(PAPER_ROW)


class TestPProperties:
    def test_periodicity_over_three_windows(self, balanced_grid):
        for params in balanced_grid:
            table = build_ftable(params)
            m = table.M
            for x in range(2 * m):
                assert f_value(x + m, params) == f_value(x, params)

    def test_reflection_and_corner(self, balanced_grid):
        for params in balanced_grid:
            table = build_ftable(params)
            h = params.height
            for x in range(table.M):
                assert table.values[x] + table.values[table.M - 1 - x] == h
            assert table.values[table.period - 1] == h

    def test_range_bound_when_one_row_passes(self, balanced_grid):
        for params in balanced_grid:
            if landau_one_row_check(params):
                table = build_ftable(params)
                assert 0 <= table.min and table.max <= params.height


class TestLandauCheck:
    def test_chebyshev_passes(self):
        assert landau_one_row_check(CHEBYSHEV)

    def test_parity_passes(self):
        assert landau_one_row_check(RatioParams((1,), (2, 2)))

    def test_swapped_chebyshev_fails(self):
        swapped = RatioParams((2, 3, 5), (1, 30))
        assert swapped.is_balanced
        assert not landau_one_row_check(swapped)
        assert f_value(1, swapped) == -1

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            landau_one_row_check(RatioParams((2,), (3,)))


class TestPhi:
    def test_sporadic_example(self):
        image = phi_bijection(RatioParams((30, 1), (15, 10, 6)))
        assert (image.gammas, image.deltas) == ((1, 30), (2, 3, 5))

    def test_smallest_example(self):
        image = phi_bijection(RatioParams((2,), (1, 1)))
        assert (image.gammas, image.deltas) == ((1,), (2, 2))

    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
    )
    @settings(max_examples=150)
    def test_involution_on_gcd_one_inputs(self, gammas, deltas):
        if set(gammas) & set(deltas):
            return
        if gcd(*gammas, *deltas) != 1:
            return
        params = RatioParams(tuple(gammas), tuple(deltas))
        assert phi_bijection(phi_bijection(params)) == params

    def test_carries_balance_across(self):
        # sum balanced on one side, reciprocal balanced on the other
        params = RatioParams((30, 1), (15, 10, 6))
        assert sum(params.gammas) == sum(params.deltas)
        assert phi_bijection(params).is_balanced


class TestBoberFamilies:
    def test_1_1(self):
        fams = bober_families(1, 1)
        assert fams == [((2,), (1, 1)), ((2, 2), (1, 1, 2))]

    def test_2_1(self):
        fams = bober_families(2, 1)
        assert ((4, 1), (2, 2, 1)) in fams
        assert ((4, 2), (2, 1, 3)) in fams
        assert fams[0] == ((3,), (2, 1))

    def test_family_two_needs_x_greater(self):
        assert len(bober_families(1, 2)) == 2
        assert len(bober_families(3, 2)) == 3

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            bober_families(2, 4)

    def test_sum_balance_and_gcd(self):
        for x in range(1, 7):
            for y in range(1, 7):
                if gcd(x, y) != 1:
                    continue
                for alpha, beta in bober_families(x, y):
                    assert sum(alpha) == sum(beta)
                    assert gcd(*alpha, *beta) == 1

    def test_images_pass_one_row_check(self):
        # every valid instance maps to a one-row integral parameter pair
        for x in range(1, 7):
            for y in range(1, 7):
                if gcd(x, y) != 1:
                    continue
                for alpha, beta in bober_families(x, y):
                    if set(alpha) & set(beta):
                        continue
                    image = phi_bijection(RatioParams(alpha, beta))
                    assert image.is_balanced and image.height == 1
                    assert landau_one_row_check(image)


class TestSizeBound:
    def test_small_heights(self):
        assert check_size_bound(RatioParams((1,), (2, 2)))
        assert check_size_bound(CHEBYSHEV)

    def test_large_vectors_fail(self):
        params = RatioParams(tuple(range(3, 303)), tuple(range(401, 702)))
        assert params.height == 1
        assert not check_size_bound(params)

    @pytest.mark.parametrize(
        "height, largest_accepted", [(1, 287), (2, 3114)]
    )
    def test_exact_at_the_edge(self, height, largest_accepted):
        # 287 * 2**3.44 = 3114.76...; K + L and L - K have the same parity,
        # so the next reachable size after the largest accepted one is two
        # further on
        for total, accepted in (
            (largest_accepted, True), (largest_accepted + 2, False),
        ):
            K = (total - height) // 2
            params = RatioParams((1,) * K, (2,) * (K + height))
            assert (params.K + params.L, params.height) == (total, height)
            assert check_size_bound(params) is accepted

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            check_size_bound(RatioParams((3, 6), (2,)))

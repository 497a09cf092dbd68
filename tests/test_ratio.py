import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement
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
from hookratio.integral import _dilation
from hookratio.littlewood import _hook_count, _shape
from hookratio.primes import factorize
from hookratio.ratio import _check_pieces

from conftest import (
    WITNESS_LADDER,
    balanced_parameter_grid,
    oracle_factorize,
    oracle_ftable,
    random_balanced_pairs,
    unbalanced_parameter_grid,
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

        def no_lcm(*args):
            raise AssertionError("is_balanced rebuilt its reciprocal sums")

        monkeypatch.setattr(ratio_module, "lcm", no_lcm)
        assert balanced.is_balanced and not unbalanced.is_balanced

    def test_modulus_is_computed_once(self, monkeypatch):
        p, unbalanced = RatioParams((2, 3), (4, 4, 6, 6)), RatioParams((2,), (3,))

        def no_lcm(*args):
            raise AssertionError("modulus recomputed the lcm")

        monkeypatch.setattr(ratio_module, "lcm", no_lcm)
        assert (p.modulus, unbalanced.modulus) == (12, 6)

    def test_balance_takes_no_part_in_equality_or_repr(self):
        p, q = RatioParams((2, 3), (4, 4, 6, 6)), RatioParams((2, 3), (4, 4, 6, 6))
        assert p == q and hash(p) == hash(q)
        assert repr(p) == "RatioParams(gammas=(2, 3), deltas=(4, 4, 6, 6))"
        assert hash(p) == hash(((2, 3), (4, 4, 6, 6)))
        assert (p.signed, p.modulus, p.excess) == (
            ((2, 1), (3, 1), (4, -2), (6, -2)), 12, 0
        )
        for name in ("signed", "modulus", "excess", "is_balanced"):
            with pytest.raises(AttributeError):
                setattr(p, name, getattr(p, name))
        for name in ("signed", "modulus", "excess"):
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert (p.signed, p.modulus, p.excess) == (
            ((2, 1), (3, 1), (4, -2), (6, -2)), 12, 0
        )

    def test_replace_runs_the_constructor(self):
        p = RatioParams((2, 3), (4, 4, 6, 6))
        q = p._replace(deltas=[4, 4, 6, 12, 12])
        assert q == RatioParams((2, 3), (4, 4, 6, 12, 12))
        assert (q.signed, q.modulus, q.excess) == (
            ((2, 1), (3, 1), (4, -2), (6, -1), (12, -2)), 12, 0
        )
        with pytest.raises(ValueError, match="disjoint"):
            p._replace(deltas=(2,))

    def test_signed_merges_and_drops_cancelled_entries(self):
        signed = ratio_module._signed
        assert signed((1, 2, 2), (2, 2, 4, 4)) == ((1, 1), (4, -2))
        assert signed((3,), (3,)) == signed((2, 2), (2, 2)) == ()
        assert signed((5, 1), (2, 5, 5)) == ((5, -1), (1, 1), (2, -1))

    def test_signed_matches_a_counter(self, balanced_grid, survey_grid):
        # Counter.subtract keeps the order of first appearance, gammas
        # first, and the cancelled entries are dropped after it; the grids'
        # sides are disjoint, the named pairs overlap
        def oracle(gammas, deltas):
            k = Counter(gammas)
            k.subtract(deltas)
            return tuple((r, n) for r, n in k.items() if n)

        sides = [(p.gammas, p.deltas) for p in balanced_grid + survey_grid]
        sides += [((5,), (5,)), ((2,), (4, 4)), ((1, 2), (2, 4))]
        for gammas, deltas in sides:
            assert ratio_module._signed(gammas, deltas) == oracle(gammas, deltas)
        assert ratio_module._signed((1, 2), (2, 4)) == ((1, 1), (4, -1))

    def test_signed_and_excess_match_the_tuples(self):
        for params in balanced_parameter_grid() + unbalanced_parameter_grid():
            gammas, deltas = params.gammas, params.deltas
            first_seen = dict.fromkeys(gammas + deltas)
            assert params.signed == tuple(
                (r, gammas.count(r) - deltas.count(r)) for r in first_seen
            ), params
            excess = ratio_module._reciprocal_excess(gammas, deltas)
            assert params.excess == excess, params
            assert params.is_balanced == (excess == 0), params


class TestBalanceInIntegers:
    def test_agrees_with_fractions_on_every_small_side_pair(self):
        # every unordered pair of disjoint sides with entries <= 12 and 1 to
        # 4 entries; the identity is symmetric, so each pair is tried once
        sides = [
            s for k in range(1, 5)
            for s in combinations_with_replacement(range(1, 13), k)
        ]
        # sides of equal reciprocal sum share a class number, so that the
        # loop compares integers, not Fractions
        weights = [sum(Fraction(1, x) for x in s) for s in sides]
        number = {w: i for i, w in enumerate(set(weights))}
        rows = [(s, frozenset(s), number[w]) for s, w in zip(sides, weights)]
        excess = ratio_module._reciprocal_excess
        pairs = balanced = 0
        for (a, a_set, a_class), (b, _, b_class) in combinations(rows, 2):
            if a_set.isdisjoint(b):
                equal = excess(a, b) == 0
                if equal != (a_class == b_class):
                    pytest.fail(f"integer balance of {a}, {b} is {equal}")
                pairs += 1
                balanced += equal
        # the 850 ordered survey pairs, each counted once
        assert (pairs, balanced) == (667_161, 425)

    def test_agrees_with_fractions_on_random_pairs(self):
        rng = random.Random(13)
        balanced = random_balanced_pairs(rng, 40, 10_000)
        # one entry moved by one: unbalanced, with the same large lcm
        nudged = []
        for params in balanced:
            deltas = list(params.deltas)
            deltas[rng.randrange(len(deltas))] += 1
            if not set(params.gammas) & set(deltas):
                nudged.append((params.gammas, deltas))
        drawn = [
            (
                [rng.randint(1, 10_000) for _ in range(rng.randint(1, 4))],
                [rng.randint(1, 10_000) for _ in range(rng.randint(1, 6))],
            )
            for _ in range(200)
        ]
        # (k), (km, ..., km) with m = 5..9 entries: balanced with a long side,
        # and the same with the gamma moved by one
        long = [
            ((k,), (k * m,) * m)
            for m, k in zip(range(5, 10), rng.sample(range(1, 1000), 5))
        ]
        long += [((k + 1,), deltas) for (k,), deltas in long]
        cases = [(p.gammas, p.deltas) for p in balanced] + long + nudged + drawn
        seen = Counter()
        for gammas, deltas in cases:
            try:
                params = RatioParams(gammas, deltas)
            except ValueError:  # a random draw shared an entry
                continue
            gap = sum(Fraction(1, g) for g in gammas) - sum(
                Fraction(1, d) for d in deltas
            )
            expected = gap == 0
            assert params.is_balanced == expected, params
            # the excess is the gap times M, the number the M-core walk reads
            excess = ratio_module._reciprocal_excess(params.gammas, params.deltas)
            assert excess == gap * params.modulus, params
            seen[expected] += 1
        assert seen[True] == 45 and seen[False] >= 200


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
        assert table.M == 30
        assert table.values == PAPER_ROW
        assert (table.min, table.max) == (0, 1)

    def test_parity_table(self):
        table = build_ftable(RatioParams((1,), (2, 2)))
        assert (table.M, table.values) == (2, (0, 1))

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            build_ftable(RatioParams((2,), (3,)))

    def test_period_is_minimal(self, census_grid):
        # the theorem at build_ftable: the least period of f is exactly M.
        # The periods dividing M are closed under gcd, so it is enough that
        # M / q is no period for any prime q of M. Checked on two censuses,
        # every pair with entries <= 24 and 1 to 4 per side and every pair
        # with entries <= 12 and 1 to 6 per side (these hold the grid and
        # the survey), on the witness ladder and on random pairs of large M;
        # the oracle tests below find the same by their every-divisor scan
        pairs = (
            census_grid
            + balanced_parameter_grid(max_entry=12, max_len=6)
            + list(WITNESS_LADDER)
            + random_balanced_pairs(random.Random(12), 12, 100_000)
        )
        assert len(pairs) == 24_703
        for params in pairs:
            M = params.modulus
            for q in oracle_factorize(M):
                P = M // q
                assert any(
                    f_value(x + P, params) != f_value(x, params)
                    for x in range(M - P)
                ), (params, P)

    def test_period_matches_scan_of_every_divisor(self, balanced_grid, survey_grid):
        # the first period found by trying every d in 1..M that divides M
        # is M itself, as the theorem at build_ftable says
        for params in balanced_grid + survey_grid:
            table = build_ftable(params)
            M = table.M
            scanned = next(
                d for d in range(1, M + 1)
                if M % d == 0
                and all(table.values[x] == table.values[x % d] for x in range(M))
            )
            assert scanned == M, params

    @staticmethod
    def _assert_matches_oracle(pairs):
        # the oracle's period is the least divisor of M that is a period
        for params in pairs:
            table = build_ftable(params)
            assert (table.values, table.M) == oracle_ftable(params), params
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

    @staticmethod
    def _corrupt_prefix_sums(monkeypatch, offsets):
        # the running sum of the steps of f comes out offsets[x] off at x
        def patched(steps):
            sums = accumulate(steps)
            return (v + offsets.get(x, 0) for x, v in enumerate(sums))

        monkeypatch.setattr(ratio_module, "accumulate", patched)

    def test_reflection_check_catches_a_corrupted_table(self, monkeypatch):
        self._corrupt_prefix_sums(monkeypatch, {1: 1})
        with pytest.raises(InvariantError, match="reflection identity"):
            build_ftable.__wrapped__(CHEBYSHEV)

    def test_corner_check_catches_a_corrupted_table(self, monkeypatch):
        # f(0) - 1 and f(M - 1) + 1 keep every reflected pair summing to
        # L - K, so only the corner check can see it
        self._corrupt_prefix_sums(monkeypatch, {0: -1, 29: 1})
        with pytest.raises(InvariantError, match=r"f\(M - 1\) != L - K"):
            build_ftable.__wrapped__(CHEBYSHEV)

    def test_pieces_check_catches_what_the_table_check_catches(self):
        # f held as pieces, f = values[i] on [starts[i], starts[i + 1]), as
        # the hook-shape scan holds it over one period
        starts = [
            x for x in range(30) if x == 0 or PAPER_ROW[x] != PAPER_ROW[x - 1]
        ]
        values = [PAPER_ROW[x] for x in starts]
        _check_pieces(CHEBYSHEV, starts, values)
        moved = [starts[0], starts[1] + 1] + starts[2:]
        raised = [values[0], values[1] + 1] + values[2:]
        for pieces in ((starts, raised), (moved, values)):
            with pytest.raises(InvariantError, match="reflection identity"):
                _check_pieces(CHEBYSHEV, *pieces)
        # f(0) - 1 and f(M - 1) + 1 keep every reflected pair summing to
        # L - K, so only the corner check can see it
        corner = [values[0] - 1] + values[1:-1] + [values[-1] + 1]
        with pytest.raises(InvariantError, match=r"f\(M - 1\) != L - K"):
            _check_pieces(CHEBYSHEV, starts, corner)

    @pytest.mark.parametrize("memo", [build_ftable, factorize, _hook_count, _dilation])
    def test_memo_is_bounded(self, memo):
        # bounded, and still large enough for all 850 survey pairs; the
        # counts of _hook_count and the dilations of _dilation are kept in
        # the per-shape records of the _shape memo
        held = memo if hasattr(memo, "cache_info") else _shape
        assert 850 <= held.cache_info().maxsize < float("inf")

    def test_min_and_max_are_the_window_extremes(
        self, balanced_grid, survey_grid
    ):
        for params in balanced_grid + survey_grid:
            table = build_ftable(params)
            assert (table.min, table.max) == (min(table.values), max(table.values))

    def test_json_schema(self):
        payload = build_ftable(CHEBYSHEV).to_json_dict()
        assert sorted(payload) == ["M", "P", "max", "min", "values"]
        assert payload["P"] == payload["M"] == 30
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
            assert table.values[table.M - 1] == h

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

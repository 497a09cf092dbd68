import random
from collections import Counter
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hookratio.integral as integral_module
import hookratio.littlewood as littlewood_module
import hookratio.partition as partition_module
import hookratio.ratio as ratio_module
from hookratio import (
    STATUS_FAILS,
    STATUS_INTEGRAL,
    STATUS_UNKNOWN,
    FactoredRatio,
    InvariantError,
    Partition,
    RatioParams,
    bober_families,
    build_ftable,
    check_divisor_family,
    check_multinomial,
    compose,
    construct_failing_lambda,
    counts_signature,
    decide,
    decompose,
    enumerate_partitions,
    extract_failing_mu,
    find_failing_mu,
    format_partition,
    is_p_core,
    iter_tower_levels,
    parse_partition,
    quotient_tower,
    ratio_factored,
    ratio_valuation,
    sumset,
)
from hookratio.primes import factorize

from conftest import (
    WITNESS_LADDER,
    all_partitions_through,
    balanced_parameter_grid,
    exact_ratio_value,
    oracle_divisible_hook_counts,
    oracle_flow_certified,
    oracle_hook_shape_scan,
    oracle_least_failing_mu,
    oracle_ratio_valuation,
    oracle_rest_costs,
    oracle_whitelist,
    oracle_zero_rest,
    random_balanced_pairs,
    signature_from_charges,
    source_env,
    unbalanced_parameter_grid,
)
from hookratio.integral import Witness, _dilation
from hookratio.littlewood import _Shape, _shape, largest_hook
from hookratio.partition import MAX_SIZE_ENV_VAR, _hook_values
from hookratio.primes import factorize

SPORADIC = RatioParams((1, 30), (2, 3, 5))
# outside the divisibility flow, so decide reaches the M-core walk (M = 10):
# Unknown at bound 5, Fails from bound 6 on, least failing mu 3,2,1
WALKED = RatioParams((2,), (5, 10, 10, 10))
# first rung of the height 1 witness ladder: a 223,260-cell witness at p = 61
LADDER_FIRST = RatioParams((35,), (60, 84))
RECTANGLE = parse_partition("6^5")
# the pairs of the search benchmark: products of two copies of the height 1
# exception ((x), (2x, 2x)), all integral
EXCEPTION_PRODUCTS = [
    RatioParams((x, y), (2 * x, 2 * x, 2 * y, 2 * y))
    for x in range(1, 7)
    for y in range(x, 7)
    if y != 2 * x
]

# the printed factorization of the ratio at (66^55) for ((1,30),(2,3,5))
BIG_FACTORIZATION = {
    2: 60, 3: 53, 5: 9, 7: 35, 11: -11, 19: 12, 23: 23, 29: 29, 31: 31,
    37: 37, 41: 41, 43: 43, 47: 47, 53: 53, 59: 55, 61: 55, 67: 54,
    71: 50, 73: 48, 79: 42, 83: 38, 89: 32, 97: 24, 101: 20, 103: 18,
    107: 14, 109: 12, 113: 8,
}


class TestFactoredRatio:
    def test_empty_is_one(self):
        fr = FactoredRatio()
        assert fr.is_integral and fr.value() == 1 and str(fr) == "1"

    def test_drops_zero_exponents(self):
        fr = FactoredRatio({2: 3, 5: 0})
        assert fr.exponents == {2: 3}

    def test_value_and_str(self):
        fr = FactoredRatio({2: 2, 11: -1, 3: 1})
        assert fr.value() == Fraction(12, 11)
        assert str(fr) == "2^2 * 3 / 11"
        assert not fr.is_integral

    def test_exponent_lookup(self):
        fr = FactoredRatio({7: 4})
        assert fr.exponent(7) == 4 and fr.exponent(13) == 0

    def test_immutable_hashable_and_repr(self):
        fr = FactoredRatio({3: 1, 2: -2})
        with pytest.raises(AttributeError, match="immutable"):
            fr.extra = 1
        same = FactoredRatio({2: -2, 3: 1, 5: 0})
        assert fr == same and hash(fr) == hash(same)
        assert len({fr, same, FactoredRatio({2: -2})}) == 2
        assert repr(fr) == "FactoredRatio({2: -2, 3: 1})"


class TestRatioFactored:
    def test_big_golden(self):
        fr = ratio_factored(parse_partition("66^55"), SPORADIC)
        assert fr.exponents == BIG_FACTORIZATION
        assert fr.exponent(13) == 0 and fr.exponent(17) == 0
        assert fr.exponent(11) == -11
        assert not fr.is_integral

    def test_empty_partition(self):
        assert ratio_factored(Partition(), SPORADIC) == FactoredRatio()

    def test_central_binomial(self):
        fr = ratio_factored(Partition((4,)), RatioParams((1,), (2, 2)))
        assert fr.exponents == {2: 1, 3: 1}
        assert fr.value() == 6

    def test_reconstruction_matches_exact_arithmetic(self, partitions_by_size):
        grid = [
            SPORADIC,
            RatioParams((1,), (2, 2)),
            RatioParams((2, 3), (1, 30)),
            RatioParams((3, 6), (2,)),
            RatioParams((2,), (3,)),
        ]
        for params in grid:
            for n in range(11):
                for lam in partitions_by_size[n]:
                    assert ratio_factored(lam, params).value() == exact_ratio_value(
                        lam, params.gammas, params.deltas
                    )

    def test_valuation_shortcut_agrees(self, partitions_by_size):
        for n in range(9):
            for lam in partitions_by_size[n]:
                fr = ratio_factored(lam, SPORADIC)
                for p in (2, 3, 5, 7, 11):
                    assert ratio_valuation(lam, SPORADIC, p) == fr.exponent(p)
        with pytest.raises(ValueError):
            ratio_valuation(RECTANGLE, SPORADIC, 6)


class TestRatioValuation:
    def test_matches_hook_listing_oracle(self, balanced_grid, partitions_by_size):
        for lam in all_partitions_through(partitions_by_size, 10):
            for params in balanced_grid:
                for p in (2, 3, 5, 7):
                    assert ratio_valuation(lam, params, p) == (
                        oracle_ratio_valuation(lam, params, p)
                    ), (lam, params, p)

    def test_large_witness_matches_oracle(self):
        lam = parse_partition("1586^61,61^2074")
        assert lam.size == 223_260
        for p in (2, 3, 5, 7, 61):
            assert ratio_valuation(lam, LADDER_FIRST, p) == (
                oracle_ratio_valuation(lam, LADDER_FIRST, p)
            )
        assert ratio_valuation(lam, LADDER_FIRST, 61) == -61


class TestCountsSignature:
    def test_rectangle_golden(self):
        assert counts_signature(RECTANGLE, SPORADIC) == -1

    def test_empty(self):
        assert counts_signature(Partition(), SPORADIC) == 0

    def test_3_core_with_hook_8(self):
        params = RatioParams((3,), (8, 12, 24, 24, 24))
        assert counts_signature(Partition((6, 4, 2)), params) == -1

    def test_matches_hook_count_definition(self, partitions_by_size):
        from hookratio import hook_count_divisible

        for n in range(11):
            for lam in partitions_by_size[n]:
                expected = (
                    hook_count_divisible(lam, 1)
                    + hook_count_divisible(lam, 30)
                    - hook_count_divisible(lam, 2)
                    - hook_count_divisible(lam, 3)
                    - hook_count_divisible(lam, 5)
                )
                assert counts_signature(lam, SPORADIC) == expected

    def test_matches_g_sum_over_cells(self, partitions_by_size, balanced_grid):
        # the grid has repeated entries such as (1, 1), each of which must
        # count its hooks once per entry
        from hookratio import g_value, hook_multiset

        for n in range(11):
            for lam in partitions_by_size[n]:
                hooks = hook_multiset(lam).items()
                for params in [SPORADIC] + balanced_grid:
                    total = sum(c * g_value(h, params) for h, c in hooks)
                    assert counts_signature(lam, params) == total, (lam, params)

    def test_matches_oracle_counts(
        self, partitions_by_size, balanced_grid, survey_grid
    ):
        # the entries above a shape's largest hook divide none of its hooks
        # and are skipped, such as every entry above 3 at (2, 2)
        shapes = list(all_partitions_through(partitions_by_size, 10))
        assert any(largest_hook(lam) < 12 for lam in shapes)
        moduli = range(1, 13)
        for lam in shapes:
            counts = oracle_divisible_hook_counts(lam, moduli)
            for params in balanced_grid + survey_grid:
                expected = sum(k * counts[r] for r, k in params.signed)
                assert counts_signature(lam, params) == expected, (lam, params)


def _refuse_f(monkeypatch):
    """Make the builder of f, the period table `build_ftable`, raise in
    ratio, where it lives, and in integral, should it hold it by name."""

    def refuse(*args):
        raise AssertionError("f was built")

    for module in (ratio_module, integral_module):
        monkeypatch.setattr(module, "build_ftable", refuse, raising=False)


class TestHookShapeScan:
    """The scan along the steps of f against the scan through FTable.f."""

    @staticmethod
    def _assert_matches_oracle(pairs):
        hits = 0
        for params in pairs:
            found = integral_module._hook_shape_scan(params)
            assert found == oracle_hook_shape_scan(params), params
            hits += found is not None
        return hits

    def test_matches_oracle_on_grid_and_survey(self, balanced_grid, survey_grid):
        # both with and without a hit
        assert self._assert_matches_oracle(balanced_grid) == 166 - 23
        assert self._assert_matches_oracle(survey_grid) == 850 - 49

    def test_matches_oracle_on_witness_ladder(self):
        assert self._assert_matches_oracle(WITNESS_LADDER) == 5

    def test_matches_oracle_on_census_and_random_pairs(self, census_grid):
        # 159 census pairs have no hit, and 62 first hit on a diagonal at
        # or past their largest entry, 20 of them past M, where the scan
        # reads the second period; the random pairs reach M = 2,990
        assert self._assert_matches_oracle(census_grid) == 12_324 - 159
        pairs = random_balanced_pairs(random.Random(33), 100, 3_000)
        assert self._assert_matches_oracle(pairs) == 100

    @pytest.mark.parametrize(
        "gammas, deltas, reads",
        # no table is built or looked up, wherever the first hit lies: the
        # hit (1, 7) lies on diagonal 8, the last below the largest entry
        # 9, and the hit (6, 9) on diagonal 15, past the largest entry 12,
        # where the scan checks its pieces over the period instead. The
        # head is the largest entry wherever it stands: 9 in the last pair,
        # not its last delta 6
        [
            ((2,), (6, 9, 9, 9), 0),
            ((1, 12), (2, 3, 8, 8), 0),
            ((2,), (9, 9, 6, 9), 0),
        ],
    )
    def test_reads_the_table_only_past_the_head(self, gammas, deltas, reads):
        params = RatioParams(gammas, deltas)
        before = build_ftable.cache_info()
        found = integral_module._hook_shape_scan(params)
        after = build_ftable.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + reads
        assert found == oracle_hook_shape_scan(params)

    def test_least_delta_is_decided_without_f(
        self, monkeypatch, balanced_grid, survey_grid
    ):
        # a least entry r that is a delta fails at the column 1^r, the
        # scan's first hit (0, r - 1), and the flow rejects the pair: no
        # period table is built for it. decide answers such a pair itself,
        # before the flow or the scan runs
        pairs = [
            p for p in balanced_grid + survey_grid if min(p.signed)[1] < 0
        ]
        expected = [
            (p, min(p.signed)[0], oracle_hook_shape_scan(p), oracle_flow_certified(p))
            for p in pairs
        ]
        assert len(pairs) == 83 + 425
        scan, flow = integral_module._hook_shape_scan, integral_module._certified_by_flow
        _refuse_f(monkeypatch)
        for params, r, oracle, certified in expected:
            assert scan(params) == oracle == (0, r - 1)
            assert flow(params) is certified is False, params

        def refuse(*args):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(integral_module, "_hook_shape_scan", refuse)
        monkeypatch.setattr(integral_module, "_certified_by_flow", refuse)
        for params, r, _, _ in expected:
            verdict = decide(params, 16)
            assert verdict.status == STATUS_FAILS, params
            assert verdict.witness.mu == Partition((1,) * r), params

    def test_hit_at_m_442860(self):
        params = RatioParams((3660,), (7260, 7381))
        assert params.modulus == 442_860
        assert integral_module._hook_shape_scan(params) == (3600, 3659)

    @pytest.mark.parametrize(
        "gammas, deltas, modulus, hit",
        # f on [0, head] would hold 3.2 * 10^7 and 2.0 * 10^6 values; the
        # scan reads two steps of f, +1 at the gamma and -1 at the hit's
        # delta
        [
            ((15_999_999,), (31_992_000, 32_008_000), 127_999_992_000,
             (15_992_001, 15_999_998)),
            ((999_000,), (1_997_001, 1_999_000), 1_997_001_000,
             (998_001, 998_999)),
        ],
    )
    def test_builds_no_f_at_large_m(self, monkeypatch, gammas, deltas, modulus, hit):
        params = RatioParams(gammas, deltas)
        assert params.modulus == modulus
        _refuse_f(monkeypatch)
        assert integral_module._hook_shape_scan(params) == hit

    def test_decide_builds_no_f(self, monkeypatch, balanced_grid, survey_grid):
        pairs = balanced_grid + survey_grid
        expected = [decide(params, 16) for params in pairs]
        _refuse_f(monkeypatch)
        assert [decide(params, 16) for params in pairs] == expected

    # the weight of the entry 12 read as 2, not 1, adds floor(x / 12) to f
    # and breaks the reflection identity. The first hit of the pair lies on
    # diagonal 15, past its largest entry 12, so the scan checks its pieces
    # over the period before it reads any diagonal past 12, and builds no
    # table to check
    CORRUPTED = ((1, 1), (12, 2), (2, -1), (3, -1), (8, -2))

    def test_corrupted_pieces_are_caught(self, monkeypatch):
        params = RatioParams((1, 12), (2, 3, 8, 8))
        object.__setattr__(params, "signed", self.CORRUPTED)
        _refuse_f(monkeypatch)
        message = r"^reflection identity fails for \(\(1,12\),\(2,3,8,8\)\)$"
        with pytest.raises(InvariantError, match=message):
            integral_module._hook_shape_scan(params)

    def test_corrupted_pieces_are_caught_under_optimize_flag(self):
        script = (
            "import hookratio.integral as integral, hookratio.ratio as ratio\n"
            "def refuse(*args):\n"
            "    raise AssertionError('f was built')\n"
            "for module in (ratio, integral):\n"
            "    module.build_ftable = refuse\n"
            "params = integral.RatioParams((1, 12), (2, 3, 8, 8))\n"
            f"object.__setattr__(params, 'signed', {self.CORRUPTED!r})\n"
            "try:\n"
            "    integral._hook_shape_scan(params)\n"
            "except integral.InvariantError as exc:\n"
            "    print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "raised reflection identity fails for ((1,12),(2,3,8,8))\n"
        )


class TestFindFailingMu:
    def test_hooks_only_golden(self):
        mu = find_failing_mu(SPORADIC, 0, hooks_only=True)
        assert mu == parse_partition("11,1^25")
        assert counts_signature(mu, SPORADIC) == -1

    def test_hooks_only_none_for_parity(self):
        assert find_failing_mu(RatioParams((1,), (2, 2)), 0, hooks_only=True) is None

    def test_full_search_none_for_parity(self):
        assert find_failing_mu(RatioParams((1,), (2, 2)), 14) is None

    def test_full_search_bound_30(self):
        mu = find_failing_mu(SPORADIC, 30)
        assert mu == Partition((2,) * 6 + (1,) * 18)
        assert mu.size == 30
        assert counts_signature(mu, SPORADIC) == -1

    def test_full_search_returns_lex_least_of_first_failing_size(
        self, partitions_by_size
    ):
        from hookratio import enumerate_partitions

        mu = find_failing_mu(SPORADIC, 30)
        witnesses = [
            lam for lam in enumerate_partitions(30)
            if counts_signature(lam, SPORADIC) < 0
        ]
        assert mu == min(witnesses)
        for n in range(13):
            assert all(
                counts_signature(lam, SPORADIC) >= 0
                for lam in partitions_by_size[n]
            )

    def test_hooks_only_needs_balance(self):
        # the scan checks balance before it walks the steps of f, on which
        # an unbalanced pair could otherwise report a hit
        message = (
            r"^parameters \(\(2\),\(3\)\) are not balanced; "
            r"the period is undefined$"
        )
        with pytest.raises(ValueError, match=message):
            find_failing_mu(RatioParams((2,), (3,)), 5, hooks_only=True)

    def test_hooks_only_needs_balance_with_a_least_delta(self):
        # the scan's first step answers a least delta with the column, but
        # only after the balance check
        message = (
            r"^parameters \(\(3\),\(2\)\) are not balanced; "
            r"the period is undefined$"
        )
        with pytest.raises(ValueError, match=message):
            find_failing_mu(RatioParams((3,), (2,)), 0, hooks_only=True)

    def test_unbalanced_exhaustive(self):
        assert find_failing_mu(RatioParams((2,), (3,)), 5) == Partition((2, 1))

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            find_failing_mu(SPORADIC, -1)


def _search_outcome(search, params, bound):
    """What a search returns, or the message of the ValueError it raises."""
    try:
        return search(params, bound)
    except ValueError as exc:
        return str(exc)


class TestCoreSearch:
    """The walk over M-core charge vectors against the enumeration of every
    partition, which it replaces for every search, balanced or not."""

    def test_signature_from_charges_matches_counts_signature(
        self, partitions_by_size, balanced_grid
    ):
        by_modulus = {}
        for params in balanced_grid:
            by_modulus.setdefault(params.modulus, []).append(params)
        for lam in all_partitions_through(partitions_by_size, 12):
            for M, group in by_modulus.items():
                charges = decompose(lam, M).charges
                for params in group:
                    assert signature_from_charges(charges, params) == (
                        counts_signature(lam, params)
                    ), (lam, params)

    # M = 31 is above twice the limit, so coordinates 14..16 stay 0
    @pytest.mark.parametrize("M", [*range(2, 9), 31])
    def test_cores_per_size_match_is_p_core(self, M, monkeypatch):
        expected = [
            sum(1 for lam in enumerate_partitions(n) if is_p_core(lam, M))
            for n in range(15)
        ]
        assert integral_module._core_counts(M, 14) == expected
        # the walk checks its own counts against _core_counts; here it
        # checks them against the is_p_core counts instead. ((1), (M^M)) is
        # integral, so the walk runs to the bound
        monkeypatch.setattr(
            integral_module, "_core_counts", lambda _, n: expected[: n + 1]
        )
        params = RatioParams((1,), (M,) * M)
        assert integral_module._least_failing_core(params, 14) is None

    def test_greedy_rest_matches_min_plus_oracle(self):
        # fact 5: the least cost of the live coordinates for each sum is the
        # sum of the least marginals of its sign
        checked = 0
        for M in range(2, 40):
            for limit in range(1, 21):
                live = [j for j in range(M) if j < limit or j >= M - limit]
                top = 2 * limit
                assert integral_module._rest_costs(M, live, top) == (
                    oracle_rest_costs(M, live, top)
                ), (M, limit)
                checked += 1
        assert checked == 38 * 20

    def test_zero_rest_matches_brute_force(self):
        # fact 6: the least nonzero completion of sum 0 is +1 at the first
        # live coordinate left and -1 at the last
        checked = 0
        for M in range(2, 13):
            for limit in range(1, 9):
                live = [j for j in range(M) if j < limit or j >= M - limit]
                top = 2 * limit
                zero_rest = integral_module._zero_rest(M, live, top)
                # above the budget top, any value above it prunes alike
                assert [min(v, top + 1) for v in zero_rest] == (
                    oracle_zero_rest(M, live, top)
                ), (M, limit)
                checked += 1
        assert checked == 11 * 8

    def test_survey_walk_witness(self):
        # one of the two survey pairs that reach the walk; the other,
        # WALKED, is pinned at the same bound by the deepening test below
        assert integral_module._least_failing_mu(
            RatioParams((1, 6), (2, 3, 4, 12)), 16
        ) == parse_partition("4,4,1^4")

    def test_walks_in_the_limit_not_in_m(self):
        # M = 3 * 10^10: the walk holds the 2 * limit live coordinates and
        # the residues of each entry that they touch, nothing of size M. No
        # hook shape fails and nothing of size <= 20 does either
        params = RatioParams(
            (2 * 10**9, 3 * 10**9),
            (5 * 10**9, 6 * 10**9, 6 * 10**9, 10**10, 10**10, 10**10),
        )
        assert params.modulus == 3 * 10**10
        assert decide(params, 20).status == STATUS_UNKNOWN
        assert integral_module._least_failing_core(params, 20) is None

    def test_count_mismatch_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(
            integral_module, "_core_counts", lambda _, n: [0] * (n + 1)
        )
        with pytest.raises(InvariantError):
            integral_module._least_failing_core(RatioParams((1, 1), (2, 2, 2, 2)), 6)

    @staticmethod
    def _assert_matches_enumeration(pairs, bound):
        checked = 0
        for params in pairs:
            walked = find_failing_mu(params, bound)
            enumerated = oracle_least_failing_mu(params, bound)
            assert walked == enumerated, (params, walked, enumerated)
            checked += 1
        return checked

    def test_matches_enumeration_on_grid(self, balanced_grid):
        assert self._assert_matches_enumeration(balanced_grid, 14) == 166

    def test_matches_enumeration_on_survey_pairs(self, survey_grid):
        assert len(survey_grid) == 850
        assert self._assert_matches_enumeration(survey_grid, 16) == 850

    def test_matches_enumeration_on_search_pairs(self):
        assert len(EXCEPTION_PRODUCTS) == 18
        assert self._assert_matches_enumeration(EXCEPTION_PRODUCTS, 20) == 18

    def test_matches_enumeration_on_sporadic_at_30(self):
        assert self._assert_matches_enumeration([SPORADIC], 30) == 1
        assert integral_module._least_failing_mu(SPORADIC, 30) == (
            parse_partition("2^6,1^18")
        )

    def test_no_search_enumerates_balanced_or_not(self, monkeypatch):
        # every enumeration, however enumerate_partitions was imported,
        # runs through this generator
        def enumerating(n, maxpart):
            raise AssertionError(f"partitions of {n} were enumerated")

        monkeypatch.setattr(partition_module, "_descending_partitions", enumerating)
        # M = 30 lies above the bound 12
        assert find_failing_mu(RatioParams((3, 5), (6, 6, 10, 10)), 12) is None
        # without balance: m > 0, and m < 0 with 1^M as the answer
        assert find_failing_mu(RatioParams((2,), (3,)), 5) == Partition((2, 1))
        assert find_failing_mu(RatioParams((1,), (2, 3, 3)), 8) == (
            parse_partition("1^6")
        )
        # nothing fails within the cap 8, balanced (M = 12 above the cap)
        # or with m > 0
        monkeypatch.setenv(MAX_SIZE_ENV_VAR, "8")
        for params in (
            RatioParams((1, 6), (2, 2, 12, 12)),
            RatioParams((1,), (12,)),
        ):
            assert _search_outcome(find_failing_mu, params, 14) == (
                "enumeration size 9 exceeds the configured cap 8 "
                "(set HOOKRATIO_MAX_SIZE to raise it)"
            )

    def test_matches_enumeration_without_balance(self):
        pairs = unbalanced_parameter_grid(max_entry=6, max_len=2)
        assert len(pairs) == 438
        assert self._assert_matches_enumeration(pairs, 10) == 438

    @pytest.mark.parametrize(
        "gammas, deltas, bound, mu",
        [
            # m < 0: a failing partition below M = 2
            ((1,), (2, 2, 2), 10, "1,1"),
            # m < 0: nothing below M = 6 fails, so 1^M is the answer
            ((1,), (2, 3, 3), 10, "1^6"),
            # four failing partitions of 6, the least of them returned
            ((5, 5), (6, 6), 8, "2,1^4"),
        ],
    )
    def test_unbalanced_least_witness(self, gammas, deltas, bound, mu):
        params = RatioParams(gammas, deltas)
        assert not params.is_balanced
        assert find_failing_mu(params, bound) == parse_partition(mu)
        assert oracle_least_failing_mu(params, bound) == parse_partition(mu)

    @pytest.mark.parametrize("cap", ["-1", "0", "5", "6", "11", "12", "abc"])
    @pytest.mark.parametrize(
        "gammas, deltas, bound",
        [
            ((1, 1), (2, 2, 2, 2), 8),
            ((2,), (5, 10, 10, 10), 12),
            ((1, 6), (2, 3, 4, 12), 14),
            ((2,), (3,), 8),
            ((1,), (2, 3, 3), 8),
        ],
    )
    def test_cap_behaves_as_the_enumeration(
        self, cap, gammas, deltas, bound, monkeypatch
    ):
        # the least failing partitions are none, 3,2,1, 4,4,1^4, 2,1 (m > 0)
        # and 1^6 (m < 0, M = 6): a cap below a witness raises, and a cap
        # at or above it returns it
        monkeypatch.setenv(MAX_SIZE_ENV_VAR, cap)
        params = RatioParams(gammas, deltas)
        assert _search_outcome(find_failing_mu, params, bound) == (
            _search_outcome(oracle_least_failing_mu, params, bound)
        )

    def test_cap_error_message(self, monkeypatch):
        monkeypatch.setenv(MAX_SIZE_ENV_VAR, "5")
        with pytest.raises(ValueError) as exc:
            decide(WALKED, 8)
        assert str(exc.value) == (
            "enumeration size 6 exceeds the configured cap 5 "
            "(set HOOKRATIO_MAX_SIZE to raise it)"
        )

    def test_decide_enumerates_no_partition_when_M_is_within_bound(
        self, monkeypatch
    ):
        # every enumeration, however enumerate_partitions was imported,
        # runs through this generator
        def enumerating(n, maxpart):
            raise AssertionError(f"partitions of {n} were enumerated")

        monkeypatch.setattr(partition_module, "_descending_partitions", enumerating)
        verdict = decide(WALKED, 28)
        assert verdict.status == STATUS_FAILS
        assert verdict.witness.mu == parse_partition("3,2,1")
        # M = 10 is above the bound
        verdict = decide(WALKED, 5)
        assert verdict.status == STATUS_UNKNOWN

    @staticmethod
    def _recorded_limits(monkeypatch):
        seen = []
        walk = integral_module._least_failing_core

        def recorded(params, limit):
            seen.append(limit)
            return walk(params, limit)

        monkeypatch.setattr(integral_module, "_least_failing_core", recorded)
        return seen

    @pytest.mark.parametrize(
        "bound, limits", [(16, [1, 2, 4, 8]), (5, [1, 2, 5]), (0, [])]
    )
    def test_search_deepens_its_limit(self, bound, limits, monkeypatch):
        # 3,2,1 fails at size 6, inside the limit 8; below 6 nothing fails,
        # so the search stops at the bound, reached from 2 since doubling 4
        # would pass it
        seen = self._recorded_limits(monkeypatch)
        mu = integral_module._least_failing_mu(WALKED, bound)
        assert seen == limits
        assert mu == (parse_partition("3,2,1") if bound >= 6 else None)

    @pytest.mark.parametrize(
        "bound, limits", [(34, [1, 2, 4, 8, 16, 34]), (16, [1, 2, 4, 8, 16])]
    )
    def test_search_skips_the_walk_that_the_limit_repeats(
        self, bound, limits, monkeypatch
    ):
        # nothing fails up to 34 (m > 0 without balance), so every walk
        # runs; at 34 a limit-32 walk would be repeated by the last one
        seen = self._recorded_limits(monkeypatch)
        params = RatioParams((1, 1), (2, 3, 7))
        assert integral_module._least_failing_mu(params, bound) is None
        assert seen == limits


# partitions of at most 20 cells: parts drawn until the next would overflow
small_partitions = st.lists(st.integers(1, 20), max_size=20).map(
    lambda parts: Partition(sorted(
        (x for i, x in enumerate(parts) if sum(parts[: i + 1]) <= 20), reverse=True
    ))
)


class TestDivisibilityFlow:
    """The certificate of fact 7 against the search, the old whitelist,
    product closure and the ratio itself."""

    def test_goldens(self):
        certified = integral_module._certified_by_flow
        # one gamma dividing every delta, and a union of two of them
        assert certified(RatioParams((1,), (2, 2)))
        assert certified(RatioParams((2, 3), (4, 4, 6, 6)))
        # 2 divides 10 but not 5; the sporadic pair fails
        assert not certified(WALKED)
        assert not certified(SPORADIC)

    def test_needs_an_augmenting_path_back(self):
        # M = 12: 1 supplies 12 and 2 supplies 6; 3 demands 8, 4 demands 6
        # and 6 demands 4. Shortest paths in this order send 1's supply to
        # 4 and 3 and 2's to 6, and the last 2 units reach 3 only along
        # 2 -> 4 -> 1 -> 3, undoing part of 1 -> 4
        params = RatioParams((1, 2), (4, 4, 3, 3, 6, 6))
        assert params.is_balanced
        assert integral_module._certified_by_flow(params)
        assert decide(params, 8).status == STATUS_INTEGRAL

    def test_matches_gale_condition(self, census_grid, survey_grid):
        for pairs, expected, by_network in (
            (census_grid, 135, 53), (survey_grid, 47, 13)
        ):
            certified = [p for p in pairs if integral_module._certified_by_flow(p)]
            assert certified == [p for p in pairs if oracle_flow_certified(p)]
            assert len(certified) == expected
            # pairs where every delta has a gamma divisor and every gamma
            # divides a delta, but the supply falls short: the answer comes
            # from Edmonds-Karp, not from the rules on the entries
            rejected = [
                p for p in pairs
                if p not in certified
                and all(any(d % g == 0 for g in p.gammas) for d in p.deltas)
                and all(any(d % g == 0 for d in p.deltas) for g in p.gammas)
            ]
            assert len(rejected) == by_network

    def test_unbalanced_supply_may_stay_unused(self):
        # m = 2 > 0: 5 divides no delta and keeps its supply, while 1 alone
        # feeds both 2s, so the rule on the gammas must not reject the pair
        params = RatioParams((1, 5), (2, 2))
        assert params.excess == 2
        assert integral_module._certified_by_flow(params)

    def test_certified_pairs_search_clean(self, balanced_grid, survey_grid):
        for pairs, bound, expected in ((balanced_grid, 14, 23), (survey_grid, 16, 47)):
            certified = [p for p in pairs if integral_module._certified_by_flow(p)]
            assert len(certified) == expected
            for params in certified:
                assert integral_module._least_failing_mu(params, bound) is None, params
                assert integral_module._hook_shape_scan(params) is None, params

    def test_whitelist_implies_flow(self, survey_grid):
        whitelisted = [p for p in survey_grid if oracle_whitelist(p)]
        assert len(whitelisted) == 29
        assert all(integral_module._certified_by_flow(p) for p in whitelisted)

    def test_closed_under_union_and_cancellation(self, balanced_grid):
        certified = [p for p in balanced_grid if integral_module._certified_by_flow(p)]
        cancelled = 0
        for a in certified:
            for b in certified:
                gammas = Counter(a.gammas + b.gammas)
                deltas = Counter(a.deltas + b.deltas)
                shared = gammas & deltas
                params = RatioParams(
                    tuple((gammas - shared).elements()),
                    tuple((deltas - shared).elements()),
                )
                assert params.is_balanced
                assert integral_module._certified_by_flow(params), (a, b, params)
                cancelled += bool(shared)
        assert cancelled > 0

    @given(lam=small_partitions)
    @settings(max_examples=60, deadline=None)
    def test_certified_ratio_is_integral(self, balanced_grid, lam):
        for params in balanced_grid:
            if not integral_module._certified_by_flow(params):
                continue
            assert counts_signature(lam, params) >= 0, (lam, params)
            assert ratio_factored(lam, params).is_integral, (lam, params)

    def test_survey_verdicts(self, survey_grid):
        # the flow decides every pair the search left open: no Unknown
        statuses = Counter(decide(p, 16).status for p in survey_grid)
        assert statuses == {STATUS_FAILS: 803, STATUS_INTEGRAL: 47}


class TestConstructFailingLambda:
    def test_rectangle_to_66_55(self):
        p, lam = construct_failing_lambda(RECTANGLE, SPORADIC)
        assert p == 11
        assert lam == parse_partition("66^55")
        assert ratio_factored(lam, SPORADIC).exponent(11) == -11

    def test_divisor_remark_witness(self):
        params = RatioParams((3,), (8, 12, 24, 24, 24))
        p, lam = construct_failing_lambda(Partition((6, 4, 2)), params)
        assert p == 11  # largest hook of (6,4,2) is 8
        assert ratio_factored(lam, params).exponent(11) == -11

    def test_smallest_shape(self):
        params = RatioParams((2,), (1, 3))
        assert counts_signature(Partition((1,)), params) == -1
        p, lam = construct_failing_lambda(Partition((1,)), params)
        assert (p, lam) == (2, Partition((2, 2)))
        assert ratio_factored(lam, params).exponent(2) == -2

    def test_rejects_nonnegative_signature(self):
        with pytest.raises(ValueError):
            construct_failing_lambda(Partition((3,)), SPORADIC)

    def test_first_ladder_witness(self):
        mu = find_failing_mu(LADDER_FIRST, 0, hooks_only=True)
        p, lam = construct_failing_lambda(mu, LADDER_FIRST)
        assert p == 61
        assert format_partition(lam) == "1586^61,61^2074"

    def test_dilation_matches_compose(self, partitions_by_size):
        # lam is mu dilated by p, built from runs; compose(EMPTY, [mu] * p, p)
        # is the definition it replaces
        from hookratio import compose
        from hookratio.littlewood import largest_hook
        from hookratio.partition import EMPTY
        from hookratio.primes import next_prime_above

        checked = 0
        for params in (SPORADIC, RatioParams((2,), (1, 3)), RatioParams((3,), (4, 12))):
            for mu in all_partitions_through(partitions_by_size, 8):
                if counts_signature(mu, params) >= 0:
                    continue
                p, lam = construct_failing_lambda(mu, params)
                assert p == next_prime_above(largest_hook(mu))
                assert lam == compose(EMPTY, [mu] * p, p)
                assert lam.parts == compose(EMPTY, [mu] * p, p).parts
                checked += 1
        assert checked >= 50

    def test_rechecks_the_dilation(self, monkeypatch, cold_shapes):
        # a lam that is not the dilation of mu at p is caught by the
        # valuation re-check, never returned; the memo starts cold, so
        # the record of mu takes its dilation from the patched builder
        lam = parse_partition("66^54")
        monkeypatch.setattr(
            integral_module, "_dilation",
            lambda rec, mu: (11, _Shape(lam.runs), Witness(mu, 11, lam)),
        )
        with pytest.raises(InvariantError, match="expected -11"):
            construct_failing_lambda(RECTANGLE, SPORADIC)

    def test_dilation_memo_keeps_shapes_of_one_size_apart(self, partitions_by_size):
        # all 22 shapes of size 8 through one warm memo: shapes of one size
        # share no record, so each keeps its own prime and dilation, the
        # same as a fresh record's
        def dilation(rec, mu):
            p, lam_rec, witness = rec.dilation or _dilation(rec, mu)
            return p, lam_rec.runs, lam_rec.top, witness

        for mu in partitions_by_size[8]:
            dilation(_shape(mu.runs), mu)
        for mu in partitions_by_size[8]:
            warm, fresh = _shape(mu.runs), _Shape(mu.runs)
            assert dilation(warm, mu) == dilation(fresh, mu), mu.runs

    def test_exponent_is_p_times_signature(self, balanced_grid):
        rng = random.Random(11)
        checked = 0
        for params in rng.sample(balanced_grid, 40):
            mu = find_failing_mu(params, 8)
            if mu is None:
                continue
            p, lam = construct_failing_lambda(mu, params)
            sig = counts_signature(mu, params)
            assert ratio_factored(lam, params).exponent(p) == p * sig < 0
            checked += 1
        assert checked >= 10


class TestExtractFailingMu:
    def test_66_55_recovers_rectangle(self):
        lam = parse_partition("66^55")
        assert extract_failing_mu(lam, SPORADIC, 11) == RECTANGLE

    def test_rejects_nonnegative_valuation(self):
        with pytest.raises(ValueError):
            extract_failing_mu(Partition((2, 1)), RatioParams((1,), (2, 2)), 2)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            extract_failing_mu(parse_partition("66^55"), SPORADIC, 4)

    def test_extraction_is_a_tower_label(self):
        params = RatioParams((2,), (1, 3))
        _, lam = construct_failing_lambda(Partition((1,)), params)
        mu = extract_failing_mu(lam, params, 2)
        assert counts_signature(mu, params) < 0
        tower = quotient_tower(lam, 2)
        assert any(tower.label(w) == mu for w in tower.support() if w)

    def test_no_negative_label_is_an_invariant_error(self, monkeypatch):
        # a negative valuation with no negative tower label contradicts the
        # valuation decomposition, and must not pass as a bare assert
        from hookratio import InvariantError

        monkeypatch.setattr(integral_module, "counts_signature", lambda mu, params: 0)
        with pytest.raises(InvariantError):
            extract_failing_mu(parse_partition("66^55"), SPORADIC, 11)

    def test_extraction_digs_below_depth_one(self):
        # (4,4,4) decomposes at 2 into quotients (2) and (2,2), both with
        # signature 0 for these parameters; the negative labels only appear
        # one level further down
        from hookratio import compose

        params = RatioParams((2, 2), (1, 5))
        lam = compose(Partition(), [Partition((2,)), Partition((2, 2))], 2)
        assert lam == Partition((4, 4, 4))
        assert ratio_factored(lam, params).exponent(2) == -3
        tower = quotient_tower(lam, 2)
        assert all(
            counts_signature(tower.label(w), params) >= 0
            for w in tower.support() if len(w) == 1
        )
        assert extract_failing_mu(lam, params, 2) == Partition((1,))


class TestValuationDecomposition:
    def test_exponent_is_tower_signature_sum(self, balanced_grid, partitions_by_size):
        # the exponent at a prime p equals the sum of counts signatures
        # over the quotient tower labels at depth >= 1 (modulus p)
        from hookratio import iter_tower_levels

        rng = random.Random(5)
        for params in rng.sample(balanced_grid, 12):
            for n in range(10):
                for lam in partitions_by_size[n]:
                    fr = ratio_factored(lam, params)
                    for p in (2, 3, 5, 7, 11, 13):
                        total = sum(
                            counts_signature(label, params)
                            for level in iter_tower_levels(lam, p)
                            for label in level
                        )
                        assert fr.exponent(p) == total


class TestMultinomial:
    # t = 1 cancels s against st = s, which leaves no entry at all
    @pytest.mark.parametrize("s,t", [(1, 2), (2, 2), (3, 1), (1, 1), (2, 3)])
    def test_small_grid(self, s, t, partitions_by_size):
        for n in range(9):
            for lam in partitions_by_size[n]:
                assert check_multinomial(lam, s, t)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_multinomial(Partition((2,)), 0, 2)


class TestDivisorFamily:
    @pytest.mark.parametrize(
        # (3, (3,)) cancels to no entry at all
        "x,deltas", [(3, (6, 6)), (2, (4, 8, 8)), (2, (6, 6, 6)), (3, (3,))]
    )
    def test_holds_on_instances(self, x, deltas, partitions_by_size):
        for n in range(9):
            for lam in partitions_by_size[n]:
                assert check_divisor_family(lam, x, deltas)

    def test_divisibility_precondition(self):
        with pytest.raises(ValueError):
            check_divisor_family(Partition((6, 4, 2)), 3, (8, 12, 24, 24, 24))

    def test_balance_precondition(self):
        with pytest.raises(ValueError):
            check_divisor_family(Partition((2,)), 2, (4, 8))

    def test_failure_outside_the_family(self):
        # dividing fails for this five-delta set, and (6,4,2) witnesses the
        # loss of integrality through the inflation construction
        params = RatioParams((3,), (8, 12, 24, 24, 24))
        witness = Partition((6, 4, 2))
        assert counts_signature(witness, params) == -1
        p, lam = construct_failing_lambda(witness, params)
        assert not ratio_factored(lam, params).is_integral


class TestDecide:
    def test_certified_parity(self):
        verdict = decide(RatioParams((1,), (2, 2)), 40)
        assert verdict.status == STATUS_INTEGRAL
        assert verdict.exit_code == 0

    def test_certified_multinomial_shape(self):
        assert decide(RatioParams((3,), (6, 6)), 10).status == STATUS_INTEGRAL
        assert decide(RatioParams((2,), (4, 8, 8)), 10).status == STATUS_INTEGRAL

    def test_sporadic_fails_with_verified_witness(self):
        verdict = decide(SPORADIC, 30)
        assert verdict.status == STATUS_FAILS and verdict.exit_code == 1
        w = verdict.witness
        assert counts_signature(w.mu, SPORADIC) < 0
        assert verdict.valuation_at_p == ratio_factored(w.lam, SPORADIC).exponent(w.p)
        assert verdict.valuation_at_p < 0

    def test_hook_path_ignores_bound(self):
        assert decide(SPORADIC, 5).status == STATUS_FAILS

    def test_unknown_outside_whitelist(self):
        verdict = decide(WALKED, 5)
        assert verdict.status == STATUS_UNKNOWN
        assert verdict.exit_code == 2 and verdict.bound == 5

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            decide(RatioParams((2,), (3,)), 10)

    def test_certified_verdict_carries_no_bound(self):
        # the flow certifies without a search, so no size was searched
        verdict = decide(RatioParams((2, 3), (4, 4, 6, 6)), 10)
        assert verdict.status == STATUS_INTEGRAL and verdict.bound is None
        assert verdict.to_json_dict()["bound"] is None

    def test_memos_are_invisible(self, balanced_grid, survey_grid):
        # warm memos in one order give the verdicts that cold ones, cleared
        # before every call, give in the other
        pairs = balanced_grid + survey_grid
        memos = (_shape, build_ftable, factorize, _hook_values)

        def fields(verdict):
            w = verdict.witness
            return (verdict.status, w and (w.mu, w.p, w.lam), verdict.valuation_at_p)

        warm = [fields(decide(params, 16)) for params in pairs]
        cold = []
        for params in reversed(pairs):
            for memo in memos:
                memo.cache_clear()
            cold.append(fields(decide(params, 16)))
        assert warm == cold[::-1]
        assert sum(status == STATUS_FAILS for status, _, _ in warm) > len(pairs) // 2

    @pytest.mark.parametrize("params, bound", [(SPORADIC, 30), (WALKED, 6)])
    def test_fails_computes_the_signature_once(self, monkeypatch, params, bound):
        calls = []
        signature = integral_module._signature

        def counted(rec, signed):
            calls.append(Partition.from_runs(rec.runs))
            return signature(rec, signed)

        monkeypatch.setattr(integral_module, "_signature", counted)
        verdict = decide(params, bound)
        assert verdict.status == STATUS_FAILS
        assert calls == [verdict.witness.mu]

    def test_a_shared_witness_is_read_from_its_record(self, monkeypatch):
        # both pairs fail at the column 1,1 and read the same counts, N_2
        # of mu and N_6 of its dilation at p = 3: once the first has warmed
        # the record, the second reads no largest hook, no prime and no
        # count from the kernel
        first = decide(RatioParams((3, 4), (2, 12)), 16)

        def forbidden(*args):
            raise AssertionError(f"called with {args!r}")

        for module, name in (
            (integral_module, "largest_hook"),
            (integral_module, "next_prime_above"),
            (littlewood_module, "largest_hook"),
            (littlewood_module, "_hook_count"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        second = decide(RatioParams((3, 6), (2,)), 16)
        assert first.status == second.status == STATUS_FAILS
        assert second.witness == first.witness == (
            Partition((1, 1)), 3, Partition((3,) * 6)
        )
        assert second.valuation_at_p == -3

    def test_an_altered_count_of_the_dilation_is_caught(self, cold_shapes):
        # the record of the dilation holds counts of the shape only, and
        # the valuation formed from them must still be p times the
        # signature: a wrong count is a fault, never a verdict
        verdict = decide(SPORADIC, 30)
        lam_rec = cold_shapes(verdict.witness.mu.runs).dilation[1]
        lam_rec[min(lam_rec)] += 1
        with pytest.raises(
            InvariantError, match=f"expected {verdict.valuation_at_p} < 0"
        ):
            decide(SPORADIC, 30)

    @pytest.mark.parametrize(
        "gammas, deltas",
        # certified by the flow, failing by a hook shape, and searched
        [((1,), (2, 2)), ((1, 30), (2, 3, 5)), ((2,), (5, 10, 10, 10))],
    )
    def test_negative_bound_rejected(self, gammas, deltas):
        with pytest.raises(ValueError, match="size bound must be nonnegative"):
            decide(RatioParams(gammas, deltas), -1)

    def test_json_schema(self):
        payload = decide(SPORADIC, 30).to_json_dict()
        assert sorted(payload) == [
            "bound", "delta", "gamma", "status", "valuation_at_p", "witness",
        ]
        assert sorted(payload["witness"]) == ["lambda", "mu", "p"]

    def test_unknown_scans_hook_shapes_once(self, monkeypatch):
        calls = []
        scan = integral_module._hook_shape_scan

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(integral_module, "_hook_shape_scan", counted)
        verdict = decide(WALKED, 5)
        assert verdict.status == STATUS_UNKNOWN
        assert len(calls) == 1

    def test_search_lists_no_hooks(self, monkeypatch):
        # the exhaustive search reads every signature off the bead kernel
        def listing(lam):
            raise AssertionError(f"hooks of {lam!r} were listed")

        monkeypatch.setattr(integral_module, "hook_multiset", listing)
        verdict = decide(WALKED, 5)
        assert verdict.status == STATUS_UNKNOWN

    def test_reverification_survives_optimize_flag(self):
        # a witness whose valuation does not re-verify must raise even
        # when the interpreter strips assert statements
        script = (
            "import hookratio\n"
            "hookratio.integral._valuation = lambda rec, signed, p: 0\n"
            "try:\n"
            "    hookratio.decide(hookratio.RatioParams((1, 30), (2, 3, 5)), 10)\n"
            "except hookratio.InvariantError as exc:\n"
            "    print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised")

    def test_an_altered_count_is_caught_under_optimize_flag(self):
        script = (
            "import hookratio\n"
            "from hookratio.littlewood import _shape\n"
            "params = hookratio.RatioParams((1, 30), (2, 3, 5))\n"
            "mu = hookratio.decide(params, 30).witness.mu\n"
            "lam_rec = _shape(mu.runs).dilation[1]\n"
            "lam_rec[min(lam_rec)] += 1\n"
            "try:\n"
            "    hookratio.decide(params, 30)\n"
            "except hookratio.InvariantError as exc:\n"
            "    print('raised', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised")


@pytest.mark.parametrize("call, message", [
    (lambda: compose(Partition(), [], 1), "modulus must be >= 2, got 1"),
    (lambda: is_p_core(Partition((2, 1)), 1), "modulus must be >= 2, got 1"),
    (lambda: next(iter_tower_levels(Partition((2, 1)), 1)),
     "modulus must be >= 2, got 1"),
    (lambda: sumset({0}, {0}, 0), "modulus must be positive"),
    (lambda: check_divisor_family(Partition((2, 1)), 0, (2, 2)),
     "x must be positive and deltas nonempty"),
    (lambda: bober_families(0, 1), "x and y must be positive"),
    (lambda: factorize(0), "can only factorize positive integers, got 0"),
])
def test_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()

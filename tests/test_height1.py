import random
from math import gcd

import pytest

import hookratio.height1 as height1_module
import hookratio.partition as partition_module
from hookratio import (
    Height1ContradictionError,
    Partition,
    RatioParams,
    STATUS_FAILS,
    STATUS_INTEGRAL,
    bober_families,
    build_ftable,
    counts_signature,
    decide_height1,
    find_hook_witness,
    is_canonical_exception,
    period_sets,
    phi_bijection,
    ratio_valuation,
    sumset,
)

CHEBYSHEV = RatioParams((30, 1), (2, 3, 5))


def valid_bober_images(limit):
    for x in range(1, limit + 1):
        for y in range(1, limit + 1):
            if gcd(x, y) != 1:
                continue
            for alpha, beta in bober_families(x, y):
                if set(alpha) & set(beta):
                    continue
                yield (x, y), phi_bijection(RatioParams(alpha, beta))


class TestPeriodSets:
    def test_chebyshev_golden(self):
        sets = period_sets(CHEBYSHEV)
        assert sets.P == 30
        assert sets.Y == frozenset({5, 9, 11, 14, 17, 19, 23, 29})
        assert sets.A0 == frozenset(
            {0, 6, 10, 12, 15, 16, 18, 20, 21, 22, 24, 25, 26, 27, 28}
        )
        assert sets.A1 == frozenset(range(30)) - sets.A0

    def test_parity_golden(self):
        sets = period_sets(RatioParams((1,), (2, 2)))
        assert (sets.P, sets.A0, sets.A1, sets.Y) == (
            2, frozenset({0}), frozenset({1}), frozenset({1}),
        )

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            period_sets(RatioParams((2,), (3,)))

    def test_wrong_height_rejected(self):
        with pytest.raises(ValueError):
            period_sets(RatioParams((2, 3), (1, 30)))

    def test_one_row_failure_rejected(self):
        with pytest.raises(ValueError):
            period_sets(RatioParams((3, 4), (2, 24, 24)))

    def test_invariants_over_family_images(self):
        for _, params in valid_bober_images(5):
            sets = period_sets(params)
            assert len(sets.A0) == len(sets.A1) == sets.P // 2
            assert sets.P % 2 == 0
            assert sets.P - 1 in sets.Y


class TestSumset:
    def test_chebyshev_sumset_misses_only_29(self):
        sets = period_sets(CHEBYSHEV)
        report = sumset(sets.A0, sets.A0, 30)
        assert report.sumset == frozenset(range(30)) - {29}
        assert report.stabilizer == frozenset({0})

    def test_singletons(self):
        report = sumset({0}, {0}, 5)
        assert report.sumset == frozenset({0})
        assert report.stabilizer == frozenset({0})

    @pytest.mark.parametrize("step", [1, 2, 3, 4, 6, 12])
    def test_subgroups_of_z12(self, step):
        subgroup = frozenset(range(0, 12, step))
        report = sumset(subgroup, subgroup, 12)
        assert report.sumset == subgroup
        assert report.stabilizer == subgroup

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sumset(set(), {1}, 5)

    def test_kneser_inequality_random(self):
        rng = random.Random(99)
        for _ in range(2000):
            P = rng.randint(1, 30)
            A = {rng.randrange(P) for _ in range(rng.randint(1, P))}
            B = {rng.randrange(P) for _ in range(rng.randint(1, P))}
            report = sumset(A, B, P)
            assert report.kneser_lhs >= report.kneser_rhs
            assert 0 in report.stabilizer
            shifted = {(s + g) % P for s in report.sumset for g in report.stabilizer}
            assert shifted == report.sumset

    def test_trivial_stabilizer_over_family_images(self):
        for _, params in valid_bober_images(5):
            sets = period_sets(params)
            assert sumset(sets.A0, sets.A0, sets.P).stabilizer == frozenset({0})

    def test_trivial_stabilizer_over_grid(self, balanced_grid):
        from hookratio import landau_one_row_check

        for params in balanced_grid:
            if params.height != 1 or not landau_one_row_check(params):
                continue
            sets = period_sets(params)
            assert sumset(sets.A0, sets.A0, sets.P).stabilizer == frozenset({0})


class TestCanonicalException:
    @pytest.mark.parametrize("x", [1, 3, 7])
    def test_positive(self, x):
        assert is_canonical_exception(RatioParams((x,), (2 * x, 2 * x)))

    def test_negative(self):
        assert not is_canonical_exception(RatioParams((1, 30), (2, 3, 5)))
        assert not is_canonical_exception(RatioParams((3,), (4, 12)))


class TestDecideHeight1:
    def test_chebyshev_fails_with_hook_witness(self):
        verdict = decide_height1(CHEBYSHEV)
        assert verdict.status == STATUS_FAILS
        w = verdict.witness
        assert counts_signature(w.mu, CHEBYSHEV) == -1
        assert verdict.valuation_at_p < 0

    def test_15_24_satisfies_the_witness_condition(self):
        table = build_ftable(CHEBYSHEV)
        a, l = 15, 24
        assert table.f(a) == 0 and table.f(l) == 0
        assert table.f(a + l) == 1 and table.f(a + l + 1) == 0

    @pytest.mark.parametrize("x", list(range(1, 21)))
    def test_canonical_family_certified(self, x):
        verdict = decide_height1(RatioParams((x,), (2 * x, 2 * x)))
        assert verdict.status == STATUS_INTEGRAL

    def test_one_row_failure_gives_one_row_witness(self):
        params = RatioParams((3, 4), (2, 24, 24))
        verdict = decide_height1(params)
        assert verdict.status == STATUS_FAILS
        assert verdict.witness.mu == Partition((2,))
        assert verdict.witness.p == 3
        assert verdict.valuation_at_p == -3

    def test_witness_reverification_lists_no_large_hooks(self, monkeypatch):
        # the 223,260-cell witness is checked on its beads, and the
        # signatures of mu come from the same bead kernel: no hook is listed
        sizes = []
        hook_values = partition_module._hook_values

        def recording(parts):
            sizes.append(sum(parts))
            return hook_values(parts)

        monkeypatch.setattr(partition_module, "_hook_values", recording)
        verdict = decide_height1(RatioParams((35,), (60, 84)))
        assert verdict.status == STATUS_FAILS
        assert verdict.witness.lam.size == 223_260
        assert sizes == []

    def test_bober_images_all_fail(self):
        for (x, y), params in valid_bober_images(6):
            if (x, y) == (1, 1):
                continue
            verdict = decide_height1(params)
            assert verdict.status == STATUS_FAILS, params
            w = verdict.witness
            assert counts_signature(w.mu, params) == -1
            assert ratio_valuation(w.lam, params, w.p) < 0

    def test_fails_iff_not_canonical(self, balanced_grid):
        for params in balanced_grid:
            if params.height != 1 or not params.is_balanced:
                continue
            verdict = decide_height1(params)
            assert (verdict.status == STATUS_FAILS) == (
                not is_canonical_exception(params)
            )

    def test_wrong_height_rejected(self):
        with pytest.raises(ValueError):
            decide_height1(RatioParams((1,), (2, 3, 6)))

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            decide_height1(RatioParams((3,), (4, 4)))

    def test_contradiction_diagnostic(self, monkeypatch):
        # forcing an empty scan on a non-exceptional input must raise, not
        # return a verdict
        monkeypatch.setattr(
            height1_module, "find_hook_witness", lambda params: None
        )
        with pytest.raises(Height1ContradictionError):
            decide_height1(RatioParams((3,), (4, 12)))

    def test_witness_signature_is_exactly_minus_one(self):
        for _, params in valid_bober_images(4):
            found = find_hook_witness(params)
            if found is None:
                continue
            a, l = found
            table = build_ftable(params)
            assert table.f(a) == 0 and table.f(l) == 0
            assert table.f(a + l) == 1 and table.f(a + l + 1) == 0

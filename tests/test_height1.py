import random
from math import gcd

import pytest

import hookratio.height1 as height1_module
import hookratio.integral as integral_module
import hookratio.partition as partition_module
from conftest import oracle_hook_shape_scan
from hookratio import (
    Height1ContradictionError,
    Partition,
    RatioParams,
    STATUS_FAILS,
    STATUS_INTEGRAL,
    SumsetReport,
    bober_families,
    build_ftable,
    counts_signature,
    decide,
    decide_height1,
    is_canonical_exception,
    landau_one_row_check,
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

    def test_matches_per_residue_definition(self, balanced_grid):
        pairs = [p for p in balanced_grid if p.height == 1]
        pairs += [params for _, params in valid_bober_images(6)]
        pairs = [p for p in pairs if landau_one_row_check(p)]
        assert len(pairs) > 6
        for params in pairs:
            table = build_ftable(params)
            vals, P = table.values, table.M
            sets = period_sets(params)
            assert sets.A0 == {x for x in range(P) if vals[x] == 0}
            assert sets.A1 == {x for x in range(P) if vals[x] == 1}
            assert sets.Y == {
                y for y in range(P) if vals[y] == 1 and vals[(y + 1) % P] == 0
            }

    def test_invariants_over_family_images(self):
        for _, params in valid_bober_images(5):
            sets = period_sets(params)
            assert len(sets.A0) == len(sets.A1) == sets.P // 2
            assert sets.P % 2 == 0
            assert sets.P - 1 in sets.Y

    def test_level_sets_off_half_the_period_are_a_contradiction(
        self, monkeypatch
    ):
        # f = 0 on the whole period passes the one-row check, but its level
        # set A0 fills the period, not half of it
        table = build_ftable(CHEBYSHEV)
        flat = table._replace(values=(0,) * table.M, max=0)
        monkeypatch.setattr(height1_module, "build_ftable", lambda params: flat)
        with pytest.raises(
            Height1ContradictionError, match="break the height 1 classification"
        ):
            period_sets(CHEBYSHEV)


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

    def test_matches_brute_force_oracle(self):
        # the stabilizer step is found as the first shift at which the
        # sumset's digit string recurs in itself doubled; the oracle tries
        # every g in Z/P and builds every set by definition
        rng = random.Random(7)
        for _ in range(400):
            P = rng.randint(1, 60)
            A = {rng.randrange(P) for _ in range(rng.randint(1, P))}
            B = {rng.randrange(P) for _ in range(rng.randint(1, P))}
            if rng.random() < 0.3:  # unions of cosets have a large stabilizer
                d = rng.choice([d for d in range(1, P + 1) if P % d == 0])
                A = {(a + k) % P for a in A for k in range(0, P, d)}
            S = frozenset((a + b) % P for a in A for b in B)
            H = frozenset(g for g in range(P) if {(s + g) % P for s in S} == S)
            A_H = {(a + h) % P for a in A for h in H}
            B_H = {(b + h) % P for b in B for h in H}
            assert sumset(A, B, P) == SumsetReport(
                P, S, H, len(S), len(A_H) + len(B_H) - len(H)
            ), (P, A, B)

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


class TestHeight1Identity:
    def test_sumset_misses_the_stabilizer_less_one(self, balanced_grid):
        # with the one-row check passing, f(x) + f(P-1-x) = 1 at height 1,
        # so A1 = P-1-A0; then y is missed by A0 + A0 iff A0 - (y+1) lies
        # in A0, that is iff y + 1 stabilizes A0. The decision on each pair
        # is decide's, and its flow certifies exactly the exception
        pairs = [p for p in balanced_grid if p.height == 1]
        pairs += [params for _, params in valid_bober_images(15)]
        pairs = [p for p in pairs if landau_one_row_check(p)]
        assert len(pairs) == 359
        for params in pairs:
            sets = period_sets(params)
            P = sets.P
            assert sets.A1 == {P - 1 - x for x in sets.A0}
            stabilizer = sumset(sets.A0, {0}, P).stabilizer
            missed = frozenset(range(P)) - sumset(sets.A0, sets.A0, P).sumset
            assert missed == {(g - 1) % P for g in stabilizer}
            assert len(missed) == 1
            verdict = decide_height1(params)
            for bound in (0, 8):
                assert verdict == decide(params, bound)._replace(bound=None)
            assert integral_module._certified_by_flow(params) == (
                is_canonical_exception(params)
            )


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

    def test_witness_stays_in_runs(self):
        # the 5.1M-cell witness of M = 1,710 is built from runs, re-verified
        # on its runs and formatted from its runs; its rows are never listed
        verdict = decide_height1(RatioParams((90,), (171, 190)))
        lam = verdict.witness.lam
        assert len(lam.runs) == 2 and lam.size > 5_000_000
        with pytest.raises(AttributeError):
            Partition.parts.__get__(lam)
        assert verdict.witness.to_json_dict()["lambda"].count(",") == 1
        with pytest.raises(AttributeError):
            Partition.parts.__get__(lam)

    def test_hook_witness_matches_oracle_on_family_images(self):
        for _, params in valid_bober_images(6):
            assert integral_module._hook_shape_scan(params) == oracle_hook_shape_scan(params)

    def test_one_row_witness_is_the_least_negative_x(self, balanced_grid):
        pairs = [
            p for p in balanced_grid
            if p.height == 1 and not landau_one_row_check(p)
        ]
        assert len(pairs) == 27
        for params in pairs:
            values = build_ftable(params).values
            least = min(x for x in range(len(values)) if values[x] < 0)
            assert decide_height1(params).witness.mu == Partition((least,))

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
            integral_module, "_hook_shape_scan", lambda params: None
        )
        with pytest.raises(Height1ContradictionError, match="contradicts"):
            decide_height1(RatioParams((3,), (4, 12)))

    def test_fails_beside_a_flow_certificate_is_a_contradiction(self, monkeypatch):
        # only the name height1 calls certifies the pair, so decide's own
        # flow still rejects it and its scan finds the witness
        params = RatioParams((3,), (4, 12))
        monkeypatch.setattr(
            height1_module, "_certified_by_flow", lambda p: p == params
        )
        assert decide(params, 0).status == STATUS_FAILS
        with pytest.raises(Height1ContradictionError, match="flow certifies"):
            decide_height1(params)
        # a one-row failure is held to the flow too
        one_row = RatioParams((3, 4), (2, 24, 24))
        monkeypatch.setattr(
            height1_module, "_certified_by_flow", lambda p: p == one_row
        )
        with pytest.raises(Height1ContradictionError, match="flow certifies"):
            decide_height1(one_row)

    def test_hook_witness_of_valuation_other_than_minus_p_is_a_contradiction(
        self, monkeypatch
    ):
        # a re-checked witness of signature -1 has valuation -p at p; any
        # other valuation must raise the contradiction
        verified = integral_module._verified_fails

        def doubled(params, mu, bound):
            verdict = verified(params, mu, bound)
            return verdict._replace(valuation_at_p=2 * verdict.valuation_at_p)

        monkeypatch.setattr(integral_module, "_verified_fails", doubled)
        with pytest.raises(Height1ContradictionError, match="other than -1"):
            decide_height1(RatioParams((3,), (4, 12)))

    @pytest.mark.parametrize("found", [(0, 0), (0, 1)])
    def test_hook_witness_of_nonnegative_signature_is_a_contradiction(
        self, monkeypatch, found
    ):
        # (1) and (1, 1) have signature >= 0 here: such a hook witness must
        # raise the contradiction, not a plain input error
        params = RatioParams((3,), (4, 12))
        assert all(
            counts_signature(Partition((1,) * (1 + l)), params) >= 0
            for l in (0, 1)
        )
        monkeypatch.setattr(
            integral_module, "_hook_shape_scan", lambda params: found
        )
        with pytest.raises(Height1ContradictionError, match="other than -1"):
            decide_height1(params)

    def test_witness_signature_is_exactly_minus_one(self):
        for _, params in valid_bober_images(4):
            found = integral_module._hook_shape_scan(params)
            if found is None:
                continue
            a, l = found
            table = build_ftable(params)
            assert table.f(a) == 0 and table.f(l) == 0
            assert table.f(a + l) == 1 and table.f(a + l + 1) == 0

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its time budget (run with ``pytest -s`` to see the
lines as they appear)."""

import random
import time
from collections import Counter
from contextlib import contextmanager
from math import gcd

import pytest

from hookratio import (
    Partition,
    RatioParams,
    STATUS_FAILS,
    STATUS_INTEGRAL,
    bober_families,
    build_ftable,
    check_divisor_family,
    check_multinomial,
    compose,
    construct_failing_lambda,
    counts_signature,
    decide_height1,
    decompose,
    enumerate_partitions,
    extract_failing_mu,
    f_value,
    hook_multiset,
    is_canonical_exception,
    landau_one_row_check,
    parse_partition,
    period_sets,
    phi_bijection,
    ratio_factored,
    ratio_valuation,
    restricted_hooks,
    sumset,
    to_boundary,
    valuation_hook_product,
)

from conftest import oracle_factorize

SPORADIC = RatioParams((1, 30), (2, 3, 5))


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(
            f"[acceptance] criterion {number}: FAIL "
            f"({description}; {elapsed:.3f}s over the {budget_seconds}s budget)"
        )
        raise AssertionError(
            f"criterion {number} took {elapsed:.3f}s, budget {budget_seconds}s"
        )
    print(
        f"[acceptance] criterion {number}: PASS "
        f"({description}; {elapsed:.3f}s)"
    )


def _timed(f):
    t0 = time.perf_counter()
    f()
    return time.perf_counter() - t0


def test_criterion_01_littlewood_golden():
    lam = Partition((18, 7, 6))
    decompose(lam, 3)  # warm caches before timing
    with criterion(1, "decomposition golden at p=3, under 1 ms", 5.0):
        best = min(_timed(lambda: decompose(lam, 3)) for _ in range(10))
        assert best < 1e-3, f"decompose took {best * 1e3:.3f} ms"
        dec = decompose(lam, 3)
        assert dec.core == Partition((3, 1))
        assert dec.quotients == (Partition((2,)), Partition(), Partition((5, 2)))
        b = to_boundary(lam)
        assert [i for i in b.zero_positions() if i >= 0] == [3, 5, 17]
        assert 31 == dec.core.size + 3 * dec.total_quotient_size() == lam.size


def test_criterion_02_explicit_counterexample():
    printed = {
        2: 60, 3: 53, 5: 9, 7: 35, 11: -11, 19: 12, 23: 23, 29: 29, 31: 31,
        37: 37, 41: 41, 43: 43, 47: 47, 53: 53, 59: 55, 61: 55, 67: 54,
        71: 50, 73: 48, 79: 42, 83: 38, 89: 32, 97: 24, 101: 20, 103: 18,
        107: 14, 109: 12, 113: 8,
    }
    with criterion(2, "counterexample construction and factorization", 5.0):
        mu = parse_partition("6^5")
        assert counts_signature(mu, SPORADIC) == -1
        p, lam = construct_failing_lambda(mu, SPORADIC)
        assert p == 11
        assert lam == parse_partition("66^55")
        fr = ratio_factored(lam, SPORADIC)
        assert fr.exponents == printed
        assert fr.exponent(13) == 0 and fr.exponent(17) == 0
        assert fr.exponent(11) == -11


def test_criterion_03_height1_worked_example():
    params = RatioParams((30, 1), (2, 3, 5))
    with criterion(3, "period table, level sets and witness", 1.0):
        table = build_ftable(params)
        assert table.values == (
            0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1,
            0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1,
        )
        assert table.M == 30
        sets = period_sets(params)
        assert sets.Y == frozenset({5, 9, 11, 14, 17, 19, 23, 29})
        assert sets.A0 == frozenset(
            {0, 6, 10, 12, 15, 16, 18, 20, 21, 22, 24, 25, 26, 27, 28}
        )
        report = sumset(sets.A0, sets.A0, 30)
        assert report.sumset == frozenset(range(30)) - {29}
        verdict = decide_height1(params)
        assert verdict.status == STATUS_FAILS
        mu = verdict.witness.mu
        arm, leg = mu.parts[0] - 1, len(mu.parts) - 1
        for a, l in [(arm, leg), (15, 24)]:
            assert table.f(a) == 0 and table.f(l) == 0
            assert table.f(a + l) == 1 and table.f(a + l + 1) == 0


def test_criterion_04_littlewood_suite(partitions_by_size):
    with criterion(4, "round trips and quotient multiset identity", 60.0):
        for n in range(13):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 4, 5, 6):
                    dec = decompose(lam, p)
                    assert compose(dec.core, dec.quotients, p) == lam
                    assert lam.size == dec.core.size + p * dec.total_quotient_size()
                    union = Counter()
                    for q in dec.quotients:
                        union.update(hook_multiset(q))
                    assert union == restricted_hooks(lam, p)


def test_criterion_05_valuation_oracle(partitions_by_size):
    with criterion(5, "valuations against direct factorization", 60.0):
        for n in range(13):
            for lam in partitions_by_size[n]:
                factored = Counter()
                for h in hook_multiset(lam).elements():
                    factored.update(oracle_factorize(h))
                for p in (2, 3, 5, 7, 11):
                    assert valuation_hook_product(lam, p) == factored[p]
        # composite moduli: one extra factor of 6 in 720 comes from a 2
        # and a 3 in different hooks, invisible to the cell count
        from hookratio import cells_with_exact_valuation

        lam = Partition((6,))
        assert cells_with_exact_valuation(lam, 6, 1) == 1
        v6 = 0
        n = 720
        while n % 6 == 0:
            v6 += 1
            n //= 6
        assert v6 == 2
        with pytest.raises(ValueError):
            valuation_hook_product(lam, 6)


def test_criterion_06_equivalence_harness(balanced_grid, partitions_by_size):
    small = [lam for n in range(11) for lam in partitions_by_size[n]]
    with criterion(6, "both criterion directions across the grid", 600.0):
        assert len(balanced_grid) >= 50
        for params in balanced_grid:
            negative = [
                mu for mu in small if counts_signature(mu, params) < 0
            ]
            failing = [
                (lam, fr) for lam in small
                for fr in [ratio_factored(lam, params)]
                if not fr.is_integral
            ]
            if not negative:
                assert not failing
            for mu in negative:
                p, lam = construct_failing_lambda(mu, params)
                vp = ratio_valuation(lam, params, p)
                assert vp == p * counts_signature(mu, params)
                assert vp < 0
            for lam, fr in failing:
                p = min(q for q, e in fr.exponents.items() if e < 0)
                mu = extract_failing_mu(lam, params, p)
                assert counts_signature(mu, params) < 0


def test_criterion_07_multinomial_suite(partitions_by_size):
    with criterion(7, "multinomial and divisor family instances", 120.0):
        for n in range(13):
            for lam in partitions_by_size[n]:
                for s in (1, 2, 3, 4):
                    for t in (1, 2, 3, 4):
                        assert check_multinomial(lam, s, t)
        instances = [(3, (6, 6)), (2, (4, 8, 8)), (2, (6, 6, 6))]
        for n in range(13):
            for lam in partitions_by_size[n]:
                for x, deltas in instances:
                    assert check_divisor_family(lam, x, deltas)
        bad = RatioParams((3,), (8, 12, 24, 24, 24))
        witness = Partition((6, 4, 2))
        assert counts_signature(witness, bad) == -1
        with pytest.raises(ValueError):
            check_divisor_family(witness, 3, (8, 12, 24, 24, 24))


def test_criterion_08_height1_classification():
    with criterion(8, "height 1 classification, both verdicts", 120.0):
        for x in range(1, 21):
            verdict = decide_height1(RatioParams((x,), (2 * x, 2 * x)))
            assert verdict.status == STATUS_INTEGRAL
        checked = 0
        for x in range(1, 7):
            for y in range(1, 7):
                if gcd(x, y) != 1:
                    continue
                for alpha, beta in bober_families(x, y):
                    if set(alpha) & set(beta):
                        # outside the classification's own preconditions
                        continue
                    if (x, y) == (1, 1):
                        continue
                    image = phi_bijection(RatioParams(alpha, beta))
                    verdict = decide_height1(image)
                    assert verdict.status == STATUS_FAILS
                    w = verdict.witness
                    assert ratio_valuation(w.lam, image, w.p) < 0
                    checked += 1
        assert checked == 52


def test_criterion_09_kneser_sanity():
    with criterion(9, "Kneser inequality on random subsets", 10.0):
        rng = random.Random(20240809)
        for _ in range(10_000):
            P = rng.randint(1, 30)
            A = {rng.randrange(P) for _ in range(rng.randint(1, P))}
            B = {rng.randrange(P) for _ in range(rng.randint(1, P))}
            report = sumset(A, B, P)
            assert report.kneser_lhs >= report.kneser_rhs


def test_criterion_10_step_function_properties(balanced_grid):
    with criterion(10, "periodicity, reflection and range bounds", 30.0):
        for params in balanced_grid:
            table = build_ftable(params)
            m = table.M
            for x in range(2 * m):
                assert f_value(x + m, params) == f_value(x, params)
            h = params.height
            for x in range(m):
                assert table.values[x] + table.values[m - 1 - x] == h
            assert table.values[m - 1] == h
            if landau_one_row_check(params):
                assert table.min >= 0 and table.max <= h

import random
from collections import Counter
from math import ceil, log

import pytest

from hookratio import (
    Partition,
    cells_with_exact_valuation,
    compose,
    core_tower,
    decompose,
    enumerate_partitions,
    hook_count_divisible,
    hook_multiset,
    is_p_core,
    iter_tower_levels,
    p_core,
    parse_partition,
    quotient_tower,
    restricted_hooks,
    valuation_hook_product,
)
from hookratio.littlewood import (
    _hook_count,
    divisible_hook_counts,
    largest_hook,
)

from conftest import (
    oracle_decompose,
    oracle_divisible_hook_counts,
    oracle_factorize,
    oracle_hooks,
    oracle_p_core,
)


class TestDecompose:
    def test_18_7_6_at_3(self):
        dec = decompose(Partition((18, 7, 6)), 3)
        assert dec.core == Partition((3, 1))
        assert dec.quotients == (Partition((2,)), Partition(), Partition((5, 2)))
        assert sum(dec.charges) == 0
        assert dec.core.size + 3 * dec.total_quotient_size() == 31

    def test_core_input_gives_trivial_quotients(self):
        lam = Partition((6, 4, 2))  # a 3-core
        dec = decompose(lam, 3)
        assert dec.core == lam
        assert all(q == Partition() for q in dec.quotients)

    def test_6_at_2(self):
        dec = decompose(Partition((6,)), 2)
        assert dec.quotients == (Partition(), Partition((3,)))
        assert dec.core == Partition()
        assert 6 == dec.core.size + 2 * dec.total_quotient_size()

    def test_empty(self):
        dec = decompose(Partition(), 5)
        assert dec.core == Partition()
        assert dec.quotients == (Partition(),) * 5

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            decompose(Partition((3,)), 1)

    def test_charges_sum_to_zero(self, partitions_by_size):
        for n in range(11):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 5):
                    assert sum(decompose(lam, p).charges) == 0


    def test_matches_boundary_oracle(self):
        # runners and charges read off the beads agree with deinterleaving
        # the boundary sequence, on every partition of size <= 14
        for n in range(15):
            for lam in enumerate_partitions(n):
                for p in range(2, 8):
                    dec = decompose(lam, p)
                    assert (dec.core, dec.quotients, dec.charges) == (
                        oracle_decompose(lam, p)
                    ), (lam, p)

    @pytest.mark.parametrize("literal,p", [("100^80", 2), ("66^55", 11)])
    def test_matches_boundary_oracle_on_rectangles(self, literal, p):
        lam = parse_partition(literal)
        dec = decompose(lam, p)
        assert (dec.core, dec.quotients, dec.charges) == oracle_decompose(lam, p)


class TestCompose:
    def test_66_55_golden(self):
        lam = compose(Partition(), [parse_partition("6^5")] * 11, 11)
        assert lam == parse_partition("66^55")

    def test_core_with_empty_quotients(self):
        core = Partition((3, 1))
        assert compose(core, [Partition()] * 3, 3) == core

    def test_rejects_non_core(self):
        with pytest.raises(ValueError):
            compose(Partition((3,)), [Partition()] * 3, 3)

    def test_rejects_wrong_quotient_count(self):
        with pytest.raises(ValueError):
            compose(Partition(), [Partition()] * 2, 3)

    def test_roundtrip_decompose_then_compose(self, partitions_by_size):
        for n in range(10):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 4, 5):
                    dec = decompose(lam, p)
                    assert compose(dec.core, dec.quotients, p) == lam

    def test_roundtrip_larger_random_shapes(self):
        rng = random.Random(31337)
        for _ in range(250):
            parts = sorted(
                (rng.randint(1, 14) for _ in range(rng.randint(0, 9))),
                reverse=True,
            )
            lam = Partition(parts)
            p = rng.randint(2, 9)
            dec = decompose(lam, p)
            assert compose(dec.core, dec.quotients, p) == lam
            assert lam.size == dec.core.size + p * dec.total_quotient_size()
            assert is_p_core(dec.core, p)
            union = Counter()
            for q in dec.quotients:
                union.update(hook_multiset(q))
            assert union == restricted_hooks(lam, p)

    def test_roundtrip_compose_then_decompose_exhaustive(self):
        # every (core, quotients) pair whose composition has size <= 12
        def quotient_tuples(slots, budget):
            if slots == 0:
                yield ()
                return
            for n in range(budget + 1):
                for head in enumerate_partitions(n):
                    for tail in quotient_tuples(slots - 1, budget - n):
                        yield (head,) + tail

        for p in (2, 3, 4, 5, 6):
            cores = [
                lam for n in range(13) for lam in enumerate_partitions(n)
                if is_p_core(lam, p)
            ]
            for core in cores:
                budget = (12 - core.size) // p
                for quotients in quotient_tuples(p, budget):
                    lam = compose(core, quotients, p)
                    dec = decompose(lam, p)
                    assert (dec.core, dec.quotients) == (core, quotients)


class TestPCore:
    def test_18_7_6(self):
        assert p_core(Partition((18, 7, 6)), 3) == Partition((3, 1))

    def test_idempotent_on_cores(self):
        assert p_core(Partition((3, 1)), 3) == Partition((3, 1))

    def test_5_2_at_3(self):
        assert p_core(Partition((5, 2)), 3) == Partition((1,))

    def test_matches_decompose_core(self, partitions_by_size):
        for n in range(11):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 4, 5, 6):
                    assert oracle_p_core(lam, p) == decompose(lam, p).core

    def test_removal_order_does_not_matter(self, partitions_by_size):
        for seed in range(4):
            rng = random.Random(seed)
            for n in range(13):
                for lam in partitions_by_size[n]:
                    for p in (2, 3, 5):
                        assert oracle_p_core(lam, p, rng=rng) == p_core(lam, p)

    def test_result_is_a_core(self, partitions_by_size):
        for n in range(11):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 4):
                    assert is_p_core(p_core(lam, p), p)


class TestIsPCore:
    def test_6_4_2_is_3_core(self):
        assert is_p_core(Partition((6, 4, 2)), 3)
        assert 8 in hook_multiset(Partition((6, 4, 2)))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_one_row_of_length_p(self, p):
        assert not is_p_core(Partition((p,)), p)

    def test_2_at_3(self):
        assert is_p_core(Partition((2,)), 3)

    def test_equivalent_to_divisibility(self, partitions_by_size):
        # no hook equal to p exactly iff no hook divisible by p
        for n in range(13):
            for lam in partitions_by_size[n]:
                for p in range(2, 9):
                    divisible = any(h % p == 0 for h in hook_multiset(lam))
                    assert is_p_core(lam, p) == (not divisible)


class TestTowers:
    def test_quotient_tower_18_7_6(self):
        tower = quotient_tower(Partition((18, 7, 6)), 3)
        assert tower.label(()) == Partition((18, 7, 6))
        assert tower.label((0,)) == Partition((2,))
        assert tower.label((1,)) == Partition()
        assert tower.label((2,)) == Partition((5, 2))
        assert tower.label((2, 1)) == Partition((2,))

    def test_core_tower_18_7_6(self):
        tower = core_tower(Partition((18, 7, 6)), 3)
        assert tower.label(()) == Partition((3, 1))
        assert tower.label((2,)) == Partition((1,))

    def test_core_tower_6_at_2(self):
        tower = core_tower(Partition((6,)), 2)
        assert tower.label(()) == Partition()
        nonempty = {w: tower.label(w) for w in tower.support()}
        assert nonempty == {(1,): Partition((1,)), (1, 0): Partition((1,))}

    def test_empty_partition(self):
        tower = quotient_tower(Partition(), 3)
        assert tower.support() == []
        assert tower.label((0, 1)) == Partition()

    def test_core_of_p_core_tower_is_root_only(self):
        tower = quotient_tower(Partition((3, 1)), 3)
        assert tower.support() == [()]

    def test_invalid_word_digit(self):
        tower = quotient_tower(Partition((4,)), 2)
        with pytest.raises(ValueError):
            tower.label((2,))

    def test_depth_bound(self, partitions_by_size):
        for n in range(1, 13):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 5):
                    assert quotient_tower(lam, p).depth() <= ceil(
                        log(lam.size + 1, p)
                    ) + 1e-9

    def test_size_bookkeeping(self, partitions_by_size):
        # |lam| equals the p-power weighted sum of core tower label sizes
        for n in range(13):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 5):
                    tower = core_tower(lam, p)
                    total = sum(
                        p ** len(w) * tower.label(w).size
                        for w in tower.support()
                    )
                    assert total == lam.size

    def test_levels_follow_the_tower_support(self, partitions_by_size):
        # iter_tower_levels and quotient_tower read the same walk: level d
        # lists the depth-d labels in the order of their words
        for n in range(11):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 4):
                    tower = quotient_tower(lam, p)
                    levels = [[] for _ in range(tower.depth())]
                    for w in tower.support():
                        if w:
                            levels[len(w) - 1].append(tower.label(w))
                    assert list(iter_tower_levels(lam, p)) == levels

    def test_levels_are_built_on_request(self, monkeypatch):
        # reading level 1 decomposes only the root; level 2 is built from
        # the level-1 labels when it is asked for
        import hookratio.littlewood as littlewood_module

        calls = []
        real = littlewood_module.decompose

        def counted(lam, p):
            calls.append(lam)
            return real(lam, p)

        monkeypatch.setattr(littlewood_module, "decompose", counted)
        levels = iter_tower_levels(parse_partition("66^55"), 11)
        assert next(levels) == [parse_partition("6^5")] * 11
        assert len(calls) == 1
        assert list(levels) == []
        assert len(calls) == 12

    def test_serialization(self):
        # the core of the quotient label (2) is (2) itself, so the words 0
        # and 2.1 carry nonempty labels too
        tower = core_tower(Partition((18, 7, 6)), 3)
        assert tower.to_json_dict() == {"": "3,1", "0": "2", "2": "1", "2.1": "2"}
        qt = quotient_tower(Partition((18, 7, 6)), 3)
        assert qt.to_json_dict() == {
            "": "18,7,6", "0": "2", "2": "5,2", "2.1": "2",
        }


class TestHookCounts:
    def test_rectangle_goldens(self):
        lam = parse_partition("6^5")
        assert hook_count_divisible(lam, 1) == 30
        assert hook_count_divisible(lam, 2) == 15
        assert hook_count_divisible(lam, 3) == 10
        assert hook_count_divisible(lam, 5) == 6
        assert hook_count_divisible(lam, 30) == 0

    def test_count_at_one_is_size(self, partitions_by_size):
        for n in range(13):
            for lam in partitions_by_size[n]:
                assert hook_count_divisible(lam, 1) == lam.size

    def test_18_7_6_at_3(self):
        assert hook_count_divisible(Partition((18, 7, 6)), 3) == 9

    def test_matches_box_counting_oracle(self):
        for n in range(15):
            for lam in enumerate_partitions(n):
                hooks = oracle_hooks(lam.parts)
                for m in range(1, 17):
                    assert hook_count_divisible(lam, m) == sum(
                        1 for h in hooks if h % m == 0
                    ), (lam, m)

    def test_intervals_match_row_oracle(self):
        moduli = range(1, 20)
        for n in range(16):
            for lam in enumerate_partitions(n):
                assert divisible_hook_counts(lam, moduli) == (
                    oracle_divisible_hook_counts(lam, moduli)
                ), lam

    def test_intervals_match_row_oracle_on_long_runs(self):
        # dilations and random run lists: runs longer than the moduli,
        # arcs that wrap past the last runner, and short runs beside long
        rng = random.Random(17)
        shapes = [
            Partition.from_runs([(p * v, p * m) for v, m in mu.runs])
            for mu in (Partition((3, 1, 1)), Partition((6, 4, 2)), Partition((2, 2, 1)))
            for p in (2, 5, 11, 23)
        ]
        for _ in range(150):
            runs, value = [], rng.randint(40, 400)
            while value > 0 and len(runs) < 10:
                runs.append((value, rng.choice([1, 2, 3, 7, 15, 16, 17, 40, 99])))
                value -= rng.randint(1, 40)
            shapes.append(Partition.from_runs(runs))
        shapes.append(Partition(range(300, 0, -1)))  # staircase: all runs of 1
        # every modulus for runs of one part beside one long run, whose bead
        # interval [39, 52) makes an arc ending at runner m - 1 at m = 26
        # and 52 and one wrapping past it at m = 10, and for a mix of short
        # and long runs
        every = [
            Partition.from_runs(
                [(v, 1) for v in range(40, 20, -1)]
                + [(20, 13)]
                + [(v, 1) for v in range(19, 0, -1)]
            ),
            Partition.from_runs(
                [(30, 4), (25, 1), (24, 6), (20, 1), (12, 9), (5, 1), (3, 2)]
            ),
        ]
        for lam in shapes + every:
            top = lam.parts[0] + len(lam) - 1
            if lam in every:
                moduli = range(1, top + 3)
            else:
                moduli = sorted({rng.randint(1, top + 2) for _ in range(25)} | {1, 2, 3})
            assert divisible_hook_counts(lam, moduli) == (
                oracle_divisible_hook_counts(lam, moduli)
            ), lam.runs

    def test_run_built_shape_stays_in_runs(self):
        # 2 * 10^9 rows: the count reads only the two runs. Every hook is
        # divisible by 1, and only the corner hook by the largest one.
        lam = Partition.from_runs([(2 * 10**9, 10**9), (10**9, 10**9)])
        top = 2 * 10**9 + 2 * 10**9 - 1
        assert divisible_hook_counts(lam, (1, top)) == {1: lam.size, top: 1}
        with pytest.raises(AttributeError):
            Partition.parts.__get__(lam)

    def test_quotient_count_identity(self, partitions_by_size):
        # count divisible by p*k equals the sum of k-counts over quotients
        for n in range(10):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 4):
                    quotients = decompose(lam, p).quotients
                    for k in (1, 2, 3):
                        assert hook_count_divisible(lam, p * k) == sum(
                            hook_count_divisible(q, k) for q in quotients
                        )

    def test_multiset_union_identity(self, partitions_by_size):
        for n in range(10):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 4, 5, 6):
                    union = Counter()
                    for q in decompose(lam, p).quotients:
                        union.update(hook_multiset(q))
                    assert union == restricted_hooks(lam, p)


class TestHookCountMemo:
    # the shapes of the tower and extract-mu benchmark operations
    TOWER_SHAPES = (
        "100^80", "66^55", "436^29,29^406", "1586^61,61^2074", "5350^107,107^5885",
    )

    def test_matches_the_uncached_kernel(self, partitions_by_size):
        shapes = [lam for n in range(13) for lam in partitions_by_size[n]]
        shapes += [parse_partition(text) for text in self.TOWER_SHAPES]
        for lam in shapes:
            top = largest_hook(lam)
            moduli = range(1, top + 3)  # m = 1 and two moduli above every hook
            fresh = {
                m: _hook_count.__wrapped__(lam.runs, m) if m <= top else 0
                for m in moduli
            }
            # the first pass fills the memo, the second reads it
            for _ in range(2):
                assert divisible_hook_counts(lam, moduli) == fresh, lam.runs
            for m in range(1, top + 1):
                assert _hook_count(lam.runs, m) == fresh[m], (lam.runs, m)

    def test_zero_modulus_still_raises_with_a_warm_memo(self):
        lam = Partition((6, 4, 2))
        divisible_hook_counts(lam, range(1, 11))
        for moduli in ((0,), (1, 0), (-3,)):
            with pytest.raises(ValueError, match="divisor must be >= 1"):
                divisible_hook_counts(lam, moduli)
        with pytest.raises(ValueError, match="divisor must be >= 1"):
            hook_count_divisible(lam, 0)

    def test_stores_no_count_above_the_largest_hook(self):
        # a modulus above every hook is answered 0 without a lookup
        _hook_count.cache_clear()
        assert divisible_hook_counts(Partition((6, 4, 2)), (9, 10, 80)) == {
            9: 0, 10: 0, 80: 0,
        }
        assert divisible_hook_counts(Partition(), (1, 2)) == {1: 0, 2: 0}
        info = _hook_count.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


class TestValuations:
    def test_factorial_6(self):
        assert valuation_hook_product(Partition((6,)), 2) == 4

    def test_core_has_zero_valuation(self):
        assert valuation_hook_product(Partition((2,)), 3) == 0

    def test_18_7_6_at_3(self):
        # hooks divisible by 3: nine of them; divisible by 9: just 18 and 9
        lam = Partition((18, 7, 6))
        assert hook_count_divisible(lam, 3) == 9
        assert hook_count_divisible(lam, 9) == 2
        assert valuation_hook_product(lam, 3) == 11

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            valuation_hook_product(Partition((6,)), 6)

    def test_against_factorization_oracle(self, partitions_by_size):
        for n in range(13):
            for lam in partitions_by_size[n]:
                factored = Counter()
                for h in hook_multiset(lam).elements():
                    factored.update(oracle_factorize(h))
                for p in (2, 3, 5, 7, 11):
                    assert valuation_hook_product(lam, p) == factored[p]

    def test_exact_valuation_cells(self):
        lam = Partition((6,))
        assert cells_with_exact_valuation(lam, 6, 1) == 1
        assert cells_with_exact_valuation(lam, 6, 2) == 0
        assert cells_with_exact_valuation(lam, 2, 2) == 1

    def test_exact_cells_sum_to_valuation(self, partitions_by_size):
        for n in range(11):
            for lam in partitions_by_size[n]:
                for p in (2, 3, 5):
                    total = sum(
                        d * cells_with_exact_valuation(lam, p, d)
                        for d in range(1, 6)
                    )
                    assert total == valuation_hook_product(lam, p)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cells_with_exact_valuation(Partition((2,)), 1, 1)
        with pytest.raises(ValueError):
            cells_with_exact_valuation(Partition((2,)), 2, 0)
        with pytest.raises(ValueError):
            hook_count_divisible(Partition((2,)), 0)

"""Shared fixtures and independent oracles.

The oracles here are deliberately written against the definitions, not
against the library internals: hook lengths by literal box counting,
factorization by fresh trial division, partition counts by the coin
recurrence, and tableau counts by corner removal.
"""

import os
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from hookratio import RatioParams, enumerate_partitions

ROOT = Path(__file__).resolve().parents[1]


def source_env():
    """The environment with src/ first on PYTHONPATH, so that a child
    interpreter imports this checkout whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def oracle_hooks(parts):
    """Hook lengths by counting boxes to the right, below, plus the box."""
    cells = {(i, j) for i, row in enumerate(parts) for j in range(row)}
    out = []
    for (i, j) in cells:
        arm = sum(1 for (a, b) in cells if a == i and b > j)
        leg = sum(1 for (a, b) in cells if b == j and a > i)
        out.append(arm + leg + 1)
    return sorted(out)


def oracle_factorize(n):
    f = Counter()
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] += 1
            n //= d
        d += 1
    if n > 1:
        f[n] += 1
    return dict(f)


def oracle_partition_count(n):
    """p(n) by the bounded-part recurrence."""
    dp = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            dp[s] += dp[s - part]
    return dp[n]


def syt_count(parts):
    """Standard tableaux by removing the largest entry from a corner."""
    if sum(parts) <= 1:
        return 1
    total = 0
    for i in range(len(parts)):
        if i == len(parts) - 1 or parts[i] > parts[i + 1]:
            smaller = list(parts)
            smaller[i] -= 1
            if smaller[-1] == 0:
                smaller.pop()
            total += syt_count(tuple(smaller))
    return total


def boundary_hook_pairs(b):
    """Multiset {j - i : entry 1 at i, entry 0 at j, i < j} of a boundary
    sequence, straight from the window."""
    pairs = Counter()
    zeros = b.zero_positions()
    for s in zeros:
        for i in range(b.offset, s):
            if b.value(i) == 1:
                pairs[s - i] += 1
    return pairs


def oracle_p_core(lam, p, rng=None):
    """The p-core by removing hooks of length p one at a time: a removable
    p-hook is a pair of entries (1 at i, 0 at i + p) in the boundary
    sequence, and removing it swaps the pair. The first removable hook goes
    first, or a random one when an rng is given (the result must not
    depend on the order)."""
    from hookratio import BoundarySequence, from_boundary, to_boundary

    b = to_boundary(lam)
    margin = lam.size + p
    bits = [0] * margin + list(b.window)
    offset = b.offset - margin
    while True:
        swaps = [
            i for i in range(len(bits) - p)
            if bits[i] == 1 and bits[i + p] == 0
        ]
        if not swaps:
            break
        i = rng.choice(swaps) if rng is not None else swaps[0]
        bits[i], bits[i + p] = 0, 1
    return from_boundary(BoundarySequence(bits, offset))


def oracle_decompose(lam, p):
    """(core, quotients, charges) of lam at p by deinterleaving the centered
    boundary sequence: quotient j reads the entries at global indices
    congruent to j mod p, index 0 of each subsequence sitting at the residue
    right after the centering mark, and its charge is that subsequence's
    charge. The core replaces subsequence j by the vacuum of charge c_j
    (entry 0 below index c_j, 1 from there on) and interleaves them back."""
    from hookratio import BoundarySequence, from_boundary, to_boundary

    b = to_boundary(lam)
    lo, hi = b.offset, b.offset + len(b.window)
    subs = []
    for j in range(p):
        i_lo = (lo - j) // p - 1
        i_hi = -((j - hi) // p) + 1
        subs.append(BoundarySequence(
            (b.value(p * i + j) for i in range(i_lo, i_hi + 1)), i_lo
        ))
    quotients = tuple(s.to_partition() for s in subs)
    charges = tuple(s.charge() for s in subs)
    g_lo, g_hi = p * (min(charges) - 1), p * (max(charges) + 1)
    core = from_boundary(BoundarySequence(
        (0 if g // p < charges[g % p] else 1 for g in range(g_lo, g_hi)), g_lo
    ))
    return core, quotients, charges


def oracle_ratio_valuation(lam, params, p):
    """Exponent of the prime p in the ratio by listing every hook: each hook
    h divisible by a parameter r contributes the p-adic valuation of
    h / r, positively for gammas and negatively for deltas."""
    from hookratio import hook_multiset

    hooks = hook_multiset(lam)
    total = 0
    for divisors, sign in ((params.gammas, 1), (params.deltas, -1)):
        for r in divisors:
            for h, count in hooks.items():
                if h % r == 0:
                    q = h // r
                    while q % p == 0:
                        total += sign * count
                        q //= p
    return total


def exact_ratio_value(lam, gammas, deltas):
    """The ratio as an exact Fraction of restricted hook products."""
    from hookratio import restricted_hooks

    num = den = 1
    for g in gammas:
        for h, c in restricted_hooks(lam, g).items():
            num *= h**c
    for d in deltas:
        for h, c in restricted_hooks(lam, d).items():
            den *= h**c
    return Fraction(num, den)


def balanced_parameter_grid(max_entry=8, max_len=4):
    """Every ordered pair of disjoint multisets from {1..max_entry} with
    equal reciprocal sums (entries as vectors, sizes 1..max_len)."""
    by_sum = {}
    for r in range(1, max_len + 1):
        for ms in combinations_with_replacement(range(1, max_entry + 1), r):
            by_sum.setdefault(sum(Fraction(1, v) for v in ms), []).append(ms)
    grid = []
    for group in by_sum.values():
        for a in group:
            for b in group:
                if a != b and not (set(a) & set(b)):
                    grid.append(RatioParams(a, b))
    return sorted(set(grid), key=lambda p: (p.gammas, p.deltas))


@pytest.fixture(scope="session")
def partitions_by_size():
    return {n: list(enumerate_partitions(n)) for n in range(13)}


@pytest.fixture(scope="session")
def balanced_grid():
    return balanced_parameter_grid()


def all_partitions_through(partitions_by_size, n):
    for k in range(n + 1):
        yield from partitions_by_size[k]

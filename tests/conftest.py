"""Shared fixtures and independent oracles.

The oracles here are deliberately written against the definitions, not
against the library internals: hook lengths by literal box counting,
factorization by fresh trial division, partition counts by the coin
recurrence, and tableau counts by corner removal.
"""

import os
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest

from hookratio import RatioParams, counts_signature, enumerate_partitions

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


def oracle_divisible_hook_counts(lam, moduli):
    """N_m for each m, one bead per row: the beads sit at y_k = lam_k - k +
    len(lam), each has y // m positions below it on its runner, and every
    pair of beads on a common runner fills one of them. This is the row
    kernel that the run-length kernel replaced."""
    parts = lam.parts
    n = len(parts)
    beads = [part - k + n for k, part in enumerate(parts, 1)]
    counts = {}
    for m in moduli:
        pairs = run = 0
        prev = -1
        for r in sorted(y % m for y in beads):
            if r == prev:
                run += 1
                pairs += run
            else:
                prev, run = r, 0
        counts[m] = sum(y // m for y in beads) - pairs
    return counts


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


def signature_from_charges(charges, params):
    """The counts signature of a partition with these M-charges, for
    balanced params of modulus M, from the sizes of its cores alone: the
    r-charges are the sums of the M-charges over residue classes mod r,
    the r-core with charges S has size sum_i (r/2 S_i^2 + i S_i), and under
    balance N_r = (|lam| - |core_r|) / r leaves
    sum_delta |core_delta| / delta - sum_gamma |core_gamma| / gamma."""
    M = len(charges)
    twice_core = {}
    for r in set(params.gammas + params.deltas):
        sums = [sum(charges[i::r]) for i in range(r)]
        twice_core[r] = sum(r * s * s + 2 * i * s for i, s in enumerate(sums))
    scaled = sum(M // d * twice_core[d] for d in params.deltas) - sum(
        M // g * twice_core[g] for g in params.gammas
    )
    sig, rem = divmod(scaled, 2 * M)
    assert rem == 0, (charges, params)
    return sig


def oracle_least_failing_mu(params, bound):
    """Lexicographically least partition with negative counts signature
    among those of the smallest failing size up to the bound, by
    enumerating every partition of each size in turn; it raises the
    enumeration cap error at the first size beyond the cap."""
    for n in range(bound + 1):
        failing = [
            lam for lam in enumerate_partitions(n)
            if counts_signature(lam, params) < 0
        ]
        if failing:
            return min(failing)
    return None


def oracle_ftable(params):
    """(values, period) of f over the window [0, M), tabulated the way
    build_ftable did before its column passes: f_value at each x, then the
    first divisor P of M for which the window repeats with period P."""
    from hookratio import f_value

    M = params.modulus
    values = tuple(f_value(x, params) for x in range(M))
    period = next(
        P for P in range(1, M + 1)
        if M % P == 0 and all(values[x] == values[x % P] for x in range(M))
    )
    return values, period


def oracle_hook_shape_scan(params):
    """First (arm, leg), ordered by (arm + leg, arm), whose hook shape has
    negative signature f(a) + f(l) + f(a+l+1) - f(a+l), over the grid
    [0, P)^2 with P = M, reading f through the full period table by
    FTable.f and skipping no diagonal: the scan without its prefix of f and
    without its running-minimum skip."""
    from hookratio import build_ftable

    table = build_ftable(params)
    P = table.M
    for s in range(0, 2 * P - 1):
        for a in range(max(0, s - P + 1), min(s, P - 1) + 1):
            l = s - a
            if table.f(a) + table.f(l) + table.f(s + 1) - table.f(s) < 0:
                return (a, l)
    return None


def oracle_rest_costs(M, live, top):
    """rest[i][top + s], the least cost sum t_j(c_j) over the live
    coordinates i.. with sum c_j = s, or top + 1 above top, by min-plus
    convolution over every move x with t_j(x) <= top: the table the M-core
    walk built before it took the greedy sum of least marginals."""
    n = len(live)
    rest = [[top + 1] * (2 * top + 1) for _ in range(n + 1)]
    rest[n][top] = 0
    for i in range(n - 1, -1, -1):
        j = live[i]
        moves = [
            (x, t) for x in range(-top, top + 1)
            if (t := M * x * x + (2 * j - M + 1) * x) <= top
        ]
        row, below = rest[i], rest[i + 1]
        for k in range(2 * top + 1):
            row[k] = min(
                [t + below[k - x] for x, t in moves if 0 <= k - x <= 2 * top],
                default=top + 1,
            )
    return rest


def oracle_zero_rest(M, live, top):
    """zero_rest[i], the least cost sum t_j(c_j) of a nonzero vector on the
    live coordinates i.. with sum c_j = 0, or top + 1 above top, by listing
    every vector of cost <= top (each t_j is >= 0, so a prefix above top
    is dropped)."""

    def least(coords, s, cost, nonzero):
        if not coords:
            return cost if nonzero and s == 0 else top + 1
        j, best = coords[0], top + 1
        for x in range(-top, top + 1):
            t = cost + M * x * x + (2 * j - M + 1) * x
            if t <= top:
                best = min(best, least(coords[1:], s + x, t, nonzero or x != 0))
        return best

    return [least(live[i:], 0, 0, False) for i in range(len(live) + 1)]


def random_balanced_pairs(rng, count, max_modulus):
    """count distinct balanced pairs with modulus <= max_modulus: phi-images
    of Bober family instances at random coprime (x, y), integer multiples
    of them, and cancelled unions of two of these."""
    from hookratio import bober_families, phi_bijection

    def one():
        while True:
            x, y = rng.randint(1, 60), rng.randint(1, 60)
            if gcd(x, y) != 1:
                continue
            alpha, beta = rng.choice(bober_families(x, y))
            if set(alpha) & set(beta):
                continue
            params = phi_bijection(RatioParams(alpha, beta))
            k = rng.choice((1, 1, 2, 3))
            return [k * g for g in params.gammas], [k * d for d in params.deltas]

    pairs = set()
    while len(pairs) < count:
        gammas, deltas = one()
        if rng.random() < 0.3:
            more_gammas, more_deltas = one()
            gammas, deltas = gammas + more_gammas, deltas + more_deltas
        try:
            params = RatioParams.normalized(gammas, deltas)
        except ValueError:  # everything cancelled on one side
            continue
        if params.modulus <= max_modulus:
            pairs.add(params)
    return sorted(pairs, key=lambda p: (p.modulus, p.gammas, p.deltas))


# the pairs of the witness benchmark: phi-images of Bober families up to the
# M = 1,710 case ((19), (10, 9)) under phi
WITNESS_LADDER = (
    RatioParams((35,), (60, 84)),
    RatioParams((56,), (105, 120)),
    RatioParams((35, 168), (70, 84, 120)),
    RatioParams((45, 252), (90, 126, 140)),
    RatioParams((90,), (171, 190)),
)


def oracle_whitelist(params):
    """The certificate decide used before the divisibility flow: a single
    gamma dividing every delta (with balance). It covers the multinomial
    pairs (s, st), the divisor family and the height one exception
    ((x), (2x, 2x)), and nothing else."""
    return params.K == 1 and all(d % params.gammas[0] == 0 for d in params.deltas)


def oracle_flow_certified(params):
    """Whether the divisibility network of fact 7 in the integral module
    docstring saturates every delta edge, by Gale's supply-demand
    condition (its min cut): every set Y of distinct deltas demands at most
    what the gammas dividing some delta in Y supply. Each copy of delta
    demands 1/delta and each copy of gamma supplies 1/gamma, the
    capacities divided by M; the gamma -> delta edges never bind."""
    distinct = sorted(set(params.deltas))
    for k in range(1, len(distinct) + 1):
        for ys in combinations(distinct, k):
            demand = sum(Fraction(1, d) for d in params.deltas if d in ys)
            supply = sum(
                Fraction(1, g) for g in params.gammas
                if any(d % g == 0 for d in ys)
            )
            if demand > supply:
                return False
    return True


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


def unbalanced_parameter_grid(max_entry=6, max_len=2):
    """Every ordered pair of disjoint multisets from {1..max_entry} (entries
    as vectors, sizes 1..max_len) whose reciprocal sums differ."""
    sides = [
        ms for r in range(1, max_len + 1)
        for ms in combinations_with_replacement(range(1, max_entry + 1), r)
    ]
    grid = {
        RatioParams(a, b) for a in sides for b in sides
        if not (set(a) & set(b))
    }
    return sorted(
        (p for p in grid if not p.is_balanced),
        key=lambda p: (p.gammas, p.deltas),
    )


@pytest.fixture
def cold_shapes():
    """An empty per-shape memo before and after the test, for tests that
    alter a record or the seam that fills one."""
    from hookratio.littlewood import _shape

    _shape.cache_clear()
    yield _shape
    _shape.cache_clear()


@pytest.fixture(scope="session")
def partitions_by_size():
    return {n: list(enumerate_partitions(n)) for n in range(13)}


@pytest.fixture(scope="session")
def balanced_grid():
    return balanced_parameter_grid()


@pytest.fixture(scope="session")
def survey_grid():
    """The 850 balanced pairs with entries <= 12 and 1 to 4 per side."""
    return balanced_parameter_grid(max_entry=12)


def all_partitions_through(partitions_by_size, n):
    for k in range(n + 1):
        yield from partitions_by_size[k]

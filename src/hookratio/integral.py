"""Exact hook product ratios and both directions of the integrality
criterion.

The ratio attached to (gammas, deltas) at a partition is the product of the
restricted hook products for the gammas divided by the one for the deltas.
It is carried in factored form (prime -> signed exponent) throughout; full
integers are only reconstructed on demand for verification.

The criterion: the ratio is integral at every partition exactly when the
signed hook count sum (the counts signature) is nonnegative at every
partition. Both directions are executable. A partition mu with negative
signature inflates to an explicit failing lambda (empty core, p copies of
mu at a prime p exceeding every hook of mu); conversely a failing lambda
surrenders a negative-signature mu among its quotient tower labels, since
the valuation of the ratio at a prime p equals the sum of the counts
signatures over all quotient tower labels at depth >= 1.

Searching M-cores. For balanced parameters the bounded search only visits
the M-cores, M the lcm of all entries, walked by charge vector. It returns
the same partition as enumerating every partition, by these facts (sig is
the counts signature, N_r the number of hooks divisible by r, and charges
are those of `littlewood.decompose`):

1. N_r(lam) = (|lam| - |core_r(lam)|) / r. A hook of length divisible by
   r is a bead with an empty position below it on the same runner of the
   r-abacus, so runner j contributes the pairs (bead, gap below it), which
   number |quotient_j|; the size identity |lam| = |core_r| + r * sum_j
   |quotient_j| gives the claim. Under balance, sum 1/gamma = sum 1/delta,
   the |lam| terms cancel and
       sig(lam) = sum_delta |core_delta(lam)| / delta
                  - sum_gamma |core_gamma(lam)| / gamma.
2. For r | M the r-charges are residue-class sums of the M-charges c:
   S_i = sum of c_j over j = i mod r. Pad lam to n rows with M | n; the
   M-runners j = i mod r make up r-runner i, and n / r = (M / r)(n / M).
   The M-core keeps the M-charges of lam, so it keeps its r-charges too,
   and the r-core is the one r-core with those r-charges. So the two have
   the same r-cores for every r | M, and by 1, sig(lam) = sig(core_M(lam)).
3. The p-core with charges c (sum c = 0) has size sum_j (p/2 c_j^2 +
   j c_j) (Garvan, Kim and Stanton, "Cranks and t-cores", Invent. Math.
   101, 1990). The size of a partition is the sum of its bead positions
   minus that of the empty partition's beads -1, -2, ...; runner j of the
   core holds the levels below c_j where the empty partition holds those
   below 0, which adds the positions p * level + j for level in [0, c_j),
   p c_j (c_j - 1) / 2 + j c_j in all (also when c_j < 0, as a removal).
   Using sum c = 0 again, 2|core| = sum_j t_j(c_j) with
   t_j(x) = p x^2 + (2j - p + 1) x.
   With 1-3, 2M sig = sum_r w_r (r sum_i S_i^2 + 2 sum_i i S_i) over the
   distinct entries r > 1, where w_r = (M / r)(#{delta = r} - #{gamma = r});
   the 1-core is empty, so r = 1 adds nothing.
4. Minimality. If sig(lam) < 0 and lam is not an M-core, its M-core is
   strictly smaller and fails too (by 2). So every failing partition of the
   smallest failing size is an M-core, and the lexicographically least of
   them is the least failing partition of that size.
5. Pruning. Since |2j - p + 1| <= p - 1, t_j(x) >= |x| (p|x| - p + 1) >=
   |x| >= 0 for every integer x. Partial sums of 2|core| therefore only
   grow along the walk, and coordinates that must still sum to s cost at
   least |s|, so the least cost of the remaining coordinates for each sum
   is a finite table, built once, and a prefix is cut as soon as its cost
   plus that least cost exceeds the budget.

The walk is a branch and bound on the smallest failing size: a failing
core lowers the budget to its own size, and the failing cores of the final
size are assembled and compared. It counts the cores it visits per size and
checks the counts against the M-core generating function prod_k (1 -
q^(Mk))^M / (1 - q^k), so a walk that missed a core raises InvariantError
instead of reporting a clean search. For M above the bound (or the
enumeration cap) every partition in range is an M-core, its hooks being
all shorter than M, and without balance fact 1 keeps a |lam| term, so those
searches still enumerate every partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .littlewood import (
    _assemble,
    _walk,
    compose,
    divisible_hook_counts,
    hook_count_divisible,
    largest_hook,
)
from .partition import (
    EMPTY,
    Partition,
    construct_hook_partition,
    enumerate_partitions,
    enumeration_cap_error,
    format_partition,
    hook_multiset,
    max_enumeration_size,
)
from .primes import factorize, is_prime, next_prime_above
from .ratio import InvariantError, RatioParams, build_ftable

STATUS_INTEGRAL = "Integral-Certified"
STATUS_FAILS = "Fails"
STATUS_UNKNOWN = "Unknown-UpToBound"

EXIT_CODES = {STATUS_INTEGRAL: 0, STATUS_FAILS: 1, STATUS_UNKNOWN: 2}

# Exhaustive search levels smaller than this are scanned inline even when
# worker fan-out was requested.
PARALLEL_MIN_LEVEL = 2048


class FactoredRatio:
    """A nonzero rational number as a map from primes to signed exponents."""

    __slots__ = ("_exponents",)

    def __init__(self, exponents: Mapping[int, int] = ()):
        cleaned = {int(p): int(e) for p, e in dict(exponents).items() if e != 0}
        object.__setattr__(self, "_exponents", dict(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredRatio is immutable")

    @property
    def exponents(self) -> dict[int, int]:
        return dict(self._exponents)

    def exponent(self, p: int) -> int:
        return self._exponents.get(p, 0)

    @property
    def is_integral(self) -> bool:
        return all(e >= 0 for e in self._exponents.values())

    def value(self) -> Fraction:
        """Reconstruct the exact rational (verification mode only; the
        numbers can be astronomically large)."""
        num = den = 1
        for p, e in self._exponents.items():
            if e > 0:
                num *= p**e
            else:
                den *= p**-e
        return Fraction(num, den)

    def __eq__(self, other) -> bool:
        return isinstance(other, FactoredRatio) and self._exponents == other._exponents

    def __hash__(self) -> int:
        return hash(tuple(self._exponents.items()))

    def __repr__(self) -> str:
        return f"FactoredRatio({self._exponents!r})"

    def __str__(self) -> str:
        num = " * ".join(
            f"{p}^{e}" if e > 1 else str(p)
            for p, e in self._exponents.items() if e > 0
        )
        den = " * ".join(
            f"{p}^{-e}" if e < -1 else str(p)
            for p, e in self._exponents.items() if e < 0
        )
        if not num and not den:
            return "1"
        if not den:
            return num
        return f"{num or '1'} / {den}"

    def to_json_dict(self) -> dict:
        return {
            "exponents": {str(p): e for p, e in self._exponents.items()},
            "integral": self.is_integral,
        }


def _vector_ratio_exponents(
    lam: Partition, gammas: Sequence[int], deltas: Sequence[int]
) -> dict[int, int]:
    """Prime exponents of the ratio: each hook h divisible by a parameter
    contributes the factors of h // parameter, positively for gammas and
    negatively for deltas."""
    hooks = hook_multiset(lam)
    exps: dict[int, int] = {}
    for divisors, sign in ((gammas, 1), (deltas, -1)):
        for divisor in divisors:
            for h, count in hooks.items():
                if h % divisor == 0:
                    for p, e in factorize(h // divisor):
                        exps[p] = exps.get(p, 0) + sign * count * e
    return exps


def ratio_factored(lam: Partition, params: RatioParams) -> FactoredRatio:
    """Exact prime factorization of the hook product ratio at lam."""
    return FactoredRatio(_vector_ratio_exponents(lam, params.gammas, params.deltas))


def counts_signature(mu: Partition, params: RatioParams) -> int:
    """Signed hook count sum: sum over gammas of N_gamma(mu) minus sum over
    deltas of N_delta(mu), where N_m counts the hooks divisible by m. A
    repeated parameter counts once per entry. All counts come from one call
    of the bead kernel, so no hook of mu is listed.
    """
    counts = divisible_hook_counts(mu, params.gammas + params.deltas)
    return sum(counts[g] for g in params.gammas) - sum(
        counts[d] for d in params.deltas
    )


def ratio_valuation(lam: Partition, params: RatioParams, p: int) -> int:
    """Exponent of the prime p in the ratio, without listing any hook.

    A hook h divisible by a parameter r contributes v_p(h / r), which is
    the number of k >= 1 with r * p**k dividing h. Summed over the hooks,
    the contribution of r is sum_{k >= 1} N_{r * p**k}(lam), where N_m
    counts the hooks divisible by m; the terms stop once r * p**k exceeds
    the largest hook, lam_1 + len(lam) - 1. Each N_m is read off the bead
    positions of lam in O(len(lam) log len(lam)), so the cost does not grow
    with |lam|. The count comes straight from the profile of lam and never
    decomposes it, so it re-checks a witness independently of the tower
    identity that built the witness.
    """
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    top = largest_hook(lam)
    terms: list[tuple[int, int]] = []
    for divisors, sign in ((params.gammas, 1), (params.deltas, -1)):
        for r in divisors:
            m = r * p
            while m <= top:
                terms.append((sign, m))
                m *= p
    counts = divisible_hook_counts(lam, (m for _, m in terms))
    return sum(sign * counts[m] for sign, m in terms)


def _hook_shape_scan(
    params: RatioParams, max_size: int | None = None
) -> tuple[int, int] | None:
    """First (arm, leg) pair, ordered by (arm + leg, arm), whose hook shape
    has negative signature; None when the full period grid has none.

    The signature of the hook shape (1+a, 1^l) telescopes to
    f(a) + f(l) + f(a+l+1) - f(a+l), which only depends on the residues of
    a and l, so scanning a, l in [0, P) covers every hook shape.
    """
    table = build_ftable(params)
    P = table.period
    top = 2 * P - 2
    if max_size is not None:
        top = min(top, max_size - 1)
    for s in range(0, top + 1):
        for a in range(max(0, s - P + 1), min(s, P - 1) + 1):
            l = s - a
            if table.f(a) + table.f(l) + table.f(s + 1) - table.f(s) < 0:
                return (a, l)
    return None


def _scan_level_chunk(args) -> Partition | None:
    """Least partition with negative signature within one chunk."""
    gammas, deltas, chunk = args
    params = RatioParams(gammas, deltas)
    best = None
    for lam in chunk:
        if counts_signature(lam, params) < 0 and (best is None or lam < best):
            best = lam
    return best


def _pool_size(workers: int, cpus: int | None, chunks: int) -> int:
    """Worker processes to start: no more than requested, than the machine
    has CPUs (one when unknown), or than there are chunks to scan."""
    return min(workers, cpus or 1, chunks)


def _enumerate_failing_mu(
    params: RatioParams, size_bound: int, workers: int
) -> Partition | None:
    """Lexicographically least partition with negative counts signature
    among those of the smallest failing size up to the bound, found by
    enumerating every partition of each size; independent of the worker
    count."""
    if size_bound < 0:
        raise ValueError("size bound must be nonnegative")
    pool = None
    try:
        for n in range(size_bound + 1):
            level = list(enumerate_partitions(n))
            if workers > 1 and len(level) >= PARALLEL_MIN_LEVEL:
                step = -(-len(level) // workers)
                chunks = [level[i:i + step] for i in range(0, len(level), step)]
                if pool is None:
                    import concurrent.futures
                    import os

                    pool = concurrent.futures.ProcessPoolExecutor(
                        max_workers=_pool_size(workers, os.cpu_count(), len(chunks))
                    )
                hits = [
                    h for h in pool.map(
                        _scan_level_chunk,
                        [(params.gammas, params.deltas, c) for c in chunks],
                    )
                    if h is not None
                ]
                best = min(hits) if hits else None
            else:
                best = _scan_level_chunk((params.gammas, params.deltas, level))
            if best is not None:
                return best
    finally:
        if pool is not None:
            pool.shutdown()
    return None


def _core_counts(M: int, limit: int) -> list[int]:
    """Number of M-cores of each size 0..limit: the coefficients of
    prod_k (1 - q^(Mk))^M / (1 - q^k)."""
    counts = [1] + [0] * limit
    for k in range(1, limit + 1):
        for n in range(k, limit + 1):
            counts[n] += counts[n - k]
    for k in range(M, limit + 1, M):
        for _ in range(M):
            for n in range(limit, k - 1, -1):
                counts[n] -= counts[n - k]
    return counts


def _least_failing_core(params: RatioParams, limit: int) -> Partition | None:
    """Lexicographically least M-core with negative signature among those of
    the smallest failing size up to limit, for balanced params.

    A depth-first walk over the charge vectors c (sum 0) with 2|core| =
    sum_j t_j(c_j) <= 2 * limit, carrying the r-charges and 2M sig as in
    the module docstring; see there for why this equals the search over
    every partition.
    """
    M = params.modulus
    top = 2 * limit
    weight = Counter(params.deltas)
    weight.subtract(params.gammas)
    terms = [(w * (M // r), r, [0] * r) for r, w in weight.items() if r > 1 and w]
    # coordinate j moves residue j mod r of each r-charge vector
    updates = [[(w, r, j % r, S) for w, r, S in terms] for j in range(M)]
    # rest[j][top + s]: least cost of the coordinates j.. when they sum to
    # s; by the pruning lemma |s| <= cost, so the range [-top, top] holds
    # every sum within budget, and top + 1 stands for out of budget
    rest = [[top + 1] * (2 * top + 1) for _ in range(M + 1)]
    rest[M][top] = 0
    for j in range(M - 1, -1, -1):
        moves = [
            (x, t) for x in range(-top, top + 1)
            if (t := M * x * x + (2 * j - M + 1) * x) <= top
        ]
        row, below = rest[j], rest[j + 1]
        for k in range(2 * top + 1):
            row[k] = min(
                [t + below[k - x] for x, t in moves if 0 <= k - x <= 2 * top],
                default=top + 1,
            )
    c = [0] * M
    visited = [0] * (limit + 1)
    budget = top
    failing: list[tuple[int, ...]] = []

    def visit(j: int, s: int, cost: int, sig: int) -> None:
        nonlocal budget, failing
        if j == M:
            size = cost // 2
            visited[size] += 1
            if sig < 0:
                if cost < budget or not failing:
                    budget, failing = cost, []
                failing.append(tuple(c))
            return
        lin = 2 * j - M + 1
        below = rest[j + 1]
        for x, step in ((0, 1), (-1, -1)):
            while (t := cost + M * x * x + lin * x) <= budget:
                k = top - s - x
                if 0 <= k <= 2 * top and t + below[k] <= budget:
                    d = 0
                    for w, r, i, S in updates[j]:
                        v = S[i]
                        d += w * (r * (2 * v + x) * x + 2 * i * x)
                        S[i] = v + x
                    c[j] = x
                    visit(j + 1, s + x, t, sig + d)
                    for w, r, i, S in updates[j]:
                        S[i] -= x
                x += step

    visit(0, 0, 0, 0)
    reached = budget // 2
    if visited[: reached + 1] != _core_counts(M, reached):
        raise InvariantError(
            f"the {M}-core walk for {params} visited {visited[: reached + 1]} "
            f"cores by size, expected {_core_counts(M, reached)}"
        )
    return min((_assemble([EMPTY] * M, v, M) for v in failing), default=None)


def _least_failing_mu(
    params: RatioParams, size_bound: int, workers: int
) -> Partition | None:
    """Lexicographically least partition with negative counts signature
    among those of the smallest failing size up to the bound.

    The search stops at the enumeration cap, read up front, and raises the
    cap error when the bound lies beyond it and nothing was found. For
    balanced parameters with M within both, it walks the M-cores; every
    other search enumerates every partition, and only that fans out over
    workers. With M above the bound or the cap, every partition in range
    is an M-core anyway.
    """
    if size_bound < 0:
        raise ValueError("size bound must be nonnegative")
    if not params.is_balanced:
        return _enumerate_failing_mu(params, size_bound, workers)
    cap = max_enumeration_size()
    limit = min(size_bound, cap)
    if params.modulus > limit:
        return _enumerate_failing_mu(params, size_bound, workers)
    mu = _least_failing_core(params, limit)
    if mu is None and size_bound > cap:
        raise enumeration_cap_error(cap + 1, cap)
    return mu


def find_failing_mu(
    params: RatioParams,
    size_bound: int,
    hooks_only: bool = False,
    workers: int = 1,
) -> Partition | None:
    """Search for a partition with negative counts signature.

    With hooks_only, only hook shapes are scanned through the period table
    (no size restriction; this is a complete decision at height 1 and a
    heuristic otherwise) and balance is required. The full search tries
    hook shapes within the bound first, then searches every size up to the
    bound (the M-cores, or every partition; see _least_failing_mu),
    returning the lexicographically least witness of the smallest failing
    size. The result is independent of the worker count.
    """
    if size_bound < 0:
        raise ValueError("size bound must be nonnegative")
    if hooks_only:
        found = _hook_shape_scan(params)
        return construct_hook_partition(*found) if found else None
    if params.is_balanced:
        found = _hook_shape_scan(params, max_size=size_bound)
        if found:
            return construct_hook_partition(*found)
    return _least_failing_mu(params, size_bound, workers)


def construct_failing_lambda(
    mu: Partition, params: RatioParams
) -> tuple[int, Partition]:
    """Inflate a negative-signature mu into an explicit failing partition.

    Returns (p, lam) where p is the smallest prime exceeding every hook of
    mu and lam has empty core and p copies of mu as its quotients. Every
    hook of mu stays below p, so mu is a p-core and the tower below depth 1
    is trivial; the valuation of the ratio at p is exactly
    p * counts_signature(mu), which is negative.
    """
    sig = counts_signature(mu, params)
    if sig >= 0:
        raise ValueError(
            f"counts signature of {mu!r} is {sig}; a negative signature is required"
        )
    p = next_prime_above(largest_hook(mu))
    lam = compose(Partition(), [mu] * p, p)
    return p, lam


def extract_failing_mu(lam: Partition, params: RatioParams, p: int) -> Partition:
    """Recover a negative-signature mu from a partition whose ratio has a
    negative exponent at the prime p.

    The exponent at p equals the sum of counts signatures over the labels
    of the p-quotient tower of lam at depth >= 1, so a negative total
    guarantees a negative label. Labels are scanned by depth, then by the
    lexicographic order of their words, and the walk stops at the first
    negative one.
    """
    vp = ratio_valuation(lam, params, p)
    if vp >= 0:
        raise ValueError(
            f"ratio at {lam!r} has exponent {vp} at {p}; nothing to extract"
        )
    for word, label, _ in _walk(lam, p):
        if word and counts_signature(label, params) < 0:
            return label
    raise InvariantError(
        "negative valuation without a negative tower label; "
        "this contradicts the valuation decomposition"
    )


def check_multinomial(lam: Partition, s: int, t: int) -> bool:
    """Hook count inequality and integrality for the pair (s, st).

    Verifies count(s) - t * count(st) >= 0 and that the ratio of the s
    restricted hook product by the t-th power of the st restricted hook
    product is integral. Both hold for every partition.
    """
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    margin = hook_count_divisible(lam, s) - t * hook_count_divisible(lam, s * t)
    exps = _vector_ratio_exponents(lam, (s,), (s * t,) * t)
    return margin >= 0 and all(e >= 0 for e in exps.values())


def check_divisor_family(lam: Partition, x: int, deltas: Sequence[int]) -> bool:
    """Integrality when x divides every delta and 1/x = sum 1/delta_l."""
    deltas = tuple(int(d) for d in deltas)
    if x < 1 or not deltas:
        raise ValueError("x must be positive and deltas nonempty")
    bad = [d for d in deltas if d % x != 0]
    if bad:
        raise ValueError(f"{x} does not divide {bad}")
    if Fraction(1, x) != sum(Fraction(1, d) for d in deltas):
        raise ValueError(f"1/{x} != sum of reciprocals of {deltas}")
    exps = _vector_ratio_exponents(lam, (x,), deltas)
    return all(e >= 0 for e in exps.values())


@dataclass(frozen=True)
class Witness:
    """A verified non-integrality certificate."""

    mu: Partition
    p: int
    lam: Partition

    def to_json_dict(self) -> dict:
        return {
            "mu": format_partition(self.mu),
            "p": self.p,
            "lambda": format_partition(self.lam),
        }


@dataclass(frozen=True)
class Verdict:
    params: RatioParams
    status: str
    witness: Witness | None = None
    bound: int | None = None
    valuation_at_p: int | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "gamma": list(self.params.gammas),
            "delta": list(self.params.deltas),
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "bound": self.bound,
            "valuation_at_p": self.valuation_at_p,
        }


def _certified_by_theorem(params: RatioParams) -> bool:
    """Certification whitelist: a single gamma dividing every delta (with
    balance, which the caller guarantees). This covers the multinomial
    pairs (s, st), the divisor family, and the height 1 exception
    ((x), (2x, 2x)); anything outside stays unknown."""
    return params.K == 1 and all(d % params.gammas[0] == 0 for d in params.deltas)


def _verified_fails(params: RatioParams, mu: Partition, bound: int | None) -> Verdict:
    p, lam = construct_failing_lambda(mu, params)
    vp = ratio_valuation(lam, params, p)
    expected = p * counts_signature(mu, params)
    if vp != expected or vp >= 0:
        raise InvariantError(
            f"witness {mu!r} at p = {p} has valuation {vp}, expected {expected} < 0"
        )
    return Verdict(params, STATUS_FAILS, Witness(mu, p, lam), bound, vp)


def decide(params: RatioParams, size_bound: int, workers: int = 1) -> Verdict:
    """Decide integrality of the ratio for balanced parameters.

    Returns Integral-Certified when a covering theorem applies, Fails with
    a re-verified witness triple when a negative-signature partition turns
    up (hook shapes over the full period grid first, then every partition
    up to the size bound, through its M-core when M is within the bound),
    and Unknown-UpToBound otherwise. The tool never
    certifies beyond the whitelist: a clean search is not a proof.
    """
    if not params.is_balanced:
        raise ValueError(f"parameters {params} are not balanced")
    if size_bound < 0:
        raise ValueError("size bound must be nonnegative")
    if _certified_by_theorem(params):
        return Verdict(params, STATUS_INTEGRAL, bound=size_bound)
    # the bounded scan inside find_failing_mu is a subset of this one
    found = _hook_shape_scan(params)
    if found is not None:
        mu = construct_hook_partition(*found)
    else:
        mu = _least_failing_mu(params, size_bound, workers)
    if mu is not None:
        return _verified_fails(params, mu, size_bound)
    return Verdict(params, STATUS_UNKNOWN, bound=size_bound)

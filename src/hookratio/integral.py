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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .littlewood import (
    _walk,
    compose,
    divisible_hook_counts,
    hook_count_divisible,
    largest_hook,
)
from .partition import (
    Partition,
    construct_hook_partition,
    enumerate_partitions,
    format_partition,
    hook_multiset,
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


def _scan_level_chunk(args) -> tuple[int, ...] | None:
    """Smallest parts tuple with negative signature within one chunk."""
    gammas, deltas, chunk = args
    params = RatioParams(gammas, deltas)
    best = None
    for parts in chunk:
        if counts_signature(Partition(parts), params) < 0:
            if best is None or parts < best:
                best = parts
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
            level = [lam.parts for lam in enumerate_partitions(n)]
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
                return Partition(best)
    finally:
        if pool is not None:
            pool.shutdown()
    return None


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
    hook shapes within the bound first, then enumerates every partition of
    each size up to the bound, returning the lexicographically least
    witness of the smallest failing size. The result is independent of the
    worker count.
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
    return _enumerate_failing_mu(params, size_bound, workers)


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
    up to the size bound), and Unknown-UpToBound otherwise. The tool never
    certifies beyond the whitelist: a clean search is not a proof.
    """
    if not params.is_balanced:
        raise ValueError(f"parameters {params} are not balanced")
    if _certified_by_theorem(params):
        return Verdict(params, STATUS_INTEGRAL, bound=size_bound)
    # the bounded scan inside find_failing_mu is a subset of this one
    found = _hook_shape_scan(params)
    if found is not None:
        mu = construct_hook_partition(*found)
    else:
        mu = _enumerate_failing_mu(params, size_bound, workers)
    if mu is not None:
        return _verified_fails(params, mu, size_bound)
    return Verdict(params, STATUS_UNKNOWN, bound=size_bound)

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

Searching M-cores. The bounded search only visits the M-cores, M the lcm
of all entries, walked by charge vector. It returns the same partition as
enumerating every partition, by these facts (sig is the counts signature,
N_r the number of hooks divisible by r, and charges are those of
`littlewood.decompose`); facts 1-6 assume balance, and fact 8 below lifts
it:

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
   With 1-3, 2M sig = sum_r -k_r (M / r) (r sum_i S_i^2 + 2 sum_i i S_i)
   over the distinct entries r > 1, where k_r = #{gamma = r} - #{delta = r};
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
   plus that least cost exceeds the budget. t_j is convex with positive
   marginals, 2px + 2j + 1 up from x >= 0 and 2px + 2p - 2j - 1 down from
   -x, and mixing signs never helps (a unit of each back toward 0 keeps the
   sum and lowers the cost), so that least cost for a sum s is the sum of
   the |s| least marginals of its sign: the table is greedy.
6. Live coordinates. With p = M, t_j(1) = 2j + 1, t_j(-1) = 2M - 2j - 1,
   t_j(x) - t_j(1) = (x - 1)(Mx + 2j + 1) >= 0 for x >= 1, and
   t_j(x) - t_j(-1) = (x + 1)(Mx - 2M + 2j + 1) >= 0 for x <= -1, where
   both factors are <= 0 as 2j + 1 < 3M. So, every t_j being >= 0 (by 5),
   within a budget of 2 * limit only the j < limit and the j >= M - limit
   can have c_j != 0: at most 2 * limit coordinates, for any M. A nonzero
   vector of sum 0 has some c_j > 0 and some c_j' < 0, j != j', so it
   costs at least t_j(1) + t_j'(-1) = 2M + 2(j - j'), which the vector +1
   at j, -1 at j' attains; over a run of live coordinates the least is j
   the first of them and j' the last.

The walk is a branch and bound on the smallest failing size over the live
coordinates: a failing core lowers the budget to its own size, and the
failing cores of the final size are assembled and compared. It checks the
number of cores it visits per size against the M-core generating function
prod_k (1 - q^(Mk))^M / (1 - q^k), which is p(n) for n < M, so a walk that
missed a core raises InvariantError instead of reporting a clean search.
The search deepens its limit 1, 2, 4, ... up to the bound: each walk finds
the least failing core of the smallest failing size within its limit, so
the first hit is the answer, and a small witness never pays for the table
of the full budget.

Certifying by a divisibility flow. `decide` certifies before it searches:

7. If b | a then b N_b(lam) >= a N_a(lam) at every lam. By fact 1 this is
   |core_b(lam)| <= |core_a(lam)|, and core_b(lam) = core_b(core_a(lam)):
   removing an a-hook moves one bead by a positions, along its runner of
   the b-abacus, so the b-charges stay and with them the b-core (fact 2).
   Now take the network on the distinct entries r, a gamma when k_r > 0
   and a delta when k_r < 0, in which a source feeds each gamma with
   capacity k_gamma M / gamma, each gamma has an edge to every delta it
   divides, and each delta feeds a sink with capacity -k_delta M / delta,
   and suppose a flow f saturates every delta edge. Let x_{gamma delta} =
   f_{gamma delta} / (-k_delta M / delta) be the share of delta's demand
   that comes from gamma, so sum_gamma x_{gamma delta} = 1. For q = 1 and
   for every prime power q = p^i, gamma q divides delta q on each edge,
   and
       sum_delta -k_delta N_{delta q}
           <= sum_{gamma, delta} x_{gamma delta} (-k_delta) (gamma / delta)
              N_{gamma q} <= sum_gamma k_gamma N_{gamma q},
   the last step because gamma sends at most k_gamma M / gamma. With q = 1
   the signature is >= 0 at every lam; summed over q = p^i, i >= 1, so is
   the exponent of every prime p in the ratio (the sum that
   `ratio_valuation` counts). So the ratio is an integer at every
   partition, without the tower identity. A single gamma dividing every
   delta is such a network, and the certificate is closed under multiset
   union (add the flows, scaled to the common M) and under cancelling an
   entry on both sides (route the flow into it on to where it went out).
   Two rules on the entries alone show that no such flow exists. A delta
   that no gamma divides has no edge in. Under balance the supplies sum to
   the demands, sum_gamma k_gamma M / gamma = sum_delta -k_delta M / delta
   (m = 0 in fact 8), so a flow that saturates every delta edge has the
   value of the whole supply and saturates every source edge too; a gamma
   that divides no delta has no edge out, and its positive supply cannot
   leave. Without balance a gamma may keep supply, and the second rule
   does not hold.

Searching without balance.

8. Without balance fact 1 leaves sig(lam) = s |lam| + g(core_M(lam)),
   with s = sum 1/gamma - sum 1/delta and g the balanced expression of
   fact 1, which fact 2 still carries from lam to core_M(lam). So 2M sig =
   m * 2|lam| + the sum of fact 3, with the integer m = sum_r k_r M / r =
   M s, and on an M-core 2|lam| is the walk's cost.
   If m > 0 and lam fails but is not an M-core, its M-core is strictly
   smaller and s |core| + g < s |lam| + g < 0, so it fails too: as in
   fact 4 the least failing partition is an M-core and the walk applies
   with the extra term m * cost. If m < 0, every partition of size < M is
   an M-core, as an M-hook needs M cells; 1^M has one M-hook, an empty
   M-core and sig = s M < 0, and it is the lexicographically least
   partition of size M. So the least failing partition is the walk's
   below size M, or else 1^M.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .littlewood import (
    _assemble,
    _shape,
    _Shape,
    _valuation,
    _walk,
    divisible_hook_counts,
    largest_hook,
)
from .partition import (
    EMPTY,
    Partition,
    construct_hook_partition,
    enumeration_cap_error,
    format_partition,
    hook_multiset,
    max_enumeration_size,
)
from .primes import factorize, is_prime, next_prime_above
from .ratio import (
    InvariantError,
    RatioParams,
    _check_pieces,
    _reciprocal_excess,
    _signed,
)

if TYPE_CHECKING:
    from fractions import Fraction

STATUS_INTEGRAL = "Integral-Certified"
STATUS_FAILS = "Fails"
STATUS_UNKNOWN = "Unknown-UpToBound"

EXIT_CODES = {STATUS_INTEGRAL: 0, STATUS_FAILS: 1, STATUS_UNKNOWN: 2}


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
        from fractions import Fraction

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
    lam: Partition, signed: Sequence[tuple[int, int]]
) -> dict[int, int]:
    """Prime exponents of prod_r H_r(lam)^{k_r} over the pairs (r, k_r) of
    signed: each hook h divisible by r contributes k_r times the factors
    of h // r."""
    hooks = hook_multiset(lam)
    exps: dict[int, int] = {}
    for r, k in signed:
        for h, count in hooks.items():
            if h % r == 0:
                for p, e in factorize(h // r):
                    exps[p] = exps.get(p, 0) + k * count * e
    return exps


def ratio_factored(lam: Partition, params: RatioParams) -> FactoredRatio:
    """Exact prime factorization of the hook product ratio at lam."""
    return FactoredRatio(_vector_ratio_exponents(lam, params.signed))


def counts_signature(mu: Partition, params: RatioParams) -> int:
    """Signed hook count sum: sum k_r N_r(mu) over the distinct entries r,
    where k_r = #{gamma = r} - #{delta = r} and N_m counts the hooks
    divisible by m. No hook of mu is listed: every N_r is read from mu's
    record in `littlewood._shape`, as `_valuation` reads its counts, by
    `_signature`.
    """
    return _signature(_shape(mu.runs), params.signed)


def _signature(rec: _Shape, signed: Sequence[tuple[int, int]]) -> int:
    """sum k_r N_r over the pairs (r, k_r) of signed, on the record of a
    shape. An entry above the largest hook divides none and adds 0. The
    record holds N_r, a count of the shape alone; the sum with the pair's
    k_r is formed afresh on every call, so it is that pair's signature, and
    the re-check in `_verified_fails` that compares it with the valuation
    at the dilation stays independent.
    """
    top = rec.top
    sig = 0
    for r, k in signed:
        if r <= top:
            sig += k * rec[r]
    return sig


def ratio_valuation(lam: Partition, params: RatioParams, p: int) -> int:
    """Exponent of the prime p in the ratio, without listing any hook.

    A hook h divisible by a parameter r contributes v_p(h / r), which is
    the number of i >= 1 with r * p**i dividing h. Summed over the hooks,
    the contribution of r is sum_{i >= 1} N_{r * p**i}(lam), where N_m
    counts the hooks divisible by m; `littlewood._valuation` forms the sum
    of these weighted by k_r, stopping once r * p**i exceeds the
    largest hook, lam_1 + len(lam) - 1. Each N_m is read off one bead
    interval per run of lam in O(R log R) for R runs, so the cost grows
    with neither |lam| nor len(lam), and is kept in lam's record in
    `littlewood._shape`, so a shape that comes back costs one dict read
    per term. The count comes straight from the profile of lam and never
    decomposes it, so it re-checks a witness independently of the tower
    identity that built the witness; the record keeps only such counts of
    the shape, and the weights k_r and the prime p of this call are
    applied afresh.
    """
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    return _valuation(_shape(lam.runs), params.signed, p)


def _hook_shape_scan(params: RatioParams) -> tuple[int, int] | None:
    """First (arm, leg) pair, ordered by (arm + leg, arm), whose hook shape
    has negative signature; None when the full period grid has none.

    The signature of the hook shape (1+a, 1^l) telescopes to
    f(a) + f(l) + f(a+l+1) - f(a+l), which only depends on the residues of
    a and l modulo the least period of f, exactly M, so scanning a, l in
    [0, M) covers every hook shape.

    The pairs are visited in (a + l, a) order and the scan returns at the
    first negative signature, f(a) + f(l) < f(s) - f(s+1) with s = a + l.
    Diagonal s reads f(a) and f(l) only on [0, min(s, M - 1)], and f >= 0
    there on every diagonal the scan reaches: f(0) = 0, and if x is the
    least point with f(x) < 0 (x < M, as M is a period), diagonal x - 1
    has the drop f(x-1) - f(x) > 0 and the hit (0, x - 1), as f(0) +
    f(x-1) < f(x-1) - f(x), so the scan returns there or before. So a
    diagonal whose drop is <= 0 holds no hit and is skipped: only the
    diagonals y - 1 below a negative step g(y) = f(y) - f(y-1) < 0 are
    read, for y up to 2M - 1, with the drop -g(y); there a = 0 hits
    exactly when f(0) + f(y-1) < -g(y), that is f(y) < 0. (a, s - a) and
    (s - a, a) are conjugate hook shapes, with the same hooks and
    signature: f(a) + f(s-a) is symmetric in a <-> s - a, and so is the
    a-range [max(0, s - M + 1), min(s, M - 1)] about s / 2, so the least
    hit has a <= s // 2. Unbalanced parameters raise first, as f has no
    period.

    f is held as its pieces, f = values[i] on [starts[i], starts[i + 1]). f
    changes only at multiples of an entry, so the scan keeps the next
    multiple of each distinct entry: y is the least of them, g(y) sums k_r
    over the entries at y, and a step g(y) = 0 adds no piece. A diagonal at
    or below head, the largest entry, is read as soon as the step above it
    is listed, by a merge (`_least_arm`). As a grows by one, f(a) changes
    only when a reaches the next start, and f(s - a) only when s - a leaves
    its piece downward, at a = s + 1 - (the start of that piece). Between
    two such points h(a) = f(a) + f(s - a) is constant, so on the a-range h
    takes each of its values first at the range's least a or at one of those
    points, and testing h there, in increasing order, finds the least a with
    h(a) < drop. Each test passes one start of f(a) or one of f(s - a), so a
    diagonal costs at most one test per piece of f on [0, min(s, M - 1)].

    Nothing of size M or of size head is built. Once the steps up to head
    hold no hit, the steps past it complete the pieces over one period [0,
    M), which `ratio._check_pieces` checks as `build_ftable` checks its
    table, before any diagonal past head is read. Past M, g has period M (an
    entry divides y exactly when it divides y - M), so the step at M +
    starts[i] is the step at starts[i] for i >= 1. The scan costs O(n) per
    multiple of an entry up to the last step it reads, for n distinct
    entries, and O(#pieces) per diagonal it reads.

    A least entry r that is a delta (k_r < 0) answers without any f. f = 0
    on [0, r), as no entry is below r, so every diagonal s < r - 1 has the
    drop 0 and is skipped. Diagonal r - 1 has the drop f(r-1) - f(r) = -k_r
    > 0, as r is the only entry dividing r, and a = 0 gives f(0) + f(r-1)
    = 0 < drop: the first hit is (0, r - 1), the column 1^r. It lies in the
    grid, as r < M: the sides are disjoint, so some entry exceeds r, and M
    is a multiple of it.
    """
    if not params.is_balanced:
        raise ValueError(
            f"parameters {params} are not balanced; the period is undefined"
        )
    signed = params.signed
    least, k = min(signed)
    if k < 0:
        return (0, least - 1)
    M = params.modulus
    due = [r for r, _ in signed]  # the next multiple of each entry
    head = max(due)
    starts, values = [0], [0]
    f = 0
    first = 1  # the index of the first piece past head
    while (y := min(due)) < M:
        g = t = 0
        for r, k in signed:
            if due[t] == y:
                g += k
                due[t] = y + r
            t += 1
        if not g:
            continue
        f += g
        starts.append(y)
        values.append(f)
        if y <= head:
            first += 1
            if g < 0:
                if f < 0:
                    return (0, y - 1)
                if found := _least_arm(starts, values, y - 1, -g, 0, len(starts) - 2):
                    return found
    _check_pieces(params, starts, values)
    n = len(starts)
    for i in range(first, n):
        drop = values[i - 1] - values[i]
        if drop > 0:
            if found := _least_arm(starts, values, starts[i] - 1, drop, 0, i - 1):
                return found
    # the steps M + starts[i] of the second period; diagonal M + starts[i]
    # - 1 starts at a = starts[i], where its leg M - 1 lies in the last
    # piece, and M closes that piece. Diagonal M - 1, below the step at M,
    # holds no hit: f(a) + f(M-1-a) = L - K = f(M-1) - f(M), its drop
    starts.append(M)
    for i in range(1, n):
        drop = values[i - 1] - values[i]
        if drop > 0:
            if found := _least_arm(starts, values, M + starts[i] - 1, drop, i, n - 1):
                return found
    return None


def _least_arm(
    starts: list[int], values: list[int], s: int, drop: int, i: int, j: int
) -> tuple[int, int] | None:
    """(a, s - a) for the least a in [starts[i], s // 2] with f(a) + f(s - a)
    < drop, or None, where f = values[t] on [starts[t], starts[t + 1]), s -
    starts[i] lies in piece j and some start exceeds s // 2: the merge of
    `_hook_shape_scan`'s docstring, which moves i up at each start of f(a)
    and j down at each start of f(s - a)."""
    a, top = starts[i], s // 2
    while values[i] + values[j] >= drop:
        up, down = starts[i + 1], s + 1 - starts[j]
        if up <= down:
            a = up
            i += 1
            if up == down:
                j -= 1
        else:
            a = down
            j -= 1
        if a > top:
            return None
    return (a, s - a)


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


def _rest_costs(M: int, live: list[int], top: int) -> list[list[int]]:
    """rest[i][top + s]: the least cost of the live coordinates i.. when
    they sum to s, the sum of their |s| least marginals of the sign of s
    (fact 5), or top + 1 above the budget top. As |s| <= cost, s runs over
    [-top, top]."""
    rest = []
    for i in range(len(live) + 1):
        row = [top + 1] * top + [0] + [top + 1] * top
        # the x-th marginal (x >= 0) of j: 2Mx + 2j + 1 up, 2Mx + 2M - 2j - 1 down
        for sign, first in ((1, 1), (-1, 2 * M - 1)):
            marginals = sorted(
                t for j in live[i:] for t in range(first + 2 * sign * j, top + 1, 2 * M)
            )
            for s, cost in enumerate(accumulate(marginals), 1):
                if cost > top:
                    break
                row[top + sign * s] = cost
        rest.append(row)
    return rest


def _zero_rest(M: int, live: list[int], top: int) -> list[int]:
    """zero_rest[i]: the least cost of a nonzero completion of the live
    coordinates i.. that sums to 0, 2M + 2(live[i] - live[-1]) by fact 6,
    or top + 1 when fewer than two coordinates remain."""
    n = len(live)
    return [2 * M + 2 * (live[i] - live[-1]) for i in range(n - 1)] + [top + 1] * 2


def _least_failing_core(params: RatioParams, limit: int) -> Partition | None:
    """Lexicographically least M-core with negative signature among those of
    the smallest failing size up to limit.

    A depth-first walk over the charge vectors c (sum 0) with 2|core| =
    sum_j t_j(c_j) <= 2 * limit, carrying the r-charges and the balanced
    part of 2M sig as in the module docstring, to which a leaf adds m times
    its cost (fact 8); see there for why this equals the search over every
    partition and why only the live coordinates (fact 6) can move.

    Zero coordinates cost nothing to carry: x = 0 leaves the cost, the sum
    and every r-charge as they are, so that branch updates nothing. A
    prefix with sum 0 whose least nonzero completion (`_zero_rest`) costs
    more than the budget has one completion within it, all zeros, which
    the walk would reach first (x = 0 comes first at every coordinate),
    and every later one lies above a budget that only falls. So the prefix
    is counted as that leaf at once, and a leaf is exactly such a prefix
    with no coordinate left. The core count check below still sees every
    leaf once.

    The walk holds the at most 2 * limit live coordinates and, for each
    entry r, the r-charges at the residues mod r that they touch, as no
    other one moves: nothing of size M, so a walk at any M costs what its
    limit makes it cost. Only the assembly of a failing core reads all M
    charges.
    """
    M, slope = params.modulus, params.excess
    top = 2 * limit
    live = [*range(min(limit, M)), *range(max(limit, M - limit), M)]
    # live coordinate j moves the r-charge S_a, a = j mod r, of each entry
    # r > 1, and c_j += x adds w (r (2 S_a + x) x + 2 a x) to 2M sig, w =
    # -k_r M / r (fact 3): updates[i] holds (w r, 2 w a, q, S) for j =
    # live[i], with S_a at S[q]
    updates: list[list[tuple[int, int, int, list[int]]]] = [[] for _ in live]
    for r, k in params.signed:
        if r > 1:
            w = -k * (M // r)
            residues = [j % r for j in live]
            index = {a: q for q, a in enumerate(dict.fromkeys(residues))}
            S = [0] * len(index)
            for u, a in zip(updates, residues):
                u.append((w * r, 2 * w * a, index[a], S))
    rest = _rest_costs(M, live, top)
    zero_rest = _zero_rest(M, live, top)
    # c[i] is the charge of live[i], 0 from i on whenever visit(i) starts
    c = [0] * len(live)
    visited = [0] * (limit + 1)
    budget = top
    failing: list[tuple[int, ...]] = []

    def visit(i: int, s: int, cost: int, sig: int) -> None:
        nonlocal budget, failing
        if not s and cost + zero_rest[i] > budget:
            visited[cost // 2] += 1
            if sig + slope * cost < 0:
                if cost < budget or not failing:
                    budget, failing = cost, []
                failing.append(tuple(c))
            return
        j = live[i]
        lin = 2 * j - M + 1
        below = rest[i + 1]
        if cost + below[top - s] <= budget:
            visit(i + 1, s, cost, sig)
        # cost >= |s| and t_j(x) >= |x| (fact 5), so t >= |s + x|; as t <=
        # budget <= top, the index top - s - x lies in [0, 2 * top]. A walk
        # that pruned wrongly would still fail the core count check below
        for x, step in ((1, 1), (-1, -1)):
            while (t := cost + M * x * x + lin * x) <= budget:
                if t + below[top - s - x] <= budget:
                    d = 0
                    for wr, wa, q, S in updates[i]:
                        v = S[q]
                        d += (wr * (2 * v + x) + wa) * x
                        S[q] = v + x
                    c[i] = x
                    visit(i + 1, s + x, t, sig + d)
                    for _, _, q, S in updates[i]:
                        S[q] -= x
                x += step
        c[i] = 0

    visit(0, 0, 0, 0)
    reached = budget // 2
    if visited[: reached + 1] != _core_counts(M, reached):
        raise InvariantError(
            f"the {M}-core walk for {params} visited {visited[: reached + 1]} "
            f"cores by size, expected {_core_counts(M, reached)}"
        )
    cores = []
    for v in failing:
        # the assembly reads all M charges, 0 off the live coordinates
        charges = [0] * M
        for j, x in zip(live, v):
            charges[j] = x
        cores.append(_assemble([EMPTY] * M, charges, M))
    return min(cores, default=None)


def _least_failing_mu(params: RatioParams, size_bound: int) -> Partition | None:
    """Lexicographically least partition with negative counts signature
    among those of the smallest failing size up to the bound, found by
    M-core walks of deepening limit whatever M is.

    With m < 0 (fact 8) the walks stop below M, and 1^M answers when
    nothing smaller fails. The search stops at the enumeration cap, read up
    front, and raises the cap error when the bound lies beyond it and
    nothing was found.
    """
    cap = max_enumeration_size()
    limit = min(size_bound, cap)
    M, slope = params.modulus, params.excess
    # deepen 1, 2, 4, ..., but go straight to the walk limit once doubling
    # again would reach or pass it: the walk to the limit repeats the answer
    # of any walk beyond half of it at little more cost. The empty
    # partition, all that a limit of 0 or less admits, never fails
    mu, depth = None, 0
    walk_limit = min(limit, M - 1) if slope < 0 else limit
    while mu is None and depth < walk_limit:
        depth = walk_limit if 4 * depth > walk_limit else 2 * depth or 1
        mu = _least_failing_core(params, depth)
    if mu is None and slope < 0 and M <= limit:
        mu = Partition((1,) * M)
    if mu is None and size_bound > cap:
        raise enumeration_cap_error(cap + 1, cap)
    return mu


def find_failing_mu(
    params: RatioParams, size_bound: int, hooks_only: bool = False
) -> Partition | None:
    """Search for a partition with negative counts signature.

    With hooks_only, only hook shapes are scanned, over a full period of f
    (no size restriction; this is a complete decision at height 1 and a
    heuristic otherwise) and balance is required. Otherwise, balanced or
    not, it returns the lexicographically least partition with negative
    signature among those of the smallest failing size up to the bound, or
    None when no partition of size <= size_bound fails, from the M-core
    walk (facts 4 and 8). A bound beyond the enumeration cap raises the cap
    error unless a partition within the cap fails.
    """
    if size_bound < 0:
        raise ValueError("size bound must be nonnegative")
    if hooks_only:
        found = _hook_shape_scan(params)
        return construct_hook_partition(*found) if found else None
    return _least_failing_mu(params, size_bound)


def construct_failing_lambda(
    mu: Partition, params: RatioParams
) -> tuple[int, Partition]:
    """Inflate a negative-signature mu into an explicit failing partition.

    Returns (p, lam) where p is the smallest prime exceeding every hook of
    mu and lam has empty core and p copies of mu as its quotients. Every
    hook of mu stays below p, so mu is a p-core and the tower below depth 1
    is trivial; the valuation of the ratio at p is exactly
    p * counts_signature(mu), which is negative. lam is mu dilated by p,
    held in runs: as many runs as mu, however many rows. It is re-checked
    as every witness of `decide` is: a signature that is not negative
    raises ValueError, and a valuation at lam other than p times it raises
    InvariantError.
    """
    w = _verified_fails(params, mu, None).witness
    return w.p, w.lam


def extract_failing_mu(lam: Partition, params: RatioParams, p: int) -> Partition:
    """Recover a negative-signature mu from a partition whose ratio has a
    negative exponent at the prime p.

    The exponent at p equals the sum of counts signatures over the labels
    of the p-quotient tower of lam at depth >= 1, so a negative total
    guarantees a negative label. Labels are scanned by depth, then by the
    lexicographic order of their words, and the walk stops at the first
    negative one. A p above the largest hook divides no hook, so it is
    rejected before the primality test, which is trial division.
    """
    if p > largest_hook(lam):
        raise ValueError(
            f"p = {p} exceeds every hook of {format_partition(lam) or '()'}; "
            "nothing to extract"
        )
    vp = ratio_valuation(lam, params, p)
    if vp >= 0:
        raise ValueError(
            f"ratio at {format_partition(lam) or '()'} has exponent {vp} at {p}; "
            "nothing to extract"
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
    return _multinomial_margin(lam, s, t)[1]


def _multinomial_margin(lam: Partition, s: int, t: int) -> tuple[int, bool]:
    """The count margin count(s) - t * count(st), from one hook count of
    both moduli, and the verdict of :func:`check_multinomial`."""
    if s < 1 or t < 1:
        raise ValueError("s and t must be positive")
    counts = divisible_hook_counts(lam, (s, s * t))
    margin = counts[s] - t * counts[s * t]
    exps = _vector_ratio_exponents(lam, _signed((s,), (s * t,) * t))
    return margin, margin >= 0 and all(e >= 0 for e in exps.values())


def check_divisor_family(lam: Partition, x: int, deltas: Sequence[int]) -> bool:
    """Integrality when x divides every delta and 1/x = sum 1/delta_l."""
    deltas = tuple(int(d) for d in deltas)
    if x < 1 or not deltas:
        raise ValueError("x must be positive and deltas nonempty")
    bad = [d for d in deltas if d % x != 0]
    if bad:
        raise ValueError(f"{x} does not divide {bad}")
    if _reciprocal_excess((x,), deltas):
        raise ValueError(f"1/{x} != sum of reciprocals of {deltas}")
    exps = _vector_ratio_exponents(lam, _signed((x,), deltas))
    return all(e >= 0 for e in exps.values())


class Witness(NamedTuple):
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


class Verdict(NamedTuple):
    """The answer of :func:`decide` for one pair.

    status is one of STATUS_INTEGRAL, STATUS_FAILS and STATUS_UNKNOWN. A
    Fails verdict carries its re-verified witness and the p-adic valuation
    (negative) of the ratio at the witness partition. bound is the size
    bound of the search behind the verdict, None where nothing was searched
    (a certified pair, the height 1 decision).
    """

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


def _certified_by_flow(params: RatioParams) -> bool:
    """True when the divisibility network of fact 7 in the module
    docstring saturates every delta edge, which proves the ratio integral.

    Each distinct entry r is one node, keyed by r beside the source 0 and
    the sink -1, with the supply k_r M / r when k_r > 0 and the demand
    -k_r M / r when k_r < 0. The residual network holds, per node,
    only the arcs that exist: source -> gamma, gamma -> delta where gamma
    divides delta, delta -> sink, and the reverse of each. Edmonds-Karp
    augments along shortest residual paths, so the number of augmentations
    is bounded by the size of the network, not by M, and each search walks
    those arcs only.

    The two rules of fact 7 reject a pair from its entries, before any
    map is built: a delta that no gamma divides, and, under balance, a
    gamma that divides no delta. A least entry that is a delta is the
    first such delta, as every gamma is larger, and is read off first.
    """
    signed = params.signed
    if min(signed)[1] < 0:
        return False
    gammas = [r for r, k in signed if k > 0]
    deltas = [r for r, k in signed if k < 0]
    for d in deltas:
        for g in gammas:
            if d % g == 0:
                break
        else:
            return False
    if not params.excess:
        for g in gammas:
            for d in deltas:
                if d % g == 0:
                    break
            else:
                return False
    M = params.modulus
    supply = {r: k * (M // r) for r, k in signed if k > 0}
    demand = {r: -k * (M // r) for r, k in signed if k < 0}
    source, sink = 0, -1
    # the source's arcs are the supplies, read as such only until the
    # first augmentation
    residual = {source: supply, sink: dict.fromkeys(demand, 0)}
    for g in supply:
        residual[g] = {source: 0}
    for d, need in demand.items():
        arcs = residual[d] = {sink: need}
        for g in supply:
            if d % g == 0:
                residual[g][d] = supply[g]
                arcs[g] = 0
    while True:
        # breadth first; the queue grows while it is read
        prev = {source: source}
        queue = [source]
        for u in queue:
            for v, free in residual[u].items():
                if free and v not in prev:
                    prev[v] = u
                    queue.append(v)
            if sink in prev:
                break
        else:
            return not any(residual[d][sink] for d in demand)
        path = []
        v = sink
        while v != source:
            path.append((prev[v], v))
            v = prev[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push


def _dilation(rec: _Shape, mu: Partition) -> tuple[int, _Shape, Witness]:
    """rec.dilation for the record of mu, set here on its first Fails: p
    the least prime above every hook of mu, lam = mu dilated by p, lam's
    own record and the Witness (mu, p, lam).

    lam's record is its own, outside the `_shape` memo, so a dilation of a
    dilation never hangs off it and the memo stays bounded. lam is
    immutable, so verdicts can share it; it is held in runs, as many as mu
    has, until a reader lists its rows.
    """
    p = next_prime_above(rec.top)
    # compose(EMPTY, [mu] * p, p) blows every cell of mu up into a p x p
    # block: bead x of mu on the empty abacus becomes the p beads p x + j,
    # j < p, one per runner at level x, so run (v, m) of mu becomes the run
    # (p v, p m) of lam
    lam = Partition.from_runs((p * v, p * m) for v, m in mu.runs)
    rec.dilation = p, _Shape(lam.runs), Witness(mu, p, lam)
    return rec.dilation


def _verified_fails(params: RatioParams, mu: Partition, bound: int | None) -> Verdict:
    """The Fails verdict of this pair at the witness mu, re-checked.

    One read of the `littlewood._shape` memo gives mu's record. sig, the
    counts signature of mu, is formed from it for this pair on every call
    and must be negative. (p, lam) depend on mu alone and are kept in the
    record with lam's own record and the Witness (`_dilation`), so a
    witness that comes back reads its largest hook, its prime and its
    counts once. Sharing them leaves the re-check independent: the pair's
    own k_r weight the counts of lam, and a lam that is not mu's dilation
    at p, or a count of it that is wrong, shows up as a valuation other
    than p * sig, which raises InvariantError.
    """
    rec = _shape(mu.runs)
    sig = _signature(rec, params.signed)
    if sig >= 0:
        raise ValueError(
            f"counts signature of {format_partition(mu) or '()'} is {sig}; "
            "a negative signature is required"
        )
    p, lam_rec, witness = rec.dilation or _dilation(rec, mu)
    vp = _valuation(lam_rec, params.signed, p)
    expected = p * sig
    if vp != expected or vp >= 0:
        raise InvariantError(
            f"witness {format_partition(mu) or '()'} at p = {p} has valuation {vp}, "
            f"expected {expected} < 0"
        )
    return Verdict(params, STATUS_FAILS, witness, bound, vp)


def decide(params: RatioParams, size_bound: int) -> Verdict:
    """Decide integrality of the ratio for balanced parameters.

    Returns Integral-Certified when the divisibility flow (fact 7 in the
    module docstring) proves the ratio integral, Fails with a re-verified
    witness triple when a negative-signature partition turns up (hook
    shapes over the full period grid first, then every partition up to the
    size bound, through its M-core), and Unknown-UpToBound otherwise: a
    clean search is not a proof.
    """
    if not params.is_balanced:
        raise ValueError(f"parameters {params} are not balanced")
    if size_bound < 0:
        raise ValueError("size bound must be nonnegative")
    if _certified_by_flow(params):
        # a certified pair is never searched, so it carries no bound
        return Verdict(params, STATUS_INTEGRAL)
    found = _hook_shape_scan(params)
    if found is not None:
        mu = construct_hook_partition(*found)
    else:
        mu = _least_failing_mu(params, size_bound)
    if mu is not None:
        return _verified_fails(params, mu, size_bound)
    return Verdict(params, STATUS_UNKNOWN, bound=size_bound)

"""Littlewood decomposition at an arbitrary modulus p >= 2.

Everything here works on the bead positions (beta-numbers) of a
partition: with n rows, padded by zero parts, the beads sit at
x_k = lam_k - k for k = 1..n, and every position below -n is a bead too.
At modulus p, bead x lies on runner x mod p at level x // p. Removing a
hook of length p slides one bead down one level of its runner, so the
p-core is what remains when every runner has been pushed down as far as
it goes. The charge of runner j is the number of beads it carries beyond
the n / p it would carry in a full abacus of n rows; the charges sum to
zero, fix the core, and are the alignment datum that makes the map
invertible. Quotient j reads the levels of the beads on runner j as the
beta-numbers of a partition, shifted by that charge.

Iterating the decomposition labels the p-ary rooted tree with partitions
(the quotient tower) and with p-cores (the core tower); all but finitely
many labels are empty.

Hooks are counted on the beads as well: a hook is a bead with an empty
position below it, and its length is their distance.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ._record import record
from .partition import EMPTY, Partition, format_partition
from .primes import is_prime

Word = tuple[int, ...]


@record
class LittlewoodDecomposition:
    """Core, quotients and per-residue charges of one partition at p."""

    p: int
    core: Partition
    quotients: tuple[Partition, ...]
    charges: tuple[int, ...]

    def total_quotient_size(self) -> int:
        return sum(q.size for q in self.quotients)


def _assemble(
    quotients: Sequence[Partition], charges: Sequence[int], p: int
) -> Partition:
    """The partition carrying quotient j at charge c_j on runner j.

    Bead i of quotient j sits at global position p * (q_ji - i + c_j) + j.
    Every runner is filled down to the common floor below which all runners
    are full; the n beads above it, sorted descending as x_1 > ... > x_n,
    give the parts lam_k = x_k + k.
    """
    floor = min(c - len(q.parts) for q, c in zip(quotients, charges))
    beads: list[int] = []
    for j, (q, c) in enumerate(zip(quotients, charges)):
        beads.extend(p * (part - i + c) + j for i, part in enumerate(q.parts, 1))
        beads.extend(range(p * (c - len(q.parts) - 1) + j, p * floor - 1, -p))
    beads.sort(reverse=True)
    return Partition(x + k for k, x in enumerate(beads, 1) if x + k > 0)


def decompose(lam: Partition, p: int) -> LittlewoodDecomposition:
    """Split lam into its p-core and the p-tuple of quotients.

    Pad lam with zero parts to n = ceil(len(lam) / p) * p rows and put
    bead x_k = lam_k - k on runner x_k mod p at level x_k // p. Runner j
    carries c_j = (its beads) - n / p as its charge, and its levels
    u_1 > u_2 > ... give quotient j the parts u_i + i - c_j that are
    positive. The core keeps the charges and empties every quotient. This
    is the inverse of compose; the size identity |lam| = |core| + p * sum
    of quotient sizes holds for every output.
    """
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    n = -(-len(lam) // p) * p
    runners: list[list[int]] = [[] for _ in range(p)]
    for k, part in enumerate(lam.parts + (0,) * (n - len(lam)), 1):
        level, j = divmod(part - k, p)
        runners[j].append(level)
    charges = tuple(len(levels) - n // p for levels in runners)
    quotients = tuple(
        Partition(
            part for part in (u + i - c for i, u in enumerate(levels, 1)) if part > 0
        )
        for levels, c in zip(runners, charges)
    )
    core = _assemble([EMPTY] * p, charges, p)
    return LittlewoodDecomposition(p, core, quotients, charges)


def compose(core: Partition, quotients: Sequence[Partition], p: int) -> Partition:
    """Inverse of decompose: the unique partition with this core and these
    quotients.

    The core fixes the charge c_j of each residue class (a core is exactly
    a partition whose quotients are all empty). Quotient j goes on runner
    j: its bead i, at q_ji - i in its own centered sequence, lands at
    global position p * (q_ji - i + c_j) + j. The runners are filled down
    to a common floor and the parts are read back from the sorted
    positions, so the cost is one sort of about p * max(len(q_j) - c_j)
    beads, never a walk over the cells or the boundary of the result.
    """
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    quotients = tuple(quotients)
    if len(quotients) != p:
        raise ValueError(f"expected {p} quotients, got {len(quotients)}")
    dec = decompose(core, p)
    if any(dec.quotients):
        raise ValueError(f"{format_partition(core) or '()'} is not a {p}-core")
    return _assemble(quotients, dec.charges, p)


def p_core(lam: Partition, p: int) -> Partition:
    """The p-core: what is left after removing hooks of length p until
    none remains, in any order. It is read off the decomposition, where
    every runner is pushed down as far as it goes."""
    return decompose(lam, p).core


def is_p_core(lam: Partition, p: int) -> bool:
    """True when no hook length is divisible by p."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    return hook_count_divisible(lam, p) == 0


class _Tower:
    """Finitely supported labelling of p-ary words by partitions."""

    __slots__ = ("p", "_labels")

    def __init__(self, p: int, labels: dict[Word, Partition]):
        self.p = p
        self._labels = {w: lab for w, lab in labels.items() if lab}

    def label(self, word: Word) -> Partition:
        word = tuple(word)
        if any(not 0 <= digit < self.p for digit in word):
            raise ValueError(f"word {word} has digits outside [0, {self.p})")
        return self._labels.get(word, Partition())

    def support(self) -> list[Word]:
        """Words with nonempty label, by depth then lexicographic order."""
        return sorted(self._labels, key=lambda w: (len(w), w))

    def depth(self) -> int:
        return max((len(w) for w in self._labels), default=0)

    def to_json_dict(self) -> dict[str, str]:
        """Word strings "i1.i2" (root "") mapped to partition literals."""
        out = {"": format_partition(self.label(()))}
        for w in self.support():
            if w:
                out[".".join(str(d) for d in w)] = format_partition(self._labels[w])
        return out

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.p == other.p
            and self._labels == other._labels
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, {self.to_json_dict()!r})"


class QuotientTower(_Tower):
    """Labels: the root carries the partition itself, and the children of a
    word carry the p-quotients of its label."""


class CoreTower(_Tower):
    """Labels: the p-core of the corresponding quotient tower label."""


def _walk(
    lam: Partition, p: int
) -> Iterator[tuple[Word, Partition, LittlewoodDecomposition]]:
    """(word, label, decomposition) for every nonempty quotient tower label,
    by depth and then by word: breadth first, children in digit order."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    queue = [((), lam)] if lam else []
    for word, label in queue:  # the loop also reaches the children it appends
        dec = decompose(label, p)
        yield word, label, dec
        queue.extend((word + (j,), q) for j, q in enumerate(dec.quotients) if q)


def quotient_tower(lam: Partition, p: int) -> QuotientTower:
    return QuotientTower(p, {word: label for word, label, _ in _walk(lam, p)})


def core_tower(lam: Partition, p: int) -> CoreTower:
    return CoreTower(p, {word: dec.core for word, _, dec in _walk(lam, p)})


def iter_tower_levels(lam: Partition, p: int) -> Iterator[list[Partition]]:
    """Nonempty quotient tower labels, one level at a time, starting at
    depth 1; each level is ordered by the lexicographic order of its words.
    Level d + 1 is built from the quotients of level d only when it is
    requested, so a consumer that stops after level d decomposes no label
    of that level. Stops after the last nonempty level."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    level = [lam] if lam else []
    while level := [q for label in level for q in decompose(label, p).quotients if q]:
        yield level


def largest_hook(lam: Partition) -> int:
    """The corner hook lam_1 + len(lam) - 1; 0 for the empty partition."""
    return lam.first + len(lam) - 1 if lam else 0


def divisible_hook_counts(lam: Partition, moduli: Iterable[int]) -> dict[int, int]:
    """N_m, the number of hooks of lam divisible by m, for each modulus m.

    A hook is a bead with a gap below it on the boundary, and its length is
    their distance. Counting positions from the lowest gap, the beads sit at
    y_k = lam_k - k + n for k = 1..n, n = len(lam). A bead y has y // m
    positions below it on its runner (positions congruent to y mod m), and
    each of the other beads on that runner below it fills one of them, so
    N_m = sum_k y_k // m - sum_r C(cnt_r, 2), cnt_r the beads on runner r.

    A run of equal parts is an interval [a, b) of consecutive beads, and the
    kernel reads intervals, not rows. With (q, u) = divmod(b, m) and
    (s, t) = divmod(a, m), the floor sum of the interval is F(b) - F(a),
    F(x) = sum_{y < x} y // m = m q (q - 1) / 2 + q u, and the interval puts
    q - s + [r >= t] - [r >= u] beads on runner r: q - s cycles and the arc
    of runners [t, u), which is a point for a run of one part. An arc that
    wraps past runner m - 1 (u < t) is one more cycle less the arc [u, t).
    So cnt_r = Q + A_r, Q the total of the cycles and A_r the depth of the
    arcs over r, and sum_r cnt_r^2 = m Q^2 + 2 Q (n - m Q) + sum_r A_r^2,
    the last term one sweep of depth^2 times width over the sorted arc
    ends. Each modulus costs O(R log R) for R runs, whatever |lam| and
    len(lam) are.

    The kernel is `_hook_count`, whose domain is 1 <= m <= the largest
    hook; each such N_m is read through its memo, keyed by (lam.runs, m)
    and bounded at 4096 entries, so a shape that comes back costs one
    lookup per modulus; a larger m has no hook and is 0 without a lookup.
    The memo holds counts, which depend on the shape and m alone, so a
    caller that sums them with its own weights checks as much as one that
    counted afresh.
    """
    runs, top = lam.runs, largest_hook(lam)
    counts: dict[int, int] = {}
    for m in moduli:
        if m < 1:
            raise ValueError(f"divisor must be >= 1, got {m}")
        counts[m] = _hook_count(runs, m) if m <= top else 0
    return counts


# Bounded, so a long run cannot grow it without limit: `decide` re-verifies
# every failing pair on its witness mu and on mu's dilation, and the 850
# survey pairs meet only 24 distinct witnesses, so their counts fit many
# times over. A miss reads the bead intervals from the runs, which come from
# a checked Partition, and builds none.
@lru_cache(maxsize=4096)
def _hook_count(runs: tuple[tuple[int, int], ...], m: int) -> int:
    """N_m of the partition with these runs, for 1 <= m <= its largest
    hook, counted by the interval kernel of `divisible_hook_counts`: the
    run (value, mult) with n rows below it is the bead interval
    [value + n, value + n + mult)."""
    floors = full = n = 0  # n: the rows below this run, len(lam) at the end
    ends: list[int] = []  # 2 * runner, plus 1 where an arc starts
    for value, mult in reversed(runs):
        a = value + n
        n += mult
        q, u = divmod(a + mult, m)
        s, t = divmod(a, m)
        floors += (m * (q * (q - 1) - s * (s - 1)) >> 1) + q * u - s * t
        full += q - s
        ends += (2 * t + 1, 2 * u)
    squares = m * full * full + 2 * full * (n - m * full)
    # A_r = depth on the runners [prev, pos); the order of the ends at
    # one runner does not change the sum
    ends.sort()
    depth = prev = 0
    for e in ends:
        pos = e >> 1
        squares += depth * depth * (pos - prev)
        prev = pos
        depth += 1 if e & 1 else -1
    return floors - (squares - n) // 2


def hook_count_divisible(lam: Partition, r: int) -> int:
    """Number of hooks of lam divisible by r."""
    return divisible_hook_counts(lam, (r,))[r]


def _valuation(lam: Partition, signed: Sequence[tuple[int, int]], p: int) -> int:
    """sum_r k_r sum_{i >= 1} N_{r * p**i}(lam) over the pairs (r, k_r) of
    signed, where N_m counts the hooks divisible by m.

    A hook h divisible by r contributes v_p(h / r) to the inner sum, the
    number of i >= 1 with r * p**i dividing h, so at a prime p this is the
    exponent of p in prod_r H_r(lam)^{k_r}, H_r the product of the hooks
    divisible by r, each divided by r. The terms stop once r * p**i
    exceeds the largest hook, and each N_m is read through the
    `_hook_count` memo (keyed by (lam.runs, m), bounded at 4096 entries),
    so a shape that comes back costs one lookup per term. The memo holds
    counts of the shape alone; the weights k_r and the prime p are the
    caller's, summed afresh on every call, so a wrong k_r or p still gives
    a wrong sum.
    """
    runs, top = lam.runs, largest_hook(lam)
    total = 0
    for r, k in signed:
        m = r * p
        while m <= top:
            total += k * _hook_count(runs, m)
            m *= p
    return total


def valuation_hook_product(lam: Partition, p: int) -> int:
    """Exponent of the prime p in the product of all hook lengths.

    Equals the sum over i >= 1 of the number of hooks divisible by p**i
    (each hook h contributes its own p-adic valuation): the prime-power sum
    of `_valuation` for the single parameter 1. Composite moduli are
    rejected: the same count can be formed for them, but it no longer
    measures a valuation, because cross factors (a 2 and a 3 in different
    hooks making a 6) never join up inside a single hook.
    """
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime modulus, got {p}")
    return _valuation(lam, ((1, 1),), p)


def cells_with_exact_valuation(lam: Partition, p: int, d: int) -> int:
    """Number of cells whose hook is divisible by p**d but not p**(d+1)."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if d < 1:
        raise ValueError(f"exponent must be >= 1, got {d}")
    counts = divisible_hook_counts(lam, (p**d, p ** (d + 1)))
    return counts[p**d] - counts[p ** (d + 1)]

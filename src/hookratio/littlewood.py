"""Littlewood decomposition at an arbitrary modulus p >= 2.

A partition decomposes into its p-core plus p quotient partitions. On the
boundary sequence the decomposition is a deinterleaving: quotient j is the
subsequence of entries at global indices congruent to j mod p, with index 0
of each subsequence sitting at the residue immediately after the centering
mark. Removing a hook of length p swaps a (1, 0) pair at distance p, which
moves entirely inside one residue class; the p-core is what remains when
every class has been pushed down to its vacuum. The charge of each residue
subsequence is the alignment datum that makes the map invertible.

Iterating the decomposition labels the p-ary rooted tree with partitions
(the quotient tower) and with p-cores (the core tower); all but finitely
many labels are empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .partition import (
    BoundarySequence,
    Partition,
    format_partition,
    from_boundary,
    hook_multiset,
    to_boundary,
)
from .primes import is_prime

Word = tuple[int, ...]


@dataclass(frozen=True)
class LittlewoodDecomposition:
    """Core, quotients and per-residue charges of one partition at p."""

    p: int
    core: Partition
    quotients: tuple[Partition, ...]
    charges: tuple[int, ...]

    def total_quotient_size(self) -> int:
        return sum(q.size for q in self.quotients)


def _residue_subsequence(b: BoundarySequence, p: int, j: int) -> BoundarySequence:
    """Subsequence i -> b.value(p*i + j), trimmed but alignment preserving."""
    lo = b.offset
    hi = b.offset + len(b.window)
    i_lo = (lo - j) // p - 1
    i_hi = -((j - hi) // p) + 1
    return BoundarySequence(
        (b.value(p * i + j) for i in range(i_lo, i_hi + 1)), i_lo
    )


def _interleave(seqs: Sequence[BoundarySequence], p: int) -> BoundarySequence:
    span = p * (max(abs(s.offset) + len(s.window) for s in seqs) + 2)
    bits = []
    for idx in range(-span, span + 1):
        j = idx % p
        bits.append(seqs[j].value((idx - j) // p))
    return BoundarySequence(bits, -span)


def _vacuum(charge: int) -> BoundarySequence:
    """The empty-shape sequence whose charge is the given integer."""
    return BoundarySequence((), charge)


def decompose(lam: Partition, p: int) -> LittlewoodDecomposition:
    """Split lam into its p-core and the p-tuple of quotients.

    Quotient j reads the residue-j subsequence of the centered boundary
    sequence; the core replaces every subsequence by the vacuum of the same
    charge. The size identity |lam| = |core| + p * sum of quotient sizes
    holds for every output.
    """
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    b = to_boundary(lam)
    subs = [_residue_subsequence(b, p, j) for j in range(p)]
    quotients = tuple(s.to_partition() for s in subs)
    charges = tuple(s.charge() for s in subs)
    core = from_boundary(_interleave([_vacuum(c) for c in charges], p))
    return LittlewoodDecomposition(p, core, quotients, charges)


def compose(core: Partition, quotients: Sequence[Partition], p: int) -> Partition:
    """Inverse of decompose: the unique partition with this core and these
    quotients.

    The core fixes the charge of each residue class; each quotient's centered
    sequence is shifted to that charge and the p subsequences are
    interleaved back together.
    """
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    quotients = tuple(quotients)
    if len(quotients) != p:
        raise ValueError(f"expected {p} quotients, got {len(quotients)}")
    if not is_p_core(core, p):
        raise ValueError(f"{core!r} is not a {p}-core")
    b = to_boundary(core)
    charges = [_residue_subsequence(b, p, j).charge() for j in range(p)]
    seqs = [to_boundary(q).shifted(c) for q, c in zip(quotients, charges)]
    return from_boundary(_interleave(seqs, p))


def p_core(lam: Partition, p: int) -> Partition:
    """The p-core: what is left after removing hooks of length p until
    none remains, in any order. It is read off the decomposition, where
    each residue class is pushed down to the vacuum of its charge."""
    return decompose(lam, p).core


def is_p_core(lam: Partition, p: int) -> bool:
    """True when no hook length is divisible by p.

    It suffices to look for a hook of length exactly p, i.e. a (1, 0) pair
    at distance p in the boundary sequence.
    """
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    b = to_boundary(lam)
    return not any(b.value(s - p) == 1 for s in b.zero_positions())


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


def _expand(
    lam: Partition, p: int
) -> tuple[dict[Word, Partition], dict[Word, Partition]]:
    """Quotient tower labels and the p-core of each nonempty label, from
    one decomposition per label."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    labels: dict[Word, Partition] = {(): lam}
    cores: dict[Word, Partition] = {}
    frontier: list[Word] = [()] if lam else []
    while frontier:
        word = frontier.pop()
        dec = decompose(labels[word], p)
        cores[word] = dec.core
        for j, q in enumerate(dec.quotients):
            if q:
                child = word + (j,)
                labels[child] = q
                frontier.append(child)
    return labels, cores


def quotient_tower(lam: Partition, p: int) -> QuotientTower:
    return QuotientTower(p, _expand(lam, p)[0])


def core_tower(lam: Partition, p: int) -> CoreTower:
    return CoreTower(p, _expand(lam, p)[1])


def iter_tower_levels(lam: Partition, p: int) -> Iterator[list[Partition]]:
    """Nonempty quotient tower labels, one level at a time, starting at
    depth 1; each level is ordered by the lexicographic order of its words.
    Stops after the last nonempty level."""
    level = [((), lam)] if lam else []
    while level:
        children = []
        for word, lab in level:
            for j, q in enumerate(decompose(lab, p).quotients):
                if q:
                    children.append((word + (j,), q))
        if not children:
            return
        children.sort(key=lambda item: item[0])
        yield [lab for _, lab in children]
        level = children


def hook_count_divisible(lam: Partition, r: int) -> int:
    """Number of hooks of lam divisible by r."""
    if r < 1:
        raise ValueError(f"divisor must be >= 1, got {r}")
    return sum(c for h, c in hook_multiset(lam).items() if h % r == 0)


def valuation_hook_product(lam: Partition, p: int) -> int:
    """Exponent of the prime p in the product of all hook lengths.

    Equals the sum over i >= 1 of the number of hooks divisible by p**i
    (each hook h contributes its own p-adic valuation). Composite moduli
    are rejected: the same count can be formed for them, but it no longer
    measures a valuation, because cross factors (a 2 and a 3 in different
    hooks making a 6) never join up inside a single hook.
    """
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime modulus, got {p}")
    total = 0
    pk = p
    hooks = hook_multiset(lam)
    maxhook = max(hooks, default=0)
    while pk <= maxhook:
        total += sum(c for h, c in hooks.items() if h % pk == 0)
        pk *= p
    return total


def cells_with_exact_valuation(lam: Partition, p: int, d: int) -> int:
    """Number of cells whose hook is divisible by p**d but not p**(d+1)."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if d < 1:
        raise ValueError(f"exponent must be >= 1, got {d}")
    return hook_count_divisible(lam, p**d) - hook_count_divisible(lam, p ** (d + 1))

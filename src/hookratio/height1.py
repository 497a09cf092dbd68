"""Complete decision procedure for balanced parameters of height 1, with
the additive combinatorics toolkit (sumsets, stabilizers, the Kneser
inequality) over the cyclic group of the period.

At height 1 with the one-row check passing, f only takes the values 0 and
1 over its least period P, which is exactly M, the lcm of all entries
(see `ratio.build_ftable`). The level sets A0 and A1 each fill half the
period, and the drop set Y collects the residues where f steps from 1
down to 0.
A hook shape (arm a, leg l) has negative signature exactly when
f(a) = f(l) = 0, f(a+l) = 1 and f(a+l+1) = 0, i.e. when a + l lands in Y
and splits over A0 + A0; the sumset covers all but at most one residue, so
the scan can only come up empty for the single exceptional parameter
shape ((x), (2x, 2x)), which the divisibility flow certifies. Any other
outcome would contradict the classification and raises a diagnostic
instead of returning a verdict.

The decision itself is `decide`, the flow, scan and re-check that `check`
runs, held to the classification; the sumset machinery is kept as an
independently testable sanity layer, never as a shortcut.
"""

from __future__ import annotations

from itertools import chain, compress, count, islice, repeat
from operator import eq, gt, lt
from typing import Iterable, NamedTuple

from .integral import (
    STATUS_FAILS, STATUS_INTEGRAL, Verdict, _certified_by_flow, _verified_fails, decide
)
from .partition import Partition, format_partition
from .ratio import InvariantError, RatioParams, build_ftable


class Height1ContradictionError(InvariantError):
    """A result the height 1 classification rules out, such as an empty
    witness scan for parameters other than the canonical exception."""


class PeriodSets(NamedTuple):
    """Level sets of f over one period, plus the drop set.

    Only defined when f takes values in {0, 1}: A0 and A1 are the residues
    where f is 0 and 1, each of cardinality P/2, and Y holds the residues y
    with f(y) = 1 and f(y+1) = 0 cyclically (P - 1 always qualifies).
    """

    P: int
    A0: frozenset[int]
    A1: frozenset[int]
    Y: frozenset[int]


class SumsetReport(NamedTuple):
    """A + B over Z/P together with the stabilizer of the sumset and both
    sides of the Kneser inequality |A+B| >= |A+S| + |B+S| - |S|."""

    modulus: int
    sumset: frozenset[int]
    stabilizer: frozenset[int]
    kneser_lhs: int
    kneser_rhs: int


def _as_mask(values: Iterable[int], P: int) -> int:
    # one digit string, read at C speed: O(P), where or-ing in one bit at a
    # time would rebuild a P-bit integer per element
    digits = bytearray(b"0" * P)
    for v in values:
        digits[P - 1 - v % P] = 0x31  # ord("1")
    return int(digits, 2)


def _elements(mask: int) -> list[int]:
    """The set bits of mask in increasing order, in O(bit length)."""
    digits = bin(mask)[:1:-1]
    return [i for i, d in enumerate(digits) if d == "1"]


def _fold(mask: int, d: int) -> int:
    """The OR of the d-bit chunks of mask: bit r is set when some element
    of mask is r mod d."""
    # OR the upper half of the chunks onto the lower half, a multiple of d
    # bits wide, so each pass halves the chunks and keeps their residues
    while mask >> d:
        half = (-(-mask.bit_length() // d) + 1) // 2 * d
        mask = (mask & ((1 << half) - 1)) | (mask >> half)
    return mask


def sumset(A: Iterable[int], B: Iterable[int], P: int) -> SumsetReport:
    """Full report on A + B inside Z/P, elements reduced mod P."""
    if P < 1:
        raise ValueError("modulus must be positive")
    a_mask = _as_mask(A, P)
    b_mask = _as_mask(B, P)
    if not a_mask or not b_mask:
        raise ValueError("sumsets of empty sets are not defined here")
    wide = 0
    for b in _elements(b_mask):
        wide |= a_mask << b
    # a + b < 2P, so folding the P-bit chunks reduces every sum mod P
    s_mask = _fold(wide, P)
    # {g : S + g = S} is a subgroup of Z/P, so it is dZ/P for the least
    # d > 0 that fixes S. Shifting S by d rotates its P-digit string by d
    # places, so d is the first shift at which that string appears again
    # inside itself doubled; d = P when only the trivial shift fixes S
    digits = format(s_mask, f"0{P}b")
    d = (digits + digits).find(digits, 1)
    # X + dZ/P is the union of the cosets of X's residues mod d, each of
    # P/d elements, so |A + H| + |B + H| - |H| counts residues mod d
    rhs = (_fold(a_mask, d).bit_count() + _fold(b_mask, d).bit_count() - 1) * (P // d)
    return SumsetReport(
        P, frozenset(_elements(s_mask)), frozenset(range(0, P, d)),
        s_mask.bit_count(), rhs,
    )


def _require_height1(params: RatioParams) -> None:
    if params.height != 1:
        raise ValueError(f"expected height 1, got height {params.height}")


def period_sets(params: RatioParams) -> PeriodSets:
    """A0, A1 and Y for height 1 parameters passing the one-row check."""
    _require_height1(params)
    table = build_ftable(params)
    if table.min < 0:
        raise ValueError(
            f"{params} fails the one-row check; the level sets are undefined"
        )
    P, vals = table.M, table.values
    # f at y + 1 for each residue y, cyclically
    after = chain(islice(vals, 1, None), vals[:1])
    A0 = frozenset(compress(range(P), map(eq, vals, repeat(0))))
    A1 = frozenset(compress(range(P), map(eq, vals, repeat(1))))
    Y = frozenset(compress(range(P), map(gt, vals, after)))
    # A0 and A1 are disjoint, so two halves of the period also cover it:
    # f takes only the values 0 and 1, and f(y) > f(y+1) is the drop 1 -> 0
    if not len(A0) * 2 == len(A1) * 2 == P or P - 1 not in Y:
        raise Height1ContradictionError(
            f"level sets of {params} break the height 1 classification"
        )
    return PeriodSets(P, A0, A1, Y)


def is_canonical_exception(params: RatioParams) -> bool:
    """True for the single integral height 1 shape: one gamma, two equal
    deltas, each twice the gamma."""
    x = params.signed[0][0]
    return params.signed == ((x, 1), (2 * x, -2))


def decide_height1(params: RatioParams) -> Verdict:
    """Complete decision at height 1.

    A failing one-row check immediately yields a one-row witness. Otherwise
    the pair goes through `decide`, and its verdict is held to the
    classification: Integral-Certified exactly for the canonical exception
    ((x), (2x, 2x)), and otherwise Fails at a witness of counts signature
    exactly -1. A Fails verdict is also held to the divisibility flow,
    which must not certify the pair: a witness and a certificate of the
    same pair contradict each other. Anything else raises
    Height1ContradictionError.
    """
    _require_height1(params)
    table = build_ftable(params)
    if table.min < 0:
        x = next(compress(count(), map(lt, table.values, repeat(0))))
        verdict = _verified_fails(params, Partition((x,)), None)
    else:
        # the bound 0 searches nothing: the walk runs only after an empty
        # scan, which the classification rules out, and at limit 0 admits
        # only the empty partition
        contradiction = Height1ContradictionError(
            f"hook witness of {params} has signature other than -1"
        )
        try:
            verdict = decide(params, 0)
        except ValueError as exc:  # a scan witness of signature >= 0
            raise contradiction from exc
        exceptional = is_canonical_exception(params)
        if verdict.status == STATUS_FAILS and not exceptional:
            # the re-check made the valuation p times the signature of mu
            if verdict.valuation_at_p != -verdict.witness.p:
                raise contradiction
        elif verdict.status != STATUS_INTEGRAL or not exceptional:
            raise Height1ContradictionError(
                f"{verdict.status} for height 1 parameters {params}; "
                "this contradicts the height 1 classification"
            )
        # a height 1 verdict carries no bound: the classification, not a
        # search up to a size, decides it
        verdict = verdict._replace(bound=None)
    if verdict.status == STATUS_FAILS and _certified_by_flow(params):
        raise Height1ContradictionError(
            f"{params} fails at {format_partition(verdict.witness.mu)} "
            "but the divisibility flow certifies it"
        )
    return verdict

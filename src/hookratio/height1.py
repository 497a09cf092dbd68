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
shape ((x), (2x, 2x)). Any other empty scan would contradict the
classification and raises a diagnostic instead of returning a verdict.

The decision itself is the hook shape scan that the general decision
procedure runs over the period grid; the sumset machinery is kept as an
independently testable sanity layer, never as a shortcut.
"""

from __future__ import annotations

from itertools import chain, compress, count, islice, repeat
from operator import and_, eq, lt
from typing import Iterable

from ._record import record
from .integral import (
    STATUS_INTEGRAL,
    Verdict,
    _hook_shape_scan,
    _verified_fails,
)
from .partition import Partition, construct_hook_partition
from .primes import divisors
from .ratio import InvariantError, RatioParams, build_ftable


class Height1ContradictionError(InvariantError):
    """A result the height 1 classification rules out, such as an empty
    witness scan for parameters other than the canonical exception."""


@record
class PeriodSets:
    """Level sets of f over one period, plus the drop set.

    Only defined when f takes values in {0, 1}: A0 and A1 are the residues
    where f is 0 and 1, each of cardinality P/2, and Y holds the residues y
    with f(y) = 1 and f(y+1) = 0 cyclically (P - 1 always qualifies).
    """

    P: int
    A0: frozenset[int]
    A1: frozenset[int]
    Y: frozenset[int]


@record
class SumsetReport:
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


def _rotate(mask: int, g: int, P: int) -> int:
    g %= P
    full = (1 << P) - 1
    return ((mask << g) | (mask >> (P - g))) & full if g else mask


def sumset(A: Iterable[int], B: Iterable[int], P: int) -> SumsetReport:
    """Full report on A + B inside Z/P, elements reduced mod P."""
    if P < 1:
        raise ValueError("modulus must be positive")
    a_mask = _as_mask(A, P)
    b_mask = _as_mask(B, P)
    if not a_mask or not b_mask:
        raise ValueError("sumsets of empty sets are not defined here")
    s_mask = 0
    for b in _elements(b_mask):
        s_mask |= _rotate(a_mask, b, P)
    # {g : S + g = S} is a subgroup of Z/P, so it is dZ/P for the least
    # divisor d of P that fixes S (d = P always does)
    step = next(d for d in divisors(P) if _rotate(s_mask, d, P) == s_mask)
    stab_mask = a_stab = b_stab = 0
    for g in range(0, P, step):
        stab_mask |= 1 << g
        a_stab |= _rotate(a_mask, g, P)
        b_stab |= _rotate(b_mask, g, P)
    lhs = s_mask.bit_count()
    rhs = a_stab.bit_count() + b_stab.bit_count() - stab_mask.bit_count()
    return SumsetReport(
        P, frozenset(_elements(s_mask)), frozenset(_elements(stab_mask)), lhs, rhs
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
    Y = frozenset(compress(range(P), map(
        and_, map(eq, vals, repeat(1)), map(eq, after, repeat(0))
    )))
    # A0 and A1 are disjoint, so two halves of the period also cover it
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
    the (a, l) grid is scanned for a hook shape witness; each hit has
    counts signature exactly -1 and is inflated to a verified failing
    partition. An empty scan must mean the canonical exception
    ((x), (2x, 2x)); anything else raises Height1ContradictionError.
    """
    _require_height1(params)
    table = build_ftable(params)
    if table.min < 0:
        x = next(compress(count(), map(lt, table.values, repeat(0))))
        return _verified_fails(params, Partition((x,)), None)
    found = _hook_shape_scan(params)
    if found is not None:
        contradiction = Height1ContradictionError(
            f"hook witness {found} of {params} has signature other than -1"
        )
        try:
            verdict = _verified_fails(params, construct_hook_partition(*found), None)
        except ValueError as exc:  # a signature >= 0 cannot be inflated
            raise contradiction from exc
        # the re-check made the valuation p times the signature of mu
        if verdict.valuation_at_p != -verdict.witness.p:
            raise contradiction
        return verdict
    if is_canonical_exception(params):
        return Verdict(params, STATUS_INTEGRAL)
    raise Height1ContradictionError(
        f"no hook witness for non-exceptional height 1 parameters {params}; "
        "this contradicts the height 1 classification"
    )

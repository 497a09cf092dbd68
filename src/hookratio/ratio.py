"""Parameter vectors and the floor-sum step function they induce.

A pair of vectors (gammas, deltas) of positive integers defines the step
function f(x) = sum_k floor(x / gamma_k) - sum_l floor(x / delta_l) and the
signed divisor count g(y) = #{gamma | y} - #{delta | y}, whose prefix
sums reproduce f. Under the balancing condition (the reciprocal sums
agree) f has least period exactly the lcm M of all entries (proved at
:func:`build_ftable`), and one period of values decides one-row
integrality (the classical criterion). The period table is built from g:
f changes only at multiples of an entry, so it is one pass over those
multiples and one running sum. All breakpoints of f are integers, so every
statement made "for small enough epsilon" is evaluated here at integer
arguments only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, eq
from typing import NamedTuple


class InvariantError(RuntimeError):
    """An identity that holds for every valid input came out false: the
    computation is wrong, not the input. Unlike assert, never stripped."""


class _RatioFields(NamedTuple):
    gammas: tuple[int, ...]
    deltas: tuple[int, ...]


class RatioParams(_RatioFields):
    """The (gammas, deltas) pair defining a hook product ratio.

    No entry may appear on both sides (a shared entry would cancel from the
    ratio identically; use :meth:`normalized` to cancel first). Height is
    the excess of denominator factors, L - K. The ratio is prod_r
    H_r^{k_r} over the distinct entries r, H_r the restricted hook product
    and k_r = #{gamma = r} - #{delta = r}, and every kernel reads the pair
    through three read-only attributes set once here:
    - `signed`: the pairs (r, k_r), in order of first appearance, gammas
      first;
    - `modulus`: M, the lcm of all entries;
    - `excess`: m = sum k_r M / r, which is sum 1/gamma - sum 1/delta
      times M in integers (every quotient is exact), so balance is m = 0.
    They are no fields: they take no part in equality, hashing or the repr.
    No decision path here touches floating point.
    """

    def __new__(cls, gammas, deltas):
        gammas = tuple(int(g) for g in gammas)
        deltas = tuple(int(d) for d in deltas)
        if not gammas or not deltas:
            raise ValueError("parameter vectors must be nonempty")
        if min(gammas + deltas) < 1:
            raise ValueError("parameters must be positive integers")
        shared = set(gammas) & set(deltas)
        if shared:
            raise ValueError(
                f"gammas and deltas must be disjoint, both contain {sorted(shared)}"
            )
        self = super().__new__(cls, gammas, deltas)
        M = lcm(*gammas, *deltas)
        signed = _signed(gammas, deltas)
        object.__setattr__(self, "signed", signed)
        object.__setattr__(self, "modulus", M)
        object.__setattr__(self, "excess", sum(k * (M // r) for r, k in signed))
        return self

    @classmethod
    def _make(cls, iterable) -> "RatioParams":
        # the tuple's own _make, and so _replace, would skip __new__
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to attribute {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete attribute {name!r}")

    @classmethod
    def normalized(cls, gammas, deltas) -> "RatioParams":
        """Build params after cancelling entries common to both sides
        (with multiplicity)."""
        g = list(gammas)
        d = list(deltas)
        for v in list(g):
            if v in d:
                g.remove(v)
                d.remove(v)
        return cls(tuple(g), tuple(d))

    @property
    def K(self) -> int:
        return len(self.gammas)

    @property
    def L(self) -> int:
        return len(self.deltas)

    @property
    def height(self) -> int:
        return self.L - self.K

    @property
    def is_balanced(self) -> bool:
        # a property, so that tracers can wrap its getter
        return self.excess == 0

    def __str__(self) -> str:
        g = ",".join(map(str, self.gammas))
        d = ",".join(map(str, self.deltas))
        return f"(({g}),({d}))"


def _signed(gammas, deltas) -> tuple[tuple[int, int], ...]:
    """(r, #{gamma = r} - #{delta = r}) for every entry r where that is not
    0, in order of first appearance, gammas first."""
    k: dict[int, int] = {}
    for r in gammas:
        k[r] = k.get(r, 0) + 1
    for r in deltas:
        k[r] = k.get(r, 0) - 1
    return tuple((r, n) for r, n in k.items() if n)


def _reciprocal_excess(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """m = sum M // a over left - sum M // b over right, M the lcm of all
    entries: sum 1/a - sum 1/b times M, in integers; 0 exactly under
    balance."""
    M = lcm(*left, *right)
    return sum(M // a for a in left) - sum(M // b for b in right)


def f_value(x: int, params: RatioParams) -> int:
    """sum floor(x / gamma_k) - sum floor(x / delta_l), which is
    sum k_r floor(x / r)."""
    return sum(k * (x // r) for r, k in params.signed)


def g_value(y: int, params: RatioParams) -> int:
    """Signed count of parameters dividing y; prefix sums give f."""
    if y < 1:
        raise ValueError(f"g is defined on positive integers, got {y}")
    return sum(k for r, k in params.signed if y % r == 0)


class FTable(NamedTuple):
    """f over [0, M) for balanced parameters, one least period exactly (see
    :func:`build_ftable`), with its least and greatest value, found once
    when the table is built."""

    params: RatioParams
    M: int
    values: tuple[int, ...]
    min: int
    max: int

    def f(self, x: int) -> int:
        """f at any integer >= 0, via periodicity."""
        return self.values[x % self.M]

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "P": self.M,
            "values": list(self.values),
            "min": self.min,
            "max": self.max,
        }


def _f_upto(params: RatioParams, n: int) -> tuple[int, ...]:
    """f on [0, n) for balanced parameters, as the prefix sums of its steps
    g(y) = sum k_r [r | y]: each distinct entry r adds k_r at the multiples
    of r in one slice pass, so this costs O(n + sum n / r)."""
    if not params.is_balanced:
        raise ValueError(
            f"parameters {params} are not balanced; the period is undefined"
        )
    steps = [0] * n  # g(y) at y in [1, n); f(0) = 0
    for r, k in params.signed:
        steps[r::r] = map(add, steps[r::r], repeat(k))
    return tuple(accumulate(steps))


# Bounded, so a long run cannot grow it without limit: `decide` builds a
# table only when its hook scan passes the prefix of f, for 12 of the 850
# survey pairs. It stays an lru_cache: bench/child.py reads its cache_info().
@lru_cache(maxsize=4096)
def build_ftable(params: RatioParams) -> FTable:
    """Tabulate f over [0, M), which is one least period of f, by
    `_f_upto`, in O(M + sum M / r).

    Balance makes M a period: f(x + M) - f(x) = sum M/gamma - sum M/delta.
    No P | M below it is one. k_r = #{gamma = r} - #{delta = r} is nonzero
    at every entry r, since the sides are disjoint.
    - g(y) = f(y) - f(y-1) = sum_r k_r [r | y] is G(gcd(y, M)) for some G,
      and is P-periodic when f is.
    - Some y + tP has gcd(y + tP, M) = gcd(y, P) (pick t mod each prime of
      M, then the CRT), so G(d) = G(gcd(d, P)) for d | M.
    - Moebius inversion gives k_r = sum_{d | r} mu(r/d) G(gcd(d, P)).
    - If r does not divide P, take a prime q with v_q(r) > v_q(P). The
      nonzero terms pair d with dq: opposite mu, and equal gcd with P as
      v_q(d) >= v_q(r) - 1 >= v_q(P). So k_r = 0, a contradiction.
    So every entry divides P, and P = M.

    Raises for unbalanced parameters, where f is unbounded and has no
    period. The reflection identity f(x) + f(M-1-x) = L - K and its corner
    case f(M-1) = L - K hold for every balanced pair and are checked here.
    """
    M = params.modulus
    values = _f_upto(params, M)
    height = params.height
    if not all(map(eq, map(add, values, reversed(values)), repeat(height))):
        raise InvariantError(f"reflection identity fails for {params}")
    if values[-1] != height:
        raise InvariantError(f"f(M - 1) != L - K for {params}")
    return FTable(params, M, values, min(values), max(values))


def landau_one_row_check(params: RatioParams) -> bool:
    """One-row integrality criterion: f nonnegative on a full period."""
    return build_ftable(params).min >= 0


def phi_bijection(params: RatioParams) -> RatioParams:
    """Map (mu, nu) to ((M/mu_k), (M/nu_l)) with M the lcm of all entries.

    Involutive whenever the gcd of all entries is 1. Carries sum-balanced
    vectors to reciprocal-balanced vectors and back.
    """
    M = params.modulus
    return RatioParams(
        tuple(M // g for g in params.gammas),
        tuple(M // d for d in params.deltas),
    )


def bober_families(x: int, y: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The three infinite families of height 1 integral factorial ratio
    parameters, instantiated at coprime (x, y).

    Returns raw (alpha, beta) vectors; the second family needs x > y and is
    omitted otherwise. Instances where alpha and beta share an entry are
    still emitted verbatim (callers that need disjoint vectors must filter
    or cancel).
    """
    if gcd(x, y) != 1:
        raise ValueError(f"(x, y) must be coprime, got ({x}, {y})")
    if x < 1 or y < 1:
        raise ValueError("x and y must be positive")
    families = [((x + y,), (x, y))]
    if x > y:
        families.append(((2 * x, y), (x, 2 * y, x - y)))
    families.append(((2 * x, 2 * y), (x, y, x + y)))
    return families


def check_size_bound(params: RatioParams) -> bool:
    """Explicit bound K + L <= 287 * (L - K)**3.44 for positive height.

    With 3.44 = 86/25 the bound is compared exactly, in integers, as
    (K + L)**25 <= 287**25 * (L - K)**86.
    """
    if params.height < 1:
        raise ValueError("the size bound is stated only for height >= 1")
    return (params.K + params.L) ** 25 <= 287**25 * params.height**86

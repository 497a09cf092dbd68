"""Integer partitions, hook lengths, and 01 boundary sequences.

A partition is immutable and stored as its runs of equal parts, largest
first; its weakly decreasing tuple of rows is kept when given and listed
on first read otherwise. The boundary sequence of a partition is the
doubly infinite 01 word traced along the staircase outline of its Young
diagram (0 for an up step, 1 for a right step), eventually 0 to the left
and 1 to the right.
Every operation here is a pure function, so values can be shared freely.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from itertools import chain, groupby, repeat
from math import factorial, prod
from typing import Iterable, Iterator

Cell = tuple[int, int]

DEFAULT_MAX_ENUMERATION_SIZE = 40
MAX_SIZE_ENV_VAR = "HOOKRATIO_MAX_SIZE"


class Partition:
    """A weakly decreasing finite sequence of positive integers.

    It is held as its runs of equal parts: (value, multiplicity) pairs
    with strictly decreasing values. A partition built from its rows keeps
    the rows too; one built by ``from_runs`` fills ``parts`` only when
    something reads it, so a shape with a few runs but millions of rows
    costs O(runs) until then. ``runs``, ``first``, ``size``, ``len``,
    ``bool``, ``==``, ``<``, ``<=``, ``hash`` and ``repr`` never expand it.
    """

    __slots__ = ("runs", "parts")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(map(int, parts))
        # both checks run at C speed (a weakly decreasing tuple is its own
        # descending sort); the loop only runs to name the first fault
        if parts and (parts[-1] < 1 or list(parts) != sorted(parts, reverse=True)):
            for i, v in enumerate(parts):
                if v < 1:
                    raise ValueError(f"partition parts must be positive, got {v}")
                if i and parts[i - 1] < v:
                    raise ValueError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)
        # from a list: tuple() over a generator left a higher peak RSS on
        # an enumeration that groups the rows of every partition
        object.__setattr__(self, "runs", tuple(
            [(v, len(list(g))) for v, g in groupby(parts)]
        ) if parts else ())

    @staticmethod
    def from_runs(runs: Iterable[tuple[int, int]]) -> "Partition":
        """The partition with these (value, multiplicity) runs, checked in
        O(runs): values strictly decrease, and values and multiplicities
        are positive."""
        runs = tuple((int(v), int(m)) for v, m in runs)
        prev = None
        for v, m in runs:
            if v < 1:
                raise ValueError(f"partition parts must be positive, got {v}")
            if m < 1:
                raise ValueError(f"run multiplicities must be positive, got {m}")
            if prev is not None and prev <= v:
                raise ValueError(f"run values must strictly decrease, got {runs}")
            prev = v
        lam = object.__new__(Partition)
        object.__setattr__(lam, "runs", runs)
        return lam

    def __getattr__(self, name):
        # reached only while the parts slot is empty
        if name != "parts":
            raise AttributeError(name)
        parts = tuple(chain.from_iterable(repeat(v, m) for v, m in self.runs))
        object.__setattr__(self, "parts", parts)
        return parts

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        return (Partition.from_runs, (self.runs,))

    @property
    def first(self) -> int:
        """The largest part, in O(1); 0 for the empty partition."""
        return self.runs[0][0] if self.runs else 0

    @property
    def size(self) -> int:
        return sum(v * m for v, m in self.runs)

    def __len__(self) -> int:
        return sum(m for _, m in self.runs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.runs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.runs == other.runs

    # Runs order shapes as rows do. Before the first run that differs the
    # rows agree. There, a larger value is a larger row; with the same
    # value, more copies is larger too, since the other shape then has a
    # smaller part in that row or ends. Runs that are a prefix of the
    # other's are rows that are a prefix of the other's: smaller in both.
    def __lt__(self, other: "Partition") -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.runs < other.runs

    def __le__(self, other: "Partition") -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.runs <= other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"Partition.from_runs({self.runs!r})" if self.runs else "Partition()"

    def __str__(self) -> str:
        return format_partition(self)

    def conjugate(self) -> "Partition":
        return Partition(_conjugate_parts(self.parts))

    def contains_cell(self, cell: Cell) -> bool:
        row, col = cell
        return 0 <= row < len(self.parts) and 0 <= col < self.parts[row]


EMPTY = Partition()



def parse_partition(text: str) -> Partition:
    """Parse a partition literal such as ``18,7,6`` or ``66^55``.

    The grammar is ``part ("," part)*`` with ``part := INT | INT "^" INT``;
    whitespace is ignored and the parts may be given in any order. An empty
    or blank string denotes the empty partition.
    """
    counts: dict[int, int] = {}
    text = text.strip()
    if not text:
        return EMPTY
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty token in partition literal {text!r}")
        base_text, sep, exp_text = token.partition("^")
        try:
            base = int(base_text.strip())
            count = int(exp_text.strip()) if sep else 1
        except ValueError:
            raise ValueError(f"malformed partition token {token!r}") from None
        if base < 1:
            raise ValueError(f"partition parts must be positive, got {base}")
        if count < 1:
            raise ValueError(f"exponent must be positive in token {token!r}")
        counts[base] = counts.get(base, 0) + count
    return Partition.from_runs(sorted(counts.items(), reverse=True))


def format_partition(lam: Partition) -> str:
    """Canonical literal: comma separated, runs of 4 or more as ``b^e``."""
    out = []
    for part, count in lam.runs:
        if count >= 4:
            out.append(f"{part}^{count}")
        else:
            out.extend([str(part)] * count)
    return ",".join(out)


def _conjugate_parts(parts: tuple[int, ...]) -> list[int]:
    """Column lengths of a weakly decreasing parts tuple, in O(parts[0] +
    len(parts)): count the rows ending in each column, then take suffix
    sums."""
    if not parts:
        return []
    conj = [0] * parts[0]
    for row in parts:
        conj[row - 1] += 1
    for j in range(parts[0] - 2, -1, -1):
        conj[j] += conj[j + 1]
    return conj


# Bounded, so a long run cannot grow it without limit; its callers
# (hook_multiset, which ratio_factored, check_multinomial,
# check_divisor_family and the hooks verb read, restricted_hooks, dimension
# and render_hook_diagram) revisit few shapes. It stays an lru_cache because
# bench/child.py reads its cache_info().
@lru_cache(maxsize=4096)
def _hook_values(parts: tuple[int, ...]) -> tuple[int, ...]:
    conj = _conjugate_parts(parts)
    return tuple(
        (row - j) + (conj[j] - i) - 1
        for i, row in enumerate(parts)
        for j in range(row)
    )


def hook_length(lam: Partition, cell: Cell) -> int:
    """Hook length of one cell: arm + leg + 1."""
    if not lam.contains_cell(cell):
        raise ValueError(f"cell {cell} is outside the diagram of {lam!r}")
    row, col = cell
    arm = lam.parts[row] - col - 1
    leg = sum(1 for p in lam.parts if p > col) - row - 1
    return arm + leg + 1


def hook_multiset(lam: Partition) -> Counter:
    """Multiset of all hook lengths, as a Counter {length: multiplicity}."""
    return Counter(_hook_values(lam.parts))


def restricted_hooks(lam: Partition, r: int) -> Counter:
    """Multiset {h // r : h a hook divisible by r}, with multiplicity."""
    if r < 1:
        raise ValueError(f"divisor must be >= 1, got {r}")
    return Counter(h // r for h in _hook_values(lam.parts) if h % r == 0)


# Bounded, so a long run cannot grow it without limit: the 801 survey
# pairs that fail at a hook shape meet only 22 distinct ones. A Partition
# is immutable, so callers can share one; it is held in runs until a
# reader lists its rows, 1 + leg of them, which it then keeps.
@lru_cache(maxsize=4096)
def construct_hook_partition(arm: int, leg: int) -> Partition:
    """The hook shape (1 + arm, 1, ..., 1) with ``leg`` trailing ones.

    Its hooks are {1..arm}, {1..leg} and the corner hook arm + leg + 1.
    """
    if arm < 0 or leg < 0:
        raise ValueError("arm and leg must be nonnegative")
    # with no arm or no leg the shape is a single run
    runs = ((1 + arm, 1), (1, leg)) if arm and leg else ((1 + arm, 1 + leg),)
    return Partition.from_runs(runs)


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of this shape (exact division)."""
    if not lam:
        return 1
    return factorial(lam.size) // prod(_hook_values(lam.parts))


def max_enumeration_size() -> int:
    """Enumeration size cap, overridable via HOOKRATIO_MAX_SIZE."""
    raw = os.environ.get(MAX_SIZE_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_ENUMERATION_SIZE
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise ValueError(
            f"{MAX_SIZE_ENV_VAR} must be a nonnegative integer, got {raw!r}"
        )
    return cap


def enumeration_cap_error(n: int, cap: int) -> ValueError:
    """The error for a search that would have to go to size n > cap."""
    return ValueError(
        f"enumeration size {n} exceeds the configured cap {cap} "
        f"(set {MAX_SIZE_ENV_VAR} to raise it)"
    )


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n exactly, in lexicographically descending order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    cap = max_enumeration_size()
    if n > cap:
        raise enumeration_cap_error(n, cap)
    yield from (Partition(parts) for parts in _descending_partitions(n, n))


def _descending_partitions(n: int, maxpart: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _descending_partitions(n - first, first):
            yield (first,) + rest


class BoundarySequence:
    """Doubly infinite 01 profile, stored as a finite window plus an offset.

    Entry i is 0 for i < offset, window[i - offset] inside the window, and 1
    past the window. The window is trimmed on construction (leading zeros and
    trailing ones are absorbed into the implicit tails), so two instances are
    equal exactly when they describe the same infinite sequence. Shifted
    sequences describe the same partition shape but different alignments;
    the centering convention (zeros at nonnegative indices balance ones at
    negative indices) pins a unique alignment for each shape.
    """

    __slots__ = ("window", "offset")

    def __init__(self, window: Iterable[int] = (), offset: int = 0):
        window = tuple(int(b) for b in window)
        if any(b not in (0, 1) for b in window):
            raise ValueError("boundary window entries must be 0 or 1")
        i = 0
        while i < len(window) and window[i] == 0:
            i += 1
        j = len(window)
        while j > i and window[j - 1] == 1:
            j -= 1
        object.__setattr__(self, "window", window[i:j])
        object.__setattr__(self, "offset", offset + i)

    def __setattr__(self, name, value):
        raise AttributeError("BoundarySequence is immutable")

    def __reduce__(self):
        return (BoundarySequence, (self.window, self.offset))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoundarySequence)
            and self.window == other.window
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.window, self.offset))

    def __repr__(self) -> str:
        bits = "".join(str(b) for b in self.window)
        return f"BoundarySequence({bits!r}, offset={self.offset})"

    def value(self, i: int) -> int:
        """Entry at index i (0 far left, 1 far right)."""
        if i < self.offset:
            return 0
        if i >= self.offset + len(self.window):
            return 1
        return self.window[i - self.offset]

    def zero_positions(self) -> tuple[int, ...]:
        """Indices of the finitely many zeros at or above the window start."""
        return tuple(
            k + self.offset for k, b in enumerate(self.window) if b == 0
        )

    def charge(self) -> int:
        """Count of zeros at indices >= 0 minus count of ones at indices < 0.

        Proof of the closed form: outside [lo, hi) = [min(offset, 0),
        max(end, 0)) lie only zeros below 0 and ones at or above 0, which
        count for nothing; inside, the ones below 0 are -lo less the zeros
        there, so the charge is (zeros in [lo, hi)) + lo
        = (offset - lo + window.count(0)) + lo.
        """
        return self.offset + self.window.count(0)

    def is_centered(self) -> bool:
        return self.charge() == 0

    def shifted(self, t: int) -> "BoundarySequence":
        """Shift the whole profile right by t indices (charge grows by t)."""
        return BoundarySequence(self.window, self.offset + t)

    def recentered(self) -> "BoundarySequence":
        """The unique shift of this sequence satisfying the centering rule."""
        return self.shifted(-self.charge())

    def to_partition(self) -> Partition:
        """Decode the shape: each zero contributes a part equal to the
        number of ones strictly below it (shift invariant)."""
        parts = []
        ones = 0
        for b in self.window:
            if b == 1:
                ones += 1
            else:  # the window is trimmed to start with a 1, so ones >= 1
                parts.append(ones)
        return Partition(sorted(parts, reverse=True))

    def render(self) -> str:
        """Display string in the ``...0111|1110...`` style, the bar sitting
        between indices -1 and 0."""
        lo = min(self.offset, 0) - 1
        hi = max(self.offset + len(self.window) - 1, -1) + 1
        left = "".join(str(self.value(i)) for i in range(lo, 0))
        right = "".join(str(self.value(i)) for i in range(0, hi + 1))
        return f"...{left}|{right}..."


def to_boundary(lam: Partition) -> BoundarySequence:
    """Centered boundary sequence of a partition.

    With parts p_1 >= ... >= p_d, the zeros sit exactly at indices p_j - j
    (taking p_j = 0 past the last part); this placement satisfies the
    centering convention automatically.
    """
    d = len(lam.parts)
    if d == 0:
        return BoundarySequence()
    zeros = {lam.parts[j] - (j + 1) for j in range(d)}
    lo = -d
    hi = lam.parts[0] - 1
    return BoundarySequence(
        (0 if i in zeros else 1 for i in range(lo, hi + 1)), lo
    )


def from_boundary(b: BoundarySequence) -> Partition:
    """Inverse of to_boundary; accepts any shift of a centered sequence."""
    return b.to_partition()


def render_hook_diagram(lam: Partition) -> str:
    """ASCII Young diagram, one row per line, cells showing hook lengths."""
    if not lam:
        return ""
    hooks = _hook_values(lam.parts)
    width = len(str(max(hooks)))
    lines = []
    pos = 0
    for row in lam.parts:
        lines.append(" ".join(str(h).ljust(width) for h in hooks[pos:pos + row]).rstrip())
        pos += row
    return "\n".join(lines)

"""Small prime utilities sized for hook lengths (trial division scale)."""

from __future__ import annotations

from functools import lru_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = max(n + 1, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


# Bounded, so a long run cannot grow it without limit. It stays an lru_cache
# because bench/child.py reads its cache_info().
@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"can only factorize positive integers, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)

"""Exact integer utilities: factorization, multiplicative functions, unit groups, CRT.

Everything here is deterministic and exact.  Inputs are desk-scale (well below
2**63), so trial division and table-based discrete logs are the right tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as sorted (prime, exponent) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.pairs)

    def value(self) -> int:
        n = 1
        for p, e in self.pairs:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


# A c-series factors each of its moduli c once, so only recent factorizations are kept.
_FACTOR_CACHE = 1 << 12


@lru_cache(maxsize=_FACTOR_CACHE)
def factor(n: int) -> Factorization:
    """Factor n >= 1 by trial division; n = 1 gives the empty product."""
    if n < 1:
        raise ValueError(f"factor() requires n >= 1, got {n}")
    pairs = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        pairs.append((m, 1))
    return Factorization(tuple(pairs))


def ord_p(n: int, p: int) -> int:
    """p-adic valuation of n; ord_p(0) raises (callers cap it explicitly)."""
    if n == 0:
        raise ValueError("ord_p(0) is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factor(n).pairs == ((n, 1),)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, sorted ascending."""
    if n < 1:
        raise ValueError(f"divisors() requires n >= 1, got {n}")
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def multiplicative_fn(n: int, kind: str) -> int:
    """Evaluate tau, sigma, phi (Euler), mu (Moebius) or psi at n >= 1.

    psi(n) = n * prod_{p|n} (1 + 1/p), the index [SL2(Z) : Gamma0(n)].
    """
    if n < 1:
        raise ValueError(f"multiplicative_fn requires n >= 1, got {n}")
    fac = factor(n)
    if kind == "tau":
        out = 1
        for _, e in fac:
            out *= e + 1
        return out
    if kind == "sigma":
        out = 1
        for p, e in fac:
            out *= (p ** (e + 1) - 1) // (p - 1)
        return out
    if kind == "phi":
        out = 1
        for p, e in fac:
            out *= p ** (e - 1) * (p - 1)
        return out
    if kind == "mu":
        for _, e in fac:
            if e > 1:
                return 0
        return (-1) ** len(fac.pairs)
    if kind == "psi":
        out = n
        for p, _ in fac:
            out = out // p * (p + 1)
        return out
    raise ValueError(f"unknown multiplicative function {kind!r}")


def tau(n: int) -> int:
    return multiplicative_fn(n, "tau")


def sigma(n: int) -> int:
    return multiplicative_fn(n, "sigma")


def phi(n: int) -> int:
    return multiplicative_fn(n, "phi")


def mu(n: int) -> int:
    return multiplicative_fn(n, "mu")


def psi(n: int) -> int:
    return multiplicative_fn(n, "psi")


def primitive_root(p: int, k: int) -> int:
    """Smallest primitive root of (Z/p^k)^* for odd p."""
    order = p - 1
    fac = [q for q, _ in factor(order)]
    g = 2
    while True:
        if all(pow(g, order // q, p) != 1 for q in fac):
            break
        g += 1
    if k == 1:
        return g
    # g generates mod p; g or g+p generates mod p^k for all k >= 2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True)
class UnitGroupStructure:
    """Generators and orders for (Z/p^k)^*.

    Odd p^k: cyclic on the smallest primitive root.  2^k with k >= 3 is
    {-1} x <5>; 2^2 is <-1>; 2^1 is trivial.
    """

    modulus: int
    prime: int
    exponent: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]


@lru_cache(maxsize=None)
def unit_group(q: int) -> UnitGroupStructure:
    """Structure of (Z/q)^* for a prime power q."""
    fac = factor(q)
    if len(fac.pairs) != 1:
        raise ValueError(f"unit_group requires a prime power, got {q}")
    (p, k), = fac.pairs
    if p == 2:
        if k == 1:
            return UnitGroupStructure(2, 2, 1, (), ())
        if k == 2:
            return UnitGroupStructure(4, 2, 2, (3,), (2,))
        return UnitGroupStructure(q, 2, k, (q - 1, 5), (2, 2 ** (k - 2)))
    g = primitive_root(p, k)
    return UnitGroupStructure(q, p, k, (g,), (phi(q),))


def carmichael(N: int) -> int:
    """Exponent lambda(N) of (Z/N)^*: every character value mod N is e(k / lambda(N))."""
    return math.lcm(*(o for p, k in factor(N) for o in unit_group(p**k).orders))


@lru_cache(maxsize=None)
def _unit_log_table(q: int) -> np.ndarray:
    """(q, r) int array: row x is the exponent vector of x on unit_group(q).generators.

    Rows of non-units are zero.
    """
    st = unit_group(q)
    # xs[i] = prod_j g_j^{e_j} with e the i-th exponent vector in C order
    xs = np.ones(1, dtype=np.int64)
    for g, o in zip(st.generators, st.orders):
        powers = np.ones(o, dtype=np.int64)
        for e in range(1, o):
            powers[e] = powers[e - 1] * g % q
        xs = (xs[:, None] * powers % q).reshape(-1)
    table = np.zeros((q, len(st.orders)), dtype=np.int64)
    table[xs] = np.indices(st.orders).reshape(len(st.orders), len(xs)).T
    return table


def unit_log(x: int, q: int) -> tuple[int, ...]:
    """Exponent vector of x on the canonical generators of (Z/q)^*.

    Raises ValueError if x is not a unit mod q.
    """
    st = unit_group(q)
    x %= q
    if q == 1:
        return ()
    if math.gcd(x, st.prime) != 1:
        raise ValueError(f"{x} is not a unit modulo {q}")
    return tuple(int(t) for t in _unit_log_table(q)[x])


def crt(residues: list[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = v_i mod m_i for pairwise-coprime moduli; returns (x, prod m_i)."""
    x, m = 0, 1
    for v, mi in residues:
        if math.gcd(m, mi) != 1:
            raise ValueError(f"moduli not coprime: {m} and {mi}")
        # x' = x mod m, x' = v mod mi
        u = (v - x) * pow(m, -1, mi) % mi if mi > 1 else 0
        x = x + m * u
        m *= mi
        x %= m
    return x, m


def inv_mod(a: int, m: int) -> int:
    if m == 1:
        return 0
    return pow(a, -1, m)

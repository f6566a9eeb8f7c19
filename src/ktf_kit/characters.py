"""Dirichlet characters with exact root-of-unity values.

A character mod N is stored as one exponent vector per prime power of N,
taken against the canonical generators from :mod:`ktf_kit.arith`
(smallest primitive root for odd p^k, {-1} x <5> for 2^k, k >= 3).
Every value on a unit is e(k / lambda(N)), where lambda(N) =
``arith.carmichael(N)`` is the exponent of (Z/N)^*.  The integer k is the exact
value (``angle``); it becomes a complex float only in ``chi(n)`` and
``values()``.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import arith


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod N given by exponents against canonical unit-group generators.

    ``exponents[p]`` is a tuple e with chi(g_i) = e(e_i / order_i) on the
    generators g_i of (Z/p^{N_p})^*.
    """

    modulus: int
    exponents: tuple[tuple[int, tuple[int, ...]], ...]  # ((p, vec), ...) sorted by p

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def principal(N: int) -> "DirichletCharacter":
        return character(N, 0)

    def _vec(self, p: int) -> tuple[int, ...]:
        for q, v in self.exponents:
            if q == p:
                return v
        raise KeyError(p)

    def _ppart(self, p: int) -> int:
        return p ** arith.ord_p(self.modulus, p) if self.modulus % p == 0 else 1

    def __post_init__(self):
        # characters key the Kloosterman caches, which hash them on every lookup
        object.__setattr__(self, "_hash", hash((self.modulus, self.exponents)))

    def __hash__(self) -> int:
        """The hash of (modulus, exponents), computed once at construction."""
        return self._hash

    # -- exact evaluation ------------------------------------------------------

    @cached_property
    def _plan(self) -> tuple[int, tuple]:
        """(lambda(N), one (q, log table, weights, weights as int64) per p^k || N).

        Read from ``_character_plan``, so equal characters built apart share one plan.
        """
        return _character_plan(self.modulus, self.exponents)

    def _angles(self, x):
        """k with chi(x) = e(k / lambda(N)) for an int or int array x of units mod N.

        An int (a numpy integer too) takes a pure-integer dot product with its
        log row; an array takes one int64 matmul per prime power.
        """
        lam, local = self._plan
        if isinstance(x, (int, np.integer)):
            x = int(x)
            return sum(table.item(x % q, i) * wi for q, table, w, _ in local
                       for i, wi in enumerate(w)) % lam
        total = 0
        for q, table, _, w in local:
            total = total + table[np.asarray(x) % q] @ w % lam
        return total % lam

    def angle(self, n: int) -> int | None:
        """Exact value as k in [0, lambda(N)) with chi(n) = e(k / lambda(N)).

        lambda(N) = arith.carmichael(N); None when gcd(n, N) > 1, where chi(n) = 0.
        A principal character answers 0 without building its plan.
        """
        if math.gcd(n, self.modulus) != 1:
            return None
        if self.is_principal():
            return 0
        return int(self._angles(n))

    def __call__(self, n: int) -> complex:
        k = self.angle(n)
        if k is None:
            return 0j
        return cmath.exp(2j * cmath.pi * (k / self._plan[0])) if k else 1 + 0j

    def values(self) -> np.ndarray:
        """chi(x) for x = 0..N-1 as one complex array, 0 off the units."""
        N = self.modulus
        units = np.flatnonzero(np.gcd(np.arange(N), N) == 1)
        out = np.zeros(N, dtype=complex)
        out[units] = np.exp(2j * np.pi * (self._angles(units) / self._plan[0]))
        return out

    # -- algebra ----------------------------------------------------------------

    def conj(self) -> "DirichletCharacter":
        out = []
        for p, vec in self.exponents:
            st = arith.unit_group(self._ppart(p))
            out.append((p, tuple((-e) % o for e, o in zip(vec, st.orders))))
        return DirichletCharacter(self.modulus, tuple(out))

    def mul(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if other.modulus != self.modulus:
            raise ValueError("character product requires equal moduli")
        out = []
        for (p, v1), (_, v2) in zip(self.exponents, other.exponents):
            st = arith.unit_group(self._ppart(p))
            out.append((p, tuple((a + b) % o for a, b, o in zip(v1, v2, st.orders))))
        return DirichletCharacter(self.modulus, tuple(out))

    def is_principal(self) -> bool:
        return all(all(e == 0 for e in vec) for _, vec in self.exponents)

    def parity(self) -> int:
        """chi(-1), +1 or -1, read from the exponents with no table.

        -1 is g^(phi(q)/2) on the generator g of an odd p^k and is the generator
        of 4, so chi_q(-1) = (-1)^e there; at 2^k, k >= 3, -1 is the first
        generator; mod 2 the group is trivial.  So chi(-1) is -1 to the sum of
        the first exponent of every p^k || N other than 2.
        """
        return -1 if sum(vec[0] for _, vec in self.exponents if vec) % 2 else 1

    # -- conductor and induction -------------------------------------------------

    @cached_property  # kept in the instance __dict__, outside the frozen fields
    def conductor(self) -> int:
        return _conductor(self)

    @cached_property
    def primitive(self) -> "DirichletCharacter":
        """The primitive character inducing this one (modulus = conductor)."""
        return induce(self, self.conductor)

    def label(self) -> str:
        parts = [f"{p}^{arith.ord_p(self.modulus, p)}:" + ",".join(map(str, vec))
                 for p, vec in self.exponents]
        return f"chi[{self.modulus}|{self.conductor}|" + ";".join(parts) + "]"

    def to_json(self) -> str:
        obj = {
            "modulus": self.modulus,
            "conductor": self.conductor,
            "exponents": [[p, arith.ord_p(self.modulus, p), list(vec)]
                          for p, vec in self.exponents],
        }
        return json.dumps(obj)

    @staticmethod
    def from_json(text: str) -> "DirichletCharacter":
        """Inverse of to_json; ValueError unless the data is canonical.

        The entries must list the prime powers of the modulus in order, each
        exponent in [0, order) of its generator.
        """
        obj = json.loads(text)
        N, entries = obj["modulus"], obj["exponents"]
        if not isinstance(N, int) or N < 1:
            raise ValueError(f"modulus must be a positive integer, got {N!r}")
        if [(p, k) for p, k, _vec in entries] != list(arith.factor(N).pairs):
            raise ValueError(f"exponent data {entries} does not match the prime powers of {N}")
        for p, k, vec in entries:
            orders = arith.unit_group(p**k).orders
            if len(vec) != len(orders) or not all(
                    isinstance(e, int) and 0 <= e < o for e, o in zip(vec, orders)):
                raise ValueError(f"exponents {vec} mod {p}^{k} outside [0, order) "
                                 f"for generator orders {orders}")
        chi = DirichletCharacter(N, tuple((p, tuple(vec)) for p, _k, vec in entries))
        if chi.conductor != obj["conductor"]:
            raise ValueError("conductor mismatch in serialized character")
        return chi


_CHARACTER_PLANS = 4096  # one plan per distinct (modulus, exponents); a plan holds no table


@lru_cache(maxsize=_CHARACTER_PLANS)
def _character_plan(N: int, exponents: tuple) -> tuple[int, tuple]:
    """DirichletCharacter._plan of the character (N, exponents); the log tables
    are ``arith._unit_log_table``'s own, so an entry adds only its weights."""
    lam = arith.carmichael(N)
    local = []
    for p, vec in exponents:
        q = p ** arith.ord_p(N, p)
        w = tuple(e * (lam // o) for e, o in zip(vec, arith.unit_group(q).orders))
        local.append((q, arith._unit_log_table(q), w, np.array(w, dtype=np.int64)))
    return lam, tuple(local)


@lru_cache(maxsize=None)
def _conductor_local(q: int, vec: tuple[int, ...]) -> int:
    """Conductor of the character on (Z/q)^* with exponent vector vec (q = p^k).

    The least p^j, j >= 1, with the character trivial on 1 + p^j Z.
    """
    if all(e == 0 for e in vec):
        return 1
    (p, k), = arith.factor(q).pairs
    chi_q = DirichletCharacter(q, ((p, vec),))
    for j in range(1, k):
        if not chi_q._angles(np.arange(1, q, p**j)).any():
            return p**j
    return q


def _conductor(chi: DirichletCharacter) -> int:
    c = 1
    for p, vec in chi.exponents:
        c *= _conductor_local(chi._ppart(p), vec)
    return c


def character(N: int, index: int) -> DirichletCharacter:
    """enumerate_characters(N)[index], index in [0, phi(N)), built without the others.

    The index is read in mixed radix over the generator orders of every
    p^k || N in turn, the last generator fastest: lexicographic exponent order.
    """
    if N < 1:
        raise ValueError("modulus must be positive")
    if not 0 <= index < arith.phi(N):
        raise ValueError(f"character index {index} out of range for modulus {N}")
    vecs = []
    for p, k in reversed(arith.factor(N).pairs):
        vec = []
        for o in reversed(arith.unit_group(p**k).orders):
            index, e = divmod(index, o)
            vec.append(e)
        vecs.append((p, tuple(reversed(vec))))
    return DirichletCharacter(N, tuple(reversed(vecs)))


def enumerate_characters(N: int) -> list[DirichletCharacter]:
    """All phi(N) characters mod N in index order (``character``)."""
    return [character(N, i) for i in range(arith.phi(N))]


def induce(chi: DirichletCharacter, M: int) -> DirichletCharacter:
    """View chi at modulus M, where conductor(chi) | M.

    The value at units of M agrees with chi via the projection; new ramified
    primes get zero-injected (trivial exponent data appears where M has primes
    chi's conductor lacks).
    """
    c = chi.conductor
    if M % c != 0:
        raise ValueError(f"cannot induce: conductor {c} does not divide {M}")
    out = []
    for p, k in arith.factor(M):
        st = arith.unit_group(p**k)
        if c % p != 0:
            out.append((p, (0,) * len(st.generators)))
            continue
        # exponents from the values of chi's p-part on the generators of (Z/p^k)^*
        q = chi._ppart(p)
        lam = arith.carmichael(q)
        chi_q = DirichletCharacter(q, ((p, chi._vec(p)),))
        e = chi_q._angles(np.array(st.generators, dtype=np.int64)) * st.orders
        if np.any(e % lam):
            raise ValueError(f"the character mod {q} does not descend to modulus {p**k}")
        out.append((p, tuple(int(v) for v in e // lam)))
    return DirichletCharacter(M, tuple(out))


def local_component(chi: DirichletCharacter, p: int, M: int | None = None) -> DirichletCharacter:
    """Local component chi_p as a Dirichlet character mod M (a p-power).

    M defaults to the p-part of chi's modulus; it must be a positive p-power
    divisible by the p-part of the conductor (and by p itself).
    """
    q = chi._ppart(p)
    if M is None:
        M = q if q > 1 else p
    fac = arith.factor(M).pairs
    if len(fac) != 1 or fac[0][0] != p:
        raise ValueError(f"M = {M} is not a power of p = {p}")
    if q == 1:
        return DirichletCharacter.principal(M)
    return induce(DirichletCharacter(q, ((p, chi._vec(p)),)), M)


@dataclass(frozen=True)
class CharacterPair:
    """Ordered pair (chi1, chi2) mod N with chi1*chi2 = omega and c1*c2 | N."""

    chi1: DirichletCharacter
    chi2: DirichletCharacter

    @property
    def modulus(self) -> int:
        return self.chi1.modulus


def _local_pairs(p: int, k: int,
                 w: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exponent pairs (v1, v2) mod q = p^k with v1 + v2 = w and c1 c2 | q, sorted by v1.

    c1 c2 | p^k forces one conductor to divide p^(k//2), so v1 is a character
    mod p^(k//2) induced to q, or w minus one.
    """
    q = p**k
    orders = arith.unit_group(q).orders

    def rest(v):
        return tuple((a - b) % o for a, b, o in zip(w, v, orders))

    lifts = {induce(chi, q)._vec(p) for chi in enumerate_characters(p ** (k // 2))}
    out = []
    for v1 in sorted(lifts | {rest(v) for v in lifts}):
        v2 = rest(v1)
        if q % (_conductor_local(q, v1) * _conductor_local(q, v2)) == 0:
            out.append((v1, v2))
    return out


def pairs_with_product(omega: DirichletCharacter) -> list[CharacterPair]:
    """All ordered pairs (chi1, chi2) with chi1*chi2 = omega, c1*c2 | N.

    Both conditions hold prime by prime, so the pairs are the product of the
    local pairs at each p^k || N; sorted by chi1 in lexicographic exponent order.
    """
    N = omega.modulus
    primes = [p for p, _ in omega.exponents]
    local = [_local_pairs(p, k, omega._vec(p)) for p, k in arith.factor(N)]
    return [CharacterPair(DirichletCharacter(N, tuple(zip(primes, (v1 for v1, _ in combo)))),
                          DirichletCharacter(N, tuple(zip(primes, (v2 for _, v2 in combo)))))
            for combo in itertools.product(*local)]

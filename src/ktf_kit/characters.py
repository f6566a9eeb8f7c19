"""Dirichlet characters with exact root-of-unity values.

A character mod N is stored as one exponent vector per prime power of N,
taken against the canonical generators from :mod:`ktf_kit.arith`
(smallest primitive root for odd p^k, {-1} x <5> for 2^k, k >= 3).
Values are exact rational angles (fractions of a full turn) and become
floating complex numbers only when a caller sums them.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
        vecs = []
        for p, k in arith.factor(N):
            st = arith.unit_group(p**k)
            vecs.append((p, (0,) * len(st.generators)))
        return DirichletCharacter(N, tuple(vecs))

    def _vec(self, p: int) -> tuple[int, ...]:
        for q, v in self.exponents:
            if q == p:
                return v
        raise KeyError(p)

    def _ppart(self, p: int) -> int:
        return p ** arith.ord_p(self.modulus, p) if self.modulus % p == 0 else 1

    # -- exact evaluation ------------------------------------------------------

    def angle(self, n: int) -> Fraction | None:
        """Exact angle a with chi(n) = e(a), or None when chi(n) = 0."""
        N = self.modulus
        if N == 1:
            return Fraction(0)
        n %= N
        if math.gcd(n, N) != 1:
            return None
        total = Fraction(0)
        for p, vec in self.exponents:
            q = self._ppart(p)
            st = arith.unit_group(q)
            logv = arith.unit_log(n % q, q)
            for e, t, o in zip(vec, logv, st.orders):
                total += Fraction(e * t, o)
        return total % 1

    def __call__(self, n: int) -> complex:
        a = self.angle(n)
        if a is None:
            return 0j
        return cmath.exp(2j * cmath.pi * float(a))

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

    # -- conductor and induction -------------------------------------------------

    @property
    def conductor(self) -> int:
        return _conductor(self)

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
        obj = json.loads(text)
        chi = DirichletCharacter(
            obj["modulus"],
            tuple((p, tuple(vec)) for p, _k, vec in obj["exponents"]),
        )
        if chi.conductor != obj["conductor"]:
            raise ValueError("conductor mismatch in serialized character")
        return chi


@lru_cache(maxsize=None)
def _conductor_local(q: int, vec: tuple[int, ...]) -> int:
    """Conductor of the character on (Z/q)^* with exponent vector vec (q = p^k)."""
    if all(e == 0 for e in vec):
        return 1
    (p, k), = arith.factor(q).pairs
    st = arith.unit_group(q)
    # smallest j >= 1 with chi trivial on units congruent to 1 mod p^j
    for j in range(1, k + 1):
        pj = p**j
        ok = True
        for x in range(1, q, pj):
            if math.gcd(x, p) != 1:
                continue
            logv = arith.unit_log(x, q)
            tot = Fraction(0)
            for e, t, o in zip(vec, logv, st.orders):
                tot += Fraction(e * t, o)
            if tot % 1 != 0:
                ok = False
                break
        if ok:
            return pj
    return q


def _conductor(chi: DirichletCharacter) -> int:
    c = 1
    for p, vec in chi.exponents:
        c *= _conductor_local(chi._ppart(p), vec)
    return c


def enumerate_characters(N: int) -> list[DirichletCharacter]:
    """All phi(N) characters mod N in lexicographic exponent order."""
    if N < 1:
        raise ValueError("modulus must be positive")
    primes = [(p, p**k) for p, k in arith.factor(N)]
    ranges = []
    for p, q in primes:
        st = arith.unit_group(q)
        ranges.append([tuple(v) for v in itertools.product(*(range(o) for o in st.orders))])
    out = []
    for combo in itertools.product(*ranges):
        out.append(DirichletCharacter(N, tuple((p, v) for (p, _q), v in zip(primes, combo))))
    return out


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
        q = p**k
        st = arith.unit_group(q)
        if c % p != 0:
            out.append((p, (0,) * len(st.generators)))
            continue
        # determine exponents from values on the generators of (Z/p^k)^*
        vec = []
        for g, o in zip(st.generators, st.orders):
            # lift g to an integer coprime to chi.modulus, congruent to g mod p^k
            # and to 1 mod every other prime power of chi.modulus
            res = [(g, q)]
            for pp, kk in arith.factor(chi.modulus):
                if pp != p:
                    res.append((1, pp**kk))
            x, _ = arith.crt(res)
            a = chi.angle(x)
            if a is None:  # pragma: no cover - x is a unit by construction
                raise AssertionError("lift not a unit")
            e = a * o
            if e.denominator != 1:
                raise ValueError("character does not descend: invalid induction")
            vec.append(int(e) % o)
        out.append((p, tuple(vec)))
    return DirichletCharacter(M, tuple(out))


def local_component(chi: DirichletCharacter, p: int, M: int | None = None) -> DirichletCharacter:
    """Local component chi_p as a Dirichlet character mod M (a p-power).

    M defaults to the p-part of chi's modulus; it must be a positive p-power
    divisible by the p-part of the conductor (and by p itself).
    """
    if M is None:
        M = chi._ppart(p)
        if M == 1:
            M = p
    fac = arith.factor(M).pairs
    if len(fac) != 1 or fac[0][0] != p:
        raise ValueError(f"M = {M} is not a power of p = {p}")
    cp = 1
    if chi.modulus % p == 0:
        cp = _conductor_local(chi._ppart(p), chi._vec(p))
    if M % cp != 0 or M % p != 0:
        raise ValueError(f"invalid local modulus {M}: needs p | M and {cp} | M")
    st = arith.unit_group(M)
    if chi.modulus % p != 0:
        return DirichletCharacter.principal(M)
    q = chi._ppart(p)
    vec = []
    for g, o in zip(st.generators, st.orders):
        res = [(g, M)] if q <= M else [(g, q)]
        # value only depends on g mod p^min(...); use a lift congruent mod both
        gq = g % q
        if math.gcd(gq, p) != 1:  # pragma: no cover
            raise AssertionError
        logv = arith.unit_log(gq, q)
        stq = arith.unit_group(q)
        a = Fraction(0)
        for e, t, o2 in zip(chi._vec(p), logv, stq.orders):
            a += Fraction(e * t, o2)
        e = (a % 1) * o
        if e.denominator != 1:
            raise ValueError(f"local modulus {M} too small for conductor {cp}")
        vec.append(int(e) % o)
    return DirichletCharacter(M, ((p, tuple(vec)),))


@dataclass(frozen=True)
class CharacterPair:
    """Ordered pair (chi1, chi2) mod N with chi1*chi2 = omega and c1*c2 | N."""

    chi1: DirichletCharacter
    chi2: DirichletCharacter

    @property
    def modulus(self) -> int:
        return self.chi1.modulus


def pairs_with_product(omega: DirichletCharacter) -> list[CharacterPair]:
    """All ordered pairs (chi1, chi2) with chi1*chi2 = omega, c1*c2 | N."""
    N = omega.modulus
    out = []
    for chi1 in enumerate_characters(N):
        chi2 = omega.mul(chi1.conj())
        if N % (chi1.conductor * chi2.conductor) == 0:
            out.append(CharacterPair(chi1, chi2))
    return out

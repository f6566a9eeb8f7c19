"""Gauss sums, generalized Kloosterman sums and Weil-bound certification.

The generalized sum S_chi(a,b;n;c), for N | c and chi mod N, runs over all
pairs x*x' = n in Z/cZ and twists by conj(chi(x)).  chi is viewed as a
multiplicative function on Z/cZ: its value at x is chi(x mod N), which can be
nonzero even when gcd(x, c) > 1.  Three evaluation routes are provided
(direct enumeration, local factorization, stationary-phase/Salie) and they
agree exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial, wraps

import numpy as np

from . import arith
from .characters import DirichletCharacter, enumerate_characters, local_component


# ----------------------------------------------------------------------------
# phase tables and pair enumeration


_TABLE_BUDGET = 1 << 19       # residues held by each table cache: 8 MB for _phase or _units
_INT64_SQRT = math.isqrt(2**63 - 1)   # largest q with q^2 < 2^63

_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _table_cache(build, residues=lambda q: q, maxsize=None):
    """Cache the O(q) tables build(*key), at most _TABLE_BUDGET residues in all,
    an entry counting residues(*key) of them (by default the modulus q itself).

    A small modulus recurs in most terms of a c-series, while a table for a
    large prime modulus is read once or twice and rebuilding it costs what the
    O(q) sum reading it costs.  So an overfull cache drops its largest tables
    first, down to the budget.  A table larger than the budget goes to one
    extra slot, outside the budget, which the next such table replaces: at a
    prime level N above the budget every term of the c-series reads the table
    of N.  With maxsize (the plans) at most that many entries are kept besides
    the slot, and an overfull cache drops its oldest entries first: the calls
    of one key come back to back, so the newest entry is the one in use.
    ``cache_info()`` reads like that of ``functools.lru_cache``, with maxsize,
    or else the budget, as ``maxsize`` and the slot counted in ``currsize``;
    ``cache_clear()`` empties the cache.
    """
    tables: dict = {}   # key -> table, oldest first
    sizes: dict = {}    # key -> residues
    slot_key, slot = None, None   # the oversize slot: its key and table
    size = hits = misses = 0

    @wraps(build)
    def cached(*key):
        nonlocal size, hits, misses, slot_key, slot
        table = tables.get(key)
        if table is None and key == slot_key:
            table = slot
        if table is not None:
            hits += 1
            return table
        misses += 1
        q = residues(*key)
        if q > _TABLE_BUDGET:
            slot = None   # drop the old table before building the new one
            slot_key, slot = key, build(*key)
            return slot
        table = tables[key] = build(*key)
        sizes[key] = q
        size += q
        while size > _TABLE_BUDGET or (maxsize and len(tables) > maxsize):
            victim = next(iter(tables)) if maxsize else max(sizes, key=sizes.get)
            del tables[victim]
            size -= sizes.pop(victim)
        return table

    def cache_clear():
        nonlocal size, hits, misses, slot_key, slot
        tables.clear()
        sizes.clear()
        size = hits = misses = 0
        slot_key, slot = None, None

    cached.cache_info = lambda: _CacheInfo(hits, misses, maxsize or _TABLE_BUDGET,
                                           len(tables) + (slot is not None))
    cached.cache_clear = cache_clear
    return cached


@_table_cache
def _phase(c: int) -> np.ndarray:
    """e(j/c) for j = 0..c-1."""
    return np.exp(2j * np.pi * np.arange(c) / c)


# The plans and pair tables below hold the (a, b)-free work of a query, per
# (n, c, chi) or (n, c).  Every caller walks (a, b) innermost for a fixed key, so a
# key's calls come back to back and a small cache hits on all but the first; a
# c-series asks each key once and builds its plans inline (kloosterman_moduli).
_PLANS = 256


@partial(_table_cache, residues=lambda n, c: c, maxsize=_PLANS)
def _pairs(n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """All (x, x') in (Z/c)^2 with x*x' = n mod c, as two int64 arrays sorted by x.

    For each g | gcd(n, c) the x with gcd(x, c) = g are g x0 for the units x0
    mod c/g, and their x' are x0^-1 (n/g) + k c/g for k < g; a stable sort on x
    merges the blocks.  So _pairs(1, q) is _units(q).  Like _direct_plan, at most
    _PLANS tables and _TABLE_BUDGET residues of c are kept, plus one table of a
    larger c: mod 1009^2 a pair table is 16 MB.
    """
    if n % c == 1 % c:
        return _units(c)
    xs, xps = [], []
    for g in arith.divisors(math.gcd(n, c)):
        cg = c // g
        x0, inv = _units(cg)
        base = inv * (n // g % cg) % cg
        xs.append(np.repeat(g * x0, g))
        xps.append((base[:, None] + cg * np.arange(g)).ravel())
    X, XP = np.concatenate(xs), np.concatenate(xps)
    order = np.argsort(X, kind="stable")
    return X[order], XP[order]


@partial(_table_cache, residues=lambda chi: chi.modulus)
def _chi_values(chi: DirichletCharacter) -> np.ndarray:
    """chi.values(), cached under the residue budget: chi(x) for x = 0..N-1."""
    return chi.values()


@_table_cache
def _units(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Units x mod q in increasing order and their inverses, as two int64 arrays.

    This is the pair table _pairs(1, q), and every _pairs(n, c) is built from
    these tables.  For an odd prime power q the unit group is cyclic: the powers
    g^i, i < phi(q), of the primitive root g are built by doubling, and
    (g^i)^-1 = g^(phi(q) - i), so one scatter gives every inverse in O(q).  For
    any other q the units are np.arange(q) masked by the primes of q, and the
    inverses are x^(phi(q) - 1) mod q by square-and-multiply on the whole array.
    Every product is below q^2, so the domain is q^2 < 2^63 (q <= 3037000499),
    and a larger q raises ValueError; the c-series stops after ktf._K_CAP = 1.5e6
    terms.  At most _TABLE_BUDGET = 2^19 residues are kept in all (8 MB), largest
    moduli dropped first, plus the one oversize slot: _classical_kloosterman and
    _prime_kloosterman read these tables, not a plan, so the new prime of each
    c-series term falls under this budget.
    """
    if q == 1:
        return np.array([0]), np.array([0])
    if q > _INT64_SQRT:
        raise ValueError(f"unit table needs q^2 < 2^63, got q = {q}")
    fac = arith.factor(q).pairs
    if len(fac) == 1 and fac[0][0] > 2:
        (p, e), = fac
        m = q // p * (p - 1)
        powers = np.empty(m, dtype=np.int64)
        powers[0] = 1
        n, g_n = 1, arith.primitive_root(p, e)   # g_n = g^n
        while n < m:
            step = min(n, m - n)
            np.remainder(powers[:step] * g_n, q, out=powers[n:n + step])
            n += step
            g_n = g_n * g_n % q
        inv = np.zeros(q, dtype=np.int64)
        inv[powers] = np.roll(powers[::-1], 1)   # at g^i, g^(m - i), i = 0..m-1
        xs = np.flatnonzero(inv)
        return xs, inv[xs]
    mask = np.ones(q, dtype=bool)
    for p, _ in fac:
        mask[::p] = False
    xs = np.flatnonzero(mask)
    inv = np.ones_like(xs)
    base = xs.copy()
    e = arith.phi(q) - 1
    while e:
        if e & 1:
            np.remainder(inv * base, q, out=inv)
        e >>= 1
        if e:
            np.remainder(base * base, q, out=base)
    return xs, inv


# ----------------------------------------------------------------------------
# Gauss sums


def gauss_sum(chi: DirichletCharacter, m: int, mode: str = "direct") -> complex:
    """G_chi(m) = sum_{d mod M} chi(d) e(dm/M).

    ``formula`` mode reduces to the primitive character inducing chi and uses
    the Moebius expansion; both modes agree exactly.
    """
    M = chi.modulus
    if mode == "direct":
        if M == 1:
            return 1.0 + 0j
        vals = _chi_values(chi)
        ph = _phase(M)
        idx = (np.arange(M) * (m % M)) % M
        return complex(np.sum(vals * ph[idx]))
    if mode == "formula":
        chi0 = chi.primitive
        c = chi0.modulus
        ell = M // c
        tau0 = _primitive_tau(chi0)
        total = 0j
        g = math.gcd(ell, abs(m)) if m != 0 else ell
        for a in arith.divisors(g):
            total += a * arith.mu(ell // a) * chi0(ell // a) * np.conj(chi0(m // a))
        return complex(tau0 * total)
    raise ValueError(f"unknown gauss_sum mode {mode!r}")


@lru_cache(maxsize=_PLANS)
def _primitive_tau(chi0: DirichletCharacter) -> complex:
    """tau(chi0) = G_chi0(1) of a primitive chi0, which every formula-mode sum scales."""
    return gauss_sum(chi0, 1, "direct")


# ----------------------------------------------------------------------------
# Kloosterman sums


@dataclass(frozen=True)
class KloostermanQuery:
    """Parameters of S_chi(a, b; n; c); requires N | c and n != 0."""

    a: int
    b: int
    n: int
    c: int
    chi: DirichletCharacter

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("n must be nonzero")
        if self.c < 1 or self.c % self.chi.modulus != 0:
            raise ValueError("need chi modulus | c and c >= 1")


def kloosterman(q: KloostermanQuery, mode: str = "direct") -> complex:
    if mode == "direct":
        return _kloosterman_direct(q.a, q.b, q.n, q.c, q.chi)
    if mode in ("factored", "salie"):
        return _kloosterman_factored(q.a, q.b, q.n, q.c, q.chi, salie=(mode == "salie"))
    raise ValueError(f"unknown kloosterman mode {mode!r}")


@partial(_table_cache, residues=lambda n, c, chi: c, maxsize=_PLANS)
def _direct_plan(n: int, c: int, chi: DirichletCharacter):
    """(conj(chi) at X mod N, X, X') over the pairs x x' = n in Z/cZ; the weights are
    None for n = 1 mod c and a principal chi, where every x is a unit.

    At most _PLANS entries and _TABLE_BUDGET residues of c are kept, plus one
    plan of a larger c: a twisted modulus above the budget holds a weight array
    of 16 bytes per unit."""
    if n % c == 1 % c and chi.is_principal():
        return (None, *_units(c))
    X, XP = _pairs(n, c)
    return np.conj(_chi_values(chi))[X % chi.modulus], X, XP


def _kloosterman_direct(a: int, b: int, n: int, c: int, chi: DirichletCharacter) -> complex:
    if c == 1:
        return 1.0 + 0j
    vals, X, XP = _direct_plan(n, c, chi)
    idx = a * X  # in place: at c ~ 10^6 each fresh temporary is paged in anew per call
    idx += b * XP
    idx %= c
    phases = _phase(c)[idx]
    return complex((phases if vals is None else vals * phases).sum())


@partial(_table_cache, residues=lambda q, chi, d: q)
def _twisted_table(q: int, chi: DirichletCharacter, d: int) -> np.ndarray:
    """S_chi(d, t; q) for t = 0..q-1, with chi mod q = p^ell and d = p^j, j <= ell.

    Over the units y, S_chi(d, t; q) = sum_y conj(chi(y)) e(d y/q) e(t y^-1/q) is
    the DFT of length q of F[y^-1] = conj(chi(y)) e(d y/q), so the table is
    q ifft(F).  kloosterman_local reads every twisted factor of a modulus up to
    _TABLE_BUDGET from these tables, at most _TABLE_BUDGET residues of them in all.
    """
    xs, inv = _pairs(1, q)
    F = np.zeros(q, dtype=complex)
    F[inv] = np.conj(_chi_values(chi)[xs]) * _phase(q)[d * xs % q]
    return q * np.fft.ifft(F)


@lru_cache(maxsize=None)
def _local_component_cached(chi: DirichletCharacter, p: int, q: int) -> DirichletCharacter:
    return local_component(chi, p, q)


@lru_cache(maxsize=_PLANS)
def _local_plan(n: int, c: int, chi: DirichletCharacter):
    """One entry per q = p^e || c: (p, q, ia, ib, p^k, chi_p), with p^k || n.

    ia = (c/q)^-1 mod q and ib = ia (n/p^k) mod q, so the local factor at q of
    S_chi(a, b; n; c) is S(a ia, b ib; p^k; q) twisted by chi_p, the p-part of
    chi (None when p does not divide N).
    """
    plan = []
    for p, e in arith.factor(c):
        q = p**e
        ia = arith.inv_mod(c // q % q, q)
        pk = p ** arith.ord_p(n, p)
        chi_p = _local_component_cached(chi, p, q) if chi.modulus % p == 0 else None
        plan.append((p, q, ia, ia * (n // pk % q) % q, pk, chi_p))
    return tuple(plan)


def _local_args(a: int, b: int, p: int, q: int, ia: int, ib: int,
                chi_p: DirichletCharacter | None) -> tuple[int, int]:
    """(u, v) with S(u, v; p^k; q) the local factor at q of S_chi(a, b; n; c), as
    kloosterman_local keys it: u = a ia and v = b ib mod q (see _local_plan).

    S(u, v; p^k; q) = S(1, uv; p^k; q) for an untwisted factor with u a unit
    (x -> x/u, x' -> u x'), so the untwisted factors of one uv share a cache entry.
    """
    u, v = a * ia % q, b * ib % q
    if chi_p is None and u % p:
        return 1, u * v % q
    return u, v


def _kloosterman_factored(a: int, b: int, n: int, c: int, chi: DirichletCharacter,
                          salie: bool) -> complex:
    total = 1.0 + 0j
    for p, q, ia, ib, pk, chi_p in _local_plan(n, c, chi):
        u, v = _local_args(a, b, p, q, ia, ib, chi_p)
        # the flag only selects a route for a twisted factor; an untwisted one
        # shares its cache entry with both modes
        total *= kloosterman_local(u, v, pk, q, chi_p, salie=salie and chi_p is not None)
    return complex(total)


def kloosterman_moduli(a: int, b: int, n: int, cs, chi: DirichletCharacter) -> np.ndarray:
    """S_chi(a, b; n; c) for each c of the ints cs, all multiples of N = chi.modulus,
    by the factored route: the Kloosterman sums of one block of a c-series.

    Each c = N k is factored from arith.factor(N) and arith.factor(k), and its
    plan is built inline and not cached, since a c-series asks each c once: the
    twisted factors at the p | N first, then the untwisted ones.  The local
    factors go through kloosterman_local, keyed as in the scalar route
    (_local_args), except the classical S(1, t; p) at odd primes p dividing
    neither N, n nor c / p: those are deduplicated over the block and summed in
    one pass (_prime_kloosterman).
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    N = chi.modulus
    level = arith.factor(N).pairs
    n_parts = {p: p**e for p, e in arith.factor(abs(n))}
    prime_sums: dict = {}   # (p, t) -> index into the one pass
    values, pending = [], []
    for c in cs:
        k, r = divmod(c, N)
        if r or k < 1:
            raise ValueError("need chi modulus | c and c >= 1")
        rest = dict(arith.factor(k).pairs)
        total = 1.0 + 0j
        fresh = []
        for p, e in level:
            q = p ** (e + rest.pop(p, 0))
            chi_p = _local_component_cached(chi, p, q)
            ia = pow(c // q % q, -1, q)
            pk = n_parts.get(p, 1)
            u, v = _local_args(a, b, p, q, ia, ia * (n // pk % q) % q, chi_p)
            total *= kloosterman_local(u, v, pk, q, chi_p, salie=False)
        for p, e in rest.items():
            q = p**e
            ia = pow(c // q % q, -1, q)
            pk = n_parts.get(p, 1)
            u, v = _local_args(a, b, p, q, ia, ia * (n // pk % q) % q, None)
            if u == 1 and e == 1 and pk == 1 and p > 2:
                fresh.append(prime_sums.setdefault((p, v), len(prime_sums)))
            else:
                total *= kloosterman_local(u, v, pk, q, None, salie=False)
        values.append(total)
        pending.append(fresh)
    sums = _prime_kloosterman(list(prime_sums)).tolist()
    for i, fresh in enumerate(pending):
        for j in fresh:
            values[i] *= sums[j]
    return np.array(values, dtype=complex)


def _prime_kloosterman(keys: list[tuple[int, int]]) -> np.ndarray:
    """The classical S(1, t; p) for each (p, t) of keys, p an odd prime, in ragged
    numpy passes over half unit tables; nothing is cached.

    x <-> p - x conjugates the phase (x + t/x)/p, so the sum is real:
    S(1, t; p) = 2 sum_{x < p/2} cos(2 pi (x + t/x)/p), for t = 0 too.  A pass
    takes the keys whose half tables start within one _TABLE_BUDGET of residues,
    so its arrays stay near 4 MB each however large the primes of a block: at
    the term cap of a small level they reach 1.5e6.
    """
    ps, ts = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    halves = (ps - 1) // 2
    passes = (np.cumsum(halves) - halves) // _TABLE_BUDGET
    edges = [0, *(np.flatnonzero(np.diff(passes)) + 1).tolist(), len(keys)]
    sums = np.zeros(len(keys))
    for sel in (slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo):
        p, h = ps[sel], halves[sel]
        tables = [_units(q) for q in p.tolist()]
        x = np.concatenate([xs[:n] for (xs, _), n in zip(tables, h)])
        x_inv = np.concatenate([inv[:n] for (_, inv), n in zip(tables, h)])
        P = np.repeat(p, h)
        cosines = np.cos(2 * np.pi * ((x + np.repeat(ts[sel], h) * x_inv) % P) / P)
        sums[sel] = 2 * np.add.reduceat(cosines, np.cumsum(h) - h)
    return sums


@lru_cache(maxsize=400000)
def kloosterman_local(a: int, b: int, n: int, modulus: int, chi_p: DirichletCharacter | None,
                      salie: bool = False) -> complex:
    """Local factor S(a, b; n; p^ell) at modulus p^ell.

    The third argument is the p-power n = p^k itself, not the exponent k.
    n = 1 (k = 0) gives the classical S(a, b; p^ell); an n that is not a
    power of p raises ValueError.

    With a Dirichlet character chi_p mod p^ell the sum reduces to the twisted sum
    S_chi(a, b p^k; p^ell).  With salie, salie_eval computes it; otherwise, up to
    the modulus _TABLE_BUDGET, it is read from a table of _twisted_table: for
    a = p^j w with w a unit (j = ell when a = 0 mod p^ell), x -> x/w gives
    S_chi(a, b'; q) = chi(w) S_chi(p^j, b' w; q).  A larger modulus takes the
    direct sum, since the transient memory of its inverse DFT (138 MB at
    q = 10^6 + 3) would exceed that of the sums.  With chi_p = None (constant
    one on Z/p^ell) the closed forms for k < ell and k >= ell apply.
    """
    fac = arith.factor(modulus).pairs
    if len(fac) != 1:
        raise ValueError("modulus must be a prime power")
    p, ell = fac[0]
    if n < 1 or (n > 1 and arith.factor(n).primes() != (p,)):
        raise ValueError("n must be a power of the modulus prime")
    k = arith.ord_p(n, p) if n > 1 else 0
    if chi_p is not None:
        if salie or modulus > _TABLE_BUDGET:
            return twisted_kloosterman(a, b * n, modulus, chi_p,
                                       mode="salie" if salie else "direct")
        if chi_p.modulus != modulus:
            raise ValueError("the local character must be defined mod the modulus")
        a %= modulus
        j = arith.ord_p(a, p) if a else ell
        w = a // p**j if a else 1
        return complex(_chi_values(chi_p)[w]
                       * _twisted_table(modulus, chi_p, p**j)[b * n * w % modulus])
    # constant-one local factor
    ap = arith.ord_p(a, p) if a % modulus != 0 else ell
    bp = arith.ord_p(b, p) if b % modulus != 0 else ell
    if k < ell:
        if k > min(ap, k) + min(bp, k):
            return 0j
        total = 0j
        qq = p ** (ell - k)
        for i in range(max(0, k - ap), min(bp, k) + 1):
            total += _classical_kloosterman(a // p ** (k - i), b // p**i, qq)
        return complex(p**k * total)
    # k >= ell: ramanujan-sum evaluation
    total = 0j
    for i in range(0, ell + 1):
        if i > bp:
            continue
        r = ell - i
        if r == 0:
            ram = 1
        elif r <= ap:
            ram = arith.phi(p**r)
        elif r == ap + 1:
            ram = -(p ** (r - 1))
        else:
            ram = 0
        total += p**i * ram
    return complex(total)


def _classical_kloosterman(a: int, b: int, q: int) -> complex:
    """S(a, b; q) over units, principal character.

    Not cached: kloosterman_local caches the local factors that call it.  A
    c-series takes its S(1, t; p) at odd primes p || c not dividing N n from
    _prime_kloosterman instead (see kloosterman_moduli).
    """
    if q == 1:
        return 1.0 + 0j
    xs, inv = _units(q)
    ph = _phase(q)[(a * xs + b * inv) % q]
    return complex(np.sum(ph))


def twisted_kloosterman(a: int, b: int, q: int, chi: DirichletCharacter,
                        mode: str = "direct") -> complex:
    """S_chi(a, b; q) = sum over units of conj(chi(x)) e((ax + b/x)/q), chi mod q."""
    if chi.modulus != q:
        raise ValueError("twisted_kloosterman wants chi defined mod q")
    if mode == "direct":
        return _kloosterman_direct(a, b, 1, q, chi)
    if mode == "salie":
        return salie_eval(a, b, q, chi)
    raise ValueError(f"unknown mode {mode!r}")


# ----------------------------------------------------------------------------
# Salie / stationary-phase evaluation


def _salie_B_even(chi: DirichletCharacter, p: int, alpha: int) -> int:
    """B with conj(chi(1 + z p^alpha)) = e(Bz / p^alpha), ell = 2 alpha."""
    lam = arith.carmichael(chi.modulus)
    B, rem = divmod(-chi.angle(1 + p**alpha) % lam * p**alpha, lam)
    if rem:
        raise ArithmeticError("inconsistent character angle in B extraction")
    return B


def _salie_B_odd(chi: DirichletCharacter, p: int, alpha: int) -> int | None:
    """B with conj(chi(1+z p^alpha)) = e(Bz/p^{alpha+1} + (p-1)B z^2/(2p)).

    Determined mod p^{alpha+1} up to the quadratic correction; candidates are
    anchored mod p^alpha from z = p and verified exactly on every z.
    """
    pa = p**alpha
    pa1 = p ** (alpha + 1)
    lam = arith.carmichael(chi.modulus)
    B0, rem = divmod(-chi.angle(1 + pa1) % lam * pa, lam)
    if rem:
        return None
    # both sides as integers over the common denominator L
    L = math.lcm(lam, pa1, 2 * p)
    lhs = [-chi.angle(1 + z * pa) * (L // lam) % L for z in (1, 2, 3, p + 1)]
    for j in range(2 * p):
        B = B0 + j * pa
        if all(lhs_z == (B * z * (L // pa1) + (p - 1) * B * z * z * (L // (2 * p))) % L
               for lhs_z, z in zip(lhs, (1, 2, 3, p + 1))):
            return B
    return None


def _quad_roots_units(a: int, B: int, b: int, p: int, alpha: int) -> list[int]:
    """Unit solutions y mod p^alpha of a y^2 + B y - b = 0."""
    q = p**alpha
    return [y for y in range(1, q) if y % p != 0 and (a * y * y + B * y - b) % q == 0]


def salie_eval(a: int, b: int, q: int, chi: DirichletCharacter) -> complex:
    """Stationary-phase evaluation of S_chi(a, b; q), q = p^ell with ell >= 2.

    Falls back to direct summation in the cases the closed form does not
    cover (p = 2 with ell odd, or no consistent phase parameter B).
    """
    fac = arith.factor(q).pairs
    if len(fac) != 1:
        raise ValueError("salie_eval needs a prime-power modulus")
    p, ell = fac[0]
    if chi.modulus != q:
        raise ValueError("salie_eval wants chi defined mod q")
    # strip common p-power from (a, b): S_chi(p^j a', p^j b'; p^ell) collapses
    ja = arith.ord_p(a, p) if a % q != 0 else ell
    jb = arith.ord_p(b, p) if b % q != 0 else ell
    j = min(ja, jb)
    if j >= ell:
        return complex(arith.phi(q)) if chi.is_principal() else 0j
    if j > 0:
        q2 = p ** (ell - j)
        if arith.ord_p(chi.conductor, p) > ell - j:
            return 0j
        chi2 = local_component(chi, p, q2)
        return p**j * twisted_kloosterman(a // p**j, b // p**j, q2, chi2,
                                          mode="salie" if ell - j >= 2 else "direct")
    if ja > 0:  # b is the unit; swap using S_chi(a,b;c) = S_conj(chi)(b,a;c)
        return salie_eval(b, a, q, chi.conj())
    if b % q == 0:
        return gauss_sum(chi.conj(), a, "direct")
    if ell < 2 or (p == 2 and ell % 2 == 1):
        return twisted_kloosterman(a, b, q, chi, mode="direct")

    alpha = ell // 2
    pa = p**alpha
    ph = _phase(q)
    if ell % 2 == 0:
        B = _salie_B_even(chi, p, alpha)
        total = 0j
        for y in _quad_roots_units(a, B, b, p, alpha):
            yinv = pow(y, -1, q)
            total += np.conj(chi(y)) * ph[(a * y + b * yinv) % q]
        return complex(pa * total)
    # odd ell = 2 alpha + 1, p odd
    B = _salie_B_odd(chi, p, alpha)
    if B is None:
        return twisted_kloosterman(a, b, q, chi, mode="direct")
    php = _phase(p)
    inv2 = pow(2, -1, p)
    total = 0j
    for y in _quad_roots_units(a, B, b, p, alpha):
        yinv = pow(y, -1, q)
        h = (a - b * yinv * yinv + B * yinv) % (p ** (alpha + 1))
        lin = (h // pa) % p
        d = (b * pow(y, -3, p) + (p - 1) * B * inv2 * pow(y, -2, p)) % p
        gp = complex(np.sum(php[(d * np.arange(p) ** 2 + lin * np.arange(p)) % p]))
        total += np.conj(chi(y)) * ph[(a * y + b * yinv) % q] * gp
    return complex(pa * total)


def p3_witness(p: int) -> tuple[KloostermanQuery, int]:
    """Witness pair (a, b) mod p^3 with S_chi(a,b;p^3) = p^2 for primitive chi.

    chi is the first primitive character mod p^3 in canonical order; a is the
    double stationary point -B/2 mod p^3 (B from the phase of chi on
    1 + zp), b = -a.  The value p^2 exceeds the conductor-free classical
    bound tau(c) (a,b,c)^{1/2} c^{1/2} = 4 p^{3/2} once p >= 17.
    """
    if p < 3 or not arith.is_prime(p):
        raise ValueError("p must be an odd prime")
    q = p**3
    for chi in enumerate_characters(q):
        if chi.conductor == q:
            B = _salie_B_odd(chi, p, 1)
            if B is None:  # pragma: no cover
                continue
            a = (-B) * pow(2, -1, q) % q
            return KloostermanQuery(a, (-a) % q, 1, q, chi), p * p
    raise AssertionError("no primitive character found")  # pragma: no cover


# ----------------------------------------------------------------------------
# Weil certificates


@dataclass(frozen=True)
class WeilCertificate:
    value: complex
    bound1: float
    bound2: float
    satisfied: tuple[bool, bool]


@lru_cache(maxsize=_PLANS)
def _weil_plan(n: int, c: int, cchi: int):
    """The g-free factors of _weil_bounds: tau(n) tau(c), sqrt(c), sqrt(cchi),
    cchi^{1/4} and the p^{1/4} for p | cchi."""
    return (arith.tau(abs(n)) * arith.tau(c), math.sqrt(c), math.sqrt(cchi), cchi**0.25,
            tuple(p**0.25 for p in arith.factor(cchi).primes()))


def _weil_bounds(g, n: int, c: int, cchi: int):
    """(bound1, bound2), the conductor-aware Weil bounds on |S_chi(a, b; n; c)|.

    g = gcd(an, bn, c), an int or an integer array; chi has conductor cchi.
    Both bounds are tau(n) tau(c) sqrt(g c) times sqrt(cchi), resp.
    cchi^{1/4} prod_{p | cchi} p^{1/4}.
    """
    tt, sqrt_c, sqrt_cchi, cchi_4, p_4 = _weil_plan(n, c, cchi)
    base = tt * g**0.5 * sqrt_c
    b2 = base * cchi_4
    for f in p_4:
        b2 *= f
    return base * sqrt_cchi, b2


def _weil_holds(m, bound):
    """The Weil verdict |S| <= bound with 1e-9 of absolute slack, on floats or arrays:
    weil_certificate and equivalence_scan both read it."""
    return m <= bound + 1e-9


def weil_certificate(q: KloostermanQuery) -> WeilCertificate:
    """Value (factored route) plus the two certified conductor-aware bounds."""
    val = kloosterman(q, "factored")
    g = math.gcd(math.gcd(abs(q.a * q.n), abs(q.b * q.n)), q.c)
    b1, b2 = _weil_bounds(g, q.n, q.c, q.chi.conductor)
    m = abs(val)
    return WeilCertificate(val, b1, b2, (_weil_holds(m, b1), _weil_holds(m, b2)))


# ----------------------------------------------------------------------------
# Selberg's identity and the S3 symmetry


def selberg_identity(q: KloostermanQuery, side: str) -> complex:
    """Either side of S_chi(a,b;n;c) = sum_{d | (n,b,c)} conj(chi(d)) d S_chi(a, bn/d^2; c/d).

    Requires gcd(N, n) = 1 or gcd(N, b) = 1 so that chi makes sense mod c/d.
    """
    N = q.chi.modulus
    if math.gcd(N, abs(q.n)) != 1 and math.gcd(N, abs(q.b)) != 1:
        raise ValueError("identity needs gcd(N,n)=1 or gcd(N,b)=1")
    if side == "lhs":
        return kloosterman(q, "direct")
    if side != "rhs":
        raise ValueError("side must be 'lhs' or 'rhs'")
    g = math.gcd(math.gcd(abs(q.n), abs(q.b)), q.c)
    total = 0j
    for d in arith.divisors(g):
        cq = q.c // d
        sub = KloostermanQuery(q.a, (q.b * q.n) // (d * d), 1, cq, q.chi)
        total += np.conj(q.chi(d)) * d * kloosterman(sub, "direct")
    return complex(total)


def s3_symmetry(a1: int, a2: int, a3: int, c: int, perm: tuple[int, int, int]) -> complex:
    """S(a_sigma(1), a_sigma(2); a_sigma(3); c) for the principal character mod c."""
    vals = (a1, a2, a3)
    aa, bb, nn = (vals[perm[0]], vals[perm[1]], vals[perm[2]])
    chi1 = DirichletCharacter.principal(1)
    return kloosterman(KloostermanQuery(aa, bb, nn, c, chi1), "direct")


# ----------------------------------------------------------------------------
# quadratic congruence counts


@dataclass(frozen=True)
class QuadCount:
    count: int
    units: int       # solutions coprime to p
    divisible: int   # solutions divisible by p


def quad_solution_count(a: int, B: int, c0: int, p: int, n: int,
                        mode: str = "formula") -> QuadCount:
    """Solutions of a x^2 + B x + c0 = 0 mod p^n with the divisibility split.

    ``formula`` implements the discriminant case analysis; ``brute``
    enumerates Z/p^n.  p must not divide a.
    """
    if a % p == 0:
        raise ValueError("leading coefficient must be a unit mod p")
    if n < 1:
        raise ValueError("n must be positive")
    q = p**n
    if mode == "brute":
        cnt = unit = div = 0
        for x in range(q):
            if (a * x * x + B * x + c0) % q == 0:
                cnt += 1
                if x % p == 0:
                    div += 1
                else:
                    unit += 1
        return QuadCount(cnt, unit, div)
    if mode != "formula":
        raise ValueError(f"unknown mode {mode!r}")

    disc = B * B - 4 * a * c0
    if p != 2:
        delta = arith.ord_p(disc, p) if disc != 0 else n  # delta >= n behaves alike
        if disc == 0 or delta >= n:
            M = p ** (n // 2)
            return QuadCount(M, 0, M) if B % p == 0 else QuadCount(M, M, 0)
        dp = disc // p**delta
        if delta % 2 == 1 or pow(dp, (p - 1) // 2, p) != 1:
            return QuadCount(0, 0, 0)
        M = 2 * p ** (delta // 2)
        if delta > 0:
            return QuadCount(M, 0, M) if B % p == 0 else QuadCount(M, M, 0)
        # delta = 0, two solutions
        if c0 % p == 0:
            return QuadCount(2, 1, 1)
        return QuadCount(2, 2, 0)
    # p = 2
    if B % 2 == 1:
        if disc % 8 == 1:
            return QuadCount(2, 1, 1)
        return QuadCount(0, 0, 0)
    delta = arith.ord_p(disc, 2) if disc != 0 else n + 2
    if disc == 0 or delta >= n + 2:
        M = 2 ** (n // 2)
        return QuadCount(M, M, 0) if B % 4 != 0 else QuadCount(M, 0, M)
    if delta % 2 == 1:
        return QuadCount(0, 0, 0)
    dp = disc // 2**delta
    if dp % 2 ** min(n - delta + 2, 3) != 1 % 2 ** min(n - delta + 2, 3):
        return QuadCount(0, 0, 0)
    M = 2 ** min(n - delta + 1, 2) * 2 ** (delta // 2 - 1)
    if delta > 2:
        return QuadCount(M, M, 0) if B % 4 != 0 else QuadCount(M, 0, M)
    # delta = 2: all even if 4 does not divide B, else all odd
    return QuadCount(M, 0, M) if B % 4 != 0 else QuadCount(M, M, 0)


# ----------------------------------------------------------------------------
# batch scan used by the CLI and the acceptance suite


def _ab_sample(c: int, count: int) -> list[tuple[int, int]]:
    return [((7 * i * i + 3 * i + 1) % c, (11 * i + 5 * i * i * i) % c)
            for i in range(count)]


def _scan_grid(max_c: int, max_N: int, ab_pairs_per_c: int):
    """(c, (a, b) sample, N, characters mod N) for every c <= max_c and N | c, N <= max_N."""
    for c in range(1, max_c + 1):
        ab = _ab_sample(c, ab_pairs_per_c)
        for N in arith.divisors(c):
            if N <= max_N:
                yield c, ab, N, enumerate_characters(N)


@dataclass
class ScanReport:
    queries: int
    max_dev_factored: float
    max_dev_salie: float
    weil_violations: int
    max_ratio_bound1: float
    max_ratio_bound2: float


def equivalence_scan(max_c: int, max_N: int, n_values: tuple[int, ...] = tuple(range(1, 13)),
                     ab_pairs_per_c: int = 20) -> ScanReport:
    """Compare direct, factored and Salie modes over the full deterministic grid.

    Direct values are computed in one complex matrix product per (c, N, n);
    both Weil bounds are certified on every query, by the verdict of
    weil_certificate.  Violations count at every c, the largest |S| / bound
    ratios only at c > 1 (at c = 1 both are 1).
    """
    count = 0
    worst_f = 0.0
    worst_s = 0.0
    violations = 0
    r1 = r2 = 0.0
    for c, ab, N, chars in _scan_grid(max_c, max_N, ab_pairs_per_c):
        A, B = np.array(ab, dtype=np.int64).reshape(-1, 2).T
        chi_T = np.vstack([np.conj(_chi_values(chi)) for chi in chars])
        conductors = [chi.conductor for chi in chars]
        for n in n_values:
            X, XP = _pairs(n, c)
            ph_M = _phase(c)[(A[:, None] * X[None, :] + B[:, None] * XP[None, :]) % c]
            chi_M = chi_T[:, X % N] if N > 1 else np.ones((1, len(X)), dtype=complex)
            direct = chi_M @ ph_M.T  # (n_chars, n_ab)
            for ci, chi in enumerate(chars):
                for j, (a, b) in enumerate(ab):
                    f = _kloosterman_factored(a, b, n, c, chi, salie=False)
                    s = _kloosterman_factored(a, b, n, c, chi, salie=True)
                    worst_f = max(worst_f, abs(direct[ci, j] - f))
                    worst_s = max(worst_s, abs(direct[ci, j] - s))
                    count += 1
            g = np.gcd(np.gcd(A * n, B * n), c)
            # (n_chars, 2, n_ab): bound1 and bound2 per query
            bounds = np.array([_weil_bounds(g, n, c, cchi) for cchi in conductors])
            m = np.abs(direct)[:, None, :]
            if c > 1:
                q = m / bounds
                r1 = max(r1, float(q[:, 0].max()))
                r2 = max(r2, float(q[:, 1].max()))
            violations += int(np.count_nonzero(~_weil_holds(m, bounds).all(axis=1)))
    return ScanReport(count, worst_f, worst_s, violations, r1, r2)


def scan_queries(max_c: int, max_N: int, n_values: tuple[int, ...] = tuple(range(1, 13)),
                 ab_pairs_per_c: int = 20):
    """Deterministic query grid: every c <= max_c, every N | c with N <= max_N,
    every chi mod N, a deterministic (a, b) sample, n in n_values."""
    for c, ab, N, chars in _scan_grid(max_c, max_N, ab_pairs_per_c):
        for chi in chars:
            for n in n_values:
                for a, b in ab:
                    yield KloostermanQuery(a, b, n, c, chi)


def weil_scan_rows(max_c: int, max_N: int, n_values=tuple(range(1, 13)),
                   ab_pairs_per_c: int = 20):
    """CSV-ready rows (N, chi, a, b, n, c, Re S, Im S, bound1, bound2, ok)."""
    for q in scan_queries(max_c, max_N, n_values, ab_pairs_per_c):
        cert = weil_certificate(q)
        yield (q.chi.modulus, q.chi.label(), q.a, q.b, q.n, q.c,
               cert.value.real, cert.value.imag, cert.bound1, cert.bound2,
               cert.satisfied[0] and cert.satisfied[1])

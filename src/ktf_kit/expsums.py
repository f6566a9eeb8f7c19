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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import arith
from .characters import DirichletCharacter, local_component


# ----------------------------------------------------------------------------
# phase tables and pair enumeration


@lru_cache(maxsize=None)
def _phase(c: int) -> np.ndarray:
    """e(j/c) for j = 0..c-1."""
    return np.exp(2j * np.pi * np.arange(c) / c)


@lru_cache(maxsize=None)
def _pairs(n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """All (x, x') in (Z/c)^2 with x*x' = n mod c, as two int arrays."""
    if c == 1:
        return np.array([0]), np.array([0])
    xs, xps = [], []
    n_mod = n % c
    for x in range(c):
        g = math.gcd(x, c)
        if n_mod % g != 0:
            continue
        cg = c // g
        x0 = (x // g) % cg
        base = (pow(x0, -1, cg) * ((n_mod // g) % cg)) % cg if cg > 1 else 0
        for k in range(g):
            xs.append(x)
            xps.append(base + k * cg)
    return np.array(xs, dtype=np.int64), np.array(xps, dtype=np.int64)


@lru_cache(maxsize=None)
def _chi_values(chi: DirichletCharacter) -> np.ndarray:
    """chi(x) for x = 0..N-1 (exact angles, one complex conversion)."""
    N = chi.modulus
    out = np.zeros(N if N > 1 else 1, dtype=complex)
    if N == 1:
        out[0] = 1.0
        return out
    for x in range(N):
        a = chi.angle(x)
        if a is not None:
            out[x] = np.exp(2j * np.pi * float(a))
    return out


@lru_cache(maxsize=None)
def _units(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Units mod q and their inverses."""
    if q == 1:
        return np.array([0]), np.array([0])
    xs = np.array([x for x in range(q) if math.gcd(x, q) == 1], dtype=np.int64)
    inv = np.array([pow(int(x), -1, q) for x in xs], dtype=np.int64)
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
        chi0 = chi.primitive()
        c = chi0.modulus
        ell = M // c
        tau0 = gauss_sum(chi0, 1, "direct") if c > 1 else 1.0 + 0j
        total = 0j
        g = math.gcd(ell, abs(m)) if m != 0 else ell
        for a in arith.divisors(g):
            total += a * arith.mu(ell // a) * chi0(ell // a) * np.conj(chi0(m // a))
        return complex(tau0 * total)
    raise ValueError(f"unknown gauss_sum mode {mode!r}")


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


def _kloosterman_direct(a: int, b: int, n: int, c: int, chi: DirichletCharacter) -> complex:
    X, XP = _pairs(n, c)
    if c == 1:
        return 1.0 + 0j
    vals = np.conj(_chi_values(chi))[X % chi.modulus]
    ph = _phase(c)[(a * X + b * XP) % c]
    return complex(np.sum(vals * ph))


@lru_cache(maxsize=None)
def _local_component_cached(chi: DirichletCharacter, p: int, q: int) -> DirichletCharacter:
    return local_component(chi, p, q)


def _kloosterman_factored(a: int, b: int, n: int, c: int, chi: DirichletCharacter,
                          salie: bool) -> complex:
    N = chi.modulus
    total = 1.0 + 0j
    for p, cp in arith.factor(c):
        q = p**cp
        c_other = c // q
        inv_co = arith.inv_mod(c_other % q, q)
        np_ = arith.ord_p(n, p)
        n_other = n // p**np_
        aa = a * inv_co % q
        bb = b * inv_co % q * (n_other % q) % q
        chi_p = _local_component_cached(chi, p, q) if N % p == 0 else None
        total *= kloosterman_local(aa, bb, p**np_, q, chi_p, salie=salie)
    return complex(total)


@lru_cache(maxsize=400000)
def kloosterman_local(a: int, b: int, n: int, modulus: int, chi_p: DirichletCharacter | None,
                      salie: bool = False) -> complex:
    """Local factor S(a, b; n; p^ell) at modulus p^ell.

    The third argument is the p-power n = p^k itself, not the exponent k.
    n = 1 (k = 0) gives the classical S(a, b; p^ell); an n that is not a
    power of p raises ValueError.

    With a Dirichlet character the sum reduces to the twisted sum
    S_chi(a, b p^k; p^ell).  With chi_p = None (constant one on Z/p^ell) the
    closed forms for k < ell and k >= ell apply.
    """
    fac = arith.factor(modulus).pairs
    if len(fac) != 1:
        raise ValueError("modulus must be a prime power")
    p, ell = fac[0]
    if n < 1 or (n > 1 and arith.factor(n).primes() != (p,)):
        raise ValueError("n must be a power of the modulus prime")
    k = arith.ord_p(n, p) if n > 1 else 0
    if ell < 1:
        raise ValueError("need ell >= 1")
    if chi_p is not None:
        return twisted_kloosterman(a, b * p**k, modulus, chi_p,
                                   mode="salie" if salie else "direct")
    # constant-one local factor
    if k < ell:
        ap = arith.ord_p(a, p) if a % modulus != 0 else ell
        bp = arith.ord_p(b, p) if b % modulus != 0 else ell
        if k > min(ap, k) + min(bp, k):
            return 0j
        total = 0j
        qq = p ** (ell - k)
        for i in range(max(0, k - ap), min(bp, k) + 1):
            total += _classical_kloosterman(a // p ** (k - i), b // p**i, qq)
        return complex(p**k * total)
    # k >= ell: ramanujan-sum evaluation
    ap = arith.ord_p(a, p) if a % modulus != 0 else ell
    bp = arith.ord_p(b, p) if b % modulus != 0 else ell
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


@lru_cache(maxsize=None)
def _classical_kloosterman(a: int, b: int, q: int) -> complex:
    """S(a, b; q) over units, principal character."""
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
        if q == 1:
            return 1.0 + 0j
        xs, inv = _units(q)
        vals = np.conj(_chi_values(chi))[xs]
        ph = _phase(q)[(a * xs + b * inv) % q]
        return complex(np.sum(vals * ph))
    if mode == "salie":
        return salie_eval(a, b, q, chi)
    raise ValueError(f"unknown mode {mode!r}")


# ----------------------------------------------------------------------------
# Salie / stationary-phase evaluation


def _char_angle_frac(chi: DirichletCharacter, x: int) -> Fraction:
    a = chi.angle(x)
    if a is None:
        raise ValueError("character vanishes where a root of unity was expected")
    return a


def _salie_B_even(chi: DirichletCharacter, p: int, alpha: int) -> int:
    """B with conj(chi(1 + z p^alpha)) = e(Bz / p^alpha), ell = 2 alpha."""
    ang = -_char_angle_frac(chi, 1 + p**alpha) % 1
    B = ang * p**alpha
    if B.denominator != 1:
        raise ArithmeticError("inconsistent character angle in B extraction")
    return int(B)


def _salie_B_odd(chi: DirichletCharacter, p: int, alpha: int) -> int | None:
    """B with conj(chi(1+z p^alpha)) = e(Bz/p^{alpha+1} + (p-1)B z^2/(2p)).

    Determined mod p^{alpha+1} up to the quadratic correction; candidates are
    anchored mod p^alpha from z = p and verified exactly on every z.
    """
    pa = p**alpha
    pa1 = p ** (alpha + 1)
    ang = -_char_angle_frac(chi, (1 + pa1) % chi.modulus) % 1
    B0 = ang * pa
    if B0.denominator != 1:
        return None
    B0 = int(B0) % pa
    for j in range(2 * p):
        B = B0 + j * pa
        ok = True
        for z in (1, 2, 3, p + 1):
            lhs = -_char_angle_frac(chi, (1 + z * pa) % chi.modulus) % 1
            rhs = (Fraction(B * z, pa1) + Fraction((p - 1) * B * z * z, 2 * p)) % 1
            if lhs != rhs:
                ok = False
                break
        if ok:
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
        if chi.conductor % q2 == 0 and chi.conductor > q2:
            return 0j
        if arith.ord_p(chi.conductor, p) > ell - j:
            return 0j
        chi2 = local_component(chi, p, q2) if q2 > 1 else DirichletCharacter.principal(1)
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
    from .characters import enumerate_characters
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


def _weil_bounds(g, n: int, c: int, cchi: int):
    """(bound1, bound2), the conductor-aware Weil bounds on |S_chi(a, b; n; c)|.

    g = gcd(an, bn, c), an int or an integer array; chi has conductor cchi.
    Both bounds are tau(n) tau(c) sqrt(g c) times sqrt(cchi), resp.
    cchi^{1/4} prod_{p | cchi} p^{1/4}.
    """
    base = arith.tau(abs(n)) * arith.tau(c) * g**0.5 * math.sqrt(c)
    b2 = base * cchi**0.25
    for p, _ in arith.factor(cchi):
        b2 *= p**0.25
    return base * math.sqrt(cchi), b2


def weil_certificate(q: KloostermanQuery) -> WeilCertificate:
    """Value (factored route) plus the two certified conductor-aware bounds."""
    val = kloosterman(q, "factored")
    g = math.gcd(math.gcd(abs(q.a * q.n), abs(q.b * q.n)), q.c)
    b1, b2 = _weil_bounds(g, q.n, q.c, q.chi.conductor)
    m = abs(val)
    return WeilCertificate(val, b1, b2, (m <= b1 + 1e-9, m <= b2 + 1e-9))


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


@dataclass
class ScanReport:
    queries: int
    max_dev_factored: float
    max_dev_salie: float
    weil_violations: int
    max_ratio_bound1: float
    max_ratio_bound2: float


def equivalence_scan(max_c: int, max_N: int, n_values: tuple[int, ...] = tuple(range(1, 13)),
                     ab_pairs_per_c: int = 20, check_weil: bool = True) -> ScanReport:
    """Compare direct, factored and Salie modes over the full deterministic grid.

    Direct values are computed in one complex matrix product per (c, N, n);
    optionally certifies both Weil bounds on every query.
    """
    from .characters import enumerate_characters
    count = 0
    worst_f = 0.0
    worst_s = 0.0
    violations = 0
    r1 = r2 = 0.0
    for c in range(1, max_c + 1):
        ab = _ab_sample(c, ab_pairs_per_c)
        A = np.array([p[0] for p in ab], dtype=np.int64)
        B = np.array([p[1] for p in ab], dtype=np.int64)
        for N in arith.divisors(c):
            if N > max_N:
                continue
            chars = enumerate_characters(N)
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
                if check_weil:
                    g = np.gcd(np.gcd(A * n, B * n), c)
                    # (n_chars, 2, n_ab): |S| / bound1 and |S| / bound2 per query
                    q = np.abs(direct)[:, None, :] / np.array(
                        [_weil_bounds(g, n, c, cchi) for cchi in conductors])
                    r1 = max(r1, float(q[:, 0].max()))
                    r2 = max(r2, float(q[:, 1].max()))
                    violations += int(np.count_nonzero((q > 1 + 1e-9).any(axis=1)))
    return ScanReport(count, worst_f, worst_s, violations, r1, r2)


def scan_queries(max_c: int, max_N: int, n_values: tuple[int, ...] = tuple(range(1, 13)),
                 ab_pairs_per_c: int = 20):
    """Deterministic query grid: every c <= max_c, every N | c with N <= max_N,
    every chi mod N, a deterministic (a, b) sample, n in n_values."""
    from .characters import enumerate_characters
    for c in range(1, max_c + 1):
        abs_ = _ab_sample(c, ab_pairs_per_c)
        for N in arith.divisors(c):
            if N > max_N:
                continue
            for chi in enumerate_characters(N):
                for n in n_values:
                    for a, b in abs_:
                        yield KloostermanQuery(a, b, n, c, chi)


def weil_scan_rows(max_c: int, max_N: int, n_values=tuple(range(1, 13)),
                   ab_pairs_per_c: int = 20, check_equivalence: bool = False,
                   tol: float = 1e-9):
    """CSV-ready rows (N, chi, a, b, n, c, Re S, Im S, bound1, bound2, ok)."""
    for q in scan_queries(max_c, max_N, n_values, ab_pairs_per_c):
        cert = weil_certificate(q)
        if check_equivalence:
            d = kloosterman(q, "direct")
            s = kloosterman(q, "salie")
            if abs(d - cert.value) > tol or abs(s - cert.value) > tol:
                raise AssertionError(f"mode disagreement at {q}")
        yield (q.chi.modulus, q.chi.label(), q.a, q.b, q.n, q.c,
               cert.value.real, cert.value.imag, cert.bound1, cert.bound2,
               cert.satisfied[0] and cert.satisfied[1])

"""Eisenstein basis elements, divisor sums, L-values and the Fourier expansion.

Basis elements are triples (chi1, chi2, (i_p)) indexing an orthogonal basis of
the continuous spectrum at level N; each carries the moduli M, N1, N2, the
companion characters chi1' mod N1 and chi2' mod N2, a unimodular constant and
an exact rational norm.  The Eisenstein series attached to a (scaled) element
is evaluated either as a lattice sum (rows completed by Euler-Maclaurin
tails; absolutely convergent range Re s > 1/2) or through its Fourier
expansion (K-Bessel series; valid on the continued region).  hurwitz_zeta,
dirichlet_L, sigma_s and lambda_n_eis take an array of s, so a t-grid costs
one call each.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import arith
from .characters import CharacterPair, DirichletCharacter, induce, pairs_with_product
from .expsums import gauss_sum
from .specfun import bessel_K, gamma_complex, gl_panels

# ----------------------------------------------------------------------------
# Hurwitz zeta and Dirichlet L


_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330),
)


_HURWITZ_BLOCK_TERMS = 256 * 64  # (s, n) head terms per block: 256 values of s up to |Im s| = 42


def hurwitz_zeta(s: complex | np.ndarray, q: float,
                 deflate: bool = False) -> complex | np.ndarray:
    """zeta(s, q) by Euler-Maclaurin, elementwise on a scalar or an array of s.

    Any complex s != 1, q > 0; each s has its own head length K(s).  With
    deflate=True returns the entire function zeta(s, q) - 1/(s-1) (usable at
    s = 1; Dirichlet L of a non-principal character sums it).
    """
    sa = np.asarray(s, dtype=complex)
    if q <= 0:
        raise ValueError("hurwitz_zeta requires q > 0")
    ss = sa.reshape(-1)
    if not deflate and np.any(np.abs(ss - 1) < 1e-12):
        raise ValueError("pole at s = 1")
    K = np.maximum(14, (1.4 * np.abs(ss.imag)).astype(int) + 6)
    rows = max(1, _HURWITZ_BLOCK_TERMS // int(K.max(initial=1)))
    out = np.empty_like(ss)
    for i in range(0, len(ss), rows):
        s, k = ss[i:i + rows], K[i:i + rows]
        n = np.arange(k.max())
        total = np.where(n < k[:, None], np.exp(-s[:, None] * np.log(n + q)), 0).sum(axis=1)
        lx = np.log(k + q)
        tail = np.exp((1 - s) * lx)
        if deflate:  # [(x^{1-s} - 1)/(s-1)], by its Taylor expansion near s = 1
            near = np.abs(s - 1) < 1e-8
            total += np.where(near, -lx + 0.5 * (s - 1) * lx * lx,
                              (tail - 1.0) / np.where(near, 1.0, s - 1))
        else:
            total += tail / (s - 1)
        total += 0.5 * np.exp(-s * lx)
        poch = s
        for j, b2j in enumerate(_BERNOULLI, start=1):
            total += float(b2j) / math.factorial(2 * j) * poch * np.exp(-(s + 2 * j - 1) * lx)
            poch = poch * (s + 2 * j - 1) * (s + 2 * j)
        out[i:i + rows] = total
    return complex(out[0]) if sa.ndim == 0 else out.reshape(sa.shape)


_L_VALUES = 128  # cached primitive L-arrays, one per (chi0, s-grid)


@lru_cache(maxsize=_L_VALUES)
def _primitive_L(chi0: DirichletCharacter, shape: tuple[int, ...], s_bytes: bytes) -> np.ndarray:
    """c^{-s} sum_{a mod c} chi0(a) zeta(s, a/c) for a primitive chi0 mod c; read-only.

    s is the complex array with the given shape and bytes, so the cache holds
    one array per (chi0, s-grid): the denominators of the basis elements of a
    level share a few primitive characters on one t-grid.  A non-principal
    chi0 sums the deflated Hurwitz zeta: sum chi0(a) = 0 cancels the 1/(s-1)
    terms exactly, which keeps s near 1 accurate.
    """
    sa = np.frombuffer(s_bytes, dtype=complex).reshape(shape)
    c = chi0.modulus
    principal = chi0.is_principal()
    total = np.zeros_like(sa)
    for a in range(1, c + 1):
        va = chi0(a)
        if va != 0:
            total = total + va * hurwitz_zeta(sa, a / c, deflate=not principal)
    out = np.asarray(np.exp(-sa * math.log(c)) * total)
    out.flags.writeable = False
    return out


def dirichlet_L(chi: DirichletCharacter, s: complex | np.ndarray) -> complex | np.ndarray:
    """L(s, chi) = sum chi(n) n^{-s}, elementwise on a scalar or an array of s.

    The primitive L-value of chi0 mod the conductor c (``_primitive_L``), times
    (1 - chi0(p) p^{-s}) at p | modulus, p not dividing c.  An array result may
    be the cached, read-only array itself.
    """
    sa = np.asarray(s, dtype=complex)
    if chi.is_principal() and np.any(np.abs(sa - 1) < 1e-12):
        raise ValueError("L(s, principal) has a pole at s = 1")
    chi0 = chi.primitive
    c = chi0.modulus
    out = _primitive_L(chi0, sa.shape, sa.tobytes())
    for p, _ in arith.factor(chi.modulus):
        if c % p != 0:
            out = out * (1.0 - chi0(p) * np.exp(-sa * math.log(p)))
    return complex(out) if sa.ndim == 0 else out


# ----------------------------------------------------------------------------
# basis elements


@dataclass(frozen=True)
class EisensteinBasisElement:
    """Basis element phi_{(i_p)} for the pair (chi1, chi2) at level N."""

    pair: CharacterPair
    tuple_ip: tuple[tuple[int, int], ...]  # ((p, i_p), ...) sorted by p

    @property
    def level(self) -> int:
        return self.pair.modulus

    def ip(self, p: int) -> int:
        for q, i in self.tuple_ip:
            if q == p:
                return i
        raise KeyError(p)

    @cached_property  # kept in the instance __dict__, outside the frozen fields
    def M(self) -> int:
        return math.prod(p**i for p, i in self.tuple_ip)

    @cached_property
    def N1(self) -> int:
        return math.prod(p**k for (p, k), (_, i) in zip(arith.factor(self.level), self.tuple_ip)
                         if i < k)

    @cached_property
    def N2(self) -> int:
        return math.prod(p**k for (p, k), (_, i) in zip(arith.factor(self.level), self.tuple_ip)
                         if i > 0)

    @cached_property
    def chi1p(self) -> DirichletCharacter:
        return induce(self.pair.chi1, self.N1)

    @cached_property
    def chi2p(self) -> DirichletCharacter:
        return induce(self.pair.chi2, self.N2)

    @cached_property
    def chi2_on_M(self) -> DirichletCharacter:
        return induce(self.pair.chi2, self.M)

    @cached_property
    def denominator_character(self) -> DirichletCharacter:
        """conj(chi-tilde-1) * chi-tilde-2 as a character mod N."""
        return self.pair.chi1.conj().mul(self.pair.chi2)

    @cached_property
    def constant(self) -> complex:
        """C_{(i_p)} = prod_{p | N1} conj(chi_{1p}(M / p^{i_p})), unimodular.

        That is conj(chi1(x)) for x = M / p^{i_p} mod each p^k || N: chi_{1p} is
        trivial where p does not divide N1 (i_p = k forces p not to divide c1).
        """
        N = self.level
        x, _ = arith.crt([(self.M // p**i, p ** arith.ord_p(N, p)) for p, i in self.tuple_ip])
        lam = arith.carmichael(N)
        return cmath.exp(2j * cmath.pi * (-self.pair.chi1.angle(x) % lam / lam))

    @property
    def norm_sq(self) -> Fraction:
        out = Fraction(1)
        N = self.level
        for p, i in self.tuple_ip:
            k = arith.ord_p(N, p)
            if i == 0:
                out *= Fraction(p, p + 1)
            elif i < k:
                out *= Fraction(p - 1, p**i * (p + 1))
            else:
                out *= Fraction(1, p ** (k - 1) * (p + 1))
        return out

    def label_row(self) -> tuple:
        return (self.pair.chi1.label(), self.pair.chi2.label(),
                ";".join(f"{p}:{i}" for p, i in self.tuple_ip),
                self.M, f"{self.norm_sq.numerator}/{self.norm_sq.denominator}")


# The plans below keep per key what a call would otherwise rebuild: the basis of
# a level, with the characters and constants its elements cache, and the s-free
# factors of sigma_s and lambda_n_eis.  A request, a t-grid or a crosscheck asks
# the same few keys again and again.
_BASES = 64
_COEFFICIENT_PLANS = 4096


@lru_cache(maxsize=_BASES)
def enumerate_basis(N: int, omega: DirichletCharacter) -> tuple[EisensteinBasisElement, ...]:
    """All basis elements for level N and nebentypus omega (mod N).

    Cached per (N, omega), so every caller shares the elements and what they
    cache (chi1', chi2' on M, the constant, ...).
    """
    if omega.modulus != N:
        raise ValueError("omega must be a character mod N")
    out = []
    for pair in pairs_with_product(omega):
        c1, c2 = pair.chi1.conductor, pair.chi2.conductor
        ranges = [[(p, i) for i in range(arith.ord_p(c2, p), k - arith.ord_p(c1, p) + 1)]
                  for p, k in arith.factor(N)]
        out += [EisensteinBasisElement(pair, ip) for ip in itertools.product(*ranges)]
    return tuple(out)


def phi_fin_value(e: EisensteinBasisElement, c: int, d: int) -> complex:
    """phi_{(i_p)} on the coset of (c, d): C * conj(chi1'(c/M)) * chi2'(d)."""
    if math.gcd(c, d) != 1:
        raise ValueError("(c, d) must be coprime")
    M = e.M
    if c % M != 0:
        return 0j
    # chi1' mod N1 > 1 vanishes at c / M = 0
    v1 = 1.0 + 0j if e.N1 == 1 else np.conj(e.chi1p(c // M))
    return e.constant * v1 * e.chi2p(d)


def sigma_s(e: EisensteinBasisElement, m: int, s: complex | np.ndarray) -> complex | np.ndarray:
    """Divisor sum sigma_s(chi1', chi2', m) of the Fourier expansion; s scalar or array.

    m != 0: M^{-(1+2s)} sum_{c | m} conj(chi1'(c)) c^{-2s} G_{chi2' mod M}(m/c).
    m = 0: phi(M) M^{-(1+2s)} L(2s, conj chi1') when chi2 is trivial, else 0;
    requires Re(s) > 1/2.
    """
    M = e.M
    sa = np.asarray(s, dtype=complex)
    if m == 0:
        if np.any(sa.real <= 0.5):
            raise ValueError("sigma_s at m = 0 needs Re(s) > 1/2")
        total = (arith.phi(M) * dirichlet_L(e.chi1p.conj(), 2 * sa)
                 if e.pair.chi2.conductor == 1 else np.zeros_like(sa))
    else:
        total = _divisor_sum(_sigma_plan(e, m), sa)
    out = np.exp(-(1 + 2 * sa) * math.log(M)) * total
    return complex(out) if sa.ndim == 0 else out


def _divisor_sum(plan: tuple[tuple[float, complex], ...], sa: np.ndarray) -> np.ndarray:
    """sum over the plan's (log d, w) of w d^{-2s}, in the plan's order."""
    total = np.zeros_like(sa)
    for log_d, w in plan:
        total = total + w * np.exp(-2 * sa * log_d)
    return total


@lru_cache(maxsize=_COEFFICIENT_PLANS)
def _sigma_plan(e: EisensteinBasisElement, m: int) -> tuple[tuple[float, complex], ...]:
    """(log c, conj(chi1'(c)) G_{chi2' mod M}(m/c)) for the c | m with chi1'(c) != 0."""
    plan = []
    for c in arith.divisors(abs(m)):
        w = np.conj(e.chi1p(c)) if e.N1 > 1 else 1.0
        if w == 0:
            continue
        plan.append((math.log(c), w * gauss_sum(e.chi2_on_M, m // c, "formula")))
    return tuple(plan)


@lru_cache(maxsize=_COEFFICIENT_PLANS)
def _lambda_plan(n: int, pair: CharacterPair) -> tuple[tuple[float, complex], ...]:
    """(log d, conj(chi1(d) chi2(n/d))) for the d | n."""
    return tuple((math.log(d), np.conj(pair.chi1(d) * pair.chi2(n // d)))
                 for d in arith.divisors(n))


def lambda_n_eis(n: int, pair: CharacterPair, s: complex | np.ndarray) -> complex | np.ndarray:
    """Hecke eigenvalue n^s sum_{d|n} conj(chi1(d) chi2(n/d)) d^{-2s}, gcd(n,N)=1; s array too."""
    if n < 1 or math.gcd(n, pair.modulus) != 1:
        raise ValueError("need n >= 1 coprime to the level")
    sa = np.asarray(s, dtype=complex)
    out = np.exp(sa * math.log(n)) * _divisor_sum(_lambda_plan(n, pair), sa)
    return complex(out) if sa.ndim == 0 else out


# ----------------------------------------------------------------------------
# Eisenstein series evaluation


def _asymptotic_J(rho: complex, v0: float) -> complex:
    """int_{v0}^inf (v^2+1)^{-rho} dv for Re(2 rho) > 1."""
    if v0 < 4.0:
        vs, ws = gl_panels(v0, 4.0, 24, 16)
        head = complex(np.sum(ws * np.exp(-rho * np.log(vs * vs + 1.0))))
        return head + _asymptotic_J(rho, 4.0)
    total = 0j
    coef = 1.0 + 0j
    for k in range(14):
        expo = 2 * rho + 2 * k - 1
        total += coef * cmath.exp(-expo * math.log(v0)) / expo
        coef *= -(rho + k) / (k + 1)
    return total


def _row_sum(c: int, x: float, y: float, rho: complex, vals: np.ndarray) -> complex:
    """R_c = sum_{d in Z} chi2'(d) ((d + cx)^2 + (cy)^2)^{-rho}, completed tails; vals = chi2'."""
    N2 = len(vals)
    gam = c * y
    D = max(80.0, 12.0 * gam, 12.0 * N2) + abs(c * x)
    lo = int(math.floor(-c * x - D))
    hi = int(math.ceil(-c * x + D))
    d = np.arange(lo, hi + 1)
    w = vals[d % N2]
    base = (d + c * x) ** 2 + gam * gam
    total = complex(np.sum(w * np.exp(-rho * np.log(base))))
    # Euler-Maclaurin completion of both tails, one residue class at a time
    def f(u):
        return (u * u + gam * gam) ** (-rho)

    def fp(u):
        return -2 * rho * u * (u * u + gam * gam) ** (-rho - 1)

    def fppp(u):
        g2 = u * u + gam * gam
        return (-2 * rho) * ((-2 * rho - 2) * (-2 * rho - 4) * u**3 * g2 ** (-rho - 3)
                             + 3 * (-2 * rho - 2) * u * g2 ** (-rho - 2)) / 4.0
    for a in range(N2):
        wa = vals[a]
        if wa == 0:
            continue
        for sign in (+1, -1):
            if sign > 0:
                k0 = math.ceil((hi + 1 - a) / N2)
            else:
                k0 = math.floor((lo - 1 - a) / N2)
            u0 = a + N2 * k0 + c * x
            # integral from the first excluded node, trapezoid-ended EM
            vstart = abs(u0) / gam
            integral = gam ** (1 - 2 * rho) * _asymptotic_J(rho, vstart) / N2
            em = integral + 0.5 * f(u0) - sign * (N2 / 12.0) * fp(u0) \
                + sign * (N2**3 / 720.0) * fppp(u0)
            total += wa * em
    return total


def eisenstein_eval(e: EisensteinBasisElement, s: complex, z: complex,
                    mode: str = "fourier") -> complex:
    """E_phi(s, z) for the scaled basis element (phi divided by its constant).

    direct: row-completed lattice sum (Re s > 1/2);
    fourier: constant term plus K-Bessel series (continued region, refusing
    the immediate vicinity of a pole at s = 1/2).
    """
    s = complex(s)
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("z must be in the upper half-plane")
    N = e.level
    chi10 = 1.0 if e.N1 == 1 else 0.0
    den_char = e.denominator_character
    has_pole = e.pair.chi1.conductor == 1 and e.pair.chi2.conductor == 1

    if mode == "direct":
        if s.real <= 0.5:
            raise ValueError("direct mode needs Re(s) > 1/2")
        rho = 0.5 + s
        M = e.M
        chi1p, chi2p = e.chi1p, e.chi2p
        chi2_vals = chi2p.values()
        denL = dirichlet_L(den_char, 1 + 2 * s)
        # rows c = M c~ ; stop when the exponential row remainder certifies out
        C = int(max(40, 14.0 * e.N2 / (math.pi * y), 40 / M)) + 1
        F = 0j
        for ct in range(1, C + 1):
            w1 = np.conj(chi1p(ct)) if e.N1 > 1 else 1.0
            if w1 == 0:
                continue
            F += w1 * _row_sum(M * ct, x, y, rho, chi2_vals)
        # polynomial tail from the row integrals, weighted by the sum W2 of chi2'
        # over a period: phi(N2) for a principal chi2', and 0 otherwise
        if chi2p.is_principal():
            W2 = arith.phi(e.N2)
            I0 = 2.0 * _asymptotic_J(rho, 0.0)
            tail = 0j
            for a in range(1, e.N1 + 1):
                w1 = np.conj(chi1p(a)) if e.N1 > 1 else 1.0
                if w1 == 0:
                    continue
                k0 = (C - a) // e.N1 + 1  # first row index a + N1 k0 above C
                q0 = (a + e.N1 * k0) / e.N1
                tail += w1 * (hurwitz_zeta(2 * s, q0) * cmath.exp(-2 * s * math.log(e.N1)))
            F += (W2 / e.N2) * I0 * cmath.exp((1 - 2 * rho) * math.log(M * y)) * tail
        return complex(cmath.exp((0.5 + s) * math.log(y)) * (chi10 + F / denL))

    if mode != "fourier":
        raise ValueError(f"unknown mode {mode!r}")

    if has_pole and abs(s - 0.5) < 1e-4:
        raise ValueError("fourier mode refuses |s - 1/2| < 1e-4 at a pole; "
                         "use residue_half for the residue")
    g_half_s = gamma_complex(0.5 + s)
    denL = dirichlet_L(den_char, 1 + 2 * s)
    # constant term
    total = chi10 * cmath.exp((0.5 + s) * math.log(y))
    if e.pair.chi2.conductor == 1:
        numL = dirichlet_L(e.chi1p.conj(), 2 * s)
        M = e.M
        total += (cmath.exp((0.5 - s) * math.log(y)) * arith.phi(M) * math.sqrt(math.pi)
                  * gamma_complex(s) * numL
                  / (cmath.exp((1 + 2 * s) * math.log(M)) * g_half_s * denL))
    # K-Bessel series
    pref = 2.0 * math.sqrt(y) * cmath.exp((0.5 + s) * math.log(math.pi)) / (g_half_s * denL)
    acc = 0j
    for m in range(1, 65):  # at most 64 terms
        k = bessel_K(s, 2 * math.pi * m * y)
        term_p = (cmath.exp(s * math.log(m)) * sigma_s(e, m, s) * k
                  * cmath.exp(2j * math.pi * m * x))
        term_n = (cmath.exp(s * math.log(m)) * sigma_s(e, -m, s) * k
                  * cmath.exp(-2j * math.pi * m * x))
        acc += term_p + term_n
        if m > 3 and abs(term_p) + abs(term_n) < 1e-16 * max(1.0, abs(acc)):
            break
    return total + pref * acc


def residue_half(e: EisensteinBasisElement) -> float:
    """Residue at s = 1/2 (exists iff both characters are trivial)."""
    if e.pair.chi1.conductor != 1 or e.pair.chi2.conductor != 1:
        raise ValueError("no pole: chi1 and chi2 must both be trivial")
    M = e.M
    out = 3.0 * arith.phi(M) / (math.pi * M * M)
    N = e.level
    for p, i in e.tuple_ip:
        k = arith.ord_p(N, p)
        if i == k:
            out /= 1.0 - p**-2.0
        else:
            out /= 1.0 + 1.0 / p
    return out

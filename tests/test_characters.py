import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ktf_kit import arith
from ktf_kit.characters import (
    CharacterPair,
    DirichletCharacter,
    character,
    enumerate_characters,
    induce,
    local_component,
    pairs_with_product,
)
from ktf_kit.expsums import gauss_sum


def test_parity_is_the_value_at_minus_one():
    for N in range(1, 65):
        for chi in enumerate_characters(N):
            assert abs(chi(-1) - chi.parity()) < 1e-12


def test_counts_and_conductors():
    assert len(enumerate_characters(1)) == 1
    cs5 = sorted(c.conductor for c in enumerate_characters(5))
    assert cs5 == [1, 5, 5, 5]
    cs8 = sorted(c.conductor for c in enumerate_characters(8))
    assert cs8 == [1, 4, 8, 8]
    for N in range(1, 61):
        assert len(enumerate_characters(N)) == arith.phi(N)


def lexicographic_characters(N):
    """Oracle: every exponent choice mod N by itertools.product, prime by prime,
    the last generator fastest."""
    primes = [p for p, _ in arith.factor(N)]
    local = [list(itertools.product(*(range(o) for o in arith.unit_group(p**k).orders)))
             for p, k in arith.factor(N)]
    return [DirichletCharacter(N, tuple(zip(primes, combo)))
            for combo in itertools.product(*local)]


def test_char_index_is_the_enumeration_index():
    for N in range(1, 61):
        chars = lexicographic_characters(N)
        assert [character(N, i) for i in range(len(chars))] == chars
        assert enumerate_characters(N) == chars
        for index in (-1, len(chars)):
            with pytest.raises(ValueError, match=f"character index {index} out of range"):
                character(N, index)
    for N in (0, -7):
        with pytest.raises(ValueError, match="modulus must be positive"):
            character(N, 0)


def test_eval_basics():
    triv = DirichletCharacter.principal(1)
    assert triv(0) == 1 and triv(17) == 1
    for chi in enumerate_characters(12):
        assert chi(12) == 0
        assert abs(chi(1) - 1) < 1e-15


def test_quadratic_character_mod5():
    quads = [c for c in enumerate_characters(5)
             if not c.is_principal() and c.mul(c).is_principal()]
    assert len(quads) == 1
    assert abs(quads[0](2) + 1) < 1e-14  # 2 is a non-residue mod 5


@pytest.mark.parametrize("N", range(1, 61))
def test_multiplicative_and_closed(N):
    chars = enumerate_characters(N)
    sset = set(chars)
    for chi in chars:
        assert chi.conj() in sset
        assert chi.mul(chars[-1]) in sset
    for chi in chars[: min(4, len(chars))]:
        for m in range(1, N + 1):
            for n in range(1, N + 1):
                if N == 1 or math.gcd(m * n, N) == 1:
                    assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-12


def test_conductor_is_smallest_induced_modulus():
    def trivial_on(chi, N, d):
        return all(
            abs(chi(x) - 1) < 1e-12
            for x in range(1, N + 1)
            if x % d == 1 % d and math.gcd(x, N) == 1
        )

    for N in (8, 9, 12, 24):
        for chi in enumerate_characters(N):
            c = chi.conductor
            assert N % c == 0
            smallest = min(d for d in arith.divisors(N) if trivial_on(chi, N, d))
            assert c == smallest


def test_local_components_multiply():
    for N in range(2, 61):
        for chi in enumerate_characters(N):
            locs = [local_component(chi, p) for p, _ in arith.factor(N)]
            for x in range(N):
                if math.gcd(x, N) == 1:
                    v = 1
                    for lc in locs:
                        v *= lc(x)
                    assert abs(chi(x) - v) < 1e-12


def test_local_component_larger_modulus():
    for chi in enumerate_characters(9):
        if chi.conductor == 9:
            c27 = local_component(chi, 3, 27)
            for x in range(27):
                if x % 3:
                    assert abs(c27(x) - chi(x % 9)) < 1e-12


def test_local_component_rejects_bad_modulus():
    chi = [c for c in enumerate_characters(9) if c.conductor == 9][0]
    with pytest.raises(ValueError):
        local_component(chi, 3, 3)  # conductor 9 does not divide 3
    with pytest.raises(ValueError):
        local_component(chi, 3, 10)


def test_induce_roundtrip():
    for N in (9, 12, 40):
        for chi in enumerate_characters(N):
            back = induce(chi.primitive, N)
            assert back == chi


def test_pairs_with_product():
    prs = pairs_with_product(DirichletCharacter.principal(1))
    assert len(prs) == 1

    # prime level, principal product: only the principal pair survives c1*c2 | N
    prs = pairs_with_product(DirichletCharacter.principal(7))
    assert len(prs) == 1
    assert prs[0].chi1.is_principal() and prs[0].chi2.is_principal()

    # N = p^2: one pair per chi with conductor <= p
    prs = pairs_with_product(DirichletCharacter.principal(49))
    assert len(prs) == 6
    for pr in prs:
        assert pr.chi1.mul(pr.chi2).is_principal()
        assert 49 % (pr.chi1.conductor * pr.chi2.conductor) == 0
        # tau(N/(c1 c2)) is a positive integer
        assert arith.tau(49 // (pr.chi1.conductor * pr.chi2.conductor)) >= 1


def test_pair_dimension_positive():
    for N in (12, 36):
        for om in enumerate_characters(N):
            for pr in pairs_with_product(om):
                d = arith.tau(N // (pr.chi1.conductor * pr.chi2.conductor))
                assert d >= 1


def test_json_roundtrip():
    for chi in enumerate_characters(24):
        assert DirichletCharacter.from_json(chi.to_json()) == chi


def test_from_json_rejects_non_canonical_data():
    bad = [
        {"modulus": 5, "conductor": 5, "exponents": [[5, 1, [5]]]},  # 5 >= order 4
        {"modulus": 5, "conductor": 5, "exponents": [[5, 1, [-3]]]},
        {"modulus": 6, "conductor": 1, "exponents": [[5, 1, [0]]]},  # 5 does not divide 6
        {"modulus": 9, "conductor": 1, "exponents": [[3, 1, [0]]]},  # k != ord_3(9)
        {"modulus": 8, "conductor": 1, "exponents": [[2, 3, [0]]]},  # (Z/8)^* has two generators
        {"modulus": 0, "conductor": 1, "exponents": []},
    ]
    for obj in bad:
        with pytest.raises(ValueError):
            DirichletCharacter.from_json(json.dumps(obj))
    good = {"modulus": 5, "conductor": 5, "exponents": [[5, 1, [1]]]}
    assert DirichletCharacter.from_json(json.dumps(good)) == enumerate_characters(5)[1]


# ---------------------------------------------------------------- properties
# N <= 2,000 with random exponents; the oracle is the exponent-log sum as exact
# Fractions of a full turn, independent of the integer angles over lambda(N).


def oracle_angle(chi, n):
    """Fraction a in [0, 1) with chi(n) = e(a), or None off the units."""
    N = chi.modulus
    if math.gcd(n, N) != 1:
        return None
    total = Fraction(0)
    for p, vec in chi.exponents:
        q = p ** arith.ord_p(N, p)
        for e, t, o in zip(vec, arith.unit_log(n % q, q), arith.unit_group(q).orders):
            total += Fraction(e * t, o)
    return total % 1


@st.composite
def characters(draw, N=None):
    N = draw(st.integers(1, 2000)) if N is None else N
    return DirichletCharacter(N, tuple(
        (p, tuple(draw(st.integers(0, o - 1)) for o in arith.unit_group(p**k).orders))
        for p, k in arith.factor(N)))


def units_mod(N):
    return st.integers(-3 * N, 3 * N).filter(lambda n: math.gcd(n, N) == 1)


PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(characters(), st.data())
def test_values_match_the_fraction_oracle(chi, data):
    N, lam = chi.modulus, arith.carmichael(chi.modulus)
    table = chi.values()
    for n in data.draw(st.lists(st.integers(-3 * N, 3 * N), min_size=1, max_size=8)):
        a = oracle_angle(chi, n)
        if a is None:
            assert chi.angle(n) is None and chi(n) == 0 and table[n % N] == 0
            continue
        assert Fraction(chi.angle(n), lam) == a
        assert chi(n) == cmath.exp(2j * cmath.pi * float(a))
        assert table[n % N] == chi(n) == np.exp(2j * np.pi * float(a))


@PROPERTY
@given(characters(), st.data())
def test_angles_add(chi, data):
    N, lam = chi.modulus, arith.carmichael(chi.modulus)
    other = data.draw(characters(N))
    m, n = data.draw(units_mod(N)), data.draw(units_mod(N))
    assert chi.angle(m * n) == (chi.angle(m) + chi.angle(n)) % lam
    assert chi.conj().angle(n) == -chi.angle(n) % lam
    assert chi.mul(other).angle(n) == (chi.angle(n) + other.angle(n)) % lam


@PROPERTY
@given(characters(), st.data())
def test_induce_and_local_components(chi, data):
    N = chi.modulus
    assert induce(chi.primitive, N) == chi
    n = data.draw(units_mod(N))
    total = Fraction(0)
    for p, k in arith.factor(N):
        total += Fraction(local_component(chi, p).angle(n), arith.carmichael(p**k))
    assert total % 1 == Fraction(chi.angle(n), arith.carmichael(N))


def summed_local_angles(chi, x):
    """The angle of chi at x (an int or an int array) as the sum mod lambda(N) of
    one int64 log-row product per p^k || N, recomputing every weight."""
    lam = arith.carmichael(chi.modulus)
    total = 0
    for p, vec in chi.exponents:
        q = p ** arith.ord_p(chi.modulus, p)
        w = np.array([e * (lam // o) for e, o in zip(vec, arith.unit_group(q).orders)],
                     dtype=np.int64)
        total = total + arith._unit_log_table(q)[np.asarray(x) % q] @ w % lam
    return total % lam


@PROPERTY
@given(st.integers(1, 400).flatmap(characters), st.integers(-10**6, 10**6))
def test_angle_plan_matches_the_local_angle_sum(chi, n):
    lam = arith.carmichael(chi.modulus)
    for x in (n, np.int64(n)):
        if math.gcd(n, chi.modulus) != 1:
            assert chi.angle(x) is None and chi(x) == 0j
            continue
        k = int(summed_local_angles(chi, n))
        assert type(chi.angle(x)) is int and chi.angle(x) == k
        assert repr(chi(x)) == repr(cmath.exp(2j * cmath.pi * (k / lam)))


@pytest.mark.parametrize("N", range(1, 61))
def test_values_match_the_local_angle_sum(N):
    units = np.flatnonzero(np.gcd(np.arange(N), N) == 1)
    for chi in enumerate_characters(N):
        expected = np.zeros(N, dtype=complex)
        expected[units] = np.exp(2j * np.pi * (summed_local_angles(chi, units)
                                               / arith.carmichael(N)))
        assert chi.values().tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(characters())
def test_conductor_is_least_modulus_of_triviality(chi):
    N = chi.modulus

    def trivial_on(d):
        return all(chi.angle(x) == 0 for x in range(1, N + 1, d) if math.gcd(x, N) == 1)

    assert chi.conductor == min(d for d in arith.divisors(N) if trivial_on(d))


@settings(max_examples=60, deadline=None)
@given(characters(), st.integers(-10**6, 10**6))
def test_primitive_gauss_sum_has_abs_square_q(chi, m):
    prim = chi.primitive
    q = prim.modulus
    assume(math.gcd(m, q) == 1)
    assert abs(abs(gauss_sum(prim, m)) ** 2 - q) <= 1e-11 * q


# ------------------------------------------------------------ pairs
# The oracle is the global filter over all phi(N) characters mod N.


def global_pairs(omega):
    """Oracle: filter all phi(N) characters chi1 by the global conditions."""
    N = omega.modulus
    out = []
    for chi1 in enumerate_characters(N):
        chi2 = omega.mul(chi1.conj())
        if N % (chi1.conductor * chi2.conductor) == 0:
            out.append(CharacterPair(chi1, chi2))
    return out


def test_local_pairs_match_global_filter_for_even_omega():
    # pairs and their order: the continuous term sums the basis in this order
    for N in range(1, 101):
        for om in enumerate_characters(N):
            if om(-1) == 1:
                assert pairs_with_product(om) == global_pairs(om), om.label()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 400).flatmap(characters))
def test_local_pairs_match_global_filter(omega):
    assert pairs_with_product(omega) == global_pairs(omega)


def record_moduli(monkeypatch):
    from ktf_kit import characters as module
    seen = []

    def recording(M):
        seen.append(M)
        return enumerate_characters(M)

    monkeypatch.setattr(module, "enumerate_characters", recording)
    return seen


def half_powers(N):
    return {p ** (k // 2) for p, k in arith.factor(N)}


@pytest.mark.parametrize("N", [30030, 2**5 * 3**3 * 5])
def test_pairs_enumerate_only_half_powers(N, monkeypatch):
    # the principal omega, and the last one: non-trivial at every p^k with p^k > 2
    chars = enumerate_characters(N)
    for om in (chars[0], chars[-1]):
        expected = global_pairs(om)
        seen = record_moduli(monkeypatch)
        assert pairs_with_product(om) == expected
        monkeypatch.undo()
        assert seen and set(seen) <= half_powers(N)


def test_pairs_at_a_prime_level_near_one_million(monkeypatch):
    N = 1000003
    principal = DirichletCharacter.principal(N)
    quadratic = DirichletCharacter(N, ((N, ((N - 1) // 2,)),))
    seen = record_moduli(monkeypatch)
    assert pairs_with_product(principal) == [CharacterPair(principal, principal)]
    assert pairs_with_product(quadratic) == [CharacterPair(principal, quadratic),
                                             CharacterPair(quadratic, principal)]
    assert seen == [1, 1]


# ------------------------------------------------------------- per-character plans


@PROPERTY
@given(characters())
def test_primitive_is_kept_once_per_character(chi):
    assert chi.primitive is chi.primitive
    assert chi.primitive == induce(chi, chi.conductor)


@PROPERTY
@given(characters())
def test_equal_characters_share_one_plan(chi):
    # a character rebuilt from its fields, or by the algebra, reads the same plan
    assert DirichletCharacter(chi.modulus, chi.exponents)._plan is chi._plan
    assert chi.conj().conj()._plan is chi._plan
    assert induce(chi, chi.modulus)._plan is chi._plan
    assert chi.mul(DirichletCharacter.principal(chi.modulus))._plan is chi._plan


def test_enumerated_characters_share_plans_across_calls():
    first, again = enumerate_characters(60), enumerate_characters(60)
    assert all(a is not b and a._plan is b._plan for a, b in zip(first, again))

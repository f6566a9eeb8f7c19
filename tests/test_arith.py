import math

import pytest

from ktf_kit import arith


def test_factor_examples():
    assert arith.factor(1).pairs == ()
    assert arith.factor(12).pairs == ((2, 2), (3, 1))
    assert arith.factor(4913).pairs == ((17, 3),)


def test_factor_reconstructs():
    for n in range(1, 10001):
        assert arith.factor(n).value() == n


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        arith.factor(0)


def test_divisors():
    assert arith.divisors(1) == (1,)
    assert arith.divisors(12) == (1, 2, 3, 4, 6, 12)
    assert arith.divisors(13) == (1, 13)
    for n in (36, 60, 97):
        ds = arith.divisors(n)
        assert list(ds) == sorted(set(ds))
        assert all(n % d == 0 for d in ds)


@pytest.mark.parametrize("n,kind,val", [
    (6, "tau", 4),
    (30, "mu", -1),
    (6, "psi", 12),
    (6, "sigma", 12),
    (10, "phi", 4),
    (1, "tau", 1),
    (4, "mu", 0),
])
def test_multiplicative_examples(n, kind, val):
    assert arith.multiplicative_fn(n, kind) == val


@pytest.mark.parametrize("kind", ["tau", "sigma", "phi", "mu"])
def test_multiplicativity(kind):
    f = lambda n: arith.multiplicative_fn(n, kind)
    for m in range(1, 201):
        for n in range(1, 201):
            if math.gcd(m, n) == 1:
                assert f(m * n) == f(m) * f(n)


def test_crt():
    assert arith.crt([(1, 3), (1, 5)]) == (1, 15)
    assert arith.crt([(2, 3), (3, 5)]) == (8, 15)
    assert arith.crt([(0, 4), (1, 9)]) == (28, 36)
    with pytest.raises(ValueError):
        arith.crt([(0, 4), (0, 6)])


def test_unit_log_examples():
    assert arith.unit_log(1, 9) == (0,)
    assert arith.unit_log(2, 7) == (2,)   # 3^2 = 9 = 2 mod 7
    assert arith.unit_log(7, 16) == (1, 2)  # (-1) * 5^2 = -25 = 7 mod 16
    with pytest.raises(ValueError):
        arith.unit_log(3, 9)


def test_unit_log_roundtrip_all_prime_powers():
    q = 2
    qs = []
    for p in (2, 3, 5, 7, 11, 13):
        q = p
        while q <= 2048:
            qs.append(q)
            q *= p
    for q in qs:
        st = arith.unit_group(q)
        orders = st.orders
        prod = 1
        for o in orders:
            prod *= o
        assert prod == arith.phi(q)
        for x in range(1, q):
            if math.gcd(x, q) == 1:
                prod = 1
                for g, e in zip(st.generators, arith.unit_log(x, q)):
                    prod = prod * pow(g, e, q) % q
                assert prod == x


def test_carmichael_is_the_exponent_of_the_unit_group():
    assert [arith.carmichael(N) for N in (1, 2, 4, 8, 16, 15, 101)] == [1, 1, 2, 2, 4, 4, 100]
    for N in range(1, 301):
        units = [x for x in range(N) if math.gcd(x, N) == 1]
        lam = arith.carmichael(N)
        assert all(pow(x, lam, N) == 1 % N for x in units)
        # no proper divisor lam / r is an exponent
        assert all(any(pow(x, lam // r, N) != 1 % N for x in units) for r, _ in arith.factor(lam))


def test_unit_group_two_power_structure():
    st = arith.unit_group(16)
    assert st.generators == (15, 5)
    assert st.orders == (2, 4)

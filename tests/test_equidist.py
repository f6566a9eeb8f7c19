import math

import numpy as np
import pytest

from ktf_kit import equidist
from ktf_kit.characters import DirichletCharacter
from ktf_kit.equidist import (
    Measure,
    chebyshev_eval,
    equidist_scan,
    measure_moment,
    moment_report,
)
from ktf_kit.transforms import TestFunction

H = TestFunction.gaussian(1.0)


def test_chebyshev_values():
    assert chebyshev_eval(2, 0.0) == -1.0
    assert abs(chebyshev_eval(3, 1.0) + 1.0) < 1e-14  # sin(4pi/3)/sin(pi/3)
    for ell in range(9):
        assert abs(chebyshev_eval(ell, 2.0) - (ell + 1)) < 1e-12
    with pytest.raises(ValueError):
        chebyshev_eval(-1, 0.0)


def test_chebyshev_matches_trig():
    for ell in range(13):
        for th in np.linspace(0.05, math.pi - 0.05, 23):
            x = 2 * math.cos(th)
            ref = math.sin((ell + 1) * th) / math.sin(th)
            assert abs(chebyshev_eval(ell, x) - ref) < 1e-10


def test_sato_tate_orthonormality():
    st = Measure("sato_tate")
    for i in range(13):
        for j in range(13):
            mo = measure_moment(st, i, j)
            assert abs(mo - (1.0 if i == j else 0.0)) <= 1e-10


def test_modified_measure_moments():
    mod = Measure("modified", m=5, p=5)
    assert abs(measure_moment(mod, 2, 0) - 1.0) < 1e-10
    assert abs(measure_moment(mod, 0, 0) - 1.0) < 1e-10
    assert abs(measure_moment(mod, 1, 0)) < 1e-10
    # p not dividing m: plain Sato-Tate
    plain = Measure("modified", m=3, p=5)
    assert abs(measure_moment(plain, 2, 0)) < 1e-10


def test_moment_report_validation():
    with pytest.raises(ValueError):
        moment_report(10, DirichletCharacter.principal(10), 5, 0, 1, H)
    with pytest.raises(ValueError, match="got ell = -1"):
        moment_report(7, DirichletCharacter.principal(7), 2, -1, 1, H)


def test_scan_rejects_a_negative_degree_before_any_report(monkeypatch):
    def refuse(req):
        raise AssertionError("a report was computed")

    monkeypatch.setattr(equidist, "cuspidal_inferred", refuse)
    with pytest.raises(ValueError, match="got ell = -2"):
        equidist_scan(2, 1, H, [7, 11], (0, 1, -2))


def test_moment_report_predictions():
    om = DirichletCharacter.principal(7)
    r0 = moment_report(7, om, 2, 0, 1, H, abs_tol=1e-4)
    assert r0.prediction > 0
    r1 = moment_report(7, om, 2, 1, 1, H, abs_tol=1e-4)
    assert r1.prediction == 0.0
    r2 = moment_report(7, om, 2, 2, 2, H, abs_tol=1e-4)   # ell = 2, p | m
    assert r2.prediction > 0


def test_scan_ratios_l0_unity():
    rows = equidist_scan(2, 1, H, [11], (0,), abs_tol=1e-4)
    assert rows[0][4] == 1.0 and rows[0][5] == 0.0


def test_scan_computes_the_zeroth_moment_once_per_level(monkeypatch):
    N, p, m = 11, 2, 1
    omega = DirichletCharacter.principal(N)
    base = moment_report(N, omega, p, 0, m, H, abs_tol=1e-4)
    expected = []
    for ell in (0, 1, 2):
        rep = moment_report(N, omega, p, ell, m, H, abs_tol=1e-4)
        ratio = rep.lhs / base.lhs
        expected.append((N, p, m, ell, float(ratio.real), float(ratio.imag), rep.prediction))
    inner, calls = equidist.cuspidal_inferred, []

    def counted(req):
        calls.append(req.n)
        return inner(req)

    monkeypatch.setattr(equidist, "cuspidal_inferred", counted)
    assert equidist_scan(p, m, H, [N], (0, 1, 2), abs_tol=1e-4) == expected
    assert calls == [1, 2, 4]  # n = p^ell, the ell = 0 report reused

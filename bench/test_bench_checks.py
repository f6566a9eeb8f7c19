"""The benchmark's own checks reject wrong values, and the tracer survives a
missing boundary (fast, small inputs).

    PYTHONPATH=src python -m pytest -q bench/test_bench_checks.py
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ktf_kit import cli, expsums, ktf, specfun  # noqa: E402
from ktf_kit.characters import DirichletCharacter, enumerate_characters  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


def _report_text(N: int, ratio: float) -> str:
    """A ktf report whose cuspidal side is ratio * J psi(N), all else consistent."""
    J, P = checks.gaussian_tanh_integral(), checks.psi(N)
    g1, s1 = P * J, ratio * J * P
    return json.dumps({"geo_main": [g1, 0.0], "geo_kloosterman": [s1 - g1 + 0.5, 0.0],
                       "spec_continuous": [0.5, 0.0], "spec_cuspidal_inferred": [s1, 0.0],
                       "ratio_to_J_psi": ratio, "tail_bound": 1e-5, "c_terms_used": 100,
                       "t_quadrature_error": 1e-16})


def _block_row(q, **override):
    d = expsums.kloosterman(q, "direct")
    cert = expsums.weil_certificate(q)
    row = {"query": (q.a, q.b, q.n, q.c, q.chi.modulus),
           "cond": checks.conductor(q.chi, q.chi.modulus), "direct": d,
           "factored": expsums.kloosterman(q, "factored"),
           "salie": expsums.kloosterman(q, "salie"),
           "cert_value": cert.value, "cert_satisfied": cert.satisfied,
           "reference": checks.brute_kloosterman(q.a, q.b, q.n, q.c, q.chi, q.chi.modulus)}
    row.update(override)
    return row


def test_helpers_match_closed_forms():
    assert [checks.psi(N) for N in (1, 4, 7, 12)] == [1, 6, 8, 24]
    assert checks.ramanujan_sum(0, 12) == 4 and checks.ramanujan_sum(1, 12) == 0
    assert checks.conductor(DirichletCharacter.principal(12), 12) == 1
    assert sorted(checks.conductor(c, 5) for c in enumerate_characters(5)) == [1, 5, 5, 5]
    classical = checks.brute_kloosterman(1, 1, 1, 3, DirichletCharacter.principal(1), 1)
    assert abs(classical - (-1)) < 1e-12    # S(1, 1; 3) = -1


def test_kloosterman_value_off_by_1e6_is_rejected():
    chi = enumerate_characters(5)[1]
    q = expsums.KloostermanQuery(2, 3, 1, 20, chi)
    assert checks.check_kloosterman_block([_block_row(q)])[1] == []
    for key in ("factored", "salie", "cert_value", "reference"):
        row = _block_row(q)
        row[key] += 1e-6
        assert checks.check_kloosterman_block([row])[1], key


def test_weil_bound_excess_is_rejected():
    q = expsums.KloostermanQuery(1, 1, 1, 7, DirichletCharacter.principal(1))
    b1, b2 = checks.weil_bounds(1, 1, 1, 7, 1)
    big = 1.01 * min(b1, b2)
    row = _block_row(q, direct=big, factored=big, salie=big, cert_value=big, reference=big)
    assert checks.check_kloosterman_block([row])[1]
    assert checks.check_kloosterman_block([_block_row(q, cert_satisfied=(True, False))])[1]


def test_ratio_outside_band_is_rejected():
    assert checks.check_ktf_report(7, 0, _report_text(7, 1.0))[1] == []
    assert checks.check_ktf_report(7, 0, _report_text(7, 1.2))[1]
    assert checks.check_ktf_report(7, 0, _report_text(7, 0.85))[1]


def test_geo_main_off_is_rejected():
    doc = json.loads(_report_text(7, 1.0))
    doc["geo_main"][0] *= 1 + 1e-9
    assert checks.check_ktf_report(7, 0, json.dumps(doc))[1]


def test_failed_cli_exit_is_rejected():
    code = cli.main(["ktf", "--N", "7"])      # no --h: a usage error
    assert code != 0
    assert checks.check_ktf_report(7, code, "")[1]
    assert checks.check_ktf_report(7, 0, "not json")[1]


def test_level_trend_is_rejected_when_a_gap_grows():
    workload = workloads.build("ktf_levels", 1)

    def verdict(ratio, m1, m2):
        return ({"ratio": ratio, "moment_l1_ratio_re": m1, "moment_l1_ratio_im": 0.0,
                 "moment_l2_ratio_re": m2, "moment_l2_ratio_im": 0.0}, [])

    good = [verdict(0.92, -0.2, 0.03), verdict(0.98, -0.03, -0.02), verdict(0.99, -0.01, -0.007)]
    assert workload.trend(good) == {}
    # |1 - ratio| at N = 1009 above N = 401
    assert list(workload.trend(good[:2] + [verdict(0.97, -0.01, -0.007)])) == [2]
    # |moment l = 1| at N = 401 above N = 101
    assert list(workload.trend([good[0], verdict(0.98, 0.3, -0.02), good[2]])) == [1]


def test_crosscheck_delta_above_1e8_is_rejected():
    ok = {"geo_main": 0.0, "geo_kloosterman": 1e-9, "spec_continuous": 1e-15}
    assert checks.check_crosscheck(ok)[1] == []
    assert checks.check_crosscheck(dict(ok, geo_kloosterman=2e-8))[1]
    assert checks.check_crosscheck(dict(ok, spec_continuous=math.nan))[1]


def test_hecke_and_bessel_errors_are_rejected():
    assert checks.check_hecke([(1 + 1j, 1 + 1j)])[1] == []
    assert checks.check_hecke([(1 + 1j, 1 + 1j + 1e-11)])[1]
    t, x = 0.7, 3.0
    exact = checks.mpmath_j2it(t, x)
    assert checks.check_bessel([(t, x)], [exact])[1] == []
    assert checks.check_bessel([(t, x)], [exact * (1 + 1e-8)])[1]


def test_tracer_reports_a_missing_boundary_as_absent(monkeypatch):
    monkeypatch.delattr(ktf, "j2it_values")
    geo_main = ktf.geo_main
    tracer = Tracer()
    tracer.install()
    try:
        assert ktf.geo_main is not geo_main and ktf.geo_main.__wrapped__ is geo_main
        specfun.bessel_J_2it(0.5, 1.0)
    finally:
        tracer.uninstall()
    assert ktf.geo_main is geo_main
    values, absent = tracer.per_layer(expsums)
    assert sorted(absent) == sorted(m for m in PER_LAYER if m.startswith("specfun.j2it_values"))
    assert set(values) | set(absent) == set(PER_LAYER)
    assert tracer.layer_totals()["specfun.bessel_J_2it"]["calls"] == 1

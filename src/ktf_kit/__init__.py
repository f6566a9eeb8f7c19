"""ktf-kit: exponential sums, Eisenstein data and a computable Kuznetsov trace formula."""

from .arith import crt, divisors, factor, multiplicative_fn, unit_group, unit_log
from .characters import (
    CharacterPair,
    DirichletCharacter,
    enumerate_characters,
    local_component,
    pairs_with_product,
)
from .eisenstein import (
    EisensteinBasisElement,
    eisenstein_eval,
    enumerate_basis,
    lambda_n_eis,
    residue_half,
    sigma_s,
)
from .equidist import Measure, chebyshev_eval, equidist_scan, measure_moment, moment_report
from .expsums import (
    KloostermanQuery,
    WeilCertificate,
    gauss_sum,
    kloosterman,
    kloosterman_local,
    salie_eval,
    selberg_identity,
    quad_solution_count,
    weil_certificate,
)
from .ktf import (
    KtfReport,
    KtfRequest,
    SpectralDatum,
    classical_crosscheck,
    cuspidal_from_data,
    cuspidal_inferred,
    geo_kloosterman,
    geo_main,
    hecke_sigma_identity,
    spec_continuous,
    t_predicate,
)
from .specfun import bessel_J_2it, bessel_K_it, gamma_complex, k_squared_integral
from .transforms import (
    GridFunction,
    TestFunction,
    admissible_check,
    q_from_h,
    roundtrip_h,
    selfdual_half_integral,
    v_from_q,
    v_zero,
    zagier_hat,
    zagier_transform,
)

__version__ = "0.1.0"

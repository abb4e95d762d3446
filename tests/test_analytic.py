"""Tests for the closed-form expressions.

The frozen ten-digit values were produced by this implementation once the
conventions were locked, and guard against silent regressions; the formula
identities below them are convention independent.
"""

import math

import pytest

from hybridcat import analytic
from hybridcat.errors import ValidationError
from hybridcat.pipeline import SchemeConfig


def test_normalization_constant_values():
    assert abs(analytic.n_phi(1.0, math.pi) - 0.760433311589) < 1e-10
    assert abs(analytic.n_phi(0.5, 0.0) - 0.557879615689) < 1e-10


def test_normalization_constant_formula():
    for alpha, phi in ((0.7, math.pi), (1.2, 0.0), (0.9, 1.1)):
        direct = 1.0 / math.sqrt(
            2.0 * (1.0 + math.cos(phi) * math.exp(-2.0 * alpha * alpha))
        )
        assert abs(analytic.n_phi(alpha, phi) - direct) < 1e-14


def test_scs_fidelity_quoted_spots():
    assert abs(analytic.scs_fidelity(0.7, 0.161) - 0.999799504848) < 1e-10
    assert abs(analytic.scs_fidelity(1.0, 0.313) - 0.997113757284) < 1e-10


def test_ideal_success_probability_value():
    assert abs(analytic.p_success_ideal(1.0, 0.9) - 2.367191401491e-02) < 1e-13


def test_detector_fidelity_formula_and_values():
    assert abs(analytic.fidelity_eta(0.7, 0.99, 0.7) - 0.998517354109) < 1e-10
    assert abs(analytic.fidelity_eta(1.0, 0.99, 0.9) - 0.998990918607) < 1e-10
    for alpha_f, t, eta in ((0.7, 0.9, 0.7), (1.0, 0.99, 0.9)):
        direct = 0.5 * (
            1.0
            + math.exp(-2.0 * (1.0 - eta) * (1.0 / t - 1.0) * alpha_f * alpha_f)
        )
        assert abs(analytic.fidelity_eta(alpha_f, t, eta) - direct) < 1e-14


def test_detector_fidelity_ideal_limit():
    for alpha_f in (0.5, 1.0, 1.5):
        assert abs(analytic.fidelity_eta(alpha_f, 0.9, 1.0) - 1.0) < 1e-15


def test_total_probability_value_and_eta_one_limit():
    assert abs(analytic.p_tot_eta(0.7, 0.99, 0.7) - 3.832845092191e-03) < 1e-14
    # at unit efficiency the detected total is four times the single-pattern
    # ideal probability (two patterns, and the convention factor)
    for alpha_f, t in ((0.7, 0.9), (1.0, 0.99)):
        full = analytic.p_tot_eta(alpha_f, t, 1.0)
        single = analytic.p_success_ideal(alpha_f / math.sqrt(t), t)
        assert abs(full - 4.0 * single) < 1e-15


def test_asymptotic_optimum():
    alpha = 10.0
    t = 1.0 - 1.0 / (2.0 * alpha * alpha)
    peak = analytic.p_success_ideal(alpha, t)
    assert abs(peak - 1.0 / (8.0 * math.e)) / (1.0 / (8.0 * math.e)) < 0.01


def test_ideal_negativity_values_and_formula():
    assert abs(analytic.ideal_negativity(0.7) - 0.926898904455) < 1e-10
    assert abs(analytic.ideal_negativity(1.0) - 0.990799859261) < 1e-10
    for alpha_f in (0.3, 0.8, 1.4):
        direct = math.sqrt(1.0 - math.exp(-4.0 * alpha_f * alpha_f))
        assert abs(analytic.ideal_negativity(alpha_f) - direct) < 1e-14


def test_ideal_negativity_saturates():
    assert analytic.ideal_negativity(3.0) > 0.99999
    assert analytic.ideal_negativity(0.05) < 0.1


def test_effective_fidelity_weighting():
    # frozen decomposition of the first conversion spot
    f = analytic.f_eff(
        p_vac=1.264713567e-08,
        p_chi=9.766780704e-04,
        p_phi2=4.260359997e-02,
        lam=0.022,
        f_chi=0.996240187,
    )
    assert abs(f - 0.950731578) < 1e-8


def test_effective_fidelity_pure_pair_limit():
    # without vacuum and double-pair pollution the effective fidelity is
    # the heralded single-pair fidelity itself
    f = analytic.f_eff(p_vac=0.0, p_chi=1e-3, p_phi2=0.0, lam=0.03, f_chi=0.97)
    assert abs(f - 0.97) < 1e-14


def test_convention_factor_documented_value():
    assert analytic.PROBABILITY_CONVENTION_FACTOR == 0.5


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "name, args",
    [
        ("n_phi", (NAN, math.pi)),
        ("n_phi", (1.0, NAN)),
        ("p_success_ideal", (NAN, 0.9)),
        ("p_success_ideal", (True, 0.9)),
        ("p_success_ideal", (-1.0, 0.9)),
        ("p_success_ideal", (1.0, True)),
        ("ideal_negativity", (NAN,)),
        ("ideal_negativity", (-0.5,)),
        ("scs_fidelity", (NAN, 0.1)),
        ("scs_fidelity", (1.0, NAN)),
        ("scs_fidelity", (0.0, 0.1)),
        ("scs_fidelity", (1.0, -0.1)),
        ("fidelity_eta", (NAN, 0.9, 0.5)),
        ("fidelity_eta", (1.0, 0.9, True)),
        ("p_tot_eta", (INF, 0.9, 0.5)),
        ("p_tot_eta", (1.0, 1.5, 0.5)),
        ("f_eff", (NAN, 1e-3, 0.0, 0.02, 0.9)),
        ("f_eff", (0.0, True, 0.0, 0.02, 0.9)),
        ("f_eff", (0.0, 1e-3, -1.0, 0.02, 0.9)),
        ("f_eff", (0.0, 1e-3, 0.0, 1.0, 0.9)),
        ("f_eff", (0.0, 1e-3, 0.0, 0.02, NAN)),
    ],
    ids=repr,
)
def test_closed_forms_refuse_what_the_config_refuses(name, args):
    with pytest.raises(ValidationError):
        getattr(analytic, name)(*args)


def test_closed_forms_share_the_configs_ranges():
    def message(call):
        with pytest.raises(ValidationError) as info:
            call()
        return str(info.value)

    squeezed = dict(t=0.99, eta=0.7, alpha_i=0.7, scs_source="squeezed")
    assert message(lambda: analytic.scs_fidelity(1.0, -0.1)) == message(
        lambda: SchemeConfig(**squeezed, s=-0.1)
    )
    assert message(lambda: analytic.f_eff(0.0, 1e-3, 0.0, 1.0, 0.9)) == message(
        lambda: SchemeConfig(t=0.99, eta=0.5, alpha_i=0.7, pair_source="spdc", lam=1.0)
    )
    # a cat whose normalization diverges, which the config's alpha refusal
    # does not reach: alpha_i = 0 at phi = pi
    assert message(lambda: analytic.n_phi(0.0, math.pi)) == message(
        lambda: SchemeConfig(t=0.9, eta=0.9, alpha_i=0.0)
    )

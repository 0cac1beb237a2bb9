"""Noise calibration and accountant tests."""

import math
import random
from array import array

import pytest

from netshaper.dpcore import (
    DpParams,
    compose_to_dp,
    gaussian_draws,
    gaussian_sigma,
    rdp_epsilon_gaussian,
    sample_gaussian,
    sigma_for_budget,
    tamaraw_gamma_bound,
)
from netshaper.errors import ConfigError

MB = 1e6


# --- DpParams ---


def test_params_validation():
    p = DpParams(1.0, 1e-6, 2.5 * MB, interval=1_000_000_000, window=5_000_000_000)
    assert p.intervals_per_window == 5
    with pytest.raises(ConfigError):
        DpParams(1.0, 1e-6, 2.5 * MB, interval=1_000, window=2_500)
    with pytest.raises(ConfigError):
        DpParams(0.0, 1e-6, 2.5 * MB, interval=1_000, window=2_000)
    with pytest.raises(ConfigError):
        DpParams(1.0, 1.5, 2.5 * MB, interval=1_000, window=2_000)
    with pytest.raises(ConfigError):
        DpParams(1.0, 1e-6, -1.0, interval=1_000, window=2_000)
    with pytest.raises(ConfigError):
        DpParams(1.0, 1e-6, 1.0, interval=1_000, window=2_000, cutoff=0)


def test_domain_errors_of_params_sampler_and_composer():
    with pytest.raises(ConfigError):
        DpParams(1.0, 1e-6, 1.0, interval=0, window=2_000)
    with pytest.raises(ConfigError):
        sample_gaussian(-1.0, random.Random(1))
    for args in ((1.0, 1.0, -1, 1e-6), (1.0, 1.0, 5, 0.0), (1.0, 0.0, 5, 1e-6)):
        with pytest.raises(ConfigError):
            compose_to_dp(*args)


# --- gaussian_sigma ---


def test_gaussian_sigma_analytic_point():
    # ln(1.25/delta) = 2 forces sigma^2 = (2/4)*2 = 1
    delta = 1.25 * math.exp(-2)
    assert gaussian_sigma(1.0, 2.0, delta) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_sigma_linear_in_sensitivity():
    s1 = gaussian_sigma(1.0, 0.7, 1e-5)
    s2 = gaussian_sigma(2.0, 0.7, 1e-5)
    assert s2 == pytest.approx(2 * s1, rel=1e-14)


def test_gaussian_sigma_paper_scale_point():
    got = gaussian_sigma(2.5 * MB, 1.0, 1e-6)
    assert got == pytest.approx(2.5 * MB * math.sqrt(2 * math.log(1.25e6)), rel=1e-12)
    assert got == pytest.approx(13.25 * MB, rel=1e-3)


def test_gaussian_sigma_domain_errors():
    for args in [(0, 1, 1e-6), (1, 0, 1e-6), (1, 1, 0.0), (1, 1, 1.0)]:
        with pytest.raises(ConfigError):
            gaussian_sigma(*args)


# --- sample_gaussian ---


def test_sample_zero_sigma():
    assert sample_gaussian(0.0, random.Random(1)) == 0.0


def test_sample_deterministic_under_seed():
    a = [sample_gaussian(5.0, random.Random(42)) for _ in range(1)]
    b = [sample_gaussian(5.0, random.Random(42)) for _ in range(1)]
    assert a == b
    rng1, rng2 = random.Random(7), random.Random(7)
    assert [sample_gaussian(3.0, rng1) for _ in range(100)] == [
        sample_gaussian(3.0, rng2) for _ in range(100)
    ]


def test_sample_moments():
    rng = random.Random(12345)
    n = 1_000_000
    draws = [sample_gaussian(100.0, rng) for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / n
    assert abs(mean) < 1.0
    assert abs(math.sqrt(var) - 100.0) < 1.0


# --- gaussian_draws ---

# At the smallest subnormal sigma, z * sigma rounds to -0.0 for small negative z,
# and gauss returns 0.0 + (-0.0) = +0.0 there.
DRAW_SIGMAS = (1.0, 0.37, 25_000.0, 5e-324)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000, 60_000])
def test_gaussian_draws_are_gauss_bit_for_bit(n):
    # 24 seeds, each sigma on six of them; odd seeds enter with gauss's
    # spare value cached, so odd and even n each leave it set and unset.
    for seed in range(24):
        sigma = DRAW_SIGMAS[seed // 2 % len(DRAW_SIGMAS)]
        ref, rng = random.Random(seed), random.Random(seed)
        if seed % 2:
            ref.gauss()
            rng.gauss()
            assert rng.gauss_next is not None
        want = [ref.gauss(0.0, sigma) for _ in range(n)]
        got = gaussian_draws(sigma, rng, n)
        assert type(got) is list and set(map(type, got)) <= {float}
        assert array("d", got).tobytes() == array("d", want).tobytes()  # bit for bit
        assert rng.getstate() == ref.getstate()  # gauss_next included
        assert rng.gauss() == ref.gauss()


def test_gaussian_draws_match_sample_gaussian():
    ref, rng = random.Random(11), random.Random(11)
    assert gaussian_draws(40.0, rng, 9) == [sample_gaussian(40.0, ref) for _ in range(9)]
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("cached", [False, True])
def test_gaussian_draws_at_zero_sigma_consume_nothing(cached):
    rng = random.Random(3)
    if cached:
        rng.gauss()
    state = rng.getstate()
    draws = gaussian_draws(0.0, rng, 1000)
    assert array("d", draws).tobytes() == bytes(8000)  # +0.0, not -0.0
    assert gaussian_draws(0.0, rng, 0) == [] and gaussian_draws(5.0, rng, 0) == []
    assert rng.getstate() == state


def test_gaussian_draws_reject_negative_sigma():
    with pytest.raises(ConfigError):
        gaussian_draws(-1.0, random.Random(1), 3)


# --- rdp_epsilon_gaussian ---


def test_rdp_formula_collapse():
    assert rdp_epsilon_gaussian(3.0, 3.0, 2.0) == 1.0


def test_rdp_scale_invariance():
    a = rdp_epsilon_gaussian(2.5, 13.25, 10.0)
    b = rdp_epsilon_gaussian(25.0, 132.5, 10.0)
    assert a == pytest.approx(b, rel=1e-14)
    assert a == pytest.approx(10 * 6.25 / (2 * 13.25**2), rel=1e-12)
    assert a == pytest.approx(0.178, rel=1e-2)


def test_rdp_domain_errors():
    with pytest.raises(ConfigError):
        rdp_epsilon_gaussian(1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        rdp_epsilon_gaussian(1.0, 0.0, 2.0)


# --- compose_to_dp ---


def test_compose_zero_queries():
    report = compose_to_dp(2.5 * MB, 1.0, 0, 1e-6)
    assert report.epsilon_total == 0.0
    assert report.queries == 0


def test_compose_matches_analytic_conversion():
    # With the analytic order included, the minimum equals
    # rho + 2*sqrt(rho*ln(1/delta)) for pure Gaussian composition.
    delta_w, sigma, n, delta = 2.5 * MB, 20 * MB, 12, 1e-6
    rho = n * delta_w**2 / (2 * sigma**2)
    expect = rho + 2 * math.sqrt(rho * math.log(1 / delta))
    report = compose_to_dp(delta_w, sigma, n, delta)
    assert report.epsilon_total == pytest.approx(expect, rel=1e-12)
    assert report.alpha_star == pytest.approx(1 + math.sqrt(math.log(1 / delta) / rho), rel=1e-9)


def test_compose_paper_golden_numbers():
    sigma = sigma_for_budget(2.5 * MB, 1.0, 1e-6, 5)
    eps_300 = compose_to_dp(2.5 * MB, sigma, 300, 1e-6).epsilon_total
    eps_3600 = compose_to_dp(2.5 * MB, sigma, 3600, 1e-6).epsilon_total
    assert eps_300 == pytest.approx(8.92, rel=0.05)
    assert eps_3600 == pytest.approx(38.8, rel=0.05)
    # regression pins for this accountant
    assert eps_300 == pytest.approx(8.6588, rel=2e-3)
    assert eps_3600 == pytest.approx(38.942, rel=2e-3)


def test_compose_monotone_in_queries_and_sigma():
    rng = random.Random(5)
    for _ in range(20):
        delta_w = rng.uniform(0.1, 10.0)
        sigma = rng.uniform(0.5, 50.0)
        delta = 10 ** -rng.uniform(3, 9)
        eps = [compose_to_dp(delta_w, sigma, n, delta).epsilon_total for n in (1, 2, 5, 17, 100)]
        assert eps == sorted(eps)
        by_sigma = [
            compose_to_dp(delta_w, s, 10, delta).epsilon_total
            for s in (sigma, 2 * sigma, 4 * sigma)
        ]
        assert by_sigma[0] > by_sigma[1] > by_sigma[2]


def test_single_query_close_to_classical_calibration():
    for eps in (0.05, 0.2, 0.5, 1.0):
        for delta in (1e-5, 1e-6, 1e-8):
            sigma = gaussian_sigma(1.0, eps, delta)
            total = compose_to_dp(1.0, sigma, 1, delta).epsilon_total
            assert total <= 1.2 * eps


def test_compose_invariant_to_scaling_sensitivity_and_sigma():
    # A stream at distance k*delta_w behaves like sensitivity k*delta_w: the
    # composed loss is invariant to scaling (delta_w, sigma) together.
    delta_w, eps, delta, n, k = 1.0, 0.4, 1e-6, 25, 3
    sigma = gaussian_sigma(delta_w, eps, delta)
    direct = compose_to_dp(k * delta_w, k * sigma, n, delta).epsilon_total
    assert direct == pytest.approx(compose_to_dp(delta_w, sigma, n, delta).epsilon_total, rel=1e-12)


# --- sigma_for_budget ---


def test_sigma_budget_roundtrip():
    rng = random.Random(9)
    for _ in range(10):
        delta_w = rng.uniform(0.5, 5.0)
        eps = rng.uniform(0.2, 50.0)
        delta = 10 ** -rng.uniform(4, 8)
        n = rng.randint(1, 500)
        sigma = sigma_for_budget(delta_w, eps, delta, n)
        total = compose_to_dp(delta_w, sigma, n, delta).epsilon_total
        assert total <= eps
        assert total >= eps * 0.998


def test_sigma_budget_paper_points():
    s_loose = sigma_for_budget(2.5 * MB, 200.0, 1e-6, 4)
    assert 0.26 * MB <= s_loose <= 0.38 * MB
    s_tight = sigma_for_budget(2.5 * MB, 1.0, 1e-6, 4)
    assert 9 * MB <= s_tight <= 36 * MB  # plot-read 18 MB, factor-of-2 band


def test_sigma_budget_domain_errors():
    with pytest.raises(ConfigError):
        sigma_for_budget(1.0, 0.0, 1e-6, 5)
    with pytest.raises(ConfigError):
        sigma_for_budget(1.0, 1.0, 1e-6, 0)


def test_sigma_budget_rejects_an_unbounded_budget():
    for eps in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            sigma_for_budget(1.0, eps, 1e-6, 5)


def test_sigma_budget_below_half_the_classical_sigma():
    # At delta near 1 the classical sigma is over twice the smallest one
    # within budget, so the search first halves its lower end.
    sigma = sigma_for_budget(1.0, 0.01, 0.999, 1)
    assert sigma < gaussian_sigma(1.0, 0.01, 0.999) / 2
    assert compose_to_dp(1.0, sigma, 1, 0.999).epsilon_total <= 0.01
    assert compose_to_dp(1.0, sigma * (1 - 2e-3), 1, 0.999).epsilon_total > 0.01


# --- tamaraw_gamma_bound ---


def test_tamaraw_uniform_guessing():
    assert tamaraw_gamma_bound(0.0, 100) == 0.01


def test_tamaraw_saturates():
    assert tamaraw_gamma_bound(math.log(100), 100) == 1.0


def test_tamaraw_paper_corpus_point():
    got = tamaraw_gamma_bound(1.0, 96)
    assert got == pytest.approx(math.e / 96, rel=1e-12)
    assert got == pytest.approx(0.0283, rel=1e-2)


def test_tamaraw_roundtrip_exact_when_loss_is_small():
    # For ln(n*gamma) in [0, 1] the float rounding of the log stays under half
    # an ulp of the result, so the round trip is exact; larger magnitudes can
    # be off by a few ulps and are covered by the high-precision spot checks.
    for n in (1, 2, 10, 96, 100, 1000):
        for c in (1.0, 1.25, 1.5, 2.0, 2.5):
            gamma = c / n
            if gamma > 1.0:
                continue
            assert tamaraw_gamma_bound(math.log(n * gamma), n) == gamma


def test_tamaraw_domain_errors():
    with pytest.raises(ConfigError):
        tamaraw_gamma_bound(1.0, 0)
    with pytest.raises(ConfigError):
        tamaraw_gamma_bound(-0.1, 10)

"""Closed-form factors, updated prior factors and dominance sweeps."""

import math

import numpy as np
import pytest

from dysrates import (ParameterRanges, PreconditionError, averagedness_thm41,
                      contraction_thm31, contraction_thm32, contraction_thm33,
                      default_eps, default_eta, dominance_check, rates)
from dysrates.rates import (PLACEMENTS, prior_d61, prior_d62, prior_d63,
                            prior_d64, prior_d65, prior_d66)
from oracles import thm32_rho


# ---------------------------------------------------------------------------
# spot values (hand substitutions)
# ---------------------------------------------------------------------------

def test_thm31_all_ones():
    report = contraction_thm31(1.0, 1.0, 1.0, 1.0, 1.0)
    assert abs(report.rho - 2.0 / 3.0) < 1e-12


def test_thm32_all_ones():
    report = contraction_thm32(1.0, 1.0, 1.0, 1.0, 1.0)
    assert abs(report.rho - math.sqrt(2.0 / 3.0)) < 1e-12


def test_thm33_all_ones():
    report = contraction_thm33(1.0, 1.0, 1.0, 1.0, 1.0)
    assert abs(report.rho - math.sqrt(0.5)) < 1e-12


def test_thm41_all_ones():
    report = averagedness_thm41(1.0, 1.0, 1.0)
    assert abs(report.theta - 2.0 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# limits and symmetry
# ---------------------------------------------------------------------------

def test_thm31_vanishing_mu_limit():
    assert contraction_thm31(1.0, 1.0, 1.0, 1e-13, 1.0).rho > 1 - 1e-6


def test_thm32_vanishing_mu_limit():
    assert contraction_thm32(1.0, 1.0, 1.0, 1.0, 1e-13).rho > 1 - 1e-6


def test_thm33_vanishing_mu_c_limit():
    assert contraction_thm33(1.0, 1.0, 1.0, 1e6, 1e-13).rho > 1 - 1e-6


def test_thm41_limits():
    assert averagedness_thm41(1e-9, 1.0, 1.0).theta == pytest.approx(0.5)
    assert averagedness_thm41(2.0 - 1e-9, 1.0, 1.0).theta == \
        pytest.approx(1.0, abs=1e-6)


def test_role_symmetry():
    args = (0.9, 1.1, 1.2, 0.4, 1.3)
    assert contraction_thm31(*args, role="A").rho == \
        contraction_thm31(*args, role="B").rho
    assert contraction_thm32(*args, role="A_lip_B_sm").rho == \
        contraction_thm32(*args, role="A_sm_B_lip").rho
    mu_c = 0.5
    assert contraction_thm33(0.9, 1.1, 1.2, 1.3, mu_c, role="A_lip").rho == \
        contraction_thm33(0.9, 1.1, 1.2, 1.3, mu_c, role="B_lip").rho
    assert averagedness_thm41(0.5, 1.0, 1.0, role="A_sm").theta == \
        averagedness_thm41(0.5, 1.0, 1.0, role="B_sm").theta


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------

def test_lambda_window_violation_names_inequality():
    with pytest.raises(PreconditionError) as err:
        contraction_thm31(1.0, 1.9, 1.0, 1.0, 1.0)
    assert "lambda < 2 - alpha/(2 beta_C)" in str(err.value)


def test_alpha_window_violation():
    with pytest.raises(PreconditionError) as err:
        contraction_thm31(5.0, 0.1, 1.0, 1.0, 1.0)
    assert "0 < alpha < 4 beta_C" in str(err.value)


def test_mu_exceeding_l_rejected():
    with pytest.raises(PreconditionError) as err:
        contraction_thm31(1.0, 1.0, 1.0, 2.0, 1.0)
    assert "0 < mu <= L" in str(err.value)


def test_mu_c_window_rejected():
    with pytest.raises(PreconditionError) as err:
        contraction_thm33(1.0, 1.0, 1.0, 1.0, 1.5)
    assert "0 < mu_C <= 1/beta_C" in str(err.value)


def test_thm41_alpha_window():
    with pytest.raises(PreconditionError) as err:
        averagedness_thm41(2.5, 1.0, 1.0)
    assert "0 < alpha < 2 mu / L_C^2" in str(err.value)


def test_epsilon_window_enforced():
    with pytest.raises(PreconditionError) as err:
        prior_d62(1.0, 0.5, 1.0, 1.0, 1.0, eps=0.3)  # needs eps > 1/2
    assert "epsilon in (alpha/(2 beta_C), 1)" in str(err.value)


# ---------------------------------------------------------------------------
# contraction over the stated windows
# ---------------------------------------------------------------------------

def test_rho_below_one_on_grid():
    alphas = np.linspace(0.05, 3.6, 10)
    lams_frac = np.linspace(0.05, 0.95, 10)
    mus = np.linspace(0.1, 2.0, 10)
    ls = np.linspace(0.1, 2.0, 10)
    beta_c = 1.0
    count = 0
    for alpha in alphas:
        lam_hi = 2.0 - alpha / (2.0 * beta_c)
        for frac in lams_frac:
            lam = frac * lam_hi
            for mu0 in mus:
                for l0 in ls:
                    mu, L = min(mu0, l0), max(mu0, l0)
                    assert contraction_thm31(alpha, lam, beta_c, mu,
                                             L).rho < 1
                    assert contraction_thm32(alpha, lam, beta_c, L,
                                             mu).rho < 1
                    mu_c = min(mu, 1.0 / beta_c)
                    assert contraction_thm33(alpha, lam, beta_c, L,
                                             mu_c).rho < 1
                    count += 1
    assert count == 10_000


def test_rho_monotone_nonincreasing_in_mu():
    alpha, lam, beta_c, L = 0.8, 0.9, 1.2, 1.5
    mus = np.linspace(0.05, 1.5, 40)
    rhos31 = [contraction_thm31(alpha, lam, beta_c, mu, L).rho for mu in mus]
    rhos32 = [contraction_thm32(alpha, lam, beta_c, L, mu).rho for mu in mus]
    assert all(a >= b - 1e-12 for a, b in zip(rhos31, rhos31[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(rhos32, rhos32[1:]))


# ---------------------------------------------------------------------------
# updated priors
# ---------------------------------------------------------------------------

def test_prior_d61_hand_substitution():
    report = prior_d61(1.0, 1.0, 1.0, 1.0, 1.0)
    assert abs(report.rho - math.sqrt(0.5)) < 1e-12


def test_prior_d63_finite_below_one():
    report = prior_d63(1.0, 0.5, 1.0, 1.0, 1.0, eps=0.75)
    # min args: 2*1/4 = 1/2 and (0.5/3)*((2-0.75)/0.5 - 1) = 0.25
    assert abs(report.rho - math.sqrt(1.0 - 0.25 / 6.0)) < 1e-12
    assert report.rho < 1.0


def test_default_constants_are_window_midpoints():
    alpha, beta_c = 1.0, 1.0
    eps = default_eps(alpha, beta_c)
    assert eps == pytest.approx((0.5 + 1.0) / 2.0)
    eta = default_eta(alpha, beta_c, eps)
    assert eta == pytest.approx((alpha / (2 * beta_c * eps) + 1.0) / 2.0)


def test_placement_priors_give_six_labeled_reports():
    eps = default_eps(1.0, 1.0)
    values = {"alpha": 1.0, "lambda": 1.0, "epsilon": eps,
              "eta": default_eta(1.0, 1.0, eps)}
    values.update({f"{op}.{p}": 1.0 for op in "ABC"
                   for p in ("mu", "L", "beta")})
    reports = {}
    for row in PLACEMENTS:
        for label, form, args in row.priors:
            report = getattr(rates, form)(*(values[s] for s in args))
            assert report.theorem == label
            reports.setdefault(label, report)
    assert sorted(reports) == \
        ["D.6.1", "D.6.2", "D.6.3", "D.6.4", "D.6.5", "D.6.6"]
    assert all(0 < r.rho < 1 for r in reports.values())


def _named(source):
    op, param = source.split(".")
    return f"{param}_{op}"


def test_prior_parameters_are_named_after_their_sources():
    # every prior of the table, called as compare calls it
    eps = default_eps(1.0, 1.0)
    good = {"alpha": 1.0, "lambda": 1.0, "epsilon": eps,
            "eta": default_eta(1.0, 1.0, eps)}
    good.update({f"{op}.{p}": 1.0 for op in "ABC"
                 for p in ("mu", "L", "beta")})
    bad = {**good, **{f"{op}.mu": -1.0 for op in "ABC"}}
    for row in PLACEMENTS:
        for label, form, args in row.priors:
            mu_l = [s for s in args if s.endswith((".mu", ".L"))]
            params = rates._prior(form, args, good).parameters
            assert {k for k in params if k.startswith(("mu_", "L_"))} == \
                {_named(s) for s in mu_l}, (row.role, label)
            assert all(params[_named(s)] == good[s] for s in mu_l)
            with pytest.raises(PreconditionError) as err:
                rates._prior(form, args, bad)
            for s in mu_l:
                assert f"{_named(s)}={bad[s]}" in str(err.value), \
                    (row.role, label)


@pytest.mark.parametrize("op", ["A", "B"])
def test_compare_names_one_operator_priors_after_it(op):
    from dysrates import classes as cls
    carrier = cls.strongly_monotone(0.6).intersect(cls.lipschitz(1.3))
    a, b = (carrier, cls.monotone()) if op == "A" else (cls.monotone(),
                                                        carrier)
    report = rates.compare(a, b, cls.cocoercive(1.0), 0.5, 1.0)
    priors = {p["prior"].theorem: p["prior"].parameters
              for p in report["pairs"]}
    for label in ("D.6.1", "D.6.2"):
        assert priors[label][f"mu_{op}"] == 0.6
        assert priors[label][f"L_{op}"] == 1.3
        other = "B" if op == "A" else "A"
        assert f"mu_{other}" not in priors[label]


def test_thm32_numerator_renderings_agree():
    # the statement's grouping of the second min numerator, which the
    # package computes, against the proof's, across Theorem 3.2's window;
    # the numerator's term is the min at small L (24 of these 200 draws)
    rng = np.random.default_rng(8)
    for _ in range(200):
        alpha, mu = rng.uniform(0.1, 2.0, size=2)
        L = rng.uniform(0.01, 0.5)
        beta_c = rng.uniform(alpha / 4.0, 2.0) * 1.01
        lam = rng.uniform(0.01, 1.0) * (2.0 - alpha / (2.0 * beta_c))
        rho = contraction_thm32(alpha, lam, beta_c, L, mu).rho
        assert rho == pytest.approx(thm32_rho(alpha, lam, L, mu), rel=1e-12)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

def test_dominance_example_pair():
    new = contraction_thm31(1.0, 1.0, 1.0, 1.0, 1.0).rho
    prior = prior_d61(1.0, 1.0, 1.0, 1.0, 1.0).rho
    assert new < prior
    assert prior - new == pytest.approx(math.sqrt(0.5) - 2.0 / 3.0)


def test_dominance_sweep_seed_zero():
    report = dominance_check(sample_count=1000, rng_seed=0)
    assert report.all_strict
    for pairing in report.pairings:
        assert pairing.samples == 1000
        assert pairing.min_margin > 0
        assert not pairing.violations


def test_dominance_deterministic():
    r1 = dominance_check(sample_count=50, rng_seed=3)
    r2 = dominance_check(sample_count=50, rng_seed=3)
    for p1, p2 in zip(r1.pairings, r2.pairings):
        assert p1.min_margin == p2.min_margin


def test_dominance_custom_ranges():
    ranges = ParameterRanges(alpha=(0.1, 0.5), beta_c=(1.0, 1.5),
                             mu=(0.2, 0.8), L=(0.5, 1.5))
    report = dominance_check(sample_count=100, ranges=ranges, rng_seed=1)
    assert report.all_strict


def test_eta_window_enforced():
    with pytest.raises(PreconditionError) as err:
        prior_d65(1.0, 0.5, 1.0, 0.5, 1.0, eps=0.75, eta=0.5)
    assert "eta in (alpha/(2 beta_C epsilon), 1)" in str(err.value)

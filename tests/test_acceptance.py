"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import json
import math
import time

import numpy as np
import pytest

from dysrates import (Disk, DysParams, averagedness_thm41, boundary_pieces,
                      cocoercive, contraction_thm31, contraction_thm32,
                      contraction_thm33, dominance_check, dys_matrix,
                      enlarge_C, lipschitz, monotone, realize, resolvent_srg,
                      shifted_lipschitz_ball, spectral_norm_2x2, srg,
                      strongly_monotone, zeta)
from dysrates.cli import main
from dysrates.search import search
from dysrates.verify import _random_boundary_points
from oracles import (grad_shifted_modulus_sq, lipschitz_bound,
                     shifted_modulus_sq)

TIGHT_FACTOR = 0.7745966692       # published reference constant
MAXMOD_A = 0.7236067977           # published search value, plain class
CERT_CEILING = 0.7736066656       # published certificate value


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


PUBLISHED = {
    "classes": {
        "A": [{"kind": "monotone"}],
        "B": [{"kind": "monotone"}, {"kind": "lipschitz", "L": 0.5}],
        "C": [{"kind": "cocoercive", "beta": 1.0},
              {"kind": "strongly_monotone", "mu": 0.5}],
    },
    "params": {"alpha": 1.0, "lambda": 1.0, "s": 0.0},
}


@pytest.fixture(scope="module")
def criterion1_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    spec = write_spec(tmp, PUBLISHED)
    import contextlib
    import io
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(["maxmod", spec, "--eps", str(1.0 / 120.0)])
    elapsed = time.perf_counter() - start
    assert code == 0
    return json.loads(buf.getvalue()), elapsed


def test_criterion_01_published_maxmod_plain(criterion1_run):
    payload, elapsed = criterion1_run
    err = abs(payload["best_value"] - MAXMOD_A)
    report(1, err <= 1e-6 and elapsed < 60.0,
           f"best={payload['best_value']:.10f} err={err:.2e} "
           f"runtime={elapsed:.1f}s")


def test_criterion_02_published_maxmod_enlarged(tmp_path):
    payload = json.loads(json.dumps(PUBLISHED))
    payload["classes"]["C"] = [
        {"kind": "cocoercive", "beta": 1.0},
        {"kind": "shifted_lipschitz_ball", "center": 1.0,
         "radius": 1.0 / math.sqrt(2.0)},
    ]
    spec = write_spec(tmp_path, payload)
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["maxmod", spec, "--eps", str(1.0 / 120.0)])
    assert code == 0
    out = json.loads(buf.getvalue())
    err = abs(out["best_value"] - TIGHT_FACTOR)
    report(2, err <= 1e-6,
           f"best={out['best_value']:.10f} err={err:.2e}")


def test_criterion_03_certificate(criterion1_run):
    payload, _ = criterion1_run
    unit = Disk(0.0, 1.0)
    unit_bound = lipschitz_bound(unit, unit, unit, DysParams(1.0, 1.0))
    ok = (payload["certified_upper"] <= CERT_CEILING + 1e-9
          and payload["lipschitz_constant"] <= 6.0
          and unit_bound <= 6.0)
    report(3, ok,
           f"certified={payload['certified_upper']:.10f} <= {CERT_CEILING} "
           f"and unit-disk bound {unit_bound:.4f} <= 6")


def test_criterion_04_gap_below_tight_factor(criterion1_run):
    payload, _ = criterion1_run
    slack = payload["lipschitz_constant"] * payload["covering_radius"]
    bound = payload["best_value"] + slack
    report(4, bound < TIGHT_FACTOR,
           f"best + slack = {bound:.10f} < {TIGHT_FACTOR}")


# ---------------------------------------------------------------------------
# criterion 5: closed forms dominate the symbol on random boundary triples
# ---------------------------------------------------------------------------

def _max_symbol_on_boundaries(regions, params, n, rng, shift=0.0):
    pts = [np.asarray(_random_boundary_points(boundary_pieces(r), n, rng))
           for r in regions]
    vals = np.abs(zeta(pts[0], pts[1], pts[2], params) - shift)
    return float(vals.max())


def test_criterion_05_theorem_bounds_dominate_symbol():
    rng = np.random.default_rng(0)
    worst_excess = -math.inf
    for _ in range(20):
        beta_c = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.1, 3.9 * beta_c))
        lam_hi = 2.0 - alpha / (2.0 * beta_c)
        lam = float(rng.uniform(0.05, 0.98) * lam_hi)
        m1, m2 = rng.uniform(0.1, 2.0, size=2)
        mu, L = float(min(m1, m2)), float(max(m1, m2))
        mu_c = float(rng.uniform(0.05, 0.95) / beta_c)
        params = DysParams(alpha, lam)

        rho31 = contraction_thm31(alpha, lam, beta_c, mu, L).rho
        regions31 = [resolvent_srg(strongly_monotone(mu).intersect(
            lipschitz(L)), alpha),
            resolvent_srg(monotone(), alpha), srg(cocoercive(beta_c))]
        worst_excess = max(worst_excess, _max_symbol_on_boundaries(
            regions31, params, 1000, rng) - rho31)

        rho32 = contraction_thm32(alpha, lam, beta_c, L, mu).rho
        regions32 = [resolvent_srg(monotone().intersect(lipschitz(L)), alpha),
                     resolvent_srg(strongly_monotone(mu), alpha),
                     srg(cocoercive(beta_c))]
        worst_excess = max(worst_excess, _max_symbol_on_boundaries(
            regions32, params, 1000, rng) - rho32)

        rho33 = contraction_thm33(alpha, lam, beta_c, L, mu_c).rho
        c_spec = cocoercive(beta_c).intersect(strongly_monotone(mu_c))
        c_prime = enlarge_C(c_spec, params, "thm33")
        regions33 = [resolvent_srg(monotone().intersect(lipschitz(L)), alpha),
                     resolvent_srg(monotone(), alpha), srg(c_prime)]
        worst_excess = max(worst_excess, _max_symbol_on_boundaries(
            regions33, params, 1000, rng) - rho33)

    spot_ok = True
    spots = [
        (contraction_thm31(1.0, 1.0, 1.0, 1.0, 1.0).rho,
         strongly_monotone(1.0).intersect(lipschitz(1.0)), monotone(),
         cocoercive(1.0), DysParams(1.0, 1.0)),
        (contraction_thm31(0.5, 1.2, 1.0, 0.5, 1.5).rho,
         strongly_monotone(0.5).intersect(lipschitz(1.5)), monotone(),
         cocoercive(1.0), DysParams(0.5, 1.2)),
        (contraction_thm32(0.9, 1.1, 1.1, 0.8, 0.6, role="A_lip_B_sm").rho,
         monotone().intersect(lipschitz(0.8)), strongly_monotone(0.6),
         cocoercive(1.1), DysParams(0.9, 1.1)),
        (contraction_thm32(0.7, 0.8, 0.9, 1.2, 0.4, role="A_sm_B_lip").rho,
         strongly_monotone(0.4), monotone().intersect(lipschitz(1.2)),
         cocoercive(0.9), DysParams(0.7, 0.8)),
        (contraction_thm33(1.0, 1.0, 1.0, 1.0, 0.5).rho,
         monotone().intersect(lipschitz(1.0)), monotone(),
         cocoercive(1.0).intersect(strongly_monotone(0.5)),
         DysParams(1.0, 1.0)),
    ]
    worst_spot = -math.inf
    for rho, a, b, c, params in spots:
        best = search(a, b, c, params, 1 / 40).best_value
        worst_spot = max(worst_spot, best - rho)
        spot_ok &= best <= rho + 1e-9
    report(5, worst_excess <= 1e-9 and spot_ok,
           f"max boundary excess {worst_excess:.2e}, "
           f"max search excess {worst_spot:.2e}")


def test_criterion_06_averagedness():
    rng = np.random.default_rng(1)
    worst = -math.inf
    matrix_worst = -math.inf
    for _ in range(20):
        mu = float(rng.uniform(0.3, 2.0))
        l_c = float(rng.uniform(0.3, 2.0))
        alpha = float(rng.uniform(0.05, 0.95) * 2.0 * mu / l_c ** 2)
        theta = averagedness_thm41(alpha, mu, l_c).theta
        params = DysParams(alpha, 1.0, 1.0 - theta)
        c_spec = monotone().intersect(lipschitz(l_c))
        c_prime = enlarge_C(c_spec, params, "thm41")
        regions = [resolvent_srg(strongly_monotone(mu), alpha),
                   resolvent_srg(monotone(), alpha), srg(c_prime)]
        worst = max(worst, _max_symbol_on_boundaries(
            regions, params, 1000, rng, shift=1.0 - theta) - theta)

        # matrix side: 50 realizations per instance, 1000 total
        pts = [np.asarray(_random_boundary_points(boundary_pieces(r), 50,
                                                  rng))
               for r in (regions[0], regions[1], srg(c_spec))]
        for z_a, z_b, z_c in zip(*pts):
            t = dys_matrix(realize(z_a), realize(z_b), realize(z_c),
                           alpha, 1.0)
            norm = spectral_norm_2x2(t - (1.0 - theta) * np.eye(2))
            matrix_worst = max(matrix_worst, norm - theta)
    report(6, worst <= 1e-9 and matrix_worst <= 1e-9,
           f"symbol excess {worst:.2e}, matrix excess {matrix_worst:.2e}")


def test_criterion_07_closed_form_spot_values():
    vals = {
        "thm31": (contraction_thm31(1, 1, 1, 1, 1).rho, 2.0 / 3.0),
        "thm32": (contraction_thm32(1, 1, 1, 1, 1).rho, math.sqrt(2.0 / 3.0)),
        "thm33": (contraction_thm33(1, 1, 1, 1, 1).rho, math.sqrt(0.5)),
        "thm41": (averagedness_thm41(1, 1, 1).theta, 2.0 / 3.0),
    }
    worst = max(abs(got - want) for got, want in vals.values())
    report(7, worst <= 1e-12, f"max spot-value error {worst:.2e}")


def test_criterion_08_prior_factor_dominance():
    rep = dominance_check(sample_count=1000, rng_seed=0)
    margin = min(p.min_margin for p in rep.pairings)
    report(8, rep.all_strict and margin > 0,
           f"six pairings x 1000 tuples, min margin {margin:.3e}")


def test_criterion_09_resolvent_geometry_oracle():
    report(9, _geometry_agreement(), "resolvent regions match closed forms "
           "on 2e4 probes across all branches, tol 1e-10")


def _geometry_agreement() -> bool:
    from dysrates import DiskExterior, HalfPlane, Region
    rng = np.random.default_rng(2)
    zs = rng.uniform(-3, 3, 20_000) + 1j * rng.uniform(-3, 3, 20_000)

    def closed(kind, p, alpha):
        if kind == "monotone":
            return Region((Disk(0.5, 0.5),))
        if kind == "sm":
            h = 1 / (2 * (1 + alpha * p))
            return Region((Disk(h, h),))
        if kind == "coco":
            h = alpha / (2 * p)
            return Region((Disk((1 + h) / (1 + 2 * h), h / (1 + 2 * h)),))
        a = alpha * p
        if abs(a - 1) <= 1e-12:
            return Region((HalfPlane(0.5),))
        if a < 1:
            return Region((Disk(1 / (1 - a * a), a / (1 - a * a)),))
        return Region((DiskExterior(1 / (1 - a * a), a / (a * a - 1)),))

    cases = [("monotone", 1.0, 0.7), ("sm", 0.6, 1.3), ("coco", 0.8, 0.9),
             ("lip", 0.5, 1.0), ("lip", 0.5, 2.0), ("lip", 0.5, 6.0),
             ("lip", 2.0, 0.2)]
    makers = {"monotone": lambda p: monotone(), "sm": strongly_monotone,
              "coco": cocoercive, "lip": lipschitz}
    for kind, p, alpha in cases:
        computed = resolvent_srg(makers[kind](p), alpha)
        oracle = closed(kind, p, alpha)
        if not np.array_equal(computed.contains(zs, 1e-10),
                              oracle.contains(zs, 1e-10)):
            return False
    return True


def test_criterion_10_homomorphism_and_gradient():
    rng = np.random.default_rng(3)
    worst_norm = 0.0
    for _ in range(10_000):
        za, zb, zc = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(3))
        alpha, lam = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        t = dys_matrix(realize(za), realize(zb), realize(zc), alpha, lam)
        expect = abs(zeta(za, zb, zc, DysParams(alpha, lam)))
        worst_norm = max(worst_norm,
                         abs(spectral_norm_2x2(t) - expect)
                         / max(1.0, expect))

    params = DysParams(0.8, 1.3, 0.2)
    h = 1e-6
    worst_grad = 0.0
    for _ in range(1000):
        z = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
             for _ in range(3)]
        grads = grad_shifted_modulus_sq(*z, params)
        for idx in range(3):
            def bump(delta):
                probe = list(z)
                probe[idx] = probe[idx] + delta
                return float(shifted_modulus_sq(*probe, params))
            fd = complex((bump(h) - bump(-h)) / (2 * h),
                         (bump(1j * h) - bump(-1j * h)) / (2 * h))
            worst_grad = max(worst_grad, abs(fd - grads[idx])
                             / max(1.0, abs(grads[idx])))
    report(10, worst_norm <= 1e-12 and worst_grad <= 1e-6,
           f"norm identity err {worst_norm:.2e}, gradient FD err "
           f"{worst_grad:.2e}")

"""Symbol evaluation, differentiation and gradient-norm bounds."""

import math

import numpy as np
import pytest

from dysrates import Disk, DysParams, PreconditionError, zeta
from oracles import (grad_shifted_modulus_sq, lipschitz_bound,
                     lipschitz_bound_coarse, shifted_modulus,
                     shifted_modulus_sq, zeta_partials)

P11 = DysParams(1.0, 1.0)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_zeta_vanishing_products():
    for z_c in (0j, 1 + 2j, -3j):
        assert zeta(0j, 0j, z_c, DysParams(0.7, 1.3)) == 1.0


def test_zeta_hand_substitution():
    assert zeta(0.5 + 0j, 0.5 + 0j, 1.0 + 0j, P11) == pytest.approx(0.25)
    assert shifted_modulus(0.5 + 0j, 0.5 + 0j, 1.0 + 0j, P11) == \
        pytest.approx(0.25)


def test_zeta_symmetric_in_first_two_arguments():
    rng = np.random.default_rng(0)
    za, zb, zc = (rng.standard_normal(10_000) * (1 + 1j)
                  + 1j * rng.standard_normal(10_000) for _ in range(3))
    params = DysParams(0.8, 1.2, 0.1)
    lhs, rhs = zeta(za, zb, zc, params), zeta(zb, za, zc, params)
    assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(lhs).max()


def test_zeta_bilinear_in_first_two():
    rng = np.random.default_rng(1)
    params = DysParams(1.4, 0.6)
    for _ in range(200):
        a, a2, b, c = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(4))
        resid = (zeta(a + a2, b, c, params) - zeta(a, b, c, params)
                 - zeta(a2, b, c, params) + zeta(0j, b, c, params))
        assert abs(resid) < 1e-14


def test_zeta_conjugation_equivariance():
    rng = np.random.default_rng(2)
    params = DysParams(0.9, 1.1)
    for _ in range(200):
        a, b, c = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(3))
        lhs = zeta(a.conjugate(), b.conjugate(), c.conjugate(), params)
        assert lhs == zeta(a, b, c, params).conjugate()


def test_params_validation():
    with pytest.raises(PreconditionError):
        DysParams(0.0, 1.0)
    with pytest.raises(PreconditionError):
        DysParams(1.0, -1.0)
    with pytest.raises(PreconditionError):
        DysParams(1.0, 1.0, 1.0)
    assert DysParams(1.0, 2.0, 0.5).t == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_partials_at_origin():
    lam = 1.7
    da, db, dc = zeta_partials(0j, 0j, 0j, DysParams(1.0, lam))
    assert da == -lam and db == -lam and dc == 0


def _fd_gradient(z_a, z_b, z_c, params, idx, h=1e-6):
    def f(za, zb, zc):
        return float(shifted_modulus_sq(za, zb, zc, params))

    args = [z_a, z_b, z_c]

    def bump(delta):
        probe = list(args)
        probe[idx] = probe[idx] + delta
        return f(*probe)

    gx = (bump(h) - bump(-h)) / (2 * h)
    gy = (bump(1j * h) - bump(-1j * h)) / (2 * h)
    return complex(gx, gy)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    params = DysParams(0.8, 1.3, 0.2)
    for _ in range(1000):
        z = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
             for _ in range(3)]
        grads = grad_shifted_modulus_sq(*z, params)
        for idx in range(3):
            fd = _fd_gradient(*z, params, idx)
            scale = max(1.0, abs(grads[idx]))
            assert abs(fd - grads[idx]) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Lipschitz bounds
# ---------------------------------------------------------------------------

UNIT = Disk(0.0, 1.0)


def test_unit_disk_bound_below_six():
    bound = lipschitz_bound(UNIT, UNIT, UNIT, P11)
    assert bound == pytest.approx(math.sqrt(33.0))
    assert bound <= 6.0
    assert lipschitz_bound_coarse(UNIT, UNIT, UNIT, P11) <= 6.0


def test_zero_radius_bound_equals_pointwise_gradient_norm():
    rng = np.random.default_rng(4)
    for _ in range(100):
        pts = [complex(rng.uniform(-1, 1), 0.0) for _ in range(3)]
        params = DysParams(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
        tiny = [Disk(p.real if p.real != 0 else 1e-9, 1e-300) for p in pts]
        bound = lipschitz_bound(*tiny, params)
        da, db, dc = zeta_partials(*[complex(d.center) for d in tiny], params)
        pointwise = math.sqrt(abs(da) ** 2 + abs(db) ** 2 + abs(dc) ** 2)
        assert bound == pytest.approx(pointwise, rel=1e-9)


def test_tight_bound_never_exceeds_coarse():
    rng = np.random.default_rng(5)
    for _ in range(200):
        disks = [Disk(rng.uniform(-1.5, 1.5), rng.uniform(0.01, 1.5))
                 for _ in range(3)]
        params = DysParams(rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5))
        assert lipschitz_bound(*disks, params) <= \
            lipschitz_bound_coarse(*disks, params) + 1e-12


def test_coarse_bound_monotone_in_alpha():
    rng = np.random.default_rng(6)
    for _ in range(100):
        disks = [Disk(rng.uniform(-1.5, 1.5), rng.uniform(0.01, 1.5))
                 for _ in range(3)]
        lam = rng.uniform(0.1, 2.0)
        alpha = rng.uniform(0.1, 1.5)
        b1 = lipschitz_bound_coarse(*disks, DysParams(alpha, lam))
        b2 = lipschitz_bound_coarse(*disks, DysParams(2 * alpha, lam))
        assert b2 >= b1 - 1e-12


def test_bound_controls_increments_along_segments():
    rng = np.random.default_rng(7)
    disks = [Disk(0.5, 0.5), Disk(0.5, 0.5), Disk(0.5, 0.5)]
    params = DysParams(1.0, 1.0)
    bound = lipschitz_bound(*disks, params)

    def sample_point():
        return [complex(d.center + rng.uniform(-1, 1) * d.radius * 0.7,
                        rng.uniform(-1, 1) * d.radius * 0.7) for d in disks]

    for _ in range(1000):
        x, y = sample_point(), sample_point()
        fx = float(shifted_modulus(*x, params))
        fy = float(shifted_modulus(*y, params))
        dist = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(x, y)))
        assert abs(fx - fy) <= bound * dist + 1e-12

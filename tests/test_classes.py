"""Operator-class regions, resolvent regions, applicability preflight and
class enlargement."""

import math

import numpy as np
import pytest

from dysrates import (Disk, DiskExterior, EmptyRegionError, HalfPlane,
                      InvalidClassError, PreconditionError, Region,
                      ShiftedLipschitzBall, averaged, boundary_grid,
                      cocoercive, dys_preflight, enlarge_C, lipschitz,
                      monotone, resolvent_srg, shifted_lipschitz_ball, srg,
                      strongly_monotone)
from dysrates.classes import _disk_hull
from dysrates.symbol import DysParams
from oracles import disk_hull_radius


# ---------------------------------------------------------------------------
# class-region table
# ---------------------------------------------------------------------------

def test_srg_cocoercive_unit():
    assert srg(cocoercive(1.0)).atoms == (Disk(0.5, 0.5),)


def test_srg_monotone_lipschitz_intersection():
    region = srg(monotone().intersect(lipschitz(0.5)))
    assert set(region.atoms) == {HalfPlane(0.0), Disk(0.0, 0.5)}


def test_srg_averaged_half_matches_cocoercive_one():
    assert srg(averaged(0.5)).atoms == srg(cocoercive(1.0)).atoms


def test_srg_strongly_monotone():
    assert srg(strongly_monotone(0.7)).atoms == (HalfPlane(0.7),)


def test_srg_shifted_ball():
    assert srg(shifted_lipschitz_ball(1.0, 0.25)).atoms == (Disk(1.0, 0.25),)


def test_inconsistent_mu_exceeds_L():
    with pytest.raises(InvalidClassError):
        strongly_monotone(2.0).intersect(lipschitz(1.0))


def test_inconsistent_mu_exceeds_inverse_beta():
    with pytest.raises(InvalidClassError):
        strongly_monotone(1.5).intersect(cocoercive(1.0))


def test_degenerate_parameters_need_explicit_monotone_atom():
    with pytest.raises(InvalidClassError):
        strongly_monotone(0.0)
    with pytest.raises(InvalidClassError):
        cocoercive(0.0)


# ---------------------------------------------------------------------------
# resolvent regions
# ---------------------------------------------------------------------------

def closed_form_resolvent(kind: str, param: float, alpha: float) -> Region:
    """Hand-coded resolvent regions used as the independent oracle."""
    if kind == "monotone":
        return Region((Disk(0.5, 0.5),))
    if kind == "strongly_monotone":
        h = 1.0 / (2.0 * (1.0 + alpha * param))
        return Region((Disk(h, h),))
    if kind == "cocoercive":
        h = alpha / (2.0 * param)
        return Region((Disk((1 + h) / (1 + 2 * h), h / (1 + 2 * h)),))
    if kind == "lipschitz":
        a = alpha * param
        if abs(a - 1.0) <= 1e-12:
            return Region((HalfPlane(0.5),))
        if a < 1.0:
            return Region((Disk(1 / (1 - a * a), a / (1 - a * a)),))
        return Region((DiskExterior(1 / (1 - a * a), a / (a * a - 1)),))
    raise ValueError(kind)


_MAKERS = {"monotone": lambda p: monotone(),
           "strongly_monotone": strongly_monotone,
           "cocoercive": cocoercive,
           "lipschitz": lipschitz}


def test_resolvent_monotone_is_half_disk():
    region = resolvent_srg(monotone(), 3.7)
    assert region.atoms == (Disk(0.5, 0.5),)


def test_resolvent_strongly_monotone_closed_form():
    alpha, mu = 1.3, 0.6
    region = resolvent_srg(strongly_monotone(mu), alpha)
    h = 1.0 / (2.0 * (1.0 + alpha * mu))
    (atom,) = region.atoms
    assert math.isclose(atom.center, h, rel_tol=1e-14)
    assert math.isclose(atom.radius, h, rel_tol=1e-14)


def test_resolvent_lipschitz_exterior_branch():
    region = resolvent_srg(lipschitz(2.0), 1.0)
    (atom,) = region.atoms
    assert isinstance(atom, DiskExterior)
    assert math.isclose(atom.center, -1.0 / 3.0, abs_tol=1e-14)
    assert math.isclose(atom.radius, 2.0 / 3.0, abs_tol=1e-14)


def test_resolvent_matches_closed_forms_randomized():
    rng = np.random.default_rng(0)
    zs = rng.uniform(-2, 2, 10_000) + 1j * rng.uniform(-2, 2, 10_000)
    for _ in range(200):
        kind = ["monotone", "strongly_monotone", "cocoercive",
                "lipschitz"][rng.integers(4)]
        param = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(0.1, 3.0))
        computed = resolvent_srg(_MAKERS[kind](param), alpha)
        oracle = closed_form_resolvent(kind, param, alpha)
        assert np.array_equal(computed.contains(zs, 1e-10),
                              oracle.contains(zs, 1e-10)), (kind, param,
                                                            alpha)


# ---------------------------------------------------------------------------
# preflight
# ---------------------------------------------------------------------------

def test_preflight_published_failing_instance():
    report = dys_preflight(monotone(), monotone().intersect(lipschitz(0.5)),
                           cocoercive(1.0).intersect(strongly_monotone(0.5)),
                           DysParams(1.0, 1.0, 0.0))
    assert report.triple == (True, True, False)
    assert report.search_domain_bounded


def test_preflight_published_passing_instance():
    c_prime = cocoercive(1.0).intersect(
        shifted_lipschitz_ball(1.0, 1.0 / math.sqrt(2.0)))
    report = dys_preflight(monotone(), monotone().intersect(lipschitz(0.5)),
                           c_prime, DysParams(1.0, 1.0, 0.0))
    assert report.triple == (True, True, True)


def test_preflight_simple_cocoercive_c():
    report = dys_preflight(strongly_monotone(1.0), monotone(),
                           cocoercive(1.0), DysParams(1.0, 1.0, 0.0))
    assert report.triple == (True, True, True)


def test_preflight_detects_nonmonotone_operand():
    report = dys_preflight(lipschitz(1.0), monotone(), cocoercive(1.0),
                           DysParams(1.0, 1.0, 0.0))
    assert not report.operands_monotone


def test_preflight_unbounded_c():
    report = dys_preflight(monotone(), monotone(), strongly_monotone(0.5),
                           DysParams(1.0, 1.0, 0.0))
    assert not report.search_domain_bounded


def test_preflight_shift_one_rejected():
    with pytest.raises(PreconditionError):
        DysParams(1.0, 1.0, 1.0)


def test_c_side_arc_true_for_single_disk_classes():
    rng = np.random.default_rng(1)
    for _ in range(100):
        beta = float(rng.uniform(0.2, 3.0))
        alpha = float(rng.uniform(0.1, 3.0))
        lam = float(rng.uniform(0.1, 1.9))
        s = float(rng.uniform(-0.5, 0.9))
        report = dys_preflight(monotone(), monotone(), cocoercive(beta),
                               DysParams(alpha, lam, s))
        assert report.c_side_arc


# ---------------------------------------------------------------------------
# enlargement
# ---------------------------------------------------------------------------

def test_enlarge_thm41_all_ones():
    c_spec = monotone().intersect(lipschitz(1.0))
    out = enlarge_C(c_spec, DysParams(1.0, 1.0), "thm41", mu=1.0)
    (ball,) = out.atoms
    assert isinstance(ball, ShiftedLipschitzBall)
    assert math.isclose(ball.center, 0.5, rel_tol=1e-14)
    assert math.isclose(ball.radius, math.sqrt(5.0) / 2.0, rel_tol=1e-14)


def test_enlarge_thm33_values():
    c_spec = cocoercive(1.0).intersect(strongly_monotone(0.5))
    out = enlarge_C(c_spec, DysParams(1.0, 1.0), "thm33")
    (ball,) = out.atoms
    # eta = 1/2, R = sqrt(1 * (1 - 2*(1/2)*1*0.5)) = sqrt(1/2)
    assert math.isclose(ball.center, 1.0, rel_tol=1e-14)
    assert math.isclose(ball.radius, math.sqrt(0.5), rel_tol=1e-14)


def test_enlarge_thm33_degenerate_radius_rejected():
    c_spec = cocoercive(1.0).intersect(strongly_monotone(1.0))
    with pytest.raises(PreconditionError):
        enlarge_C(c_spec, DysParams(1.0, 1.0), "thm33")


def test_disk_hull_of_plain_disk_unchanged():
    c_spec = cocoercive(1.0)
    assert enlarge_C(c_spec, DysParams(1.0, 1.0), "disk_hull") is c_spec


def test_disk_hull_of_half_lens():
    c_spec = cocoercive(1.0).intersect(strongly_monotone(0.5))
    out = enlarge_C(c_spec, DysParams(1.0, 1.0), "disk_hull")
    (ball,) = out.atoms
    # hull of the right half of Disk(1/2, 1/2): corners (1/2, ±1/2), apex 1
    assert math.isclose(ball.center, 0.5, abs_tol=1e-9)
    assert math.isclose(ball.radius, 0.5, abs_tol=1e-9)


def test_disk_hull_radius_matches_ternary_reference():
    # random bounded regions of one to three atoms; the hull must also
    # contain every boundary sample
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 900:
        atoms = [Disk(float(rng.uniform(-2.0, 2.0)),
                      float(rng.uniform(0.1, 2.0)))]
        for _ in range(rng.integers(0, 3)):
            kind = rng.integers(3)
            c = float(rng.uniform(-2.0, 2.0))
            atoms.append(HalfPlane(c) if kind == 2 else
                         (Disk, DiskExterior)[kind](c, float(
                             rng.uniform(0.1, 2.0))))
        region = Region(tuple(atoms))
        try:
            points = boundary_grid(region, 0.05).points
        except EmptyRegionError:
            continue
        ball = _disk_hull(region)
        assert ball.radius == pytest.approx(disk_hull_radius(region),
                                            rel=1e-12), region
        assert (np.abs(points - ball.center)
                <= ball.radius * (1.0 + 1e-12)).all(), region
        checked += 1


@pytest.mark.parametrize("mode,c_builder,kwargs", [
    ("disk_hull",
     lambda: cocoercive(1.0).intersect(strongly_monotone(0.5)), {}),
    ("thm33",
     lambda: cocoercive(1.0).intersect(strongly_monotone(0.5)), {}),
    ("thm41", lambda: monotone().intersect(lipschitz(1.0)), {"mu": 1.0}),
])
def test_enlargement_contains_original(mode, c_builder, kwargs):
    rng = np.random.default_rng(2)
    c_spec = c_builder()
    params = DysParams(1.0, 1.0)
    bigger = srg(enlarge_C(c_spec, params, mode, **kwargs))
    region = srg(c_spec)
    zs = rng.uniform(-2, 2, 100_000) + 1j * rng.uniform(-2, 2, 100_000)
    inside = zs[region.contains(zs)]
    assert inside.size >= 1000
    assert bigger.contains(inside, 1e-12).all()


def test_enlarged_c_side_region_is_real_centered_disk():
    params = DysParams(1.0, 1.0)
    c_spec = cocoercive(1.0).intersect(strongly_monotone(0.5))
    for mode in ("disk_hull", "thm33"):
        out = enlarge_C(c_spec, params, mode)
        region = srg(out)
        assert len(region.atoms) == 1
        assert isinstance(region.atoms[0], Disk)


def test_thm41_enlargement_restores_arc_property():
    # the shifted-and-negated region of the enlarged class is a disk
    # centered at the origin, so both arc properties hold exactly
    from dysrates.classes import c_side_mirror_region
    import dysrates.geometry as geom
    mu, l_c, alpha = 1.0, 1.0, 1.0
    from dysrates import averagedness_thm41
    theta = averagedness_thm41(alpha, mu, l_c).theta
    params = DysParams(alpha, 1.0, 1.0 - theta)
    c_prime = enlarge_C(monotone().intersect(lipschitz(l_c)), params,
                        "thm41", mu=mu)
    mirror = c_side_mirror_region(c_prime, params)
    (atom,) = mirror.atoms
    assert isinstance(atom, Disk)
    assert abs(atom.center) < 1e-12
    assert geom.has_right_arc_property(mirror)
    assert geom.has_left_arc_property(mirror)
    report = dys_preflight(strongly_monotone(mu), monotone(), c_prime, params)
    assert report.applicable


def test_thm33_enlargement_containment_randomized():
    rng = np.random.default_rng(9)
    for _ in range(100):
        beta = float(rng.uniform(0.3, 2.5))
        alpha = float(rng.uniform(0.05, 3.9 * beta))
        lam = float(rng.uniform(0.05, 0.98) * (2.0 - alpha / (2.0 * beta)))
        mu_c = float(rng.uniform(0.05, 0.98) / beta)
        params = DysParams(alpha, lam)
        c_spec = cocoercive(beta).intersect(strongly_monotone(mu_c))
        big = srg(enlarge_C(c_spec, params, "thm33"))
        region = srg(c_spec)
        zs = rng.uniform(0, 1.2 / beta, 400) + \
            1j * rng.uniform(-0.6 / beta, 0.6 / beta, 400)
        inside = zs[region.contains(zs)]
        assert big.contains(inside, 1e-12).all(), (alpha, lam, beta, mu_c)


def test_thm41_enlargement_containment_randomized():
    rng = np.random.default_rng(10)
    for _ in range(100):
        mu = float(rng.uniform(0.2, 2.0))
        l_c = float(rng.uniform(0.2, 2.0))
        alpha = float(rng.uniform(0.05, 0.95) * 2.0 * mu / l_c ** 2)
        params = DysParams(alpha, 1.0)
        c_spec = monotone().intersect(lipschitz(l_c))
        big = srg(enlarge_C(c_spec, params, "thm41", mu=mu))
        region = srg(c_spec)
        zs = rng.uniform(0, 1.1 * l_c, 400) + \
            1j * rng.uniform(-1.1 * l_c, 1.1 * l_c, 400)
        inside = zs[region.contains(zs)]
        assert big.contains(inside, 1e-12).all(), (alpha, mu, l_c)

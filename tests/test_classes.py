"""Operator-class regions, resolvent regions, applicability preflight and
class enlargement."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dysrates import (Averaged, Cocoercive, Disk, DiskExterior,
                      EmptyRegionError, HalfPlane, InvalidClassError,
                      Lipschitz, Monotone, OperatorClassSpec,
                      PreconditionError, Region, Segment,
                      ShiftedLipschitzBall, StronglyMonotone, averaged,
                      UnboundedRegionError, boundary_grid, boundary_pieces,
                      cocoercive, dys_preflight, enlarge_C,
                      has_left_arc_property, has_right_arc_property,
                      is_monotone_class, lipschitz, monotone, resolvent_srg,
                      shifted_lipschitz_ball, srg, strongly_monotone)
from dysrates import classes as classes_module
from dysrates.classes import (PreflightReport, _disk_hull,
                              c_side_mirror_region, real_extent)
from dysrates.symbol import DysParams
from oracles import (atom_min_real, disk_hull_radius, thm33_ball, thm41_ball,
                     thm41_theta)


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


@pytest.mark.parametrize("kind", classes_module.ATOMS, ids=lambda k: k.kind)
@settings(deadline=None, max_examples=25)
@given(st.data())
def test_every_atom_region_is_a_disk_or_a_half_plane(kind, data):
    # real_extent reads only these two shapes, and verify.class_membership
    # relies on them: a scaled rotation z lies in a disk by the norm
    # |z - c| and in a half-plane by the eigenvalue Re z; a disk exterior
    # would need a rule of its own in real_extent
    atom = kind(*(data.draw(st.floats(1e-3, 1.0 - 1e-3))
                  for _ in dataclasses.fields(kind)))
    assert type(atom.region()) in (Disk, HalfPlane)


@pytest.mark.parametrize("atom", [HalfPlane(0.0), Disk(0.5, 0.5), "monotone",
                                  None],
                         ids=["region_atom", "disk", "string", "none"])
def test_non_atom_rejected(atom):
    with pytest.raises(InvalidClassError):
        OperatorClassSpec((Monotone(), atom))


# ---------------------------------------------------------------------------
# monotonicity, read off the region atoms
# ---------------------------------------------------------------------------

def _ulps_from_half(k: int) -> float:
    theta = 0.5
    for _ in range(abs(k)):
        theta = math.nextafter(theta, math.copysign(1.0, k))
    return theta


_POSITIVE = st.floats(1e-3, 1e3)
_ATOM = st.one_of(
    st.just(Monotone()),
    _POSITIVE.map(StronglyMonotone),
    _POSITIVE.map(Cocoercive),
    _POSITIVE.map(Lipschitz),
    st.floats(1e-6, 1.0 - 1e-6).map(Averaged),
    # theta within a few ulps of 1/2, where 1 - 2 theta changes sign
    st.integers(-4, 4).map(_ulps_from_half).map(Averaged),
    st.builds(ShiftedLipschitzBall, st.floats(-10.0, 10.0), _POSITIVE),
    _POSITIVE.map(lambda r: ShiftedLipschitzBall(r, r)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ATOM, min_size=1, max_size=4))
def test_is_monotone_class_matches_reference_table(atoms):
    try:
        spec = OperatorClassSpec(tuple(atoms))
    except InvalidClassError:
        assume(False)
    expected = max(atom_min_real(a) for a in atoms) >= 0.0
    assert is_monotone_class(spec) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(_ATOM, min_size=1, max_size=4))
def test_real_extent_decides_emptiness_as_the_geometry_does(atoms):
    # every drawn atom's region meets Disk(0, 1e4) on the real axis, so the
    # bounding disk leaves the emptiness of the class alone
    lo, hi = real_extent(atoms)
    # at tangency both sides carry their own tolerances
    assume(abs(hi - lo) > 1e-9)
    region = Region(tuple(a.region() for a in atoms) + (Disk(0.0, 1e4),))
    try:
        boundary_pieces(region)
        empty = False
    except EmptyRegionError:
        empty = True
    assert empty == (lo > hi)
    try:
        OperatorClassSpec(tuple(atoms))
        refused = False
    except InvalidClassError:
        refused = True
    assert refused == empty


def test_averaged_near_half_monotone_iff_theta_at_most_half():
    for k in range(-4, 5):
        theta = _ulps_from_half(k)
        assert is_monotone_class(averaged(theta)) == (k <= 0), k


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


def test_resolvent_of_point_class_is_one_point():
    # strongly monotone and Lipschitz with the same mu is the point mu; its
    # resolvent region is where two inverted disks touch, 1/(1 + alpha mu),
    # and rounding used to leave tiny arcs there
    rng = np.random.default_rng(0)
    for mu, alpha in 10.0 ** rng.uniform(-2.0, 2.0, (2000, 2)):
        spec = strongly_monotone(mu).intersect(lipschitz(mu))
        (piece,) = boundary_pieces(resolvent_srg(spec, alpha))
        point = 1.0 / (1.0 + alpha * mu)
        assert isinstance(piece, Segment) and piece.p0 == piece.p1
        assert piece.p0.imag == 0.0
        assert piece.p0.real == pytest.approx(point, rel=1e-12)


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
    assert report == (True, True, False)
    assert report.failed == (
        "(iii) (2 - lambda/(1 - s)) I - alpha C has an arc property",)


def test_preflight_published_passing_instance():
    c_prime = cocoercive(1.0).intersect(
        shifted_lipschitz_ball(1.0, 1.0 / math.sqrt(2.0)))
    report = dys_preflight(monotone(), monotone().intersect(lipschitz(0.5)),
                           c_prime, DysParams(1.0, 1.0, 0.0))
    assert report == (True, True, True)
    assert report.failed == ()


def test_preflight_simple_cocoercive_c():
    report = dys_preflight(strongly_monotone(1.0), monotone(),
                           cocoercive(1.0), DysParams(1.0, 1.0, 0.0))
    assert report == (True, True, True)


def test_preflight_detects_nonmonotone_operand():
    report = dys_preflight(lipschitz(1.0), monotone(), cocoercive(1.0),
                           DysParams(1.0, 1.0, 0.0))
    assert not report.operands_monotone


def test_preflight_unbounded_c():
    # an unbounded C fails no hypothesis: the search and enlarge_C refuse
    # its region themselves (exit 4), the preflight only reports the triple
    report = dys_preflight(monotone(), monotone(), strongly_monotone(0.5),
                           DysParams(1.0, 1.0, 0.0))
    assert report == (True, True, True)


def test_preflight_builds_no_resolvent_region(monkeypatch):
    def refuse(*args):
        raise AssertionError("dys_preflight built a resolvent region")

    monkeypatch.setattr(classes_module, "resolvent_srg", refuse)
    report = dys_preflight(monotone(), monotone().intersect(lipschitz(0.5)),
                           cocoercive(1.0).intersect(strongly_monotone(0.5)),
                           DysParams(1.0, 1.0, 0.0))
    assert report == (True, True, False)


_STATEMENTS = ("(i) I + alpha A has the right-arc property",
               "(ii) A and B are monotone",
               "(iii) (2 - lambda/(1 - s)) I - alpha C has an arc property")


@given(st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_preflight_failed_names_the_false_hypotheses(bits):
    report = PreflightReport(*bits)
    assert report.failed == tuple(h for h, b in zip(_STATEMENTS, bits)
                                  if not b)
    assert report.applicable == (not report.failed)


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
    # Theorem 4.1's s = 1 - theta, theta = 2/3: its ball
    c_spec = monotone().intersect(lipschitz(1.0))
    out = enlarge_C(c_spec, DysParams(1.0, 1.0, 1.0 / 3.0), "thm41")
    (ball,) = out.atoms
    assert isinstance(ball, ShiftedLipschitzBall)
    assert math.isclose(ball.center, 0.5, rel_tol=1e-14)
    assert math.isclose(ball.radius, math.sqrt(5.0) / 2.0, rel_tol=1e-14)


def test_enlarge_thm41_all_ones_at_zero_shift():
    # s = 0: sigma = 1, and the farthest points of the half disk are +-i
    c_spec = monotone().intersect(lipschitz(1.0))
    (ball,) = enlarge_C(c_spec, DysParams(1.0, 1.0), "thm41").atoms
    assert math.isclose(ball.center, 1.0, rel_tol=1e-14)
    assert math.isclose(ball.radius, math.sqrt(2.0), rel_tol=1e-14)


def test_enlarge_thm33_values():
    c_spec = cocoercive(1.0).intersect(strongly_monotone(0.5))
    out = enlarge_C(c_spec, DysParams(1.0, 1.0), "thm33")
    (ball,) = out.atoms
    # eta = 1/2, R = sqrt(1 * (1 - 2*(1/2)*1*0.5)) = sqrt(1/2)
    assert math.isclose(ball.center, 1.0, rel_tol=1e-14)
    assert math.isclose(ball.radius, math.sqrt(0.5), rel_tol=1e-14)


def test_enlarge_thm33_point_region_at_center_unchanged():
    # the region is the one point 1 = sigma/alpha, where Theorem 3.3's R is
    # 0: the class is its own enlargement
    c_spec = cocoercive(1.0).intersect(strongly_monotone(1.0))
    assert enlarge_C(c_spec, DysParams(1.0, 1.0), "thm33") is c_spec


@pytest.mark.parametrize("mode", ["disk_hull", "thm33", "thm41"])
def test_enlarge_unbounded_c_rejected(mode):
    with pytest.raises(UnboundedRegionError):
        enlarge_C(strongly_monotone(0.5), DysParams(1.0, 1.0), mode)


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
    ("thm41", lambda: monotone().intersect(lipschitz(1.0)),
     {"shift": 1.0 / 3.0}),
])
def test_enlargement_contains_original(mode, c_builder, kwargs):
    rng = np.random.default_rng(2)
    c_spec = c_builder()
    params = DysParams(1.0, 1.0, **kwargs)
    bigger = srg(enlarge_C(c_spec, params, mode))
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
    mu, l_c, alpha = 1.0, 1.0, 1.0
    params = DysParams(alpha, 1.0, 1.0 - thm41_theta(alpha, mu, l_c))
    c_prime = enlarge_C(monotone().intersect(lipschitz(l_c)), params,
                        "thm41")
    mirror = c_side_mirror_region(c_prime, params)
    (atom,) = mirror.atoms
    assert isinstance(atom, Disk)
    assert abs(atom.center) < 1e-12
    assert has_right_arc_property(mirror)
    assert has_left_arc_property(mirror)
    report = dys_preflight(strongly_monotone(mu), monotone(), c_prime, params)
    assert report.applicable


def _assert_ball(c_prime, center, radius, where):
    (ball,) = c_prime.atoms
    assert ball.center == pytest.approx(center, rel=4.4e-15, abs=0.0), where
    assert ball.radius == pytest.approx(radius, rel=4.4e-15, abs=0.0), where


def test_thm33_enlargement_containment_randomized():
    # over Theorem 3.3's window (lambda < 2 - alpha/(2 beta_C),
    # 0 < mu_C < 1/beta_C) at s = 0, the ball about sigma/alpha is the
    # theorem's, and it contains C
    rng = np.random.default_rng(9)
    for _ in range(2000):
        beta = float(rng.uniform(0.3, 2.5))
        alpha = float(rng.uniform(0.05, 3.9 * beta))
        lam = float(rng.uniform(0.05, 0.98) * (2.0 - alpha / (2.0 * beta)))
        mu_c = float(rng.uniform(0.05, 0.98) / beta)
        params = DysParams(alpha, lam)
        c_spec = cocoercive(beta).intersect(strongly_monotone(mu_c))
        c_prime = enlarge_C(c_spec, params, "thm33")
        where = (alpha, lam, beta, mu_c)
        _assert_ball(c_prime, *thm33_ball(alpha, lam, beta, mu_c), where)
        zs = rng.uniform(0, 1.2 / beta, 40) + \
            1j * rng.uniform(-0.6 / beta, 0.6 / beta, 40)
        inside = zs[srg(c_spec).contains(zs)]
        assert srg(c_prime).contains(inside, 1e-12).all(), where


def test_thm41_enlargement_containment_randomized():
    # over Theorem 4.1's window (alpha < 2 mu/L_C^2) at lambda = 1 and
    # s = 1 - theta, the ball about sigma/alpha is the theorem's, and it
    # contains C
    rng = np.random.default_rng(10)
    for _ in range(2000):
        mu = float(rng.uniform(0.2, 2.0))
        l_c = float(rng.uniform(0.2, 2.0))
        alpha = float(rng.uniform(0.05, 0.95) * 2.0 * mu / l_c ** 2)
        params = DysParams(alpha, 1.0, 1.0 - thm41_theta(alpha, mu, l_c))
        c_spec = monotone().intersect(lipschitz(l_c))
        c_prime = enlarge_C(c_spec, params, "thm41")
        where = (alpha, mu, l_c)
        _assert_ball(c_prime, *thm41_ball(alpha, mu, l_c), where)
        zs = rng.uniform(0, 1.1 * l_c, 40) + \
            1j * rng.uniform(-1.1 * l_c, 1.1 * l_c, 40)
        inside = zs[srg(c_spec).contains(zs)]
        assert srg(c_prime).contains(inside, 1e-12).all(), where


_MODERATE = st.floats(0.05, 5.0)
_BOUNDED_ATOM = st.one_of(
    _MODERATE.map(Cocoercive), _MODERATE.map(Lipschitz),
    st.floats(0.05, 0.95).map(Averaged),
    st.builds(ShiftedLipschitzBall, st.floats(-5.0, 5.0), _MODERATE))
_ANY_ATOM = st.one_of(st.just(Monotone()), _MODERATE.map(StronglyMonotone),
                      _BOUNDED_ATOM)


@settings(max_examples=300, deadline=None)
@given(_BOUNDED_ATOM, st.lists(_ANY_ATOM, max_size=2),
       st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(-1.0, 0.9),
       st.sampled_from(["thm33", "thm41"]))
def test_enlargement_ball_restores_the_c_side_arc(bounded, others, alpha,
                                                  lam, shift, mode):
    # any bounded C, in or out of the theorems' windows: the ball about
    # sigma/alpha holds C's boundary, and its mirror region alpha C' - sigma
    # is a disk about 0, which has both arc properties
    try:
        c_spec = OperatorClassSpec((bounded, *others))
    except InvalidClassError:
        assume(False)
    params = DysParams(alpha, lam, shift)
    c_prime = enlarge_C(c_spec, params, mode)
    assume(c_prime is not c_spec)  # C is the one point sigma/alpha
    (ball,) = c_prime.atoms
    center = params.sigma / alpha
    assert ball.center == center
    points = boundary_grid(srg(c_spec), 0.05).points
    assert (np.abs(points - center) <= ball.radius * (1.0 + 1e-12)).all()
    (mirror,) = c_side_mirror_region(c_prime, params).atoms
    assert isinstance(mirror, Disk) and abs(mirror.center) <= 1e-12
    report = dys_preflight(monotone(), monotone(), c_prime, params)
    assert report.c_side_arc

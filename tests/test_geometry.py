"""Region construction, inversive transforms, boundary decomposition and
arc-property checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dysrates import (Arc, Disk, DiskExterior, EmptyRegionError, HalfPlane,
                      PreconditionError, Region, Segment, UnboundedRegionError,
                      UnsupportedOrientationError, boundary_pieces,
                      has_left_arc_property, has_right_arc_property)
from dysrates.geometry import (BoundaryGrid, _piece_maximizer,
                               _value_on_piece, boundary_grid, upper_half)
from oracles import arc_sampling_refuter, distance_to_hull, project


def lens(c1, r1, c2, r2):
    return Region((Disk(c1, r1), Disk(c2, r2)))


CENTER = st.floats(-2.0, 2.0)
RADIUS = st.floats(0.05, 2.0)
ATOM = st.one_of(st.builds(Disk, CENTER, RADIUS),
                 st.builds(DiskExterior, CENTER, RADIUS),
                 st.builds(HalfPlane, CENTER))


def on_some_atom(region, z, tol):
    for atom in region.atoms:
        if isinstance(atom, HalfPlane):
            gap = abs(z.real - atom.threshold)
        else:
            gap = abs(abs(z - atom.center) - atom.radius)
        if gap <= tol:
            return True
    return False


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_contains_boundary_point_of_closed_disk():
    region = Region((Disk(0.0, 1.0),))
    assert region.contains(1.0 + 0j, 0.0)


def test_contains_respects_every_atom():
    region = Region((HalfPlane(0.5), Disk(0.0, 1.0)))
    assert not region.contains(0.4 + 0j, 0.0)
    assert region.contains(0.6 + 0j, 0.0)


def test_contains_derived_point_on_shifted_disk():
    z = 0.7236067977 * cmath.exp(0.1j)
    region = Region((Disk(0.5, 0.5),))
    # oracle: direct evaluation of |z - 1/2| <= 1/2
    assert (abs(z - 0.5) <= 0.5 + 1e-12) == region.contains(z, 1e-12)


def test_contains_rejects_negative_tol():
    with pytest.raises(ValueError):
        Region((Disk(0.0, 1.0),)).contains(0j, -1.0)


def test_contains_rejects_nan_tol():
    # NaN fails every comparison: a guard that refused only tol < 0 would
    # let it through, and every point would read as outside
    with pytest.raises(ValueError, match="nonnegative"):
        Region((Disk(0.0, 1.0),)).contains(0j, float("nan"))


def test_contains_takes_one_tolerance_per_point():
    region = Region((Disk(0.0, 1.0), HalfPlane(-0.5)))
    zs = np.array([1.05 + 0j, 1.05 + 0j, -0.55 + 0j, 0.5j])
    tols = np.array([0.1, 0.01, 0.1, 0.0])
    mask = region.contains(zs, tols)
    assert mask.tolist() == [True, False, True, True]
    assert mask.tolist() == [region.contains(complex(z), float(t))
                             for z, t in zip(zs, tols)]
    for bad in (np.array([0.1, -1e-3, 0.0, 0.0]),
                np.array([0.1, np.nan, 0.0, 0.0])):
        with pytest.raises(ValueError, match="nonnegative"):
            region.contains(zs, bad)


# ---------------------------------------------------------------------------
# translate / scale
# ---------------------------------------------------------------------------

def test_scale_cocoercive_disk():
    beta, alpha = 0.7, 1.3
    h = 1.0 / (2.0 * beta)
    region = Region((Disk(h, h),)).scale(alpha)
    (atom,) = region.atoms
    assert atom == Disk(alpha * h, alpha * h)


def test_translate_disk():
    region = Region((Disk(0.0, 2.0),)).translate(1.0)
    assert region.atoms == (Disk(1.0, 2.0),)


def test_scale_half_plane_positive():
    region = Region((HalfPlane(0.3),)).scale(2.0)
    assert region.atoms == (HalfPlane(0.6),)


def test_scale_half_plane_negative_rejected():
    with pytest.raises(UnsupportedOrientationError):
        Region((HalfPlane(0.3),)).scale(-1.0)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_half_plane_is_disk():
    region = Region((HalfPlane(1.0),)).invert()
    assert region.atoms == (Disk(0.5, 0.5),)


def _circumcircle(p0, p1, p2):
    ax, ay = p0.real, p0.imag
    bx, by = p1.real, p1.imag
    cx, cy = p2.real, p2.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax ** 2 + ay ** 2) * (by - cy) + (bx ** 2 + by ** 2) * (cy - ay)
          + (cx ** 2 + cy ** 2) * (ay - by)) / d
    uy = ((ax ** 2 + ay ** 2) * (cx - bx) + (bx ** 2 + by ** 2) * (ax - cx)
          + (cx ** 2 + cy ** 2) * (bx - ax)) / d
    center = complex(ux, uy)
    return center, abs(p0 - center)


def test_invert_disk_through_origin_interior():
    # brute-force oracle: map boundary samples of Disk(1, 2) through 1/z
    # and fit the image circle
    ts = np.linspace(-math.pi, math.pi, 10_000, endpoint=False)
    zs = 1.0 + 2.0 * np.exp(1j * ts)
    ws = 1.0 / zs
    center, radius = _circumcircle(ws[0], ws[2500], ws[5100])
    assert abs(np.abs(ws - center) - radius).max() < 1e-9
    assert abs(center - (-1.0 / 3.0)) < 1e-12
    assert abs(radius - 2.0 / 3.0) < 1e-12

    region = Region((Disk(1.0, 2.0),)).invert()
    (atom,) = region.atoms
    assert isinstance(atom, DiskExterior)
    assert math.isclose(atom.center, -1.0 / 3.0, abs_tol=1e-14)
    assert math.isclose(atom.radius, 2.0 / 3.0, abs_tol=1e-14)
    # interior of the original maps into the image region
    assert region.contains(1.0 + 0j)


def test_invert_disk_zero_on_boundary():
    region = Region((Disk(1.0, 1.0),)).invert()
    assert region.atoms == (HalfPlane(0.5),)


def test_invert_is_involution_on_membership():
    rng = np.random.default_rng(7)
    regions = [
        Region((Disk(1.5, 0.8),)),
        Region((Disk(1.0 + 0.3, 0.3),)),
        Region((Disk(1.0, 2.0),)),
        Region((HalfPlane(1.0), Disk(1.0, 0.5))),
        Region((Disk(0.5, 0.5), Disk(4.0 / 3.0, 2.0 / 3.0))),
    ]
    zs = rng.uniform(-3, 3, 10_000) + 1j * rng.uniform(-3, 3, 10_000)
    for region in regions:
        double = region.invert().invert()
        direct = region.contains(zs, 1e-10)
        assert np.array_equal(direct, double.contains(zs, 1e-10))


def test_invert_mobius_consistency():
    rng = np.random.default_rng(11)
    region = Region((HalfPlane(1.0), Disk(1.0, 0.5)))
    image = region.invert()
    zs = rng.uniform(0.4, 2.0, 40_000) + 1j * rng.uniform(-1, 1, 40_000)
    inside = zs[region.contains(zs)]
    assert inside.size > 100
    assert image.contains(1.0 / inside, 1e-10).all()
    ws = rng.uniform(0.05, 1.2, 40_000) + 1j * rng.uniform(-0.8, 0.8, 40_000)
    inside_w = ws[image.contains(ws)]
    assert inside_w.size > 100
    assert region.contains(1.0 / inside_w, 1e-10).all()


def _clear_of_zero(atom):
    return isinstance(atom, HalfPlane) or abs(abs(atom.center)
                                              - atom.radius) >= 1e-3


INVERTIBLE_ATOM = st.one_of(
    st.builds(Disk, CENTER, RADIUS),
    st.builds(DiskExterior, CENTER, RADIUS),
    st.builds(HalfPlane, st.floats(1e-3, 2.0))).filter(_clear_of_zero)


def _curve_params(atom):
    if isinstance(atom, HalfPlane):
        return (atom.threshold,)
    return (atom.center, atom.radius)


def _clear_of_boundaries(region, z):
    """z lies at least 1e-6 (relative to each atom's size) off every atom's
    circle or line."""
    for atom in region.atoms:
        if isinstance(atom, HalfPlane):
            gap, size = abs(z.real - atom.threshold), abs(atom.threshold)
        else:
            gap = abs(abs(z - atom.center) - atom.radius)
            size = abs(atom.center) + atom.radius
        if gap < 1e-6 * (1.0 + size):
            return False
    return True


@settings(deadline=None)
@given(st.lists(INVERTIBLE_ATOM, min_size=1, max_size=3),
       st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                min_size=1, max_size=16))
def test_invert_round_trips(atoms, points):
    region = Region(tuple(atoms))
    image = region.invert()
    back = image.invert()
    assert len(back.atoms) == len(region.atoms)
    for atom in region.atoms:
        assert any(type(got) is type(atom)
                   and _curve_params(got) == pytest.approx(
                       _curve_params(atom), rel=1e-12)
                   for got in back.atoms), atom
    for x, y in points:
        z = complex(x, y)
        if abs(z) < 1e-3 or not (_clear_of_boundaries(region, z)
                                 and _clear_of_boundaries(image, 1.0 / z)):
            continue
        assert region.contains(z) == image.contains(1.0 / z)


def test_invert_rejects_zero_interior_half_plane():
    from dysrates import UnsupportedInversionError
    with pytest.raises(UnsupportedInversionError):
        Region((HalfPlane(-0.2),)).invert()


@pytest.mark.parametrize("far, near", [
    (Disk(1.0, 5e159), Disk(1.0, 5e149)),
    (DiskExterior(1.0, 5e159), DiskExterior(1.0, 5e149)),
    (Disk(3e200, 1.0), Disk(3e150, 1.0))])
def test_invert_rejects_an_image_out_of_float_range(far, near):
    # c*c - r*r overflows, so the image's radius r/|d| underflows to 0; a
    # circle at 1e150 still squares inside the float range
    from dysrates import UnsupportedInversionError
    with pytest.raises(UnsupportedInversionError, match="floating-point"):
        Region((far,)).invert()
    assert Region((near,)).invert().atoms[0].radius > 0.0


# ---------------------------------------------------------------------------
# boundary decomposition
# ---------------------------------------------------------------------------

def test_full_circle_piece():
    (piece,) = boundary_pieces(Region((Disk(0.5, 0.5),)))
    assert isinstance(piece, Arc)
    assert piece.angle_start == -math.pi and piece.angle_end == math.pi


def resolvent_lens_region(alpha, mu, L):
    atoms = (HalfPlane(1.0 + alpha * mu), Disk(1.0, alpha * L))
    return Region(atoms).invert()


def _lens_corners(alpha, mu, L):
    denom = alpha ** 2 * L ** 2 + 2 * alpha * mu + 1
    re = (1 + alpha * mu) / denom
    im = alpha * math.sqrt(L ** 2 - mu ** 2) / denom
    return complex(re, im), complex(re, -im)


def _endpoints(pieces):
    out = []
    for p in pieces:
        if isinstance(p, Arc):
            out += [p.point_at(0.0), p.point_at(1.0)]
        else:
            out += [p.p0, p.p1]
    return out


@pytest.mark.parametrize("alpha,mu,L", [
    (1.0, 0.5, 1.5),   # alpha L > 1: disk-exterior branch
    (1.0, 0.2, 0.5),   # alpha L < 1: two-disk lens
    (2.0, 0.2, 0.5),   # alpha L = 1: half-plane branch
])
def test_lens_corners_match_closed_form(alpha, mu, L):
    region = resolvent_lens_region(alpha, mu, L)
    corners = _lens_corners(alpha, mu, L)
    endpoints = _endpoints(boundary_pieces(region))
    for corner in corners:
        assert min(abs(e - corner) for e in endpoints) < 1e-9


def test_monotone_lipschitz_lens_corners():
    alpha, L = 1.0, 0.5
    region = Region((HalfPlane(1.0), Disk(1.0, alpha * L))).invert()
    denom = 1 + alpha ** 2 * L ** 2
    corner = complex(1.0 / denom, alpha * L / denom)
    endpoints = _endpoints(boundary_pieces(region))
    assert min(abs(e - corner) for e in endpoints) < 1e-12
    assert min(abs(e - corner.conjugate()) for e in endpoints) < 1e-12


def test_pieces_lie_on_their_atom_and_inside_others():
    regions = [
        Region((Disk(0.5, 0.5), HalfPlane(0.5))),
        Region((Disk(0.5, 0.5), Disk(4.0 / 3.0, 2.0 / 3.0))),
        Region((Disk(0.5, 0.5), Disk(1.0, 1.0 / math.sqrt(2.0)))),
        resolvent_lens_region(1.0, 0.5, 1.5),
    ]
    for region in regions:
        for piece in boundary_pieces(region):
            pts = piece.sample(200)
            if isinstance(piece, Arc):
                dist = np.abs(np.abs(pts - piece.center) - piece.radius)
                assert dist.max() <= 1e-12
            else:
                assert np.abs(np.real(pts) - piece.p0.real).max() <= 1e-12
            assert region.contains(pts, 1e-12).all()


def test_pieces_meet_only_at_endpoints():
    region = lens(0.5, 0.5, 4.0 / 3.0, 2.0 / 3.0)
    p1, p2 = boundary_pieces(region)
    inner1 = p1.sample(500)[1:-1]
    dist_to_p2 = np.array([abs(project(p2, z) - z) for z in inner1])
    assert dist_to_p2.min() > 1e-6


def test_empty_region_raises():
    with pytest.raises(EmptyRegionError):
        boundary_pieces(Region((Disk(0.0, 1.0), Disk(5.0, 1.0))))


def test_four_atom_region_pieces_on_boundary():
    region = Region((Disk(0.0, 1.0), Disk(0.1, 1.0), Disk(0.2, 1.0),
                     HalfPlane(-0.5)))
    pieces = boundary_pieces(region)
    assert len(pieces) == 4
    for piece in pieces:
        for z in piece.sample(50):
            assert region.contains(z, 1e-12)
            assert on_some_atom(region, z, 1e-12)


@settings(deadline=None)
@given(st.lists(ATOM, min_size=1, max_size=5),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
# two unit circles whose region is the conjugate pair where they cross
@example([Disk(0.0, 1.0), Disk(1.0, 1.0), DiskExterior(0.0, 1.0),
          DiskExterior(1.0, 1.0)], [0.0])
def test_pieces_lie_on_the_boundary(atoms, ts):
    region = Region(tuple(atoms))
    try:
        pieces = boundary_pieces(region)
    except (EmptyRegionError, UnboundedRegionError):
        assume(False)
    for piece in pieces:
        for t in [0.0, 1.0] + ts:
            z = piece.point_at(t)
            assert region.contains(z, 1e-9)
            assert on_some_atom(region, z, 1e-9)


def test_internally_tangent_disks_keep_the_inner_circle():
    # the circles touch at 2.231..., where the cosine bound on the outer
    # circle rounds to just above 1
    inner = Disk(1.981038101268527, 0.25)
    (piece,) = boundary_pieces(Region((inner, Disk(0.25, 1.981038101268527))))
    assert (piece.center, piece.radius) == (inner.center, inner.radius)
    assert (piece.angle_start, piece.angle_end) == (-math.pi, math.pi)


def test_shared_circle_is_one_piece():
    # the unit circle bounds both atoms; the region is the circle itself
    region = Region((Disk(0.0, 1.0), DiskExterior(0.0, 1.0)))
    (piece,) = boundary_pieces(region)
    assert (piece.center, piece.radius) == (0.0, 1.0)
    assert (piece.angle_start, piece.angle_end) == (-math.pi, math.pi)
    points = boundary_grid(region, 1.0 / 30.0).points
    assert np.unique(points).size == points.size
    assert np.array_equal(
        points, boundary_grid(Region((Disk(0.0, 1.0),)), 1.0 / 30.0).points)


def test_shared_line_is_one_piece():
    # Region drops equal atoms; these two lines agree to within 1e-12
    region = Region((HalfPlane(0.5), Disk(0.0, 1.0), HalfPlane(0.5 + 1e-13)))
    arc, segment = boundary_pieces(region)
    assert isinstance(arc, Arc) and isinstance(segment, Segment)
    assert segment.p0.real == 0.5


def test_degenerate_point_region_has_point_boundary():
    # tangency of Disk(1/4, 1/4) and {Re z >= 1/2} at the single point 1/2
    region = Region((Disk(0.25, 0.25), HalfPlane(0.5)))
    (piece,) = boundary_pieces(region)
    assert isinstance(piece, Segment)
    assert piece.p0 == piece.p1
    assert abs(piece.p0 - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

def test_sample_counts_unit_circle():
    pts = boundary_grid(Region((Disk(0.0, 1.0),)), math.pi / 2.0).points
    assert len(pts) >= 4


def test_sample_counts_shifted_disk():
    pts = boundary_grid(Region((Disk(0.5, 0.5),)), 1.0 / 120.0).points
    assert len(pts) >= 378


def test_sampling_covers_boundary():
    region = Region((Disk(0.5, 0.5), HalfPlane(0.5)))
    eps = 0.01
    grid = boundary_grid(region, eps)
    assert grid.covering_radius <= eps / 2.0 + 1e-15
    # dense reference points must all be near a sample
    dense = np.concatenate([p.sample(5000) for p in grid.pieces])
    d = np.abs(dense[:, None] - grid.points[None, :]).min(axis=1)
    assert d.max() <= eps


def test_sample_unbounded_region_rejected():
    with pytest.raises(UnboundedRegionError):
        boundary_grid(Region((HalfPlane(0.0),)), 0.1)


@pytest.mark.parametrize("eps", [5e-324, 1e-310])
def test_subnormal_eps_refused_before_sampling(eps):
    # the unit circle's length over eps overflows to inf
    with pytest.raises(PreconditionError, match="finite boundary sample"):
        boundary_grid(Region((Disk(0.0, 1.0),)), eps)


def test_sample_budget_is_checked_before_sampling(monkeypatch):
    import dysrates.geometry as geometry
    region = Region((Disk(0.0, 1.0),))
    n = boundary_grid(region, 0.1).points.size
    monkeypatch.setattr(geometry, "SAMPLE_BUDGET", n)
    assert boundary_grid(region, 0.1).points.size == n
    monkeypatch.setattr(geometry, "SAMPLE_BUDGET", n - 1)
    with pytest.raises(PreconditionError, match=f"needs {n}"):
        boundary_grid(region, 0.1)


# ---------------------------------------------------------------------------
# the upper half of a boundary
# ---------------------------------------------------------------------------

def _check_upper_half(pieces, eps):
    """Every piece upper_half keeps lies on the given boundary with
    Im z >= 0 and has positive length unless the boundary piece was a point,
    and every point of a dense sample of the whole boundary lies within the
    covering radius of the kept pieces' grid of one of its samples or of the
    conjugate of one."""
    kept = upper_half(pieces)
    assert kept
    for piece in kept:
        assert piece.length > 0.0 or (
            isinstance(piece, Segment) and piece in pieces)
        zs = piece.point_at(np.linspace(0.0, 1.0, 101))
        assert zs.imag.min() >= -1e-12
        for z in zs.tolist():
            gap = min(abs(project(p, z) - z) for p in pieces)
            assert gap <= 1e-12 * (1.0 + abs(z))
    # boundary_grid reads the region only to refuse an unbounded one; the
    # pieces it samples are the ones given
    grid = boundary_grid(Region((Disk(0.0, 1.0),)), eps, kept)
    dense = np.concatenate([p.point_at(np.linspace(0.0, 1.0, 2001))
                            for p in pieces])
    near = np.minimum(
        np.abs(dense[:, None] - grid.points[None, :]).min(axis=1),
        np.abs(dense.conj()[:, None] - grid.points[None, :]).min(axis=1))
    assert near.max() <= grid.covering_radius + 1e-12 * (
        1.0 + np.abs(dense).max())
    return kept


POINT = 0.5 + 0.5j
UPPER_HALF_CASES = {
    "full circle": ([Arc(0.5, 0.5, -math.pi, math.pi)],
                    [Arc(0.5, 0.5, 0.0, math.pi)]),
    "arc through pi": ([Arc(1.0, 1.0, 0.75 * math.pi, 1.25 * math.pi)],
                       [Arc(1.0, 1.0, 0.75 * math.pi, math.pi)]),
    "arc through 0": ([Arc(1.0, 1.0, -1.0, 1.0)], [Arc(1.0, 1.0, 0.0, 1.0)]),
    "conjugate arcs": ([Arc(0.0, 1.0, 0.5, 2.0), Arc(0.0, 1.0, -2.0, -0.5)],
                       [Arc(0.0, 1.0, 0.5, 2.0)]),
    "arc ending on the axis": ([Arc(0.0, 1.0, 0.0, 1.0),
                                Arc(0.0, 1.0, -1.0, 0.0)],
                               [Arc(0.0, 1.0, 0.0, 1.0)]),
    "vertical segment across the axis": (
        [Segment(0.3 - 0.7j, 0.3 + 0.7j)], [Segment(0.3 + 0j, 0.3 + 0.7j)]),
    "downward segment across the axis": (
        [Segment(0.3 + 0.7j, 0.3 - 0.7j)], [Segment(0.3 + 0.7j, 0.3 + 0j)]),
    "segment on the axis": ([Segment(-0.5 + 0j, 1.5 + 0j)],
                            [Segment(-0.5 + 0j, 1.5 + 0j)]),
    "segment ending on the axis": (
        [Segment(0.3 + 0j, 0.3 + 0.7j), Segment(0.3 - 0.7j, 0.3 + 0j)],
        [Segment(0.3 + 0j, 0.3 + 0.7j)]),
    "point": ([Segment(0.25 + 0j, 0.25 + 0j)],
              [Segment(0.25 + 0j, 0.25 + 0j)]),
    "conjugate pair of points": (
        [Segment(POINT, POINT), Segment(POINT.conjugate(), POINT.conjugate())],
        [Segment(POINT, POINT)]),
}


@pytest.mark.parametrize("case", list(UPPER_HALF_CASES))
def test_upper_half_cases(case):
    pieces, expected = UPPER_HALF_CASES[case]
    assert _check_upper_half(pieces, 0.1) == expected


# one to three atoms, one of them a disk so that the region is bounded
BOUNDED_REGION = st.builds(
    lambda disk, others: Region((disk,) + tuple(others)),
    st.builds(Disk, CENTER, RADIUS), st.lists(ATOM, max_size=2))


@settings(deadline=None, max_examples=60)
@given(BOUNDED_REGION, st.sampled_from([0.05, 0.2, 1.0]))
def test_upper_half_of_a_region_boundary(region, eps):
    try:
        pieces = boundary_pieces(region)
    except EmptyRegionError:
        assume(False)
    _check_upper_half(pieces, eps)


PIECE = st.one_of(
    st.builds(lambda c, r, start, span: Arc(c, r, start, start + span),
              CENTER, RADIUS, st.floats(-math.pi, math.pi),
              st.floats(1e-3, 2.0 * math.pi)),
    st.builds(lambda p0, p1: Segment(complex(*p0), complex(*p1)),
              st.tuples(CENTER, CENTER), st.tuples(CENTER, CENTER)))


@settings(deadline=None)
@given(st.lists(st.tuples(PIECE, st.integers(1, 6)), min_size=1, max_size=3))
def test_cells_lie_in_their_hulls(pieces_and_counts):
    # one to six cells on an arc of up to 2 pi: steps over pi/2 and over pi
    pieces, intervals = zip(*pieces_and_counts)
    points = np.concatenate([p.sample(n) for p, n in zip(pieces, intervals)])
    ends, tangents, owner = BoundaryGrid(points, 0.0, pieces,
                                         intervals).cell_hulls()
    cells = [(p, j, n) for p, n in zip(pieces, intervals) for j in range(n)]
    assert len(ends) == len(cells)
    for k, ((piece, j, n), pair) in enumerate(zip(cells, ends)):
        assert np.allclose(points[pair], piece.point_at(np.array([j, j + 1])
                                                        / n), atol=1e-12)
        vertices = list(points[pair]) + list(tangents[owner == k])
        for t in np.linspace(j / n, (j + 1) / n, 17):
            assert distance_to_hull(complex(piece.point_at(t)),
                                    vertices) <= 1e-9


def test_lens_samples_stay_on_boundary():
    region = lens(0.5, 0.5, 4.0 / 3.0, 2.0 / 3.0)
    pts = boundary_grid(region, 0.02).points
    on_c1 = np.abs(np.abs(pts - 0.5) - 0.5) <= 1e-9
    on_c2 = np.abs(np.abs(pts - 4.0 / 3.0) - 2.0 / 3.0) <= 1e-9
    assert np.all(on_c1 | on_c2)


# ---------------------------------------------------------------------------
# arc properties
# ---------------------------------------------------------------------------

def test_real_centered_disk_right_arc():
    assert has_right_arc_property(Region((Disk(0.6, 0.4),)))


def test_half_plane_right_arc():
    for mu in (0.0, 0.3, 2.0):
        assert has_right_arc_property(Region((HalfPlane(mu),)))


def test_shifted_c_region_has_no_arc_property():
    # the negation of (2 - lambda) - alpha*(cocoercive ∩ strongly monotone)
    # at alpha = lambda = 1; negation swaps left and right, so neither
    # property holding here means the original has no arc property either
    mirror = Region((Disk(0.5, 0.5), HalfPlane(0.5))).translate(-1.0)
    assert not has_right_arc_property(mirror)
    assert not has_left_arc_property(mirror)


def test_shifted_enlarged_region_left_arc():
    mirror = Region((Disk(0.5, 0.5),
                     Disk(1.0, 1.0 / math.sqrt(2.0)))).translate(-1.0)
    assert has_left_arc_property(mirror)


def test_negative_centered_disk_left_arc():
    region = Region((Disk(-0.5, 0.5),))
    assert has_left_arc_property(region)
    assert not has_right_arc_property(region)


def test_small_hole_breaks_right_arc_property():
    # the circle |z| = 2 enters the hole around 2, so the right-hand arcs
    # of its points near the hole leave the region; 720 boundary samples
    # of the clipped region miss this
    region = Region((DiskExterior(2.0, 0.1),))
    assert not has_right_arc_property(region)
    assert has_left_arc_property(region)


@settings(deadline=None)
@given(st.lists(ATOM, min_size=1, max_size=4), st.booleans())
def test_refuted_arc_property_is_false(atoms, left):
    region = Region(tuple(atoms))
    try:
        refuted = not arc_sampling_refuter(region, 180, 33, 1e-9, left)
    except EmptyRegionError:
        assume(False)
    check = has_left_arc_property if left else has_right_arc_property
    if refuted:
        assert not check(region)


def test_arc_property_matches_sampled_oracle():
    # 720 samples, 65 angles per arc and tol 1e-9 are the settings the
    # package used when the refuter decided arc properties
    rng = np.random.default_rng(0)

    def atom():
        kind = rng.integers(3)
        c = float(rng.uniform(-2.0, 2.0))
        if kind == 2:
            return HalfPlane(c)
        return (Disk, DiskExterior)[kind](c, float(rng.uniform(0.1, 2.0)))

    pairs = bounded = 0
    while pairs < 300:
        region = Region(tuple(atom() for _ in range(rng.integers(1, 4))))
        for left in (False, True):
            try:
                expected = arc_sampling_refuter(region, 720, 65, 1e-9, left)
            except EmptyRegionError:
                break
            check = has_left_arc_property if left else has_right_arc_property
            assert check(region) == expected, (region, left)
            pairs += 1
            bounded += region.bounded
    assert 0 < bounded < pairs


def test_regions_symmetric_about_real_axis():
    rng = np.random.default_rng(3)
    regions = [
        Region((Disk(0.5, 0.5), HalfPlane(0.5))),
        Region((Disk(0.5, 0.5), Disk(4.0 / 3.0, 2.0 / 3.0))),
        Region((DiskExterior(-1.0 / 3.0, 2.0 / 3.0), Disk(0.0, 3.0))),
    ]
    zs = rng.uniform(-2, 2, 20_000) + 1j * rng.uniform(-2, 2, 20_000)
    for region in regions:
        assert np.array_equal(region.contains(zs),
                              region.contains(np.conj(zs)))


# ---------------------------------------------------------------------------
# farthest point of a piece: the piece maximum of |z - anchor|
# ---------------------------------------------------------------------------

def farthest_on_piece(piece, anchor):
    """The maximizer and the value of |z - anchor| over the piece, checked
    to agree with each other."""
    p = _piece_maximizer(piece)(1.0, -anchor)
    value = float(_value_on_piece(piece, 1.0, -anchor))
    assert abs(abs(p - anchor) - value) <= 1e-14 * (1.0 + value)
    return p, value


def test_farthest_point_antipode():
    p, value = farthest_on_piece(Arc(0.0, 1.0, -math.pi, math.pi), 2.0 + 0j)
    assert abs(p - (-1.0)) < 1e-15
    assert value == 3.0


def test_farthest_point_clipped_arc():
    # oracle: evaluate the distance at both endpoints and 100 interior angles
    center, radius, anchor = 0.5 + 0j, 0.5, 2.0 / 3.0 + 0j
    arc = (math.pi / 2.0, math.pi)
    angles = np.linspace(arc[0], arc[1], 102)
    cand = center + radius * np.exp(1j * angles)
    brute = cand[np.argmax(np.abs(cand - anchor))]
    p, _ = farthest_on_piece(Arc(center.real, radius, *arc), anchor)
    assert abs(p - 0.0) < 1e-12
    assert abs(abs(p - anchor) - abs(brute - anchor)) < 1e-9


def test_farthest_point_brute_force_full_circle():
    rng = np.random.default_rng(5)
    angles = np.linspace(-math.pi, math.pi, 10_000)
    for _ in range(50):
        center = complex(rng.uniform(-1, 1), 0.0)
        radius = rng.uniform(0.1, 2.0)
        anchor = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(anchor - center) < 1e-6:
            continue
        pts = center + radius * np.exp(1j * angles)
        brute = np.abs(pts - anchor).max()
        _, value = farthest_on_piece(
            Arc(center.real, radius, -math.pi, math.pi), anchor)
        assert value >= brute - 1e-9


def test_farthest_point_anchor_at_center():
    # every point of the circle is equally far: the first endpoint is taken
    piece = Arc(0.5, 0.5, -math.pi, math.pi)
    p, value = farthest_on_piece(piece, 0.5 + 0j)
    assert value == 0.5
    assert p == piece.point_at(0.0)


def test_farthest_point_on_resolvent_lens_hits_corner():
    # over the lens boundary of the (Lipschitz ∩ strongly monotone)
    # resolvent, the distance to the anchor 1/2 peaks at a lens corner
    alpha, mu, L = 1.0, 0.5, 1.5
    region = resolvent_lens_region(alpha, mu, L)
    corner, _ = _lens_corners(alpha, mu, L)
    anchor = 0.5 + 0j
    best = None
    for piece in boundary_pieces(region):
        assert isinstance(piece, Arc)
        p, _ = farthest_on_piece(piece, anchor)
        if best is None or abs(p - anchor) > abs(best - anchor):
            best = p
    assert min(abs(best - corner), abs(best - corner.conjugate())) < 1e-9

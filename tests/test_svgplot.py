"""SVG emission: the point-cloud rows against the per-point reference,
the digit table, the figure map and the outline's point cap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysrates.errors import PreconditionError
from dysrates.geometry import Arc
from dysrates.svgplot import _ARC_POINTS, _FIVE, SvgFigure, bounds_for
from oracles import svg_points_reference

INF = math.inf
TINY = 2.2250738585072014e-308  # smallest normal double


class _Unmapped(SvgFigure):
    """A figure whose map is the identity, so the tests pick the mapped
    coordinates themselves."""

    def _map(self, x, y):
        return x, y


def _cloud(pairs):
    zs = np.empty(len(pairs), dtype=complex)
    zs.real = [x for x, _ in pairs]
    zs.imag = [y for _, y in pairs]
    return zs


def _emitted(fig, zs, color):
    before = len(fig.elements)
    fig.add_points(zs, color)
    return "\n".join(fig.elements[before:])


# ties of '%05.0f' % (v * 100.0) lie near the half centipixels; their
# neighbours are the closest floats on either side.  The digits run out at
# 999.995, where the product rounds to 100000.
_TIE = st.integers(0, 64000).map(lambda k: (k + 0.5) / 100.0)
COORDS = st.one_of(
    st.floats(0.0, 640.0, exclude_max=True),
    _TIE,
    _TIE.map(lambda v: math.nextafter(v, INF)),
    _TIE.map(lambda v: math.nextafter(v, -INF)),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=999.99, allow_infinity=False),
    st.floats(-TINY, TINY),
    st.sampled_from([-0.0, 0.0, math.nan, INF, -INF, -0.004, -0.005,
                     0.005, 999.985, 999.995, math.nextafter(999.995, 0.0),
                     math.nextafter(999.995, INF), 1000.0]),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(COORDS, COORDS), max_size=40),
       st.sampled_from(["#555555", "#bbbbbb"]))
def test_add_points_matches_reference(pairs, color):
    # the reference formats v * 100.0 unrounded, add_points its rint
    fig = _Unmapped(0.0, 1.0, 0.0, 1.0)
    zs = _cloud(pairs)
    assert _emitted(fig, zs, color) == svg_points_reference(fig, zs, color)


def test_add_points_matches_reference_through_the_map():
    rng = np.random.default_rng(0)
    zs = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) * 0.4
    fig = SvgFigure(*bounds_for(zs, 0.7745966692))
    got = _emitted(fig, zs, "#555555")
    assert got == svg_points_reference(fig, zs, "#555555")
    assert got.count("<circle") == zs.size


def test_empty_cloud_adds_no_element():
    fig = SvgFigure(0.0, 1.0, 0.0, 1.0)
    fig.add_points(np.array([], dtype=complex), "#555555")
    assert fig.elements == []


# a row count for the cases below, which put rows off the digit table
# first, last, next to each other and in long runs of a cloud
B = 4096


@pytest.mark.parametrize("size, slow", [
    (2 * B + 17, []),
    (2 * B + 17, [B, 2 * B]),
    (2 * B + 17, [B - 1, 2 * B - 1]),
    (2 * B + 17, [0, 5, 6, B - 1, B, 2 * B + 16]),
    (3 * B + 1, list(range(B, 2 * B))),
    (2 * B, []),
    (2 * B, [2 * B - 1]),
    (B, list(range(B))),
], ids=["several_blocks", "slow_first_row", "slow_last_row",
        "adjacent_slow_rows", "block_of_slow_rows", "multiple_of_block",
        "multiple_of_block_slow_last", "all_slow"])
def test_add_points_across_block_edges(size, slow):
    # a slow row has an x that does not round into 0..99999 centipixels:
    # negative, not finite, too large, or rounding up to 100000; a cloud
    # with one is %-formatted whole, still as one element
    rng = np.random.default_rng(size + len(slow))
    zs = rng.uniform(0.0, 640.0, size) + 1j * rng.uniform(0.0, 640.0, size)
    zs.real[slow] = rng.choice([-1.5, INF, 1e6, 999.995], len(slow))
    fig = _Unmapped(0.0, 1.0, 0.0, 1.0)
    got = _emitted(fig, zs, "#555555")
    assert got == svg_points_reference(fig, zs, "#555555")
    assert len(fig.elements) == 1


def test_nul_in_color_matches_reference():
    # a NUL in the colour is written as it is, in the group's fill
    zs = np.array([1.5 + 2.25j, 600.125 + 3.0j, -1.0 + 1.0j] * (B // 2))
    for color in ("#55\x005555", "\x00", "#bbbbbb\x00"):
        fig = _Unmapped(0.0, 1.0, 0.0, 1.0)
        assert _emitted(fig, zs, color) == svg_points_reference(fig, zs,
                                                                color)


def test_color_written_once_per_cloud_in_its_group():
    rng = np.random.default_rng(3)
    zs = rng.uniform(0.0, 640.0, 500) + 1j * rng.uniform(0.0, 640.0, 500)
    zs[7] = -1.0 + 2.0j  # a cloud %-formatted whole has one colour too
    fig = _Unmapped(0.0, 1.0, 0.0, 1.0)
    fig.add_points(zs[:300], "#bbbbbb")
    fig.add_points(zs[300:], "#555555")
    assert len(fig.elements) == 2
    for element, color in zip(fig.elements, ("#bbbbbb", "#555555")):
        head, *rows, tail = element.split("\n")
        assert head == f'<g fill="{color}" transform="scale(0.01)">'
        assert tail == "</g>"
        assert element.count("fill") == 1 and element.count(color) == 1
        assert all(row.startswith("<circle cx=") and row.endswith(' r="80"/>')
                   for row in rows)


def test_five_digit_table():
    assert _FIVE.tolist() == [b"%05d" % k for k in range(100000)]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=20),
       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_map_puts_the_cloud_inside_the_canvas(pairs, radius):
    # an accepted figure maps its clouds into the drawing area, so they
    # round into 0..99999 centipixels and take the digit table
    zs = _cloud(pairs)
    try:
        fig = SvgFigure(*bounds_for(zs, radius))
    except PreconditionError:
        return
    px, py = fig._map(zs.real, zs.imag)
    for v in (px, py):
        assert (v >= 40.0 - 4 * math.ulp(40.0)).all()
        assert (v <= 600.0 + 4 * math.ulp(600.0)).all()


@pytest.mark.parametrize("bounds", [
    (-INF, INF, -1.0, 1.0), (0.0, 1.0, math.nan, 1.0),
    (-9.6e307, 9.6e307, -1.0, 1.0), (0.0, 5e-324, 0.0, 5e-324)],
    ids=["infinite", "nan", "extent_overflows", "scale_overflows"])
def test_figure_out_of_range_refused(bounds):
    with pytest.raises(PreconditionError, match="floating-point range"):
        SvgFigure(*bounds)


def test_arc_outline_takes_at_most_the_cap():
    fig = SvgFigure(-2e5, 2e5, -2e5, 2e5)
    fig.add_piece_outline(Arc(0.0, 1e5, -math.pi, math.pi), "#2060c0")
    points = fig.elements[0].split('"')[1].split()
    assert len(points) == _ARC_POINTS

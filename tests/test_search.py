"""Grid maximization, exact coordinate polish and the certified upper
bound."""

import collections
import contextlib
import importlib.util
import io
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dysrates import (Disk, DiskExterior, DysParams, PreconditionError,
                      Region, UnboundedRegionError,
                      boundary_pieces, cocoercive, coordinate_polish,
                      grid_evaluate, lipschitz, monotone,
                      shifted_lipschitz_ball, strongly_monotone, zeta)
import dysrates.geometry as geometry_module
import dysrates.search as search_module
from dysrates import rates
from dysrates.classes import resolvent_srg, srg
from dysrates.cli import ProblemSpec, main
from dysrates.geometry import (Arc, Segment, _piece_maximizer, _value_on_piece,
                               boundary_grid)
from dysrates.search import POLISH_SEEDS, _peaks, search, search_regions
from dysrates.verify import _random_boundary_points
from oracles import (lipschitz_bound, polish_every_row, project,
                     shifted_modulus)

P11 = DysParams(1.0, 1.0)


def published_instance():
    a = monotone()
    b = monotone().intersect(lipschitz(0.5))
    c = cocoercive(1.0).intersect(strongly_monotone(0.5))
    return a, b, c


def enlarged_c():
    return cocoercive(1.0).intersect(
        shifted_lipschitz_ball(1.0, 1.0 / math.sqrt(2.0)))


def instance_pieces(a, b, c, eps):
    grids = [boundary_grid(resolvent_srg(a, 1.0), eps),
             boundary_grid(resolvent_srg(b, 1.0), eps),
             boundary_grid(srg(c), eps)]
    return grids


# ---------------------------------------------------------------------------
# grid stage
# ---------------------------------------------------------------------------

def test_grid_single_point_boundaries():
    best, triple, _, evals, _ = grid_evaluate([Segment(0.5 + 0j, 0.5 + 0j)],
                                              [0.5 + 0j], [1 + 0j], P11)
    assert best == pytest.approx(0.25)
    assert triple == (0.5 + 0j, 0.5 + 0j, 1.0 + 0j)
    assert evals == 1


def test_grid_empty_boundary_rejected():
    with pytest.raises(PreconditionError):
        grid_evaluate([Segment(0.5 + 0j, 0.5 + 0j)], [0.5 + 0j], [], P11)


def test_grid_pair_budget_checked_before_evaluating(monkeypatch):
    segment = [Segment(0.5 + 0j, 0.5 + 0j)]
    monkeypatch.setattr(search_module, "PAIR_BUDGET", 6)
    assert grid_evaluate(segment, [0.5 + 0j] * 2, [1 + 0j] * 3, P11)[3] == 6

    def evaluated(*args):
        raise AssertionError("a pair was evaluated")
    monkeypatch.setattr(search_module, "_max_over_a", evaluated)
    with pytest.raises(PreconditionError, match="2 x 4 = 8"):
        grid_evaluate(segment, [0.5 + 0j] * 2, [1 + 0j] * 4, P11)


def test_search_samples_only_b_and_c(monkeypatch):
    sampled = []

    def recording(region, eps, *pieces):
        sampled.append(region)
        return boundary_grid(region, eps, *pieces)
    monkeypatch.setattr(search_module, "boundary_grid", recording)
    a, b, c = published_instance()
    regions = resolvent_srg(a, 1.0), resolvent_srg(b, 1.0), srg(c)
    search_regions(*regions, P11, 1.0 / 30.0)
    assert sampled == list(regions[1:])


@pytest.mark.parametrize("stage", ["search_regions", "locate_maximum"])
def test_search_decomposes_each_boundary_once(monkeypatch, stage):
    decomposed = []

    def recording(region):
        decomposed.append(region)
        return boundary_pieces(region)
    # boundary_grid decomposes through the geometry module's attribute
    monkeypatch.setattr(search_module, "boundary_pieces", recording)
    monkeypatch.setattr(geometry_module, "boundary_pieces", recording)
    a, b, c = published_instance()
    regions = resolvent_srg(a, 1.0), resolvent_srg(b, 1.0), srg(c)
    getattr(search_module, stage)(*regions, P11, 1.0 / 30.0)
    assert decomposed == list(regions)


def test_package_attribute_is_the_search_module():
    import dysrates
    import dysrates.search as m
    assert m is dysrates.search
    assert callable(m.locate_maximum)
    assert m.search is search


def test_grid_lexicographic_tie_break():
    # all four triples give |zeta| = 1; the first index wins, and both grid
    # pairs of the plateau are peaks
    zs = [0j, 0j]
    best, triple, top, _, _ = grid_evaluate([Segment(z, z) for z in zs], zs,
                                            [1.0 + 0j], P11)
    assert best == pytest.approx(1.0)
    assert triple == (0j, 0j, 1.0 + 0j)
    assert len(top) == 2


def test_plateau_seeds_go_where_the_neighbours_fall_off_least():
    # a row of ten equal peaks, more than POLISH_SEEDS; the last entry's
    # neighbour in the next row is the highest, so it leads, and the first
    # POLISH_SEEDS by index no longer take every seed
    values = np.zeros((3, 10))
    values[0] = 1.0
    values[1, 9], values[1, 4] = 0.5, 0.25
    seeds = _peaks(values)
    assert len(seeds) == POLISH_SEEDS
    assert list(seeds[:2]) == [9, 4]
    assert set(seeds) < set(range(10))


@pytest.mark.parametrize("denom", [30, 60])
@pytest.mark.parametrize("c", [published_instance()[2], enlarged_c()],
                         ids=["plain", "enlarged"])
def test_grid_candidates_are_upper_half_and_not_mirrors(c, denom):
    # a conjugate triple has the same value, so B is searched on
    # Im z_B >= 0 only and no polish seed is spent on a mirror image
    a, b, _ = published_instance()
    regions = _instance_regions(a, b, c, P11)
    seeds = search_module._grid_stage(*regions, P11, 1.0 / denom)[4]
    assert all(z_b.imag >= 0.0 for _, z_b, _ in seeds)
    for i, x in enumerate(seeds):
        for y in seeds[i + 1:]:
            assert max(abs(u.conjugate() - v) for u, v in zip(x, y)) > 1e-12


def test_grid_close_to_published_value_within_certificate_slack():
    a, b, c = published_instance()
    grids = instance_pieces(a, b, c, 1.0 / 120.0)
    best, _, _, _, _ = grid_evaluate(grids[0].pieces, grids[1].points,
                                     grids[2].points, P11)
    assert abs(best - 0.7236067977) <= 6.0 / 120.0


# ---------------------------------------------------------------------------
# the symbol as an affine function of one coordinate
# ---------------------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(st.sampled_from([0, 1, 2]),
       st.tuples(*[st.complex_numbers(max_magnitude=4.0)] * 3),
       st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(-1.0, 0.9))
def test_affine_in_is_the_symbol(idx, zs, alpha, lam, shift):
    # P z_idx + Q, which the grid, the certificate and the polish read,
    # equals zeta - s to a few roundings of the largest term
    params = DysParams(alpha, lam, shift)
    p_coef, q_coef = search_module._affine_in(idx, *zs, params)
    z_a, z_b, z_c = zs
    scale = 1.0 + abs(shift) + lam * (abs(z_a) + abs(z_b) + abs(z_a * z_b)
                                      * (2.0 + alpha * abs(z_c)))
    assert abs(p_coef * zs[idx] + q_coef - (zeta(*zs, params) - shift)) \
        <= 8.0 * math.ulp(scale)


# ---------------------------------------------------------------------------
# closed-form maximum over A (property tests)
# ---------------------------------------------------------------------------

COMPLEX = st.complex_numbers(max_magnitude=5.0)
PIECE = st.one_of(
    st.builds(lambda c, r, a0, span: Arc(c, r, a0, a0 + span),
              st.floats(-2.0, 2.0), st.floats(0.01, 2.0),
              st.floats(-math.pi, math.pi), st.floats(1e-3, 2.0 * math.pi)),
    st.builds(Segment, COMPLEX, COMPLEX))
PARAMS = st.builds(DysParams, st.floats(0.05, 3.0), st.floats(0.1, 2.0),
                   st.floats(-0.5, 0.5))
AB_CLASS = st.one_of(
    st.just(monotone()), st.floats(0.1, 2.0).map(strongly_monotone),
    st.floats(0.2, 3.0).map(lambda L: monotone().intersect(lipschitz(L))))
C_CLASS = st.one_of(
    st.floats(0.3, 3.0).map(cocoercive),
    st.builds(lambda beta, frac: cocoercive(beta).intersect(
        strongly_monotone(frac / beta)),
        st.floats(0.3, 3.0), st.floats(0.05, 0.9)))


def _instance_regions(a, b, c, params):
    return (resolvent_srg(a, params.alpha), resolvent_srg(b, params.alpha),
            srg(c))


VALUE_PIECE = st.one_of(
    PIECE,
    st.builds(lambda c, r: Arc(c, r, -math.pi, math.pi),
              st.floats(-2.0, 2.0), st.floats(0.01, 2.0)))
# P = 0 makes the piece's value constant; on an arc so does W = Pc + Q = 0
PQ_KIND = st.sampled_from(["free", "p_zero", "w_zero"])
PQS = st.lists(st.tuples(COMPLEX, COMPLEX, PQ_KIND), min_size=1, max_size=8)


def _coefficients(piece, pqs):
    """Arrays P and Q of the drawn (P, Q, kind) triples, with P set to 0
    or Q to -P times the arc center (the segment's first end) by kind."""
    anchor = piece.center if isinstance(piece, Arc) else piece.p0
    p_coef = np.array([0j if kind == "p_zero" else p for p, _, kind in pqs])
    q_coef = np.array([-p * anchor if kind == "w_zero" else q
                       for (_, q, kind), p in zip(pqs, p_coef)])
    return p_coef, q_coef


@settings(deadline=None)
@given(VALUE_PIECE, PQS)
# arg W underflows: cmath.phase(2 + 5e-324j) raises OverflowError
@example(Arc(1.0, 1.0, -math.pi, math.pi), [(1 + 0j, 1 + 5e-324j, "free")])
def test_piece_maximizer_is_sound_and_lies_on_piece(piece, pqs):
    p_coef, q_coef = _coefficients(piece, pqs)
    maximizer = _piece_maximizer(piece)
    samples = piece.point_at(np.linspace(0.0, 1.0, 200))
    for (_, _, kind), p, q in zip(pqs, p_coef.tolist(), q_coef.tolist()):
        z = maximizer(p, q)
        assert type(z) is complex
        if kind == "p_zero":  # a constant value: the first endpoint
            assert z == piece.point_at(0.0)
        scale = 1.0 + abs(p) * max(abs(z), np.abs(samples).max()) + abs(q)
        assert np.abs(p * samples + q).max() <= abs(p * z + q) + 1e-13 * scale
        assert abs(project(piece, z) - z) <= 1e-12 * (1.0 + abs(z))


@settings(deadline=None)
@given(VALUE_PIECE, PQS)
def test_value_on_piece_is_value_at_piece_maximizer(piece, pqs):
    p_coef, q_coef = _coefficients(piece, pqs)
    value = _value_on_piece(piece, p_coef, q_coef)
    maximizer = _piece_maximizer(piece)
    samples = piece.point_at(np.linspace(0.0, 1.0, 200))
    for p, q, v in zip(p_coef.tolist(), q_coef.tolist(), value):
        z = maximizer(p, q)
        scale = 1.0 + abs(p) * max(abs(z), np.abs(samples).max()) + abs(q)
        assert abs(v - abs(p * z + q)) <= 1e-13 * scale
        assert np.abs(p * samples + q).max() <= v + 1e-13 * scale


def _seed_positions(values):
    """(j, k) of the grid pairs grid_evaluate seeds the polish from: the
    entries at least as large as their four neighbours, an edge entry
    standing in for a missing one, by value, then neighbour sum, largest
    first, then by position; at most POLISH_SEEDS."""
    n_b, n_c = values.shape
    ranked = []
    for j in range(n_b):
        for k in range(n_c):
            around = [values[min(max(j + dj, 0), n_b - 1),
                             min(max(k + dk, 0), n_c - 1)]
                      for dj, dk in ((-1, 0), (1, 0), (0, -1), (0, 1))]
            if all(values[j, k] >= v for v in around):
                ranked.append((-values[j, k], -sum(around), j, k))
    return [(j, k) for _, _, j, k in sorted(ranked)[:POLISH_SEEDS]]


@settings(deadline=None)
@given(st.lists(PIECE, min_size=1, max_size=3),
       st.lists(COMPLEX, min_size=1, max_size=12),
       st.lists(COMPLEX, min_size=1, max_size=12), PARAMS)
def test_grid_value_is_symbol_at_reported_triple(pieces, zbs, zcs, params):
    best, triple, top, evals, values = grid_evaluate(pieces, zbs, zcs,
                                                     params)
    za, zb, zc = triple
    lam, alpha = params.lam, params.alpha
    terms = (1.0 + lam * abs(za) + lam * abs(zb) + abs(params.shift)
             + lam * abs(2.0 - alpha * zc) * abs(za) * abs(zb))
    assert best == pytest.approx(float(shifted_modulus(*triple, params)),
                                 rel=1e-14, abs=1e-14 * terms)
    # the candidates sit at the seed positions, the best first; repeated
    # samples make repeated pairs, so they are compared as a multiset
    assert top[0] == triple
    seeds = _seed_positions(values)
    assert (collections.Counter((zb, zc) for _, zb, zc in top)
            == collections.Counter((zbs[j], zcs[k]) for j, k in seeds))
    assert evals == len(pieces) * len(zbs) * len(zcs)
    # values holds the maximum over A of every grid pair, the best included
    assert values.shape == (len(zbs), len(zcs))
    assert best == pytest.approx(values.max(), rel=1e-14, abs=1e-14 * terms)


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS)
def test_grid_dominates_sampled_cubic_grid(a, b, c, params):
    grids = [boundary_grid(r, 1.0 / 20.0)
             for r in _instance_regions(a, b, c, params)]
    best, _, _, _, _ = grid_evaluate(grids[0].pieces, grids[1].points,
                                     grids[2].points, params)
    brute = shifted_modulus(grids[0].points[:, None, None],
                            grids[1].points[None, :, None],
                            grids[2].points[None, None, :], params).max()
    assert best >= brute - 1e-12


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS, st.integers(0, 2 ** 32 - 1))
def test_certified_upper_bounds_random_boundary_triples(a, b, c, params,
                                                        seed):
    regions = _instance_regions(a, b, c, params)
    result = search_regions(*regions, params, 1.0 / 20.0)
    rng = np.random.default_rng(seed)
    zs = [_random_boundary_points(boundary_pieces(r), 500, rng)
          for r in regions]
    assert shifted_modulus(*zs, params).max() <= result.certified_upper


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS)
def test_certified_upper_bounds_finer_polished_value(a, b, c, params):
    regions = _instance_regions(a, b, c, params)
    coarse = search_regions(*regions, params, 1.0 / 20.0)
    fine = search_regions(*regions, params, 1.0 / 80.0)
    assert fine.best_value <= coarse.certified_upper


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS)
def test_certified_upper_never_looser_than_enclosure_bound(a, b, c, params):
    regions = _instance_regions(a, b, c, params)
    result = search_regions(*regions, params, 1.0 / 20.0)
    enclosure = lipschitz_bound(*(r.smallest_disk_atom() for r in regions),
                                params)
    assert result.certified_upper <= (result.grid_best_value + enclosure
                                      * result.covering_radius + 1e-12)


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS)
def test_reported_points_lie_on_the_upper_half_of_b(a, b, c, params):
    # the polish steps over all of B and reports a best point below the
    # axis as its mirror, which has the same value to the bit
    regions = _instance_regions(a, b, c, params)
    result = search_regions(*regions, params, 1.0 / 20.0)
    assert result.grid_best_point[1].imag >= 0.0
    assert result.best_point[1].imag >= 0.0
    if result.best_value > result.grid_best_value:
        assert result.best_value == abs(zeta(*result.best_point, params)
                                        - params.shift)


def _polish_from_best_grid_pairs(regions, params, eps):
    """(search result, value of the polish started from the 64 largest
    grid values), those being the seeds the search took before the peaks."""
    result = search_regions(*regions, params, eps)
    pieces = (boundary_pieces(regions[0]),) + tuple(
        boundary_grid(r, eps).pieces for r in regions[1:])
    zb, zc = (boundary_grid(r, eps).points for r in regions[1:])
    values = grid_evaluate(pieces[0], zb, zc, params)[4]
    best64 = np.argsort(-values.ravel(), kind="stable")[:64]
    starts = [grid_evaluate(pieces[0], [zb[j]], [zc[k]], params)[1]
              for j, k in zip(*np.unravel_index(best64, values.shape))]
    return result, coordinate_polish(starts, pieces, params)[0]


# Instances where a grid row ties: B's resolvent boundary passes through 0,
# where zeta does not depend on z_C.  Seeded by index alone, the first 8 of
# the 33 equal peaks in the first instance's row would climb to 1.401303
# while the rest of the row reaches 1.401406; the four would lose 1.0e-4,
# 2.4e-3, 2.8e-4 and 3.6e-4 to the 64 best pairs.
PLATEAUS = [
    (monotone().intersect(lipschitz(2.9877632380693893)),
     strongly_monotone(1.7029672198779768), cocoercive(1.970252280329724),
     DysParams(2.853361751201259, 1.8396045106716754, -0.40942154484415216)),
    (monotone().intersect(lipschitz(1.98)), strongly_monotone(1.98),
     cocoercive(1.3528088440292558),
     DysParams(2.7669501428135685, 1.3015082446366246, 0.0)),
    (monotone().intersect(lipschitz(1.7672327595458235)),
     strongly_monotone(1.7672327595458235), cocoercive(1.7672327595458235),
     DysParams(2.183213423646313, 1.7672327595458235, -0.2634451842507001)),
    (monotone().intersect(lipschitz(2.123341328807229)),
     strongly_monotone(1.476664009759083),
     cocoercive(1.3399522660706111).intersect(
         strongly_monotone(0.042446257297847526)),
     DysParams(2.9115571756258025, 0.9164900460126674, 0.02320905091045622)),
]


@pytest.mark.parametrize("a, b, c, params, denom", [
    published_instance() + (P11, 30),
    published_instance() + (P11, 60),
    published_instance()[:2] + (enlarged_c(), P11, 30),
    published_instance()[:2] + (enlarged_c(), P11, 60),
] + [plateau + (20,) for plateau in PLATEAUS], ids=[
    "plain-30", "plain-60", "enlarged-30", "enlarged-60",
    "plateau0", "plateau1", "plateau2", "plateau3"])
def test_peak_seeds_match_the_64_best_grid_pairs(a, b, c, params, denom):
    result, best64 = _polish_from_best_grid_pairs(
        _instance_regions(a, b, c, params), params, 1.0 / denom)
    assert result.best_value >= best64 - 1e-12


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS)
def test_peak_seeds_lose_little_to_the_64_best_grid_pairs(a, b, c, params):
    # Eight seeds can end below the 64 best pairs by more than rounding:
    # where the polish stops at its sweep cap while still climbing, or where
    # only pairs that are not peaks lie in the basin of the highest
    # coordinatewise maximum.  Over 15000 draws at eps 1/20 the loss stayed
    # under 0.15 of the certificate gap; most draws lose nothing.
    result, best64 = _polish_from_best_grid_pairs(
        _instance_regions(a, b, c, params), params, 1.0 / 20.0)
    gap = result.certified_upper - result.best_value
    assert best64 <= result.best_value + 1e-12 + 0.25 * gap
    assert result.certified_upper >= result.best_value \
        >= result.grid_best_value


def _dense_boundary(region, n):
    return np.concatenate([p.point_at(np.linspace(0.0, 1.0, n))
                           for p in boundary_pieces(region)])


def _slack_guard(regions, params, eps, samples):
    """Search an instance whose one sampled boundary, a unit circle, puts
    the maximizer well between two of its samples, the other two regions
    being a tiny disk and A; the certificate must still cover the maximum
    found on a dense sample (samples points per piece, A exactly), and so
    must the first-order bound that prunes and caps it, since the polish
    can reach the maximum and lift the certificate to it whatever the
    slack."""
    result = search_regions(*regions, params, eps)
    dense = grid_evaluate(boundary_pieces(regions[0]),
                          *(_dense_boundary(r, n)
                            for r, n in zip(regions[1:], samples)),
                          params)[0]
    # the instance puts the maximum well between samples
    assert dense > result.grid_best_value + 0.25
    assert dense <= result.certified_upper
    assert dense <= (result.grid_best_value
                     + result.lipschitz_constant * result.covering_radius)


def test_certificate_covers_maximum_between_c_samples():
    # z_A = 1, z_B = -20: zeta - s = 20 z_C - 1, M_C = 20 and M_B = 1; C's
    # 7 intervals leave its maximizer 2 halfway between two samples
    regions = [Region((Disk(c, 1e-9),)) for c in (1.0, -20.0)]
    regions.append(Region((Disk(1.0, 1.0),)))
    _slack_guard(regions, DysParams(1.0, 1.0, -19.0), 1.0, (3, 20001))


def test_certificate_covers_maximum_between_b_samples():
    # B is searched on its upper half, whose ends lie on the real axis, so
    # the maximizer must lie off it, which takes a nonreal z_A.  With
    # z_C = 100 and alpha = 0.01, 2 - alpha z_C = 1, and A the circle about
    # 21 of radius 20 gives max_A |zeta - s| = 20 (|z_B + 1| + |z_B - 1|)
    # at s = -40: on the unit circle it peaks at z_B = i, halfway along a
    # cell of the upper half's 5 intervals.  M_B = 40 and M_C = 0.41, so
    # neither r_B nor M_B can be dropped from the bound.
    regions = [Region((Disk(21.0, 20.0),)), Region((Disk(0.0, 1.0),)),
               Region((Disk(100.0, 1e-9),))]
    _slack_guard(regions, DysParams(0.01, 1.0, -40.0), 0.7, (20001, 3))


def _second_peak_guard(regions, params, eps, samples):
    """Search an instance whose grid peaks all lead the polish to the lower
    of two peaks, so that only the certificate can cover the higher one,
    which must lie between samples."""
    result = search_regions(*regions, params, eps)
    dense = grid_evaluate(boundary_pieces(regions[0]),
                          *(_dense_boundary(r, n)
                            for r, n in zip(regions[1:], samples)),
                          params)[0]
    assert dense > result.best_value + 0.1
    assert dense <= result.certified_upper


def test_certificate_covers_second_peak_between_samples():
    # A is a point; B and C are circles sampled at 6 and 2 intervals.  The
    # higher peak lies off the middle of its B and C cells, and its B cell
    # has no corner at the best grid pair, whose value its corners stay
    # below.
    regions = [Region((Disk(-1.1, 1e-9),)), Region((Disk(0.8, 0.8),)),
               Region((Disk(1.1, 0.3),))]
    _second_peak_guard(regions, DysParams(1.6, 0.9, 0.7), 1.0, (1441, 1441))


def test_certificate_covers_second_peak_on_a_coarse_circle():
    # B is a point, A has two pieces, and C is the unit circle about -0.8
    # sampled once, at -1.8, the lower peak: its single cell needs four
    # tangent points
    regions = [Region((Disk(0.2, 0.8), DiskExterior(-0.3, 0.2))),
               Region((Disk(1.8, 1e-9),)), Region((Disk(-0.8, 1.0),))]
    _second_peak_guard(regions, DysParams(1.8, 1.8, 0.7), 10.0, (3, 20001))


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS)
def test_certified_upper_brackets_dense_boundary_maximum(a, b, c, params):
    regions = _instance_regions(a, b, c, params)
    result = search_regions(*regions, params, 1.0 / 10.0)
    # five B and C points per sample interval: most lie between samples
    dense = grid_evaluate(boundary_pieces(regions[0]),
                          *(boundary_grid(r, 1.0 / 50.0).points
                            for r in regions[1:]), params)[0]
    assert dense <= result.certified_upper
    assert result.certified_upper <= (result.grid_best_value
                                      + result.lipschitz_constant
                                      * result.covering_radius)


# ---------------------------------------------------------------------------
# coordinate polish
# ---------------------------------------------------------------------------

def test_coordinate_polish_stationary_point_unchanged():
    # single-point boundaries leave every coordinate nowhere to move
    point_pieces = ((Segment(0.5 + 0j, 0.5 + 0j),),
                    (Segment(0.5 + 0j, 0.5 + 0j),),
                    (Segment(1.0 + 0j, 1.0 + 0j),))
    start = (0.5 + 0j, 0.5 + 0j, 1.0 + 0j)
    value, point, _ = coordinate_polish(start, point_pieces, P11)
    assert value == pytest.approx(0.25)
    assert point == start


def test_coordinate_polish_monotone():
    a, b, c = published_instance()
    grids = instance_pieces(a, b, c, 1.0 / 30.0)
    pieces = tuple(g.pieces for g in grids)
    rng = np.random.default_rng(1)
    for _ in range(50):
        start = tuple(g.points[rng.integers(len(g.points))] for g in grids)
        v0 = float(shifted_modulus(*start, P11))
        v1, _, _ = coordinate_polish(start, pieces, P11)
        assert v1 >= v0 - 1e-15


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS,
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                          st.integers(0, 10 ** 6)), min_size=1, max_size=6))
def test_batched_polish_is_best_single_row(a, b, c, params, picks):
    grids = [boundary_grid(r, 1.0 / 10.0)
             for r in _instance_regions(a, b, c, params)]
    pieces = tuple(g.pieces for g in grids)
    # each start and its mirror image, which often reach conjugate points
    # of equal value: a tie the first row must win
    starts = [tuple(g.points[i % len(g.points)] for g, i in zip(grids, pick))
              for pick in picks]
    starts += [tuple(z.conjugate() for z in start) for start in starts]
    value, point, evals = coordinate_polish(starts, pieces, params)
    rows = [coordinate_polish([start], pieces, params)[:2]
            for start in starts]
    assert (value, point) == max(rows, key=lambda row: row[0])
    # a row retired after two idle steps would never have moved again
    every_row = polish_every_row(starts, pieces, params)
    assert (value, point) == every_row[:2] and evals <= every_row[2]
    assert value >= shifted_modulus(*np.array(starts).T, params).max()


# ---------------------------------------------------------------------------
# end-to-end search
# ---------------------------------------------------------------------------

def test_search_published_instance_coarse():
    a, b, c = published_instance()
    result = search(a, b, c, P11, 1.0 / 40.0)
    assert result.best_value == pytest.approx(0.7236067977, abs=1e-6)


def test_search_enlarged_instance_coarse():
    a, b, _ = published_instance()
    c_prime = cocoercive(1.0).intersect(
        shifted_lipschitz_ball(1.0, 1.0 / math.sqrt(2.0)))
    result = search(a, b, c_prime, P11, 1.0 / 40.0)
    assert result.best_value == pytest.approx(0.7745966692, abs=1e-6)


def test_search_invariant_chain():
    a, b, c = published_instance()
    result = search(a, b, c, P11, 1.0 / 30.0)
    assert result.grid_best_value <= result.best_value + 1e-15
    assert result.best_value <= result.certified_upper + 1e-15
    assert result.certified_upper <= (
        result.grid_best_value
        + result.lipschitz_constant * result.covering_radius)


def test_search_deterministic():
    a, b, c = published_instance()
    r1 = search(a, b, c, P11, 1.0 / 30.0)
    r2 = search(a, b, c, P11, 1.0 / 30.0)
    r3 = search(a, b, c, P11, 1.0 / 30.0)
    assert r1.grid_best_value == r2.grid_best_value == r3.grid_best_value
    assert abs(r1.best_value - r3.best_value) <= 1e-12
    assert r1.best_point == r3.best_point


def test_certified_upper_refinement_chain():
    a, b, c = published_instance()
    for c_class in (c, enlarged_c()):
        results = {}
        for denom in (30, 60, 120):
            results[denom] = search(a, b, c_class, P11, 1.0 / denom)
        lip = results[30].lipschitz_constant
        assert results[60].lipschitz_constant == lip
        assert results[120].lipschitz_constant == lip
        # refining can raise the certificate by at most the finer slack
        assert results[60].certified_upper <= results[30].certified_upper + \
            lip * results[60].covering_radius + 1e-12
        assert results[120].certified_upper <= results[60].certified_upper + \
            lip * results[120].covering_radius + 1e-12
    # the plain certificate is best_value plus a rounding allowance at every
    # eps; the enlarged one shrinks monotonically
    assert results[120].certified_upper < results[60].certified_upper \
        < results[30].certified_upper


def test_published_gap_at_eps_120():
    a, b, c = published_instance()
    for c_class in (c, enlarged_c()):
        result = search(a, b, c_class, P11, 1.0 / 120)
        assert result.certified_upper - result.best_value <= 1e-2


def test_published_gap_at_eps_30():
    a, b, c = published_instance()
    for c_class in (c, enlarged_c()):
        result = search(a, b, c_class, P11, 1.0 / 30)
        assert result.certified_upper - result.best_value <= 1e-3


def test_enlarged_gap_falls_faster_than_eps():
    # a first-order certificate would shrink 4x from eps 1/30 to 1/120;
    # the hull-vertex certificate is second order in eps
    a, b, _ = published_instance()
    gaps = [search(a, b, enlarged_c(), P11, 1.0 / d)
            for d in (30, 120)]
    gaps = [r.certified_upper - r.best_value for r in gaps]
    assert 0.0 < gaps[1] <= gaps[0] / 12.0


def test_search_unbounded_domain_rejected():
    with pytest.raises(UnboundedRegionError):
        search(monotone(), monotone(), strongly_monotone(0.5), P11, 1.0 / 20.0)


def test_search_never_exceeds_closed_form():
    from dysrates import contraction_thm32
    a = monotone().intersect(lipschitz(0.8))
    b = strongly_monotone(0.6)
    c = cocoercive(1.1)
    params = DysParams(0.9, 1.1)
    rho = contraction_thm32(0.9, 1.1, 1.1, 0.8, 0.6, role="A_lip_B_sm").rho
    result = search(a, b, c, params, 1.0 / 40.0)
    assert result.best_value <= rho + 1e-9


def test_ascent_from_best_grid_point_reaches_published_value():
    a, b, c = published_instance()
    grids = instance_pieces(a, b, c, 1.0 / 120.0)
    _, triple, _, _, _ = grid_evaluate(grids[0].pieces, grids[1].points,
                                       grids[2].points, P11)
    pieces = tuple(g.pieces for g in grids)
    value, _, _ = coordinate_polish(triple, pieces, P11)
    assert value == pytest.approx(0.7236067977, abs=1e-9)


# ---------------------------------------------------------------------------
# certificate before polish
# ---------------------------------------------------------------------------

def _counting_polish(mp):
    """Replace the search module's coordinate_polish by a wrapper that
    records the keyword arguments of every call; returns that record."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return coordinate_polish(*args, **kwargs)
    mp.setattr(search_module, "coordinate_polish", counting)
    return calls


def _rounding_allowance(pieces_a, grids, params):
    """16 ulps of the term scale of zeta - s, restated from the search: the
    most the certificate may lie above its vertex bound for rounding."""
    sup_a, sup_b = (max(float(_value_on_piece(p, 1.0, 0.0)) for p in pieces)
                    for pieces in (pieces_a, grids[0].pieces))
    w = np.abs(2.0 - params.alpha * grids[1].points).max()
    terms = 1.0 + abs(params.shift) + params.lam * (sup_a + sup_b
                                                    + sup_a * sup_b * w)
    return 16.0 * np.finfo(float).eps * terms


def _bench_specs():
    """The benchmark's problem generator, bench/specs.py, which imports
    nothing from the package."""
    path = pathlib.Path(__file__).parents[1] / "bench" / "specs.py"
    loader = importlib.util.spec_from_file_location("bench_specs", path)
    specs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(specs)
    return specs


def _maxmod_report(tmp_path, name, eps):
    """The parsed maxmod report of the published instance name, plain or
    enlarged, as the benchmark writes it."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_bench_specs().PUBLISHED[name]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["maxmod", str(path), "--eps", repr(eps)]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("name, denom, polishes", [
    ("plain", 30, 0), ("plain", 120, 0), ("enlarged", 30, 1)])
def test_maxmod_polishes_only_where_the_bound_leaves_room(
        tmp_path, monkeypatch, name, denom, polishes):
    # on the plain instance the vertex bound is the grid best itself, so
    # the polish could gain nothing; the enlarged one leaves a 9.2e-5 gap
    calls = _counting_polish(monkeypatch)
    report = _maxmod_report(tmp_path, name, 1.0 / denom)
    assert len(calls) == polishes
    assert all(call == {"first": 1} for call in calls)
    if not polishes:
        assert report["best_value"] == report["grid_best_value"]
        assert report["best_point"] == report["grid_best_point"]


@settings(deadline=None, max_examples=80)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS)
@example(*published_instance(), P11)
def test_skipped_polish_could_gain_only_rounding(a, b, c, params):
    # about one draw in ten skips the polish; the published plain instance
    # always does
    regions = _instance_regions(a, b, c, params)
    eps = 1.0 / 20.0
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_polish(mp)
        result = search_regions(*regions, params, eps)
    assert result.certified_upper >= result.best_value \
        >= result.grid_best_value
    if calls:
        return
    assert result.best_value == result.grid_best_value
    assert result.best_point == result.grid_best_point
    pieces, grids, _, _, seeds, _, _ = search_module._grid_stage(
        *regions, params, eps)
    allowance = _rounding_allowance(pieces[0], grids, params)
    polished = coordinate_polish(seeds, pieces, params)[0]
    assert polished <= result.best_value + allowance
    assert result.certified_upper <= result.best_value + allowance


def _bench_problems(seed, count=16):
    """(params, regions) of the first count problems the benchmark's sweep
    draws for seed, with the shift its maxmod call and verify probe use:
    s = 1 - theta on thm41 problems, the spec's s on the others."""
    problems = []
    for _, (theorem, raw) in zip(range(count),
                                 _bench_specs().sweep_problems(seed)):
        spec = ProblemSpec(raw)
        shift = spec.shift
        if theorem == "thm41":
            shift = 1.0 - rates.factor(spec.a, spec.b, spec.c, spec.alpha,
                                       spec.lam).theta
        params = DysParams(spec.alpha, spec.lam, shift)
        problems.append((params, (resolvent_srg(spec.a, spec.alpha),
                                  resolvent_srg(spec.b, spec.alpha),
                                  srg(spec.effective_c(params)))))
    return problems


@pytest.mark.parametrize("case", ["published", 0, 1, 2, 3])
def test_polish_from_b_matches_polish_from_a(case):
    # grid_evaluate maximizes z_A exactly at every seed, so a first step in
    # z_A moves no row: starting at z_B ends at the same bits, at the
    # maxmod spacing 1/30 and the verify probe's 1/40
    if case == "published":
        a, b, c = published_instance()
        problems = [(P11, _instance_regions(a, b, c_class, P11))
                    for c_class in (c, enlarged_c())]
    else:
        problems = _bench_problems(case)
    for params, regions in problems:
        for eps in (1.0 / 30.0, 1.0 / 40.0):
            pieces, _, _, _, seeds, _, _ = search_module._grid_stage(
                *regions, params, eps)
            from_a = coordinate_polish(seeds, pieces, params)
            from_b = coordinate_polish(seeds, pieces, params, first=1)
            assert from_b[:2] == from_a[:2]
            assert from_b[2] <= from_a[2]
            every_row = polish_every_row(seeds, pieces, params, first=1)
            assert from_b[:2] == every_row[:2]
            assert from_b[2] <= every_row[2]

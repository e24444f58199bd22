"""Grid maximization, exact coordinate polish and the certified upper
bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysrates import (DysParams, PreconditionError, SearchConfig,
                      UnboundedRegionError, cocoercive, coordinate_polish,
                      grid_evaluate, lipschitz, monotone, search,
                      shifted_lipschitz_ball, shifted_modulus,
                      strongly_monotone)
from dysrates.classes import resolvent_srg, srg
from dysrates.geometry import (Arc, Segment, _max_on_piece, _value_on_piece,
                               boundary_grid)
from dysrates.search import search_regions
from dysrates.verify import _random_boundary_points
from oracles import project

P11 = DysParams(1.0, 1.0)


def published_instance():
    a = monotone()
    b = monotone().intersect(lipschitz(0.5))
    c = cocoercive(1.0).intersect(strongly_monotone(0.5))
    return a, b, c


def instance_pieces(a, b, c, eps):
    grids = [boundary_grid(resolvent_srg(a, 1.0), eps),
             boundary_grid(resolvent_srg(b, 1.0), eps),
             boundary_grid(srg(c), eps)]
    return grids


# ---------------------------------------------------------------------------
# grid stage
# ---------------------------------------------------------------------------

def test_grid_single_point_boundaries():
    best, triple, _, evals = grid_evaluate([Segment(0.5 + 0j, 0.5 + 0j)],
                                           [0.5 + 0j], [1 + 0j], P11)
    assert best == pytest.approx(0.25)
    assert triple == (0.5 + 0j, 0.5 + 0j, 1.0 + 0j)
    assert evals == 1


def test_grid_empty_boundary_rejected():
    with pytest.raises(PreconditionError):
        grid_evaluate([Segment(0.5 + 0j, 0.5 + 0j)], [0.5 + 0j], [], P11)


def test_grid_lexicographic_tie_break():
    # all four triples give |zeta| = 1; the first index wins
    zs = [0j, 0j]
    best, triple, top, _ = grid_evaluate([Segment(z, z) for z in zs], zs,
                                         [1.0 + 0j], P11, top_k=4)
    assert best == pytest.approx(1.0)
    assert triple == (0j, 0j, 1.0 + 0j)


def test_grid_close_to_published_value_within_certificate_slack():
    a, b, c = published_instance()
    grids = instance_pieces(a, b, c, 1.0 / 120.0)
    best, _, _, _ = grid_evaluate(grids[0].pieces, grids[1].points,
                                  grids[2].points, P11)
    assert abs(best - 0.7236067977) <= 6.0 / 120.0


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


@settings(deadline=None)
@given(PIECE, st.lists(st.tuples(COMPLEX, COMPLEX), min_size=1,
                       max_size=8))
def test_max_on_piece_is_sound_and_lies_on_piece(piece, pq):
    p_coef, q_coef = (np.array(v, dtype=complex) for v in zip(*pq))
    far = _max_on_piece(piece, p_coef, q_coef)
    samples = piece.point_at(np.linspace(0.0, 1.0, 200))
    for p, q, z in zip(p_coef, q_coef, far):
        scale = 1.0 + abs(p) * max(abs(z), np.abs(samples).max()) + abs(q)
        assert np.abs(p * samples + q).max() <= abs(p * z + q) + 1e-13 * scale
        assert abs(project(piece, z) - z) <= 1e-12 * (1.0 + abs(z))


VALUE_PIECE = st.one_of(
    PIECE,
    st.builds(lambda c, r: Arc(c, r, -math.pi, math.pi),
              st.floats(-2.0, 2.0), st.floats(0.01, 2.0)))
# P = 0 makes the piece's value constant; on an arc so does W = Pc + Q = 0
PQ_KIND = st.sampled_from(["free", "p_zero", "w_zero"])


@settings(deadline=None)
@given(VALUE_PIECE, st.lists(st.tuples(COMPLEX, COMPLEX, PQ_KIND),
                             min_size=1, max_size=8))
def test_value_on_piece_is_value_at_max_on_piece(piece, pqs):
    anchor = piece.center if isinstance(piece, Arc) else piece.p0
    p_coef = np.array([0j if kind == "p_zero" else p for p, _, kind in pqs])
    q_coef = np.array([-p * anchor if kind == "w_zero" else q
                       for (_, q, kind), p in zip(pqs, p_coef)])
    value = _value_on_piece(piece, p_coef, q_coef)
    far = _max_on_piece(piece, p_coef, q_coef)
    samples = piece.point_at(np.linspace(0.0, 1.0, 200))
    for p, q, v, z in zip(p_coef, q_coef, value, far):
        scale = 1.0 + abs(p) * max(abs(z), np.abs(samples).max()) + abs(q)
        assert abs(v - abs(p * z + q)) <= 1e-13 * scale
        assert np.abs(p * samples + q).max() <= v + 1e-13 * scale


@settings(deadline=None)
@given(st.lists(PIECE, min_size=1, max_size=3),
       st.lists(COMPLEX, min_size=1, max_size=6),
       st.lists(COMPLEX, min_size=1, max_size=6), PARAMS,
       st.integers(1, 8))
def test_grid_value_is_symbol_at_reported_triple(pieces, zbs, zcs, params,
                                                 top_k):
    best, triple, top, evals = grid_evaluate(pieces, zbs, zcs, params,
                                             top_k=top_k)
    za, zb, zc = triple
    lam, alpha = params.lam, params.alpha
    terms = (1.0 + lam * abs(za) + lam * abs(zb) + abs(params.shift)
             + lam * abs(2.0 - alpha * zc) * abs(za) * abs(zb))
    assert best == pytest.approx(float(shifted_modulus(*triple, params)),
                                 rel=1e-14, abs=1e-14 * terms)
    assert top[0] == triple and len(top) == min(top_k, len(zbs) * len(zcs))
    assert evals == len(pieces) * len(zbs) * len(zcs)


@settings(deadline=None, max_examples=40)
@given(AB_CLASS, AB_CLASS, C_CLASS, PARAMS)
def test_grid_dominates_sampled_cubic_grid(a, b, c, params):
    grids = [boundary_grid(r, 1.0 / 20.0)
             for r in _instance_regions(a, b, c, params)]
    best, _, _, _ = grid_evaluate(grids[0].pieces, grids[1].points,
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
    result = search_regions(*regions, params,
                            SearchConfig(eps_grid=1.0 / 20.0, top_k=4))
    rng = np.random.default_rng(seed)
    zs = [_random_boundary_points(r, 500, rng) for r in regions]
    assert shifted_modulus(*zs, params).max() <= result.certified_upper


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
    value, point, _ = coordinate_polish(starts, pieces, params)
    rows = [coordinate_polish([start], pieces, params)[:2]
            for start in starts]
    assert (value, point) == max(rows, key=lambda row: row[0])
    assert value >= shifted_modulus(*np.array(starts).T, params).max()


# ---------------------------------------------------------------------------
# end-to-end search
# ---------------------------------------------------------------------------

def test_search_published_instance_coarse():
    a, b, c = published_instance()
    result = search(a, b, c, P11, SearchConfig(eps_grid=1.0 / 40.0))
    assert result.best_value == pytest.approx(0.7236067977, abs=1e-6)


def test_search_enlarged_instance_coarse():
    a, b, _ = published_instance()
    c_prime = cocoercive(1.0).intersect(
        shifted_lipschitz_ball(1.0, 1.0 / math.sqrt(2.0)))
    result = search(a, b, c_prime, P11, SearchConfig(eps_grid=1.0 / 40.0))
    assert result.best_value == pytest.approx(0.7745966692, abs=1e-6)


def test_search_invariant_chain():
    a, b, c = published_instance()
    result = search(a, b, c, P11, SearchConfig(eps_grid=1.0 / 30.0))
    assert result.grid_best_value <= result.best_value + 1e-15
    assert result.best_value <= result.certified_upper + 1e-15
    assert result.certified_upper == pytest.approx(
        result.grid_best_value
        + result.lipschitz_constant * result.covering_radius)


def test_search_deterministic():
    a, b, c = published_instance()
    r1 = search(a, b, c, P11, SearchConfig(eps_grid=1.0 / 30.0))
    r2 = search(a, b, c, P11, SearchConfig(eps_grid=1.0 / 30.0))
    r3 = search(a, b, c, P11, SearchConfig(eps_grid=1.0 / 30.0))
    assert r1.grid_best_value == r2.grid_best_value == r3.grid_best_value
    assert abs(r1.best_value - r3.best_value) <= 1e-12
    assert r1.best_point == r3.best_point


def test_certified_upper_refinement_chain():
    a, b, c = published_instance()
    results = {}
    for denom in (30, 60, 120):
        results[denom] = search(a, b, c, P11,
                                SearchConfig(eps_grid=1.0 / denom))
    lip = results[30].lipschitz_constant
    assert results[60].lipschitz_constant == lip
    assert results[120].lipschitz_constant == lip
    # refining can raise the certificate by at most the finer slack
    assert results[60].certified_upper <= results[30].certified_upper + \
        lip * results[60].covering_radius + 1e-12
    assert results[120].certified_upper <= results[60].certified_upper + \
        lip * results[120].covering_radius + 1e-12
    # and in practice it shrinks monotonically here
    assert results[120].certified_upper < results[60].certified_upper \
        < results[30].certified_upper


def test_search_unbounded_domain_rejected():
    with pytest.raises(UnboundedRegionError):
        search(monotone(), monotone(), strongly_monotone(0.5), P11,
               SearchConfig(eps_grid=1.0 / 20.0))


def test_search_never_exceeds_closed_form():
    from dysrates import contraction_thm32
    a = monotone().intersect(lipschitz(0.8))
    b = strongly_monotone(0.6)
    c = cocoercive(1.1)
    params = DysParams(0.9, 1.1)
    rho = contraction_thm32(0.9, 1.1, 1.1, 0.8, 0.6, role="A_lip_B_sm").rho
    result = search(a, b, c, params, SearchConfig(eps_grid=1.0 / 40.0))
    assert result.best_value <= rho + 1e-9


def test_ascent_from_best_grid_point_reaches_published_value():
    a, b, c = published_instance()
    grids = instance_pieces(a, b, c, 1.0 / 120.0)
    _, triple, _, _ = grid_evaluate(grids[0].pieces, grids[1].points,
                                    grids[2].points, P11)
    pieces = tuple(g.pieces for g in grids)
    value, _, _ = coordinate_polish(triple, pieces, P11)
    assert value == pytest.approx(0.7236067977, abs=1e-9)

"""Maximization of |zeta - s| over the boundary product of three regions.

The pipeline: sample the boundary of C and the upper half, Im z_B >= 0,
of the boundary of B on an eps-grid (every region is symmetric about the
real axis and zeta has real coefficients, so a conjugate triple has the
same |zeta - s|); for every grid pair (z_B, z_C) take the largest
|zeta - s| over the boundary of A exactly, since zeta - s is affine in z_A
and each arc or segment of A has a closed-form maximum value; locate the
maximizing z_A only at the peaks of that grid, the pairs no array
neighbour exceeds; certify a global upper bound from the grid values
alone; and only when that bound leaves room above the grid best, polish
the peak triples by exact cyclic coordinate maximization over all of B
(the symbol is affine in each argument, so every coordinate step is
solved in closed form).  The grid stage has already maximized z_A exactly
at each peak, so the polish starts at z_B.

Values are computed on numpy arrays (the grid, the certificate, the
Lipschitz sups) by geometry._value_on_piece; located points, the peaks'
z_A and every polish step, on Python complex scalars by
geometry._piece_maximizer: there are at most POLISH_SEEDS rows to
locate, and on so few numpy's per-call overhead outweighs its arithmetic.

The certificate evaluates the same exact-over-A value at the hull
vertices of the B and C sample cells: a cell's two end samples and, on an
arc, the point where their tangents meet.  That value is convex in z_B and
in z_C separately, so its maximum over a pair of cells is reached at a
pair of their vertices, and the gap certified_upper - best_value falls as
eps^2.  When the bound, before its rounding allowance, is the grid best
itself, no boundary triple lies above the grid best by more than rounding,
and the polish is skipped.  The first-order bound

    grid_best + lipschitz_constant * covering_radius

prunes the cells to evaluate and caps the certificate.  Only B and C are
sampled, so the covering radius combines their radii in the Euclidean
product metric, sqrt(r_B^2 + r_C^2), and lipschitz_constant is the
Lipschitz constant in those two coordinates, measured on the boundaries
themselves: exactly over A, and over C at its grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import OperatorClassSpec, resolvent_srg, srg
from .errors import PreconditionError, UnboundedRegionError
from .geometry import (Arc, Region, _piece_maximizer, _value_on_piece,
                       boundary_grid, boundary_pieces, grid_intervals,
                       upper_half)
from .symbol import DysParams, zeta

# Most (z_B, z_C) grid pairs grid_evaluate takes.  The grid stage and the
# certificate peak at about 50-90 bytes per pair, so a search at this budget
# stays under 0.8 GB.  A finer eps is refused before any boundary is sampled.
PAIR_BUDGET = 1 << 23
# The polish starts from at most POLISH_SEEDS grid peaks, stops after
# POLISH_MAX_SWEEPS sweeps over the three coordinates, and accepts a move
# only when it gains more than POLISH_TOL.
POLISH_SEEDS = 8
POLISH_MAX_SWEEPS = 60
POLISH_TOL = 1e-16
# Boundary grid spacing when neither the spec nor the caller gives one.
EPS_GRID = 1.0 / 120.0


@dataclass(frozen=True)
class SearchResult:
    best_value: float
    best_point: tuple
    grid_best_value: float
    grid_best_point: tuple
    certified_upper: float
    lipschitz_constant: float
    covering_radius: float
    evaluations: int


# ---------------------------------------------------------------------------
# The symbol as an affine function of one coordinate
# ---------------------------------------------------------------------------

def _affine_in(idx: int, z_a, z_b, z_c, params: DysParams):
    """(P, Q) with zeta - s = P * z_idx + Q, the other two coordinates held
    fixed; z_idx itself is not read.  Takes scalars or broadcasts over
    arrays."""
    lam, alpha, s = params.lam, params.alpha, params.shift
    if idx == 2:
        return (-lam * alpha * z_a * z_b,
                1.0 - lam * z_a - lam * z_b + 2.0 * lam * z_a * z_b - s)
    other = z_b if idx == 0 else z_a  # zeta is symmetric in z_A and z_B
    return -lam + lam * (2.0 - alpha * z_c) * other, 1.0 - lam * other - s


# ---------------------------------------------------------------------------
# Grid stage
# ---------------------------------------------------------------------------

def _check_pairs(n_b: int, n_c: int) -> None:
    """Refuse a grid of n_b B samples and n_c C samples with more than
    PAIR_BUDGET pairs."""
    if n_b * n_c > PAIR_BUDGET:
        raise PreconditionError(
            f"at most {PAIR_BUDGET} B x C grid pairs",
            f"{n_b} x {n_c} = {n_b * n_c}; use a coarser eps")


def _max_over_a(pieces_a, zb, zc, params: DysParams):
    """Largest |zeta - s| over boundary A, exactly, for every pair of a
    column zb of B points and a row zc of C points, with the coefficients
    of zeta - s = P z_A + Q it was taken from."""
    p_coef, q_coef = _affine_in(0, None, zb, zc, params)
    p_abs = np.abs(p_coef)
    vals = _value_on_piece(pieces_a[0], p_coef, q_coef, p_abs)
    for piece in pieces_a[1:]:
        vals = np.maximum(vals, _value_on_piece(piece, p_coef, q_coef, p_abs))
    return vals, p_coef, q_coef


def _peaks(values):
    """Flat indices of the local maxima of a 2-d array, the entries at
    least as large as each of their four array neighbours (an edge entry
    stands in for its missing ones), largest first; at most POLISH_SEEDS.

    Equal values go to the larger sum of the four neighbours, then to the
    lower index.  Plateaus are common: where boundary B passes through 0,
    zeta does not depend on z_C and a whole row ties.  The polish, once it
    moves z_B, climbs best where the row's neighbours fall off least, and
    by index alone the first POLISH_SEEDS entries of the row would take
    every seed."""
    peak = np.ones(values.shape, dtype=bool)
    peak[1:] &= values[1:] >= values[:-1]
    peak[:-1] &= values[:-1] >= values[1:]
    peak[:, 1:] &= values[:, 1:] >= values[:, :-1]
    peak[:, :-1] &= values[:, :-1] >= values[:, 1:]
    top = np.flatnonzero(peak)
    rows, cols = np.unravel_index(top, values.shape)
    up, down = np.maximum(rows - 1, 0), np.minimum(rows + 1, len(values) - 1)
    left = np.maximum(cols - 1, 0)
    right = np.minimum(cols + 1, values.shape[1] - 1)
    # summed in the order up, down, left, right, from 0, as ties break on it
    near = sum((values[up, cols], values[down, cols], values[rows, left],
                values[rows, right]))
    return top[np.lexsort((top, -near, -values.ravel()[top]))[:POLISH_SEEDS]]


def grid_evaluate(pieces_a, boundary_b, boundary_c, params: DysParams):
    """|zeta - s| maximum over boundary A, exactly, times the Cartesian
    product of the B and C sample lists.

    zeta - s = P z_A + Q is affine in z_A, so every piece of A gives each
    grid pair (z_B, z_C) its maximum value in closed form.  Only the peaks
    of that (B, C) array (_peaks) get their maximizing z_A, located on
    Python complex scalars by _piece_maximizer, from the piece with the
    largest |P z_A + Q| at the point returned (the first piece wins a tie),
    and are rescored there.  A pair with the largest value is
    a peak and ranks first, so one always is a candidate.  Returns
    (best_value, best_triple, candidates, evaluations, values) where
    candidates holds those triples ordered by rescored value then (B, C)
    grid index, best_value is |zeta - s| at the first of them, evaluations
    counts len(pieces_a) * len(boundary_b) * len(boundary_c), and values is
    the (len(boundary_b), len(boundary_c)) array of maxima over boundary A.
    """
    zb = np.asarray(boundary_b, dtype=complex)[:, None]
    zc = np.asarray(boundary_c, dtype=complex)[None, :]
    if len(pieces_a) == 0 or zb.size == 0 or zc.size == 0:
        raise PreconditionError("all three boundaries nonempty",
                                "empty boundary sample")
    _check_pairs(zb.size, zc.size)
    values, p_coef, q_coef = _max_over_a(pieces_a, zb, zc, params)
    maximizers = [_piece_maximizer(piece) for piece in pieces_a]
    ranked = []
    for t in _peaks(values).tolist():
        j, k = divmod(t, zc.size)
        p, q = complex(p_coef[j, k]), complex(q_coef[j, 0])
        # max keeps the first of equal scores: the first piece wins a tie
        za = max((far(p, q) for far in maximizers),
                 key=lambda z: abs(p * z + q))
        ranked.append((abs(p * za + q), t,
                       (za, complex(zb[j, 0]), complex(zc[0, k]))))
    ranked.sort(key=lambda row: (-row[0], row[1]))
    triples = [triple for _, _, triple in ranked]
    return (ranked[0][0], triples[0], triples, len(pieces_a) * values.size,
            values)


# ---------------------------------------------------------------------------
# Local refinement
# ---------------------------------------------------------------------------

def coordinate_polish(starts, pieces_triple, params: DysParams,
                      first: int = 0):
    """Exact cyclic per-coordinate maximization of |zeta - s| from every
    start, stepping each row on Python complex scalars: the rows number at
    most POLISH_SEEDS, too few for numpy arrays to repay their per-call
    overhead.

    starts is one triple or a (k, 3) array of them.  Per coordinate, each
    row's maximizer on every piece comes in closed form from
    _piece_maximizer, as at the grid stage's peaks; the piece with the
    largest |zeta - s| there (the first on a tie) gives the row's move,
    accepted only when it beats the row's value by more than POLISH_TOL.
    Steps cycle through the coordinates from coordinate first (0, 1, 2 for
    A, B, C), for at most POLISH_MAX_SWEEPS sweeps; a row takes every step
    until two steps in a row leave it in place, so no row falls below its
    start.  The coordinates before first must already be maximal at every
    start, as z_A is at a grid seed: they count as run.
    Returns (best_value, best_point, evaluations) for the best row, the
    first row winning a tie.
    """
    rows = np.array(starts, dtype=complex).reshape(-1, 3).tolist()
    maximizers = [[_piece_maximizer(piece) for piece in pieces]
                  for pieces in pieces_triple]
    shift = params.shift
    values = [abs(zeta(*x, params) - shift) for x in rows]
    evals = len(rows)
    live = list(range(len(rows)))
    idle = [0] * len(rows)
    for step in range(3 * POLISH_MAX_SWEEPS):
        idx = (first + step) % 3
        for i in live:
            x = rows[i]
            p_coef, q_coef = _affine_in(idx, *x, params)
            best = -math.inf
            for far in maximizers[idx]:
                trial = x.copy()
                trial[idx] = far(p_coef, q_coef)
                value = abs(zeta(*trial, params) - shift)
                if value > best:
                    best, point = value, trial
            if best > values[i] + POLISH_TOL:
                rows[i], values[i], idle[i] = point, best, 0
            else:
                idle[i] += 1
        evals += len(live) * len(maximizers[idx])
        # A row idle for two steps, once all three coordinates have run (or
        # were maximal at the start), was maximized over the coordinate
        # before them and has not moved since, so each later step would
        # find the same candidates and leave it idle too: it stops.
        if step >= 2 - first:
            live = [i for i in live if idle[i] < 2]
            if not live:
                break
    i = max(range(len(rows)), key=values.__getitem__)
    return values[i], tuple(rows[i]), evals


# ---------------------------------------------------------------------------
# End-to-end search
# ---------------------------------------------------------------------------

def _reach(piece) -> float:
    """Radius of a disk about 0 that holds the piece and, for an arc, its
    center, at least 1.  Python floats: an overflow gives inf, not a
    warning."""
    if isinstance(piece, Arc):
        return max(1.0, abs(piece.center) + piece.radius)
    return max(1.0, abs(piece.p0), abs(piece.p1))


def _check_scale(params: DysParams, pieces_a, pieces_b, pieces_c) -> None:
    """Refuse boundaries, given as pieces, on which the evaluation of
    zeta - s could overflow.

    With every |z| and arc center on boundary X at most R_X >= 1, each
    factor the evaluations form, from lam alpha and 2 - alpha z_C (the
    certificate's Lipschitz sup takes it without lam) to P, Q and the
    terms of zeta - s, is at most about

        scale = 1 + |s| + max(1, lam) R_A R_B (2 + alpha R_C),

    and every value is a sum of a few products of two of them: W conj(P)
    in _value_on_piece, for one.  So 4 scale^2 must be finite; past that
    the crests and the certificate would come from overflowed
    arithmetic."""
    r_a, r_b, r_c = (max(map(_reach, pieces))
                     for pieces in (pieces_a, pieces_b, pieces_c))
    scale = 1.0 + abs(params.shift) + max(1.0, params.lam) * r_a * r_b * (
        2.0 + params.alpha * r_c)
    if not math.isfinite(4.0 * scale * scale):
        raise PreconditionError("a symbol scale whose square is finite",
                                f"scale {scale!r}")


def _grid_stage(region_a: Region, region_b: Region, region_c: Region,
                params: DysParams, eps: float, pieces=None):
    """The grid stage over three explicit regions, on boundary grids of
    spacing eps.  Each boundary is decomposed once, or taken from pieces,
    the three regions' boundary_pieces; only C and the upper half of B are
    sampled, and an eps over the pair budget is refused before either is.
    Returns (pieces, grids, grid_best_value, grid_best_point, seeds,
    evaluations, values), with the boundary pieces of A, B and C, the
    boundary grids of B's upper half and of C, the polish seeds and the
    values array of grid_evaluate."""
    regions = region_a, region_b, region_c
    for name, region in zip("ABC", regions):
        if not region.bounded:
            raise UnboundedRegionError(
                f"search region {name} is unbounded; add a bounding atom or "
                "an enlargement")
    if pieces is None:
        pieces = tuple(boundary_pieces(r) for r in regions)
    # Every region is symmetric about the real axis and zeta has real
    # coefficients, so the conjugate of a boundary triple is a boundary
    # triple whose zeta is the conjugate, and s is real: |zeta - s| is the
    # same at both.  Every triple with Im z_B < 0 has its mirror with
    # Im z_B > 0, so the grid and the certificate lose nothing on the
    # upper half of B.  The polish alone keeps all of B (_polish).
    sampled = upper_half(pieces[1]), pieces[2]
    _check_pairs(*(sum(n + 1 for n in grid_intervals(p, eps))
                   for p in sampled))
    _check_scale(params, *pieces)
    grids = tuple(boundary_grid(r, eps, p)
                  for r, p in zip(regions[1:], sampled))
    grid_best, grid_point, seeds, evals, values = grid_evaluate(
        pieces[0], grids[0].points, grids[1].points, params)
    return pieces, grids, grid_best, grid_point, seeds, evals, values


def _polish(seeds, pieces, params: DysParams, grid_best: float,
            grid_point: tuple):
    """(best_value, best_point, evaluations) of the polish of the grid's
    seeds, or the grid best where the polish does not beat it.  The grid
    stage has maximized z_A exactly at every seed, so the polish starts at
    z_B: a first step in z_A could not move a row.

    The polish steps over all of B.  Mirror symmetry holds for whole
    triples, not for one coordinate: with z_A and z_C fixed off the real
    axis, the best z_B can lie below it, and a polish held to the upper
    half stops at the axis (up to 3e-3 lower, measured on instances whose
    grid rows tie).  A best point with Im z_B < 0 is reported as its mirror,
    whose value is the same bits: conjugating the inputs conjugates every
    rounded complex product and sum."""
    polished, point, evals = coordinate_polish(seeds, pieces, params,
                                               first=1)
    if polished <= grid_best:
        return grid_best, grid_point, evals
    if point[1].imag < 0.0:
        point = tuple(z.conjugate() for z in point)
    return polished, point, evals


def locate_maximum(region_a: Region, region_b: Region, region_c: Region,
                   params: DysParams, eps: float = EPS_GRID, pieces=None):
    """The grid stage and the polish over three explicit regions, without a
    certificate, on boundary grids of spacing eps; pieces, when given, are
    the regions' boundary_pieces.  Returns (best_value, best_point)."""
    pieces, _, grid_best, grid_point, seeds, _, _ = _grid_stage(
        region_a, region_b, region_c, params, eps, pieces)
    return _polish(seeds, pieces, params, grid_best, grid_point)[:2]


def _vertex_bound(pieces_a, grids, values, params: DysParams,
                  threshold: float):
    """Largest |zeta - s| over boundary A, exactly, at the pairs of hull
    vertices of the B and C cells that threshold does not rule out, and
    the evaluations it took; pairs of two samples are left out, as values
    holds them.  A cell is kept when the grid value of one of its end
    samples, maximized over the other coordinate's samples, lies above
    threshold."""
    kept = []
    peaks = values.max(axis=1), values.max(axis=0)
    for grid, peak in zip(grids, peaks):
        ends, tangents, owner = grid.cell_hulls()
        live = peak[ends].max(axis=1) > threshold
        samples = np.zeros(len(grid.points), dtype=bool)
        samples[ends[live]] = True
        kept.append((grid.points[samples], tangents[live[owner]]))
    (samples_b, tangents_b), (samples_c, tangents_c) = kept
    bound, evals = -math.inf, 0
    for zb, zc in ((tangents_b, np.concatenate([samples_c, tangents_c])),
                   (samples_b, tangents_c)):
        if zb.size and zc.size:
            vals = _max_over_a(pieces_a, zb[:, None], zc[None, :], params)[0]
            bound = max(bound, float(vals.max()))
            evals += len(pieces_a) * vals.size
    return bound, evals


def search_regions(region_a: Region, region_b: Region, region_c: Region,
                   params: DysParams, eps: float = EPS_GRID) -> SearchResult:
    """Search |zeta - s| over the boundaries of three explicit regions, on
    boundary grids of spacing eps: the grid stage, then the certificate,
    then the polish, only when the certificate leaves room above the grid
    best."""
    (pieces, (grid_b, grid_c), grid_best, grid_point, seeds, evals,
     values) = _grid_stage(region_a, region_b, region_c, params, eps)
    pieces_a = pieces[0]

    # The pruning bound.  Take any boundary triple (z_A, z_B, z_C) with
    # Im z_B >= 0 (any other has a mirror there of the same value) and the
    # grid points z_B', z_C' nearest to z_B, z_C, within r_B, r_C of them.
    # 1. zeta is affine in z_C with slope -lam alpha z_A z_B, so moving z_C
    #    to z_C' changes |zeta - s| by at most M_C r_C, where
    #    M_C = lam alpha sup_{dA} |z_A| sup_{dB} |z_B|.
    # 2. With z_C' fixed, zeta is affine in z_B with slope
    #    lam ((2 - alpha z_C') z_A - 1), so moving z_B to z_B' costs at most
    #    M_B r_B, where M_B = lam max over the C grid points z_C' of
    #    max_{dA} |(2 - alpha z_C') z_A - 1|.
    # 3. The grid value at (z_B', z_C') is the exact maximum over dA.
    # Hence |zeta - s| <= (grid value at (z_B', z_C')) + M_B r_B + M_C r_C,
    # and by Cauchy-Schwarz <= that value + hypot(M_B, M_C) hypot(r_B, r_C).
    # Each sup is a piece maximum of |P z + Q| in closed form.
    sup_a, sup_b = (np.max([_value_on_piece(p, 1.0, 0.0) for p in pieces])
                    for pieces in (pieces_a, grid_b.pieces))
    m_c = params.lam * params.alpha * sup_a * sup_b
    w = 2.0 - params.alpha * grid_c.points
    m_b = params.lam * np.max([_value_on_piece(p, w, -1.0) for p in pieces_a])
    lipschitz = math.hypot(m_b, m_c)
    covering = math.hypot(grid_b.covering_radius, grid_c.covering_radius)
    slack = lipschitz * covering

    # The certificate.  F(z_B, z_C) = max_{dA} |zeta - s| is the value the
    # grid stage computes exactly.
    # 1. For fixed z_C, zeta - s is affine in z_B for every z_A, so F is a
    #    maximum of moduli of affine maps of z_B, hence convex in z_B; for
    #    fixed z_B it is convex in z_C likewise.
    # 2. Each B or C cell lies in the convex hull of its vertices
    #    (BoundaryGrid.cell_hulls).
    # 3. So over a product of a B cell and a C cell, F is at most its value
    #    at some pair of their vertices: maximize over z_B with z_C fixed,
    #    then over z_C with that vertex fixed.
    # 4. A pair of cells whose four corner grid values are all at most
    #    grid_best - slack is bounded by grid_best through the pruning
    #    bound above (each of its points is within r_B, r_C of a corner).
    # _vertex_bound leaves out the pairs of two samples, whose largest value
    # is grid_best.  Both bounds are sound, so the certificate takes the
    # smaller.
    vertex, vertex_evals = _vertex_bound(pieces_a, (grid_b, grid_c), values,
                                         params, grid_best - slack)
    vertex = max(vertex, grid_best)
    evals += vertex_evals

    # The polish.  It runs only when the bound, before the rounding allowance
    # below, lies above grid_best.  Otherwise no boundary triple beats the
    # grid best by more than that allowance, so the polish could gain no
    # more, and best_value is the grid best.
    best_value, best_point = grid_best, grid_point
    if min(vertex, grid_best + slack) > grid_best:
        best_value, best_point, polish_evals = _polish(
            seeds, pieces, params, grid_best, grid_point)
        evals += polish_evals

    # The vertex bound is tight enough for rounding to show: two evaluations
    # of one maximum, at a point and at its mirror image, can differ by an
    # ulp.  So it carries 16 ulps of the term scale of zeta - s; a proven
    # rounding bound is still open.
    terms = 1.0 + abs(params.shift) + params.lam * (
        sup_a + sup_b + sup_a * sup_b * np.max(np.abs(w)))
    vertex += 16.0 * np.finfo(float).eps * terms
    certified = float(max(min(vertex, grid_best + slack), best_value))
    return SearchResult(best_value, best_point, grid_best, grid_point,
                        certified, lipschitz, covering, evals)


def search(a_spec: OperatorClassSpec, b_spec: OperatorClassSpec,
           c_spec: OperatorClassSpec, params: DysParams,
           eps: float = EPS_GRID) -> SearchResult:
    """Search over the resolvent regions of A and B and the region of C, on
    boundary grids of spacing eps."""
    region_a = resolvent_srg(a_spec, params.alpha)
    region_b = resolvent_srg(b_spec, params.alpha)
    region_c = srg(c_spec)
    return search_regions(region_a, region_b, region_c, params, eps)

"""Maximization of |zeta - s| over the boundary product of three regions.

The pipeline: sample the boundaries of B and C on an eps-grid; for every
grid pair (z_B, z_C) maximize over the boundary of A exactly, since
zeta - s is affine in z_A and each arc or segment of A has a closed-form
farthest point; refine the top grid triples by projected gradient ascent
(plus an exact per-coordinate polish, since the symbol is affine in each
argument); and certify a global upper bound

    certified_upper = grid_best + lipschitz_constant * covering_radius

which is valid regardless of how far the local refinements got.  Only B
and C are sampled, so the covering radius combines their radii in the
Euclidean product metric, sqrt(r_B^2 + r_C^2), while lipschitz_constant
stays the bound over all three coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .classes import OperatorClassSpec, resolvent_srg, srg
from .errors import PreconditionError, UnboundedRegionError
from .geometry import TWO_PI, Arc, Region, boundary_grid
from .symbol import (DysParams, grad_shifted_modulus_sq, lipschitz_bound,
                     shifted_modulus_sq, zeta, zeta_partials)


@dataclass(frozen=True)
class SearchConfig:
    eps_grid: float = 1.0 / 120.0
    ascent_step: float = 1e-2
    ascent_shrink: float = 0.5
    max_iters: int = 500
    stop_tol: float = 1e-12
    top_k: int = 64
    parallel: bool = False

    def __post_init__(self):
        if self.eps_grid <= 0 or self.ascent_step <= 0 or self.stop_tol <= 0:
            raise ValueError("grid spacing, step and tolerance must be positive")
        if not 0.0 < self.ascent_shrink < 1.0:
            raise ValueError("ascent_shrink must lie in (0, 1)")
        if self.max_iters <= 0 or self.top_k <= 0:
            raise ValueError("max_iters and top_k must be positive")


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

    def as_dict(self) -> dict:
        def cpt(z):
            return {"re": z.real, "im": z.imag}
        return {
            "best_value": self.best_value,
            "best_point": [cpt(z) for z in self.best_point],
            "grid_best_value": self.grid_best_value,
            "grid_best_point": [cpt(z) for z in self.grid_best_point],
            "certified_upper": self.certified_upper,
            "lipschitz_constant": self.lipschitz_constant,
            "covering_radius": self.covering_radius,
            "evaluations": self.evaluations,
        }


# ---------------------------------------------------------------------------
# Grid stage
# ---------------------------------------------------------------------------

def _max_on_piece(piece, p_coef, q_coef):
    """Point of one boundary piece maximizing |P z + Q|, elementwise over
    arrays P and Q of one shape.

    On a segment |P z + Q| is convex in the parameter, so an endpoint wins.
    On an arc z = c + r e^{it}, P z + Q = W + P r e^{it} with W = P c + Q,
    which reaches |W| + |P| r at t = arg W - arg P; off that angle the value
    falls monotonically, so outside the arc an endpoint wins.  Where P = 0
    or W = 0 the value is constant on the piece and its first endpoint is
    taken.
    """
    e0, e1 = piece.point_at(0.0), piece.point_at(1.0)
    far = np.where(np.abs(p_coef * e1 + q_coef) > np.abs(p_coef * e0 + q_coef),
                   e1, e0)
    if isinstance(piece, Arc):
        w = p_coef * piece.center + q_coef
        ang = piece.angle_start + (np.angle(w) - np.angle(p_coef)
                                   - piece.angle_start) % TWO_PI
        on_arc = (ang <= piece.angle_end) & (p_coef != 0) & (w != 0)
        far = np.where(on_arc, piece.center + piece.radius * np.exp(1j * ang),
                       np.where((p_coef == 0) | (w == 0), e0, far))
    return far


def grid_evaluate(pieces_a, boundary_b, boundary_c, params: DysParams,
                  top_k: int = 1):
    """|zeta - s| maximum over boundary A, exactly, times the Cartesian
    product of the B and C sample lists.

    zeta - s = P z_A + Q is affine in z_A, so for every grid pair (z_B, z_C)
    each piece of A yields its maximizing z_A in closed form, scored by
    |P z_A + Q| at that point; the best piece gives the pair's z_A (the
    first piece wins a tie).  Returns (best_value, best_triple, candidates,
    evaluations) where candidates holds the top_k triples ordered by value
    then (B, C) grid index, and evaluations counts
    len(pieces_a) * len(boundary_b) * len(boundary_c).
    """
    zb = np.asarray(boundary_b, dtype=complex)[:, None]
    zc = np.asarray(boundary_c, dtype=complex)[None, :]
    if len(pieces_a) == 0 or zb.size == 0 or zc.size == 0:
        raise PreconditionError("all three boundaries nonempty",
                                "empty boundary sample")
    lam, alpha, s = params.lam, params.alpha, params.shift
    q_coef = 1.0 - lam * zb - s
    p_coef = -lam + lam * (2.0 - alpha * zc) * zb
    za = np.stack([_max_on_piece(piece, p_coef, q_coef)
                   for piece in pieces_a])  # (pieces, n_B, n_C)
    vals = np.abs(q_coef + p_coef * za)
    first = np.argmax(vals, axis=0)[None]  # the first piece wins a tie
    za = np.take_along_axis(za, first, 0)[0]
    vals = np.take_along_axis(vals, first, 0)[0].ravel()
    keep = min(max(1, top_k), vals.size)
    cut = np.partition(vals, vals.size - keep)[vals.size - keep]
    top = np.flatnonzero(vals >= cut)
    top = top[np.argsort(-vals[top], kind="stable")[:keep]]
    js, ks = np.unravel_index(top, za.shape)
    triples = [(complex(a), complex(zb[j, 0]), complex(zc[0, k]))
               for a, j, k in zip(za.ravel()[top], js, ks)]
    return (float(vals[top[0]]), triples[0], triples,
            len(pieces_a) * vals.size)


# ---------------------------------------------------------------------------
# Local refinement
# ---------------------------------------------------------------------------

def _project_to_pieces(w: complex, pieces) -> complex:
    best = None
    best_d = math.inf
    for p in pieces:
        cand = p.project(w)
        d = abs(cand - w)
        if d < best_d - 1e-18:
            best, best_d = cand, d
    return best


def ascend(start, pieces_triple, params: DysParams,
           config: SearchConfig = SearchConfig()):
    """Projected gradient ascent of |zeta - s|^2 over the boundary product.

    Each iterate moves along the squared-modulus gradient and projects every
    coordinate back to the nearest point of its boundary decomposition;
    backtracking halves the step until the value does not decrease.  The
    returned value is never below the starting value.
    """
    x = [complex(z) for z in start]
    value = float(shifted_modulus_sq(*x, params))
    step = config.ascent_step
    evals = 1
    for _ in range(config.max_iters):
        g = grad_shifted_modulus_sq(*x, params)
        if max(abs(gi) for gi in g) < 1e-16:
            break
        accepted = None
        trial_step = step
        while trial_step > 1e-18:
            y = [_project_to_pieces(x[i] + trial_step * g[i],
                                    pieces_triple[i]) for i in range(3)]
            v = float(shifted_modulus_sq(*y, params))
            evals += 1
            if v >= value:
                accepted = (y, v, trial_step)
                break
            trial_step *= config.ascent_shrink
        if accepted is None:
            break
        y, v, used = accepted
        improvement = v - value
        x, value = y, v
        step = used * 2.0  # try growing again after a success
        if improvement < config.stop_tol:
            break
    return math.sqrt(value), tuple(x), evals


def _affine_coefficients(x, idx: int, params: DysParams):
    """zeta - s = P * x[idx] + Q with the other coordinates held fixed."""
    probe0 = list(x)
    probe0[idx] = 0.0
    q = zeta(*probe0, params) - params.shift
    p = zeta_partials(*x, params)[idx]
    return p, q


def _best_on_piece_affine(p_coef: complex, q_coef: complex, piece):
    """Maximize |P z + Q| over one boundary piece, in closed form.

    On an arc, |P z + Q| = |P| |z - anchor| with anchor = -Q/P, so the
    farthest-point rule applies; on a segment the square is a convex
    quadratic of the parameter, so an endpoint wins.
    """
    anchor = -q_coef / p_coef
    if isinstance(piece, Arc):
        center = complex(piece.center, 0.0)
        if anchor == center:
            cand = piece.point_at(0.0)
        else:
            cand = geometry.farthest_point_on_circle(
                center, piece.radius, anchor,
                (piece.angle_start, piece.angle_end))
        return cand
    return max((piece.p0, piece.p1), key=lambda z: abs(z - anchor))


def coordinate_polish(start, pieces_triple, params: DysParams,
                      max_sweeps: int = 60, tol: float = 1e-16):
    """Exact cyclic per-coordinate maximization of |zeta - s|.

    The symbol is affine in each argument, so each coordinate subproblem is
    solved exactly over every arc and segment; sweeps repeat until no
    coordinate improves.  Monotone, so the result never falls below the
    starting value.
    """
    x = [complex(z) for z in start]
    value = float(shifted_modulus_sq(*x, params))
    evals = 1
    for _ in range(max_sweeps):
        improved = False
        for idx in range(3):
            p_coef, q_coef = _affine_coefficients(x, idx, params)
            if abs(p_coef) < 1e-18:
                continue
            best_z, best_v = x[idx], value
            for piece in pieces_triple[idx]:
                cand = _best_on_piece_affine(p_coef, q_coef, piece)
                trial = list(x)
                trial[idx] = cand
                v = float(shifted_modulus_sq(*trial, params))
                evals += 1
                if v > best_v + tol:
                    best_z, best_v = cand, v
            if best_z != x[idx]:
                x[idx] = best_z
                value = best_v
                improved = True
        if not improved:
            break
    return math.sqrt(value), tuple(x), evals


# ---------------------------------------------------------------------------
# End-to-end search
# ---------------------------------------------------------------------------

def search_regions(region_a: Region, region_b: Region, region_c: Region,
                   params: DysParams,
                   config: SearchConfig = SearchConfig()) -> SearchResult:
    """Search |zeta - s| over the boundaries of three explicit regions."""
    for name, region in (("A", region_a), ("B", region_b), ("C", region_c)):
        if not region.bounded:
            raise UnboundedRegionError(
                f"search region {name} is unbounded; add a bounding atom or "
                "an enlargement")
    grids = [boundary_grid(r, config.eps_grid)
             for r in (region_a, region_b, region_c)]
    grid_best, grid_point, seeds, grid_evals = grid_evaluate(
        grids[0].pieces, grids[1].points, grids[2].points, params,
        top_k=config.top_k)

    lipschitz = lipschitz_bound(region_a.smallest_disk_atom(),
                                region_b.smallest_disk_atom(),
                                region_c.smallest_disk_atom(), params)
    # the grid stage is exact over A, so only B and C carry sampling slack
    covering = math.hypot(grids[1].covering_radius, grids[2].covering_radius)
    certified = grid_best + lipschitz * covering

    pieces_triple = tuple(g.pieces for g in grids)
    best_value, best_point = grid_best, grid_point
    evals = grid_evals
    for seed_point in seeds:
        v1, x1, e1 = ascend(seed_point, pieces_triple, params, config)
        v2, x2, e2 = coordinate_polish(x1, pieces_triple, params)
        evals += e1 + e2
        candidate_v, candidate_x = (v2, x2) if v2 >= v1 else (v1, x1)
        if candidate_v > best_value:
            best_value, best_point = candidate_v, candidate_x
    return SearchResult(best_value, best_point, grid_best, grid_point,
                        certified, lipschitz, covering, evals)


def search(a_spec: OperatorClassSpec, b_spec: OperatorClassSpec,
           c_spec: OperatorClassSpec, params: DysParams,
           config: SearchConfig = SearchConfig()) -> SearchResult:
    """Search over the resolvent regions of A and B and the region of C."""
    region_a = resolvent_srg(a_spec, params.alpha)
    region_b = resolvent_srg(b_spec, params.alpha)
    region_c = srg(c_spec)
    return search_regions(region_a, region_b, region_c, params, config)

"""Maximization of |zeta - s| over the boundary product of three regions.

The pipeline: sample the boundaries of B and C on an eps-grid; for every
grid pair (z_B, z_C) take the largest |zeta - s| over the boundary of A
exactly, since zeta - s is affine in z_A and each arc or segment of A has
a closed-form maximum value; locate the maximizing z_A only for the top
grid pairs; polish those triples by exact cyclic coordinate maximization
(the symbol is affine in each argument, so every coordinate step is
solved in closed form); and certify a global upper bound

    certified_upper = grid_best + lipschitz_constant * covering_radius

which is valid regardless of how far the polish got.  Only B and C are
sampled, so the covering radius combines their radii in the Euclidean
product metric, sqrt(r_B^2 + r_C^2), while lipschitz_constant stays the
bound over all three coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import OperatorClassSpec, resolvent_srg, srg
from .errors import PreconditionError, UnboundedRegionError
from .geometry import (Region, _max_on_piece, _value_on_piece,
                       boundary_grid)
from .symbol import DysParams, lipschitz_bound, shifted_modulus


@dataclass(frozen=True)
class SearchConfig:
    eps_grid: float = 1.0 / 120.0
    top_k: int = 64

    def __post_init__(self):
        if self.eps_grid <= 0:
            raise ValueError("grid spacing must be positive")
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")


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
# The symbol as an affine function of one coordinate
# ---------------------------------------------------------------------------

def _affine_in(idx: int, z_a, z_b, z_c, params: DysParams):
    """(P, Q) with zeta - s = P * z_idx + Q, the other two coordinates held
    fixed; z_idx itself is not read.  Broadcasts over arrays."""
    lam, alpha, s = params.lam, params.alpha, params.shift
    if idx == 2:
        return (-lam * alpha * z_a * z_b,
                1.0 - lam * z_a - lam * z_b + 2.0 * lam * z_a * z_b - s)
    other = z_b if idx == 0 else z_a  # zeta is symmetric in z_A and z_B
    return -lam + lam * (2.0 - alpha * z_c) * other, 1.0 - lam * other - s


# ---------------------------------------------------------------------------
# Grid stage
# ---------------------------------------------------------------------------

def grid_evaluate(pieces_a, boundary_b, boundary_c, params: DysParams,
                  top_k: int = 1):
    """|zeta - s| maximum over boundary A, exactly, times the Cartesian
    product of the B and C sample lists.

    zeta - s = P z_A + Q is affine in z_A, so every piece of A gives each
    grid pair (z_B, z_C) its maximum value in closed form.  Only the top_k
    pairs by that value get their maximizing z_A, from the piece with the
    largest |P z_A + Q| at the point returned (the first piece wins a tie),
    and are rescored there.  Returns (best_value, best_triple, candidates,
    evaluations) where candidates holds those triples ordered by rescored
    value then (B, C) grid index, best_value is |zeta - s| at the first of
    them, and evaluations counts len(pieces_a) * len(boundary_b) *
    len(boundary_c).
    """
    zb = np.asarray(boundary_b, dtype=complex)[:, None]
    zc = np.asarray(boundary_c, dtype=complex)[None, :]
    if len(pieces_a) == 0 or zb.size == 0 or zc.size == 0:
        raise PreconditionError("all three boundaries nonempty",
                                "empty boundary sample")
    p_coef, q_coef = _affine_in(0, None, zb, zc, params)
    vals = _value_on_piece(pieces_a[0], p_coef, q_coef)
    for piece in pieces_a[1:]:
        vals = np.maximum(vals, _value_on_piece(piece, p_coef, q_coef))
    vals = vals.ravel()
    keep = min(max(1, top_k), vals.size)
    cut = np.partition(vals, vals.size - keep)[vals.size - keep]
    top = np.flatnonzero(vals >= cut)
    top = top[np.argsort(-vals[top], kind="stable")[:keep]]
    js, ks = np.unravel_index(top, p_coef.shape)
    p_top, q_top = p_coef[js, ks], q_coef[js, 0]
    za = np.stack([_max_on_piece(piece, p_top, q_top) for piece in pieces_a])
    # equal ranks, so one pair rounds as in a batch (see coordinate_polish)
    scores = np.abs(q_top[None] + p_top[None] * za)
    first = np.argmax(scores, axis=0)  # the first piece wins a tie
    rows = np.arange(keep)
    za, scores = za[first, rows], scores[first, rows]
    order = np.lexsort((top, -scores))
    triples = [(complex(za[i]), complex(zb[js[i], 0]), complex(zc[0, ks[i]]))
               for i in order]
    return (float(scores[order[0]]), triples[0], triples,
            len(pieces_a) * vals.size)


# ---------------------------------------------------------------------------
# Local refinement
# ---------------------------------------------------------------------------

def coordinate_polish(starts, pieces_triple, params: DysParams,
                      max_sweeps: int = 60, tol: float = 1e-16):
    """Exact cyclic per-coordinate maximization of |zeta - s| from every
    start at once.

    starts is one triple or a (k, 3) array of them.  Per coordinate, each
    row's maximizer on every piece comes from _max_on_piece in closed form;
    the piece with the largest |zeta - s| there (the first on a tie) gives
    the row's move, accepted only when it beats the row's value by more
    than tol.  Sweeps repeat until no row improves, so no row falls below
    its start.  Returns (best_value, best_point, evaluations) for the best
    row, the first row winning a tie.
    """
    x = np.array(starts, dtype=complex).reshape(-1, 3).T.copy()  # (3, k)
    rows = np.arange(x.shape[1])
    value = shifted_modulus(*x, params)
    evals = x.shape[1]
    for _ in range(max_sweeps):
        improved = False
        for idx in range(3):
            p_coef, q_coef = _affine_in(idx, *x, params)
            cand = np.stack([_max_on_piece(piece, p_coef, q_coef)
                             for piece in pieces_triple[idx]])
            # equal ranks: numpy rounds a complex (1,) * (1, 1) product on
            # another path than a batch, so one row would not match its batch
            trial = [cand if i == idx else x[i:i + 1] for i in range(3)]
            vals = shifted_modulus(*trial, params)  # (pieces, k)
            evals += vals.size
            first = np.argmax(vals, axis=0)
            best = vals[first, rows]
            move = best > value + tol
            if move.any():
                x[idx, move] = cand[first, rows][move]
                value = np.where(move, best, value)
                improved = True
        if not improved:
            break
    i = int(np.argmax(value))
    return float(value[i]), tuple(complex(z) for z in x[:, i]), evals


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

    polished, polished_point, polish_evals = coordinate_polish(
        seeds, tuple(g.pieces for g in grids), params)
    best_value, best_point = grid_best, grid_point
    if polished > grid_best:
        best_value, best_point = polished, polished_point
    return SearchResult(best_value, best_point, grid_best, grid_point,
                        certified, lipschitz, covering,
                        grid_evals + polish_evals)


def search(a_spec: OperatorClassSpec, b_spec: OperatorClassSpec,
           c_spec: OperatorClassSpec, params: DysParams,
           config: SearchConfig = SearchConfig()) -> SearchResult:
    """Search over the resolvent regions of A and B and the region of C."""
    region_a = resolvent_srg(a_spec, params.alpha)
    region_b = resolvent_srg(b_spec, params.alpha)
    region_c = srg(c_spec)
    return search_regions(region_a, region_b, region_c, params, config)

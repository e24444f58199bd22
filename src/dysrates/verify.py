"""Independent verification with explicit 2x2 operator realizations.

A complex number z embeds into the 2x2 scaled rotations [[re, -im],
[im, re]]; the embedding is a ring homomorphism, so the splitting operator
assembled from realized resolvents is itself a scaled rotation whose
spectral norm equals the symbol modulus exactly.  This gives a check on
every claimed contraction or averagedness factor that shares no code path
with the region geometry or the closed forms.

Each function below takes one 2x2 matrix or an (n, 2, 2) stack of them, so
a verification run checks all of its trials in one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classes import (Averaged, Cocoercive, Lipschitz, Monotone,
                      OperatorClassSpec, ShiftedLipschitzBall,
                      StronglyMonotone, resolvent_srg, srg)
from .errors import SingularResolventError
from .geometry import Region, boundary_pieces
from .search import SearchConfig, search_regions
from .symbol import DysParams

I2 = np.eye(2)


def realize(z) -> np.ndarray:
    """The scaled-rotation matrix acting on R^2 as multiplication by z; an
    array of n values gives an (n, 2, 2) stack."""
    z = np.asarray(z, dtype=complex)
    return np.stack([np.stack([z.real, -z.imag], -1),
                     np.stack([z.imag, z.real], -1)], -2)


def spectral_norm_2x2(m: np.ndarray):
    """Largest singular value of a 2x2 matrix, in closed form.

    The formula squares squared entries, so each matrix is first scaled by
    the power of two that brings its largest entry into [0.5, 1); that
    scaling is exact and keeps tiny and huge entries from underflowing or
    overflowing."""
    e = np.frexp(np.max(np.abs(m), axis=(-2, -1)))[1]
    m = np.ldexp(m, -e[..., None, None])
    a = m[..., 0, 0] ** 2 + m[..., 1, 0] ** 2
    d = m[..., 0, 1] ** 2 + m[..., 1, 1] ** 2
    b = m[..., 0, 0] * m[..., 0, 1] + m[..., 1, 0] * m[..., 1, 1]
    disc = np.sqrt(np.maximum((a - d) ** 2 + 4.0 * b * b, 0.0))
    return np.ldexp(np.sqrt(np.maximum(0.5 * (a + d + disc), 0.0)), e)


def _sym_min_eig(m: np.ndarray):
    s = 0.5 * (m + np.swapaxes(m, -1, -2))
    tr = s[..., 0, 0] + s[..., 1, 1]
    disc = np.sqrt(np.maximum(
        (s[..., 0, 0] - s[..., 1, 1]) ** 2 + 4.0 * s[..., 0, 1] ** 2, 0.0))
    return 0.5 * (tr - disc)


def operator_from_resolvent_point(z_j, alpha: float) -> np.ndarray:
    """The operator A with resolvent value z_j: A = ((realize z_j)^{-1} - I)/alpha."""
    z_j = np.asarray(z_j, dtype=complex)
    if np.any(z_j == 0):
        raise SingularResolventError(
            "resolvent value 0 is not invertible as a map")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (realize(1.0 / z_j) - I2) / alpha


def dys_matrix(j_a: np.ndarray, j_b: np.ndarray, c: np.ndarray,
               alpha: float, lam: float) -> np.ndarray:
    """T = I - lam*J_B + lam*J_A (2 J_B - I - alpha*C J_B)."""
    return I2 - lam * j_b + lam * j_a @ (2.0 * j_b - I2 - alpha * c @ j_b)


def class_membership(m: np.ndarray, spec: OperatorClassSpec,
                     tol: float = 0.0) -> bool:
    """Check each atom's defining inequality for the linear map m."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return bool(_members(m, spec, tol))


def _members(m: np.ndarray, spec: OperatorClassSpec, tol) -> np.ndarray:
    """Mask of the matrices in m that satisfy every atom of spec within tol,
    a scalar or one tolerance per matrix."""
    ok = np.ones(m.shape[:-2], dtype=bool)
    for atom in spec.atoms:
        if isinstance(atom, Monotone):
            ok &= _sym_min_eig(m) >= -tol
        elif isinstance(atom, StronglyMonotone):
            ok &= _sym_min_eig(m) >= atom.mu - tol
        elif isinstance(atom, Lipschitz):
            ok &= spectral_norm_2x2(m) <= atom.L + tol
        elif isinstance(atom, Cocoercive):
            # <x, Mx> >= beta ||Mx||^2  <=>  sym(M) - beta M^T M psd
            mtm = np.swapaxes(m, -1, -2) @ m
            ok &= _sym_min_eig(m - atom.beta * mtm) >= -tol
        elif isinstance(atom, Averaged):
            ok &= spectral_norm_2x2(m - (1.0 - atom.theta) * I2) \
                <= atom.theta + tol
        elif isinstance(atom, ShiftedLipschitzBall):
            ok &= spectral_norm_2x2(m - atom.center * I2) <= atom.radius + tol
        else:
            raise ValueError(f"unknown atom {atom!r}")
    return ok


# ---------------------------------------------------------------------------
# Randomized verification
# ---------------------------------------------------------------------------

def _random_boundary_points(region: Region, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    pieces = boundary_pieces(region)
    lengths = np.array([p.length for p in pieces])
    total = lengths.sum()
    if total > 0:
        weights = lengths / total
    else:
        weights = np.full(len(pieces), 1.0 / len(pieces))
    choices = rng.choice(len(pieces), size=n, p=weights)
    ts = rng.random(n)
    out = np.empty(n, dtype=complex)
    for k, piece in enumerate(pieces):
        on_piece = choices == k
        out[on_piece] = piece.point_at(ts[on_piece])
    return out


@dataclass
class VerificationReport:
    trials: int
    rho: float
    max_norm_seen: float = 0.0
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {"trials": self.trials, "rho": self.rho,
                "max_norm_seen": self.max_norm_seen,
                "violations": self.violations, "warnings": self.warnings,
                "passed": self.passed}


def _check_trials(specs, params: DysParams, bound: float, center: float,
                  n_trials: int, rng: np.random.Generator, tol: float,
                  extremal: bool):
    """Realize n_trials random boundary triples as (n, 2, 2) stacks, check
    the classes of the induced operators and ||T - center*I|| <= bound + tol,
    and report in trial order.  The extremal probe is checked last, without
    class checks."""
    report = VerificationReport(trials=n_trials, rho=bound)
    if n_trials <= 0:
        report.warnings.append("no trials requested; vacuous pass")
        return report
    regions = (resolvent_srg(specs[0], params.alpha),
               resolvent_srg(specs[1], params.alpha), srg(specs[2]))
    zs = [_random_boundary_points(r, n_trials, rng) for r in regions]
    member = np.ones(n_trials, dtype=bool)
    for m, spec in zip((operator_from_resolvent_point(zs[0], params.alpha),
                        operator_from_resolvent_point(zs[1], params.alpha),
                        realize(zs[2])), specs):
        # A = (J^{-1} - I)/alpha carries rounding relative to its norm,
        # which grows without bound as the resolvent value J nears 0
        member &= _members(m, spec, 1e-9 * np.maximum(1.0,
                                                      spectral_norm_2x2(m)))
    if extremal:
        config = SearchConfig(eps_grid=1.0 / 40.0, top_k=8)
        best = search_regions(*regions, params, config).best_point
        zs = [np.append(z, p) for z, p in zip(zs, best)]
        member = np.append(member, True)
    t = dys_matrix(*(realize(z) for z in zs), params.alpha, params.lam)
    norms = spectral_norm_2x2(t - center * I2)
    seen = np.where(member & (norms > 0.0), norms, 0.0)
    report.max_norm_seen = float(np.max(seen))
    for i in np.flatnonzero(~member | (norms > bound + tol)):
        triple = [str(complex(z[i])) for z in zs]
        if member[i]:
            report.violations.append({"kind": "norm_bound",
                                      "norm": float(norms[i]),
                                      "bound": bound, "triple": triple})
        else:
            report.violations.append({"kind": "class_membership",
                                      "triple": triple})
    return report


def verify_contraction(a_spec: OperatorClassSpec, b_spec: OperatorClassSpec,
                       c_spec: OperatorClassSpec, params: DysParams,
                       rho: float, n_trials: int = 1000, rng_seed: int = 0,
                       tol: float = 1e-9) -> VerificationReport:
    """Realize random boundary triples and test ||T|| <= rho + tol and class
    membership of the induced operators.  T is a scaled rotation, so
    ||T^k x|| = ||T||^k ||x||: iterating T can show no growth that the norm
    bound has not already shown.

    The triple found by a coarse max-modulus search is probed too, which
    makes undersized rho values fail deterministically rather than only
    when random sampling gets lucky.
    """
    return _check_trials((a_spec, b_spec, c_spec), params, rho, 0.0,
                         n_trials, np.random.default_rng(rng_seed), tol, True)


def verify_averagedness(a_spec: OperatorClassSpec, b_spec: OperatorClassSpec,
                        c_spec: OperatorClassSpec, params: DysParams,
                        theta: float, n_trials: int = 1000,
                        rng_seed: int = 0,
                        tol: float = 1e-9) -> VerificationReport:
    """Averagedness as a norm bound: ||T - (1-theta) I|| <= theta + tol on
    scaled-rotation realizations of boundary triples."""
    return _check_trials((a_spec, b_spec, c_spec), params, theta,
                         1.0 - theta, n_trials,
                         np.random.default_rng(rng_seed), tol, False)

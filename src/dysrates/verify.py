"""Independent verification on 2x2 scaled rotations held as complex numbers.

A complex number z acts on R^2 = C as the scaled rotation [[re, -im],
[im, re]].  That embedding is a ring homomorphism (Ryu, Hannah and Yin,
Math. Program. 2022): sums and products of scaled rotations are those of
their numbers, the SRG of the rotation of z is z with its mirror conj(z),
and its spectral norm is |z|.  Every map this module builds is a scaled
rotation, so it holds each one as its complex number: the operator
(J^{-1} - I)/alpha realized from a resolvent value J, the splitting
operator T assembled from three of them, and the norm ||T - c I|| =
|t - c|.  Class membership is a point in the class's region
(Region.contains), the one point-in-region rule of the package.

This checks a claimed contraction or averagedness factor without the
closed forms; of the region geometry it reads only the atoms' region().
Independently of the search it checks resolvent_srg's scale, shift and
inversion, the boundary pieces, (J^{-1} - I)/alpha, the DYS assembly and
the norms.  The public functions below take one complex number or an
array of them, so a verification run checks all of its trials in one
batched pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classes import OperatorClassSpec, dys_preflight, resolvent_srg, srg
from .errors import PreconditionError, SingularResolventError
from .geometry import boundary_pieces
from .search import locate_maximum
from .symbol import DysParams

# Most random trials one verification draws.  A trial peaks at about 350
# bytes (388 MB at 10^6 trials), so a run at this budget stays under
# 0.8 GB.  A larger count is refused before any trial is drawn.
TRIAL_BUDGET = 1 << 21
# A trial fails the norm bound when its norm exceeds the bound by more
# than this.
BOUND_TOL = 1e-9


# ---------------------------------------------------------------------------
# Scaled rotations as complex numbers
# ---------------------------------------------------------------------------

def operator_from_resolvent_point(z_j, alpha: float):
    """The operator A whose resolvent (I + alpha A)^{-1} is the scaled
    rotation z_j: A = (1/z_j - 1)/alpha, a scaled rotation held as its
    complex number (an array of them for an array of z_j).  Each part is
    divided by alpha on its own: numpy's complex division multiplies by
    1/alpha, which rounds once more and overflows at a subnormal alpha
    where A may not.  An A that overflows, as at alpha 1e-320, is refused:
    its class checks would read inf and nan."""
    z_j = np.asarray(z_j, dtype=complex)
    if np.any(z_j == 0):
        raise SingularResolventError(
            "resolvent value 0 is not invertible as a map")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = 1.0 / z_j - 1.0
        op = inverse.real / alpha + 1j * (inverse.imag / alpha)
    if not np.isfinite(op).all():
        raise SingularResolventError(
            "the operator (J^-1 - I)/alpha realized from a resolvent value "
            f"J is not finite at alpha = {alpha!r}")
    return op


def dys_matrix(j_a, j_b, c, alpha: float, lam: float):
    """T = I - lam*J_B + lam*J_A (2 J_B - I - alpha*C J_B) for scaled
    rotations held as complex numbers, or arrays of them:
    1 - lam j_B + lam j_A (2 j_B - 1 - alpha c j_B)."""
    return lam * j_a * (2.0 * j_b - alpha * c * j_b - 1.0) - lam * j_b + 1.0


def class_membership(z, spec: OperatorClassSpec, tol=0.0):
    """Whether the scaled rotation z, held as its complex number, belongs
    to the class spec within tol, a distance in the plane: a truth value
    for one number, a mask for an array.  Every atom is SRG-full, so a
    linear map belongs to it exactly when its SRG lies in the atom's
    region; the SRG of z is z with its mirror, which a region symmetric
    about the real axis holds with it.  So HalfPlane(a) holds when Re z
    (the symmetric part's eigenvalue) is >= a - tol, Disk(c, r) when
    |z - c| (||z - c I||) is <= r + tol.  tol is a scalar or one tolerance
    per number."""
    return srg(spec).contains(z, tol)


# ---------------------------------------------------------------------------
# Randomized verification
# ---------------------------------------------------------------------------

def _random_boundary_points(pieces, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """n points drawn on boundary pieces, a piece with probability in
    proportion to its length (all alike when every length is 0), then a
    uniform parameter on it."""
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


def _check_trials(specs, params: DysParams, bound: float, center: float,
                  n_trials: int, rng: np.random.Generator):
    """Realize n_trials random boundary triples as scaled rotations, check
    the classes of the induced operators and |t - center| = ||T -
    center*I|| <= bound + BOUND_TOL, and report in trial order.  The
    maximizer of a coarse search for |zeta - center| is probed last,
    without class checks, so an undersized bound fails deterministically
    rather than only when random sampling gets lucky; with no random
    trials the probe is the whole check.  A bound that is not finite is
    refused before any trial is drawn.  When the SRG theorem's hypotheses
    fail at s = center, a warning says that a pass bounds only the 2x2
    realizations."""
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    if not math.isfinite(bound):
        # no norm exceeds NaN, so a NaN bound would pass every trial
        raise ValueError(f"the bound must be finite, got {bound!r}")
    if n_trials > TRIAL_BUDGET:
        raise PreconditionError(f"at most {TRIAL_BUDGET} verify trials",
                                f"{n_trials} requested")
    report = VerificationReport(trials=n_trials, rho=bound)
    if n_trials == 0:
        report.warnings.append("no random trials requested; only the "
                               "probe was checked")
    regions = (resolvent_srg(specs[0], params.alpha),
               resolvent_srg(specs[1], params.alpha), srg(specs[2]))
    pieces = [boundary_pieces(r) for r in regions]
    zs = [_random_boundary_points(p, n_trials, rng) for p in pieces]
    member = np.ones(n_trials, dtype=bool)
    for op, spec in zip((operator_from_resolvent_point(zs[0], params.alpha),
                         operator_from_resolvent_point(zs[1], params.alpha),
                         zs[2]), specs):
        # A = (J^{-1} - I)/alpha carries rounding relative to its norm,
        # which grows without bound as the resolvent value J nears 0
        member &= class_membership(
            op, spec, 1e-9 * np.maximum(1.0, np.abs(op)))
    # the probe maximizes |zeta - center|, the quantity checked below,
    # whatever shift params carries
    probe = DysParams(params.alpha, params.lam, center)
    preflight = dys_preflight(*specs, probe)
    if not preflight.applicable:
        report.warnings.append(
            f"the SRG theorem does not apply at s = {center!r} (false: "
            f"{'; '.join(preflight.failed)}); a pass shows no 2x2 "
            "counterexample, not a bound for every operator in the classes")
    best = locate_maximum(*regions, probe, 1.0 / 40.0, pieces)[1]
    zs = [np.append(z, p) for z, p in zip(zs, best)]
    member = np.append(member, True)
    norms = np.abs(dys_matrix(*zs, params.alpha, params.lam) - center)
    seen = np.where(member & (norms > 0.0), norms, 0.0)
    report.max_norm_seen = float(np.max(seen))
    for i in np.flatnonzero(~member | (norms > bound + BOUND_TOL)):
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
                       rho: float, n_trials: int = 1000,
                       rng_seed: int = 0) -> VerificationReport:
    """Realize random boundary triples and test ||T|| <= rho + BOUND_TOL
    and class membership of the induced operators.  T is a scaled rotation,
    so ||T^k x|| = ||T||^k ||x||: iterating T can show no growth that the
    norm bound has not already shown."""
    return _check_trials((a_spec, b_spec, c_spec), params, rho, 0.0,
                         n_trials, np.random.default_rng(rng_seed))


def verify_averagedness(a_spec: OperatorClassSpec, b_spec: OperatorClassSpec,
                        c_spec: OperatorClassSpec, params: DysParams,
                        theta: float, n_trials: int = 1000,
                        rng_seed: int = 0) -> VerificationReport:
    """Averagedness as a norm bound: ||T - (1-theta) I|| <= theta +
    BOUND_TOL on scaled-rotation realizations of boundary triples."""
    return _check_trials((a_spec, b_spec, c_spec), params, theta,
                         1.0 - theta, n_trials,
                         np.random.default_rng(rng_seed))

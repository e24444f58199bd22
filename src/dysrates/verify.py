"""Independent verification with explicit 2x2 operator realizations.

A complex number z embeds into the 2x2 scaled rotations [[re, -im],
[im, re]]; the embedding is a ring homomorphism, so the splitting operator
assembled from realized resolvents is itself a scaled rotation whose
spectral norm equals the symbol modulus exactly.  This checks a claimed
contraction or averagedness factor without the closed forms; of the region
geometry it reads only the atoms' region().  Independently of the search it
checks resolvent_srg's scale, shift and inversion, the boundary pieces,
(J^{-1} - I)/alpha, the DYS assembly and the norms.

Each public function below takes one 2x2 matrix or an (n, 2, 2) stack of
them, so a verification run checks all of its trials in one batched pass.
Products and shifts run on the four entry arrays (m00, m01, m10, m11) of a
matrix or stack, a few elementwise numpy calls where (n, 2, 2) stacks and
@ cost many more.  Norms and class membership read the map's SRG, a circle
whose centre and radius one split of the entries gives (_parts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classes import OperatorClassSpec, dys_preflight, resolvent_srg, srg
from .errors import PreconditionError, SingularResolventError
from .geometry import HalfPlane, boundary_pieces
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
# 2x2 algebra on entry arrays
# ---------------------------------------------------------------------------

def _entries(m: np.ndarray):
    """The entries (m00, m01, m10, m11) of a 2x2 matrix or of a stack of
    them."""
    return m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]


def _matrix(e) -> np.ndarray:
    """The 2x2 matrix, or (n, 2, 2) stack, with entries e."""
    return np.stack(e, -1).reshape(np.shape(e[0]) + (2, 2))


def _rotation(z):
    """Entries of the scaled rotation that multiplies by z."""
    return z.real, -z.imag, z.imag, z.real


def _shift(e, c):
    """Entries of m - c I."""
    m00, m01, m10, m11 = e
    return m00 - c, m01, m10, m11 - c


def _product(a, b):
    """Entries of the product a b."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _parts(e):
    """The split (w, v) of the map m x = w x + v conj(x) on R^2 = C, for
    entries e = (m00, m01, m10, m11).  At x = exp(i t), m x / x = w +
    v exp(-2 i t), so the SRG of m is the circle about w of radius |v|
    with its mirror: ||m|| = |w| + |v|, and sym(m) has eigenvalues
    Re w -+ |v|.  No entry is squared (|.| is a hypot), so these hold to
    rounding from the smallest to the largest entries whose sums are
    finite."""
    m00, m01, m10, m11 = e
    return (0.5 * ((m00 + m11) + 1j * (m10 - m01)),
            0.5 * ((m00 - m11) + 1j * (m01 + m10)))


def realize(z) -> np.ndarray:
    """The scaled-rotation matrix acting on R^2 as multiplication by z; an
    array of n values gives an (n, 2, 2) stack."""
    return _matrix(_rotation(np.asarray(z, dtype=complex)))


def spectral_norm_2x2(m: np.ndarray):
    """Largest singular value of a 2x2 matrix, or of each matrix of a
    stack: |w| + |v|, the farthest point from 0 of its SRG circle about w
    of radius |v| (_parts), reached where w x and v conj(x) align."""
    w, v = _parts(_entries(m))
    return np.abs(w) + np.abs(v)


def operator_from_resolvent_point(z_j, alpha: float) -> np.ndarray:
    """The operator A with resolvent value z_j: A = ((realize z_j)^{-1} - I)/alpha.
    An A that overflows, as at a subnormal alpha, is refused: its class
    checks would read inf and nan."""
    z_j = np.asarray(z_j, dtype=complex)
    if np.any(z_j == 0):
        raise SingularResolventError(
            "resolvent value 0 is not invertible as a map")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        op = [x / alpha for x in _shift(_rotation(1.0 / z_j), 1.0)]
    if not all(np.isfinite(x).all() for x in op):
        raise SingularResolventError(
            "the operator (J^-1 - I)/alpha realized from a resolvent value "
            f"J is not finite at alpha = {alpha!r}")
    return _matrix(op)


def dys_matrix(j_a: np.ndarray, j_b: np.ndarray, c: np.ndarray,
               alpha: float, lam: float) -> np.ndarray:
    """T = I - lam*J_B + lam*J_A (2 J_B - I - alpha*C J_B)."""
    j_b = _entries(j_b)
    c_jb = _product([alpha * x for x in _entries(c)], j_b)
    inner = _shift([2.0 * b - x for b, x in zip(j_b, c_jb)], 1.0)
    outer = _product([lam * x for x in _entries(j_a)], inner)
    return _matrix(_shift([x - lam * b for x, b in zip(outer, j_b)], -1.0))


def class_membership(m: np.ndarray, spec: OperatorClassSpec, tol=0.0):
    """Whether the SRG of the linear map m lies within tol, a distance in
    the plane, of each atom's region (every atom is SRG-full).  m is split
    once (_parts); its SRG is the circle about w of radius |v| and that
    circle's mirror, which a region symmetric about the real axis holds
    with it.  So HalfPlane(a) holds when Re w - |v| (sym(m)'s smallest
    eigenvalue) is >= a - tol, Disk(c, r) when |w - c| + |v| (||m - c I||)
    is <= r + tol.  tol is a scalar or one tolerance per matrix: a bool
    for one matrix, a mask for a stack."""
    if not np.all(np.asarray(tol) >= 0):
        raise ValueError("tol must be nonnegative")
    w, v = _parts(_entries(m))
    radius = np.abs(v)
    ok = np.ones(m.shape[:-2], dtype=bool)
    for region in (a.region() for a in spec.atoms):
        if isinstance(region, HalfPlane):
            ok &= w.real - radius >= region.threshold - tol
        else:
            ok &= np.abs(w - region.center) + radius <= region.radius + tol
    return bool(ok) if ok.ndim == 0 else ok


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
    """Realize n_trials random boundary triples as 2x2 matrices, check the
    classes of the induced operators and ||T - center*I|| <= bound +
    BOUND_TOL, and report in trial order.  The maximizer of a coarse search for
    |zeta - center| is probed last, without class checks, so an undersized
    bound fails deterministically rather than only when random sampling
    gets lucky; with no random trials the probe is the whole check.  When
    the SRG theorem's hypotheses fail at s = center, a warning says that a
    pass bounds only the 2x2 realizations."""
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
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
    for m, spec in zip((operator_from_resolvent_point(zs[0], params.alpha),
                        operator_from_resolvent_point(zs[1], params.alpha),
                        realize(zs[2])), specs):
        # A = (J^{-1} - I)/alpha carries rounding relative to its norm,
        # which grows without bound as the resolvent value J nears 0
        member &= class_membership(
            m, spec, 1e-9 * np.maximum(1.0, spectral_norm_2x2(m)))
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
    t = dys_matrix(*(realize(z) for z in zs), params.alpha, params.lam)
    w, v = _parts(_entries(t))
    norms = np.abs(w - center) + np.abs(v)
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

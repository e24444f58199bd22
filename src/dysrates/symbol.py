"""The three-operator splitting symbol and the Lipschitz bound of its
shifted modulus.

zeta(z_A, z_B, z_C) = 1 - lam*z_A - lam*z_B + lam*(2 - alpha*z_C)*z_A*z_B

is a polynomial, affine in each argument separately and symmetric in z_A
and z_B.  The modulus |zeta - s| over a product of boundary sets bounds the
shifted operator norms of the corresponding splitting operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .geometry import Disk


@dataclass(frozen=True)
class DysParams:
    """Step size alpha, averaging lam ("lambda"), and real shift s != 1."""

    alpha: float
    lam: float
    shift: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise PreconditionError("alpha > 0")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise PreconditionError("lambda > 0")
        if not math.isfinite(self.shift) or self.shift == 1.0:
            raise PreconditionError("s != 1")

    @property
    def t(self) -> float:
        """The substituted shift parameter t = (1 - s)/lambda."""
        return (1.0 - self.shift) / self.lam


def zeta(z_a, z_b, z_c, params: DysParams):
    """Symbol value; accepts scalars or broadcastable numpy arrays."""
    lam, alpha = params.lam, params.alpha
    return 1.0 - lam * z_a - lam * z_b + lam * (2.0 - alpha * z_c) * z_a * z_b


def shifted_modulus(z_a, z_b, z_c, params: DysParams):
    return np.abs(zeta(z_a, z_b, z_c, params) - params.shift)


def _sup_abs(disk: Disk) -> float:
    return abs(disk.center) + disk.radius


def _sup_affine(w0: float, rw: float, b0: float, rb: float) -> float:
    """Upper bound for sup |w*z - 1| over w in Disk(w0, rw), z in Disk(b0, rb),
    exact whenever either radius vanishes."""
    return abs(w0 * b0 - 1.0) + abs(b0) * rw + (abs(w0) + rw) * rb


def lipschitz_bound(enclosure_a: Disk, enclosure_b: Disk, enclosure_c: Disk,
                    params: DysParams) -> float:
    """Certified Lipschitz constant of |zeta - s| on the product of the
    three disk enclosures, in the Euclidean product metric.

    Combines per-coordinate suprema M_X >= sup |d zeta / d z_X| as
    sqrt(M_A^2 + M_B^2 + M_C^2); the per-coordinate bounds are exact for
    degenerate (zero-radius) enclosures and never exceed the coarse
    triangle-inequality bound lam*(1 + (2 + alpha*sup|z_C|)*sup|z_B|).
    """
    lam, alpha = params.lam, params.alpha
    w0 = 2.0 - alpha * enclosure_c.center
    rw = alpha * enclosure_c.radius
    m_a = lam * _sup_affine(w0, rw, enclosure_b.center, enclosure_b.radius)
    m_b = lam * _sup_affine(w0, rw, enclosure_a.center, enclosure_a.radius)
    m_c = lam * alpha * _sup_abs(enclosure_a) * _sup_abs(enclosure_b)
    return math.sqrt(m_a * m_a + m_b * m_b + m_c * m_c)

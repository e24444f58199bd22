"""The three-operator splitting parameters and symbol.

zeta(z_A, z_B, z_C) = 1 - lam*z_A - lam*z_B + lam*(2 - alpha*z_C)*z_A*z_B

is a polynomial, affine in each argument separately and symmetric in z_A
and z_B.  The modulus |zeta - s| over a product of boundary sets bounds the
shifted operator norms of the corresponding splitting operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError


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

    @property
    def sigma(self) -> float:
        """The C-side shift sigma = 2 - lambda/(1 - s) = 2 - 1/t."""
        return 2.0 - 1.0 / self.t


def zeta(z_a, z_b, z_c, params: DysParams):
    """Symbol value; accepts scalars or broadcastable numpy arrays."""
    lam, alpha = params.lam, params.alpha
    return 1.0 - lam * z_a - lam * z_b + lam * (2.0 - alpha * z_c) * z_a * z_b


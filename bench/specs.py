"""Problem specs for the benchmark workloads, generated from a seed.

The program under test only ever sees the JSON files written from these
dicts.  Reference values are closed forms computed here, independently of
the package.
"""

from __future__ import annotations

import itertools
import math
import random

MONOTONE = {"kind": "monotone"}


def _sm(mu):
    return {"kind": "strongly_monotone", "mu": mu}


def _lip(L):
    return {"kind": "lipschitz", "L": L}


def _coco(beta):
    return {"kind": "cocoercive", "beta": beta}


# The two published instances: A monotone, B monotone and 0.5-Lipschitz.
_AB = {"A": [MONOTONE], "B": [MONOTONE, _lip(0.5)]}
_UNIT = {"alpha": 1.0, "lambda": 1.0, "s": 0.0}
C_PLAIN = [_coco(1.0), _sm(0.5)]
C_ENLARGED = [_coco(1.0), {"kind": "shifted_lipschitz_ball", "center": 1.0,
                           "radius": 1.0 / math.sqrt(2.0)}]

PUBLISHED = {
    "plain": {"classes": {**_AB, "C": C_PLAIN}, "params": _UNIT},
    "enlarged": {"classes": {**_AB, "C": C_ENLARGED}, "params": _UNIT},
}
# Published max-modulus values: (5 + sqrt 5)/10 and sqrt(3/5).
PUBLISHED_VALUE = {"plain": (5.0 + math.sqrt(5.0)) / 10.0,
                   "enlarged": math.sqrt(3.0 / 5.0)}

FIGURES = {
    "cprime": {"classes": {**_AB, "C": C_PLAIN, "Cprime": C_ENLARGED},
               "params": _UNIT},
    "thm33": {"classes": {**_AB, "C": C_PLAIN}, "params": _UNIT,
              "enlargement": {"mode": "thm33"}},
}
FIGURE_RADIUS_MAX = math.sqrt(3.0 / 5.0)

# ParameterRanges() of dysrates.rates, restated so the generator does not
# depend on the code under test.
ALPHA = (0.05, 2.0)
BETA_C = (0.5, 2.0)
MU = (0.05, 2.0)
L = (0.05, 2.0)

# Closed-form placements, cycled so every four consecutive problems cover
# all four and every eight cover both orientations of each.
PLACEMENTS = (("thm31", "A"), ("thm32", "A_sm_B_lip"), ("thm33", "A_lip"),
              ("thm41", "A_sm"), ("thm31", "B"), ("thm32", "A_lip_B_sm"),
              ("thm33", "B_lip"), ("thm41", "B_sm"))


def _draw(rng, lo_hi):
    lo, hi = lo_hi
    return lo + (hi - lo) * rng.random()


def _core_window(rng):
    """(alpha, lambda, beta_C) with alpha < 1.98 beta_C and lambda below
    min(2 - alpha/(2 beta_C), 2 - eps), eps the midpoint default."""
    while True:
        beta_c = _draw(rng, BETA_C)
        alpha = _draw(rng, (ALPHA[0], min(ALPHA[1], 1.98 * beta_c)))
        eps = 0.5 * (alpha / (2.0 * beta_c) + 1.0)
        lam_hi = min(2.0 - alpha / (2.0 * beta_c), 2.0 - eps)
        if lam_hi <= 1e-3:
            continue
        lam = _draw(rng, (1e-3 * lam_hi, (1.0 - 1e-3) * lam_hi))
        eta_floor = max(alpha / (2.0 * beta_c * eps),
                        alpha / (2.0 * beta_c * (2.0 - lam)))
        if eta_floor < 1.0 - 1e-6:
            return alpha, lam, beta_c


def _problem(rng, theorem: str, role: str) -> dict:
    if theorem == "thm41":
        while True:
            mu, l_c = _draw(rng, MU), _draw(rng, L)
            alpha_hi = min(ALPHA[1], 0.99 * 2.0 * mu / l_c ** 2)
            if alpha_hi > ALPHA[0]:
                break
        alpha = _draw(rng, (ALPHA[0], alpha_hi))
        a, b = ([_sm(mu)], [MONOTONE]) if role == "A_sm" \
            else ([MONOTONE], [_sm(mu)])
        return {"classes": {"A": a, "B": b, "C": [MONOTONE, _lip(l_c)]},
                "params": {"alpha": alpha, "lambda": 1.0, "s": 0.0}}

    alpha, lam, beta_c = _core_window(rng)
    m1, m2 = _draw(rng, MU), _draw(rng, L)
    mu, lip = min(m1, m2), max(m1, m2)
    params = {"alpha": alpha, "lambda": lam, "s": 0.0}
    c = [_coco(beta_c)]
    if theorem == "thm31":
        carrier = [_sm(mu), _lip(lip)]
        a, b = (carrier, [MONOTONE]) if role == "A" else ([MONOTONE], carrier)
    elif theorem == "thm32":
        if role == "A_sm_B_lip":
            a, b = [_sm(mu)], [MONOTONE, _lip(lip)]
        else:
            a, b = [MONOTONE, _lip(lip)], [_sm(mu)]
    else:
        mu_c_hi = min(MU[1], 0.999 / beta_c)
        mu_c = _draw(rng, (min(MU[0], 0.5 * mu_c_hi), mu_c_hi))
        c.append(_sm(mu_c))
        lipped = [MONOTONE, _lip(lip)]
        a, b = (lipped, [MONOTONE]) if role == "A_lip" \
            else ([MONOTONE], lipped)
    return {"classes": {"A": a, "B": b, "C": c}, "params": params}


def sweep_problems(seed: int):
    """Endless random admissible problems as (theorem, spec) pairs; the
    same seed always gives the same sequence."""
    rng = random.Random(seed)
    for i in itertools.count():
        theorem, role = PLACEMENTS[i % len(PLACEMENTS)]
        yield theorem, _problem(rng, theorem, role)

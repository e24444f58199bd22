"""Closed-form contraction factors, the averagedness coefficient, updated
prior factors, their placement table and strict-dominance comparisons.

Every formula is implemented exactly as displayed in its source statement,
with no algebraic re-derivation; preconditions are hard errors naming the
violated inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classes import is_monotone_class
from .errors import PreconditionError


@dataclass(frozen=True)
class RateReport:
    rho: float
    theorem: str
    parameters: dict
    assumptions_verified: tuple


@dataclass(frozen=True)
class AveragednessReport:
    theta: float
    theorem: str
    parameters: dict
    assumptions_verified: tuple


def _require(ok: bool, inequality: str, detail: str = "") -> str:
    if not ok:
        raise PreconditionError(inequality, detail)
    return inequality


def _check_core_window(alpha: float, lam: float, beta_c: float) -> list:
    checked = [
        _require(0.0 < alpha < 4.0 * beta_c, "0 < alpha < 4 beta_C",
                 f"alpha={alpha}, beta_C={beta_c}"),
        _require(0.0 < lam < 2.0 - alpha / (2.0 * beta_c),
                 "lambda < 2 - alpha/(2 beta_C)",
                 f"lambda={lam}, bound={2.0 - alpha / (2.0 * beta_c)}"),
    ]
    return checked


# ---------------------------------------------------------------------------
# New contraction factors
# ---------------------------------------------------------------------------

def contraction_thm31(alpha: float, lam: float, beta_c: float, mu: float,
                      L: float, role: str = "A") -> RateReport:
    """Factor when one of the first two operators is both mu-strongly
    monotone and L-Lipschitz and the third is beta_C-cocoercive."""
    if role not in ("A", "B"):
        raise ValueError("role must be 'A' or 'B'")
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(0.0 < mu <= L, "0 < mu <= L",
                            f"mu={mu}, L={L}"))
    theta = 2.0 / (4.0 - alpha / beta_c)
    drop = 2.0 * alpha * mu / (alpha ** 2 * L ** 2 + 2.0 * alpha * mu + 1.0)
    rho = 1.0 - lam * theta + lam * math.sqrt(theta * (theta - drop))
    return RateReport(rho, "thm31",
                      {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                       "mu": mu, "L": L, "role": role},
                      tuple(checked))


def contraction_thm32(alpha: float, lam: float, beta_c: float, l_lip: float,
                      mu_sm: float, role: str = "A_lip_B_sm") -> RateReport:
    """Factor when one of the first two operators is Lipschitz and the
    other strongly monotone, with a cocoercive third operator."""
    if role not in ("A_lip_B_sm", "A_sm_B_lip"):
        raise ValueError("role must be 'A_lip_B_sm' or 'A_sm_B_lip'")
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(l_lip > 0 and mu_sm > 0, "mu > 0 and L > 0",
                            f"mu={mu_sm}, L={l_lip}"))
    denom_tail = 2.0 - lam + 2.0 * alpha * mu_sm
    first = (2.0 * alpha * mu_sm * lam * (2.0 - lam)
             / ((1.0 + alpha ** 2 * l_lip ** 2) * denom_tail))
    second = (2.0 * alpha * lam
              * ((2.0 - lam) * (mu_sm + l_lip) + 2.0 * alpha * mu_sm * l_lip)
              / ((1.0 + alpha * l_lip) ** 2 * denom_tail))
    rho = math.sqrt(1.0 - min(first, second))
    return RateReport(rho, "thm32",
                      {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                       "L": l_lip, "mu": mu_sm, "role": role},
                      tuple(checked))


def contraction_thm33(alpha: float, lam: float, beta_c: float, l_lip: float,
                      mu_c: float, role: str = "A_lip") -> RateReport:
    """Factor when one of the first two operators is Lipschitz and the
    third is both beta_C-cocoercive and mu_C-strongly monotone."""
    if role not in ("A_lip", "B_lip"):
        raise ValueError("role must be 'A_lip' or 'B_lip'")
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(l_lip > 0, "L > 0", f"L={l_lip}"))
    checked.append(_require(0.0 < mu_c <= 1.0 / beta_c,
                            "0 < mu_C <= 1/beta_C",
                            f"mu_C={mu_c}, 1/beta_C={1.0 / beta_c}"))
    eta = alpha / (2.0 * beta_c * (2.0 - lam))
    shrunk = mu_c * (1.0 - eta)
    first = (l_lip + shrunk) / (1.0 + alpha * l_lip) ** 2
    second = shrunk / (1.0 + alpha ** 2 * l_lip ** 2)
    rho = math.sqrt(1.0 - 2.0 * lam * alpha * min(first, second))
    return RateReport(rho, "thm33",
                      {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                       "L": l_lip, "mu_C": mu_c, "eta": eta, "role": role},
                      tuple(checked))


def averagedness_thm41(alpha: float, mu: float, l_c: float,
                       role: str = "A_sm") -> AveragednessReport:
    """Averagedness coefficient theta = 2/(4 - alpha L_C^2 / mu) with
    lambda = 1, mu-strong monotonicity on A or B, L_C-Lipschitz C."""
    if role not in ("A_sm", "B_sm"):
        raise ValueError("role must be 'A_sm' or 'B_sm'")
    checked = [
        _require(mu > 0, "mu > 0", f"mu={mu}"),
        _require(l_c > 0, "L_C > 0", f"L_C={l_c}"),
        _require(0.0 < alpha < 2.0 * mu / l_c ** 2,
                 "0 < alpha < 2 mu / L_C^2",
                 f"alpha={alpha}, bound={2.0 * mu / l_c ** 2}"),
    ]
    theta = 2.0 / (4.0 - alpha * l_c ** 2 / mu)
    return AveragednessReport(theta, "thm41",
                              {"alpha": alpha, "lambda": 1.0, "mu": mu,
                               "L_C": l_c, "role": role},
                              tuple(checked))


# ---------------------------------------------------------------------------
# Updated prior factors
# ---------------------------------------------------------------------------

def default_eps(alpha: float, beta_c: float) -> float:
    """Midpoint of the admissible window (alpha/(2 beta_C), 1)."""
    return 0.5 * (alpha / (2.0 * beta_c) + 1.0)


def default_eta(alpha: float, beta_c: float, eps: float) -> float:
    """Midpoint of the admissible window (alpha/(2 beta_C eps), 1)."""
    return 0.5 * (alpha / (2.0 * beta_c * eps) + 1.0)


def _check_eps(alpha, beta_c, eps) -> str:
    return _require(alpha / (2.0 * beta_c) < eps < 1.0,
                    "epsilon in (alpha/(2 beta_C), 1)",
                    f"epsilon={eps}, alpha/(2 beta_C)={alpha / (2 * beta_c)}")


def _check_eta(alpha, beta_c, eps, eta) -> str:
    return _require(alpha / (2.0 * beta_c * eps) < eta < 1.0,
                    "eta in (alpha/(2 beta_C epsilon), 1)",
                    f"eta={eta}")


def _finish(label, radicand, params, checked) -> RateReport:
    _require(radicand > 0.0, "updated factor radicand positive",
             f"{label}: 1 - drop = {radicand}")
    return RateReport(math.sqrt(radicand), label, params, tuple(checked))


def prior_d61(alpha, lam, beta_c, mu, l, op: str = "B") -> RateReport:
    """D.6.1, with mu and L of the operator op ("A" or "B")."""
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(0.0 < mu <= l, "0 < mu <= L",
                            f"mu_{op}={mu}, L_{op}={l}"))
    radicand = 1.0 - 2.0 * mu * alpha * lam / (1.0 + alpha * l) ** 2
    return _finish("D.6.1", radicand,
                   {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                    f"mu_{op}": mu, f"L_{op}": l}, checked)


def prior_d62(alpha, lam, beta_c, mu, l, eps, op: str = "A") -> RateReport:
    """D.6.2, with mu and L of the operator op ("A" or "B")."""
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(0.0 < mu <= l, "0 < mu <= L",
                            f"mu_{op}={mu}, L_{op}={l}"))
    checked.append(_check_eps(alpha, beta_c, eps))
    checked.append(_require(lam < 2.0 - eps, "lambda < 2 - epsilon",
                            f"lambda={lam}, epsilon={eps}"))
    drop = (lam / 3.0) * min(
        2.0 * alpha * mu / (1.0 + alpha * l) ** 2,
        (2.0 * beta_c - alpha / eps) / alpha,
        (lam / 4.0) * ((2.0 - eps) / lam - 1.0),
    )
    return _finish("D.6.2", 1.0 - drop,
                   {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                    f"mu_{op}": mu, f"L_{op}": l, "epsilon": eps}, checked)


def prior_d63(alpha, lam, beta_c, mu_a, l_b, eps) -> RateReport:
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(mu_a > 0 and l_b > 0, "mu > 0 and L > 0",
                            f"mu_A={mu_a}, L_B={l_b}"))
    checked.append(_check_eps(alpha, beta_c, eps))
    checked.append(_require(lam < 2.0 - eps, "lambda < 2 - epsilon",
                            f"lambda={lam}, epsilon={eps}"))
    drop = (lam / 3.0) * min(
        2.0 * alpha * mu_a / (1.0 + alpha * l_b) ** 2,
        (lam / (1.0 + 2.0 * alpha ** 2 * l_b ** 2))
        * ((2.0 - eps) / lam - 1.0),
    )
    return _finish("D.6.3", 1.0 - drop,
                   {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                    "mu_A": mu_a, "L_B": l_b, "epsilon": eps}, checked)


def prior_d64(alpha, lam, beta_c, mu_b, l_a, eps) -> RateReport:
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(mu_b > 0 and l_a > 0, "mu > 0 and L > 0",
                            f"mu_B={mu_b}, L_A={l_a}"))
    checked.append(_check_eps(alpha, beta_c, eps))
    checked.append(_require(lam < 2.0 - eps, "lambda < 2 - epsilon",
                            f"lambda={lam}, epsilon={eps}"))
    denom = 1.0 + 2.0 * alpha ** 2 * l_a ** 2
    drop = (lam / 4.0) * min(
        2.0 * alpha * mu_b / denom,
        (2.0 * beta_c - alpha / eps) / alpha,
        (lam / denom) * ((2.0 - eps) / lam - 1.0),
    )
    return _finish("D.6.4", 1.0 - drop,
                   {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                    "mu_B": mu_b, "L_A": l_a, "epsilon": eps}, checked)


def prior_d65(alpha, lam, beta_c, mu_c, l_a, eps, eta) -> RateReport:
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(mu_c > 0 and l_a > 0, "mu_C > 0 and L > 0",
                            f"mu_C={mu_c}, L_A={l_a}"))
    checked.append(_check_eps(alpha, beta_c, eps))
    checked.append(_check_eta(alpha, beta_c, eps, eta))
    checked.append(_require(lam < 2.0 - eps, "lambda < 2 - epsilon",
                            f"lambda={lam}, epsilon={eps}"))
    denom = 1.0 + 2.0 * alpha ** 2 * l_a ** 2
    drop = (lam / 4.0) * min(
        2.0 * alpha * mu_c * (1.0 - eta) / denom,
        (2.0 * eta * beta_c - alpha / eps) / alpha,
        (lam / denom) * ((2.0 - eps) / lam - 1.0),
    )
    return _finish("D.6.5", 1.0 - drop,
                   {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                    "mu_C": mu_c, "L_A": l_a, "epsilon": eps, "eta": eta},
                   checked)


def prior_d66(alpha, lam, beta_c, mu_c, l_b, eta) -> RateReport:
    checked = _check_core_window(alpha, lam, beta_c)
    checked.append(_require(mu_c > 0 and l_b > 0, "mu_C > 0 and L > 0",
                            f"mu_C={mu_c}, L_B={l_b}"))
    checked.append(_require(0.0 < eta < 1.0, "eta in (0, 1)", f"eta={eta}"))
    radicand = (1.0 - 2.0 * alpha * lam * mu_c * (1.0 - eta)
                / (1.0 + alpha * l_b) ** 2)
    return _finish("D.6.6", radicand,
                   {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
                    "mu_C": mu_c, "L_B": l_b, "eta": eta}, checked)


# ---------------------------------------------------------------------------
# Placement table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Placement:
    """Where one theorem wants mu, L and beta across A, B and C.  Each
    argument is named by its source: "alpha", "lambda", "epsilon", "eta",
    or an operator's parameter such as "C.beta".  Closed forms are named,
    not held, so every call sees the module attribute as it is then."""

    theorem: str
    role: str
    form: str
    args: tuple
    priors: tuple = ()  # (label, form, args) of each prior it improves on


_CORE = ("alpha", "lambda", "C.beta")

PLACEMENTS = (
    Placement("31", "A", "contraction_thm31", _CORE + ("A.mu", "A.L"),
              (("D.6.1", "prior_d61", _CORE + ("A.mu", "A.L")),
               ("D.6.2", "prior_d62", _CORE + ("A.mu", "A.L", "epsilon")))),
    Placement("31", "B", "contraction_thm31", _CORE + ("B.mu", "B.L"),
              (("D.6.1", "prior_d61", _CORE + ("B.mu", "B.L")),
               ("D.6.2", "prior_d62", _CORE + ("B.mu", "B.L", "epsilon")))),
    Placement("32", "A_lip_B_sm", "contraction_thm32", _CORE + ("A.L", "B.mu"),
              (("D.6.4", "prior_d64", _CORE + ("B.mu", "A.L", "epsilon")),)),
    Placement("32", "A_sm_B_lip", "contraction_thm32", _CORE + ("B.L", "A.mu"),
              (("D.6.3", "prior_d63", _CORE + ("A.mu", "B.L", "epsilon")),)),
    Placement("33", "A_lip", "contraction_thm33", _CORE + ("A.L", "C.mu"),
              (("D.6.5", "prior_d65",
                _CORE + ("C.mu", "A.L", "epsilon", "eta")),)),
    Placement("33", "B_lip", "contraction_thm33", _CORE + ("B.L", "C.mu"),
              (("D.6.6", "prior_d66", _CORE + ("C.mu", "B.L", "eta")),)),
    Placement("41", "A_sm", "averagedness_thm41", ("alpha", "A.mu", "C.L")),
    Placement("41", "B_sm", "averagedness_thm41", ("alpha", "B.mu", "C.L")),
)

# theorem: (needs, inequality when none of its placements applies, auto),
# in auto-dispatch order.  Needs are (test(C, lambda), inequality, detail);
# auto tests C, or is None: A and B carry what a placement reads from them.
THEOREMS = {
    "33": ([(lambda c, lam: c.beta is not None and c.mu is not None,
             "C carries beta_C and mu_C", "")], "A or B carries L",
           lambda c: c.beta is not None and c.mu is not None),
    "41": ([(lambda c, lam: c.L is not None and is_monotone_class(c),
             "C monotone and L_C-Lipschitz", ""),
            (lambda c, lam: abs(lam - 1.0) <= 1e-12, "lambda = 1",
             "averagedness requires lambda = 1")], "A or B carries mu",
           lambda c: c.L is not None and c.beta is None),
    "31": ([(lambda c, lam: c.beta is not None,
             "one of A, B carries (mu, L) and C carries beta_C", "")],
           "one of A, B carries (mu, L) and C carries beta_C", None),
    "32": ([(lambda c, lam: c.beta is not None, "C carries beta_C", "")],
           "A Lipschitz and B strongly monotone, or A strongly monotone "
           "and B Lipschitz", None),
}


def _sources(a, b, c, alpha, lam, **extra) -> dict:
    values = {"alpha": alpha, "lambda": lam, **extra}
    for name, spec in (("A", a), ("B", b), ("C", c)):
        for param in ("mu", "L", "beta"):
            values[f"{name}.{param}"] = getattr(spec, param)
    return values


def _carried(args, values) -> bool:
    return all(values[s] is not None for s in args)


def _call(form: str, args, values, **kwargs):
    return globals()[form](*(values[s] for s in args), **kwargs)


def _prior(form: str, args, values) -> RateReport:
    """A prior's report with its mu and L named after their sources: D.6.1
    and D.6.2 read both from one operator, A or B, and take it as op."""
    ops = {s[0] for s in args if s.endswith((".mu", ".L"))}
    if len(ops) == 1:
        return _call(form, args, values, op=ops.pop())
    return _call(form, args, values)


def _require_monotone_a_b(a, b) -> None:
    """Every theorem takes A and B maximal monotone."""
    if not (is_monotone_class(a) and is_monotone_class(b)):
        raise PreconditionError("A and B monotone")


def factor(a, b, c, alpha: float, lam: float, theorem: str = "auto"):
    """Closed-form factor of the first placement of `theorem` that the
    classes a, b and c carry; "auto" picks the theorem as THEOREMS says."""
    _require_monotone_a_b(a, b)
    values = _sources(a, b, c, alpha, lam)
    if theorem == "auto":
        placed = {row.theorem for row in PLACEMENTS if _carried(
            [s for s in row.args if s[:2] in ("A.", "B.")], values)}
        theorem = next((name for name, (_, _, auto) in THEOREMS.items()
                        if (auto(c) if auto else name in placed)), None)
        if theorem is None:
            raise PreconditionError(
                "theorem hypotheses recognizable",
                "no theorem matches the (mu, L) placement across A, B, C")
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    needs, unplaced, _ = THEOREMS[theorem]
    for test, inequality, detail in needs:
        if not test(c, lam):
            raise PreconditionError(inequality, detail)
    for row in PLACEMENTS:
        if row.theorem == theorem and _carried(row.args, values):
            return _call(row.form, row.args, values, role=row.role)
    raise PreconditionError(unplaced)


def compare(a, b, c, alpha: float, lam: float) -> dict:
    """Each carried placement's factor against every prior it improves on,
    in table order, with epsilon and eta at their window midpoints."""
    _require_monotone_a_b(a, b)
    if c.beta is None:
        raise PreconditionError("C carries beta_C")
    eps = default_eps(alpha, c.beta)
    eta = default_eta(alpha, c.beta, eps)
    values = _sources(a, b, c, alpha, lam, epsilon=eps, eta=eta)
    pairs = []
    for row in PLACEMENTS:
        if not row.priors or not _carried(row.args, values):
            continue
        new = _call(row.form, row.args, values, role=row.role)
        for _, form, args in row.priors:
            prior = _prior(form, args, values)
            pairs.append({"new": new, "prior": prior,
                          "margin": prior.rho - new.rho})
    if not pairs:
        raise PreconditionError(
            "comparable factor pair available",
            "no (mu, L) placement matches a theorem/prior pairing")
    return {"pairs": pairs, "epsilon": eps, "eta": eta}


# ---------------------------------------------------------------------------
# Dominance sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterRanges:
    alpha: tuple = (0.05, 2.0)
    beta_c: tuple = (0.5, 2.0)
    mu: tuple = (0.05, 2.0)
    L: tuple = (0.05, 2.0)


@dataclass
class PairingResult:
    new_label: str
    prior_label: str
    samples: int = 0
    min_margin: float = math.inf
    violations: list = field(default_factory=list)


@dataclass
class DominanceReport:
    pairings: list

    @property
    def all_strict(self) -> bool:
        return all(not p.violations and p.min_margin > 0
                   for p in self.pairings)


def dominance_check(sample_count: int = 1000,
                    ranges: ParameterRanges = ParameterRanges(),
                    rng_seed: int = 0) -> DominanceReport:
    """Sampled strict-dominance sweep of each corrected prior against the
    first placement that lists it, in label order.

    Each sampled tuple respects the shared window alpha < 2 beta_C (so the
    eps window is nonempty), lambda below both 2 - alpha/(2 beta_C) and
    2 - eps, and, for the third-operator pairings, eta above
    alpha/(2 beta_C (2 - lambda)) as the comparison chain requires.
    """
    rng = np.random.default_rng(rng_seed)
    first = {}
    for row in PLACEMENTS:
        for label, form, args in row.priors:
            first.setdefault(label, (row, form, args))
    pairings = [(PairingResult(f"thm{first[label][0].theorem}", label),
                 *first[label]) for label in sorted(first)]

    def draw(lo_hi):
        lo, hi = lo_hi
        return lo + (hi - lo) * rng.random()

    produced = 0
    while produced < sample_count:
        beta_c = draw(ranges.beta_c)
        alpha = draw((ranges.alpha[0],
                      min(ranges.alpha[1], 1.98 * beta_c)))
        eps = default_eps(alpha, beta_c)
        lam_hi = min(2.0 - alpha / (2.0 * beta_c), 2.0 - eps)
        if lam_hi <= 1e-3:
            continue
        lam = draw((1e-3 * lam_hi, (1.0 - 1e-3) * lam_hi))
        m1, m2 = draw(ranges.mu), draw(ranges.L)
        mu, L = min(m1, m2), max(m1, m2)
        mu_c_hi = min(ranges.mu[1], 0.999 / beta_c)
        mu_c = draw((min(ranges.mu[0], 0.5 * mu_c_hi), mu_c_hi))
        eta_floor = max(alpha / (2.0 * beta_c * eps),
                        alpha / (2.0 * beta_c * (2.0 - lam)))
        if eta_floor >= 1.0 - 1e-6:
            continue
        eta = 0.5 * (eta_floor + 1.0)
        tup = {"alpha": alpha, "lambda": lam, "beta_C": beta_c,
               "mu": mu, "L": L, "mu_C": mu_c, "epsilon": eps, "eta": eta}
        values = {**tup, "C.beta": beta_c, "C.mu": mu_c,
                  "A.mu": mu, "B.mu": mu, "A.L": L, "B.L": L}
        for pairing, row, form, args in pairings:
            new = _call(row.form, row.args, values, role=row.role).rho
            prior = _call(form, args, values).rho
            margin = prior - new
            pairing.samples += 1
            pairing.min_margin = min(pairing.min_margin, margin)
            if margin <= 0.0:
                pairing.violations.append({"margin": margin, "new": new,
                                           "prior": prior, **tup})
        produced += 1

    return DominanceReport([p[0] for p in pairings])

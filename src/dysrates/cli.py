"""Command-line surface: factor, maxmod, verify, compare, plot.

Problem descriptions come from a JSON file:

    {
      "classes": {
        "A": [{"kind": "monotone"}],
        "B": [{"kind": "monotone"}, {"kind": "lipschitz", "L": 0.5}],
        "C": [{"kind": "cocoercive", "beta": 1.0},
              {"kind": "strongly_monotone", "mu": 0.5}]
      },
      "params": {"alpha": 1.0, "lambda": 1.0, "s": 0.0},
      "search": {"eps_grid": 0.0083333},
      "enlargement": {"mode": "none"}
    }

Unknown keys are rejected and every number must be finite.  All reports
are JSON on stdout with floats in shortest round-trip form.  Exit codes:
0 ok, 1 verification counterexample, 2 parse error, 3 violated
precondition, 4 unbounded search domain, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import classes as cls
from . import rates
from .errors import (DysRatesError, InvalidClassError, PreconditionError,
                     UnboundedRegionError)
from .geometry import boundary_pieces
from .search import SearchConfig, search
from .svgplot import SvgFigure, bounds_for
from .symbol import DysParams, zeta
from .verify import verify_averagedness, verify_contraction

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_UNBOUNDED = 4
EXIT_IO = 5

_ATOM_KINDS = {
    "monotone": ((), cls.Monotone),
    "strongly_monotone": (("mu",), cls.StronglyMonotone),
    "cocoercive": (("beta",), cls.Cocoercive),
    "lipschitz": (("L",), cls.Lipschitz),
    "averaged": (("theta",), cls.Averaged),
    "shifted_lipschitz_ball": (("center", "radius"), cls.ShiftedLipschitzBall),
}

_SEARCH_KEYS = {"eps_grid", "top_k"}


class SpecFileError(DysRatesError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as one SpecFileError (exit 2, one stderr
    line) instead of argparse's usage line plus error line; subparsers
    inherit the class."""

    def error(self, message):
        raise SpecFileError(message)


def _finite_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFileError(f"{where}: expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise SpecFileError(f"{where}: number must be finite, got {value!r}")
    return x


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SpecFileError(
            f"{where}: unknown keys {sorted(unknown)}; allowed: "
            f"{sorted(allowed)}")


def _parse_atom(obj, where: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecFileError(f"{where}: atom must be an object with 'kind'")
    kind = obj["kind"]
    if kind not in _ATOM_KINDS:
        raise SpecFileError(
            f"{where}: unknown kind {kind!r}; known: {sorted(_ATOM_KINDS)}")
    fields, ctor = _ATOM_KINDS[kind]
    _reject_unknown(obj, ("kind",) + fields, where)
    try:
        return ctor(*[_finite_number(obj[f], f"{where}.{f}") for f in fields])
    except KeyError as exc:
        raise SpecFileError(f"{where}: missing field {exc}") from exc


def _parse_class(objs, where: str) -> cls.OperatorClassSpec:
    if not isinstance(objs, list) or not objs:
        raise SpecFileError(f"{where}: expected a nonempty list of atoms")
    atoms = tuple(_parse_atom(a, f"{where}[{i}]") for i, a in enumerate(objs))
    return cls.OperatorClassSpec(atoms)


class ProblemSpec:
    """Validated contents of a problem JSON file."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise SpecFileError("top level must be an object")
        _reject_unknown(raw, {"classes", "params", "search", "enlargement",
                              "plot"}, "top level")
        classes = raw.get("classes")
        if not isinstance(classes, dict):
            raise SpecFileError("'classes' object is required")
        _reject_unknown(classes, {"A", "B", "C", "Cprime"}, "classes")
        for key in ("A", "B", "C"):
            if key not in classes:
                raise SpecFileError(f"classes.{key} is required")
        self.a = _parse_class(classes["A"], "classes.A")
        self.b = _parse_class(classes["B"], "classes.B")
        self.c = _parse_class(classes["C"], "classes.C")
        self.c_prime = None
        if "Cprime" in classes:
            self.c_prime = _parse_class(classes["Cprime"], "classes.Cprime")

        params = raw.get("params")
        if not isinstance(params, dict):
            raise SpecFileError("'params' object is required")
        _reject_unknown(params, {"alpha", "lambda", "s"}, "params")
        if "alpha" not in params or "lambda" not in params:
            raise SpecFileError("params.alpha and params.lambda are required")
        self.alpha = _finite_number(params["alpha"], "params.alpha")
        self.lam = _finite_number(params["lambda"], "params.lambda")
        self.shift = _finite_number(params.get("s", 0.0), "params.s")

        search_cfg = raw.get("search", {})
        if not isinstance(search_cfg, dict):
            raise SpecFileError("'search' must be an object")
        _reject_unknown(search_cfg, _SEARCH_KEYS, "search")
        self.search_kwargs = {}
        for key, value in search_cfg.items():
            if key == "top_k":
                number = _finite_number(value, f"search.{key}")
                if not number.is_integer():
                    raise SpecFileError(
                        f"search.{key}: expected an integer, got {value!r}")
                self.search_kwargs[key] = int(number)
            else:
                self.search_kwargs[key] = _finite_number(value,
                                                         f"search.{key}")

        enlargement = raw.get("enlargement", {"mode": "none"})
        if not isinstance(enlargement, dict):
            raise SpecFileError("'enlargement' must be an object")
        _reject_unknown(enlargement, {"mode", "mu"}, "enlargement")
        mode = enlargement.get("mode", "none")
        if mode not in ("none", "disk_hull", "thm33", "thm41"):
            raise SpecFileError(f"unknown enlargement mode {mode!r}")
        self.enlargement_mode = mode
        self.enlargement_mu = None
        if "mu" in enlargement:
            self.enlargement_mu = _finite_number(enlargement["mu"],
                                                 "enlargement.mu")

        plot_cfg = raw.get("plot", {})
        if not isinstance(plot_cfg, dict):
            raise SpecFileError("'plot' must be an object")
        _reject_unknown(plot_cfg, {"circle_radius", "eps"}, "plot")
        self.plot_circle = None
        if "circle_radius" in plot_cfg:
            self.plot_circle = _finite_number(plot_cfg["circle_radius"],
                                              "plot.circle_radius")
        self.plot_eps = _finite_number(plot_cfg.get("eps", 1.0 / 30.0),
                                       "plot.eps")
        if self.plot_eps <= 0:
            raise SpecFileError(f"plot.eps: must be positive, got "
                                f"{self.plot_eps!r}")

    def params(self) -> DysParams:
        return DysParams(self.alpha, self.lam, self.shift)

    def effective_c(self) -> cls.OperatorClassSpec:
        if self.enlargement_mode == "none":
            return self.c
        mu = self.enlargement_mu
        if mu is None and self.enlargement_mode == "thm41":
            mu = self.a.mu if self.a.mu is not None else self.b.mu
        return cls.enlarge_C(self.c, self.params(), self.enlargement_mode,
                             mu=mu)


def load_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON in {path}: {exc}") from exc
    return ProblemSpec(raw)


def _write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, with no newline translation."""
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_factor(args) -> int:
    spec = load_spec(args.spec)
    report = rates.factor(spec.a, spec.b, spec.c, spec.alpha, spec.lam,
                          args.theorem)
    _emit(report.as_dict())
    return EXIT_OK


def _search_config(spec: ProblemSpec, args) -> SearchConfig:
    kwargs = dict(spec.search_kwargs)
    if args.eps is not None:
        kwargs["eps_grid"] = _finite_number(args.eps, "--eps")
    try:
        return SearchConfig(**kwargs)
    except ValueError as exc:
        raise SpecFileError(f"search settings: {exc}") from exc


def cmd_maxmod(args) -> int:
    spec = load_spec(args.spec)
    shift = spec.shift if args.shift is None else _finite_number(
        args.shift, "--shift")
    params = DysParams(spec.alpha, spec.lam, shift)
    config = _search_config(spec, args)
    effective_c = spec.effective_c()
    result = search(spec.a, spec.b, effective_c, params, config)
    if args.dump_grid is not None:
        _dump_grid_csv(args.dump_grid, spec, effective_c, params,
                       config.eps_grid)
    payload = result.as_dict()
    payload["params"] = {"alpha": params.alpha, "lambda": params.lam,
                         "s": params.shift}
    payload["eps_grid"] = config.eps_grid
    _emit(payload)
    return EXIT_OK


def _dump_grid_csv(path: str, spec: ProblemSpec, c_spec, params: DysParams,
                   eps: float, cap: int = 100_000) -> None:
    """Decimated symbol values on the grid product (see _cloud), for
    external plotting: CSV rows re,im,shifted_modulus with CRLF line ends."""
    rows = ["re,im,shifted_modulus"]
    rows.extend(f"{v.real!r},{v.imag!r},{abs(v - params.shift)!r}"
                for v in _cloud(spec, c_spec, params, eps, cap=cap).tolist())
    _write_text(path, "\r\n".join(rows) + "\r\n")


def cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    params = spec.params()
    for flag, value in (("--trials", args.trials), ("--seed", args.seed)):
        if value < 0:
            raise SpecFileError(f"{flag}: must be >= 0, got {value}")
    check = verify_contraction
    if args.rho == "auto":
        report = rates.factor(spec.a, spec.b, spec.c, spec.alpha, spec.lam)
        if isinstance(report, rates.AveragednessReport):
            check, bound = verify_averagedness, report.theta
        else:
            bound = report.rho
    else:
        try:
            rho = float(args.rho)
        except ValueError as exc:
            raise SpecFileError("--rho must be a number or 'auto'") from exc
        bound = _finite_number(rho, "--rho")
    ver = check(spec.a, spec.b, spec.c, params, bound, n_trials=args.trials,
                rng_seed=args.seed)
    for warning in ver.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(ver.as_dict())
    return EXIT_OK if ver.passed else EXIT_COUNTEREXAMPLE


def cmd_compare(args) -> int:
    spec = load_spec(args.spec)
    _emit(rates.compare(spec.a, spec.b, spec.c, spec.alpha, spec.lam))
    return EXIT_OK


def _cloud(spec: ProblemSpec, c_spec, params: DysParams, eps: float,
           cap: int = 30000):
    """Symbol values over the grid product of the three boundaries, in
    A-major order.  A product larger than cap is decimated to every
    (size // cap + 1)-th value; only the kept triples are evaluated, so
    memory stays O(cap) however fine eps is."""
    from .classes import resolvent_srg, srg
    from .geometry import boundary_grid
    za = boundary_grid(resolvent_srg(spec.a, params.alpha), eps).points
    zb = boundary_grid(resolvent_srg(spec.b, params.alpha), eps).points
    zc = boundary_grid(srg(c_spec), eps).points
    shape = (za.size, zb.size, zc.size)
    size = za.size * zb.size * zc.size
    stride = size // cap + 1 if size > cap else 1
    ia, ib, ic = np.unravel_index(np.arange(0, size, stride), shape)
    return zeta(za[ia], zb[ib], zc[ic], params)


def cmd_plot(args) -> int:
    spec = load_spec(args.spec)
    params = spec.params()
    eps = spec.plot_eps
    dark = _cloud(spec, spec.c, params, eps)
    light = None
    if spec.c_prime is not None:
        light = _cloud(spec, spec.c_prime, params, eps)
    elif spec.enlargement_mode != "none":
        light = _cloud(spec, spec.effective_c(), params, eps)

    circle = spec.plot_circle
    if circle is None:
        peak = float(np.max(np.abs(dark)))
        if light is not None:
            peak = max(peak, float(np.max(np.abs(light))))
        circle = peak

    pts = dark if light is None else np.concatenate([dark, light])
    xmin, xmax, ymin, ymax = bounds_for(pts, circle)
    fig = SvgFigure(xmin, xmax, ymin, ymax)
    fig.add_axes()
    if light is not None:
        fig.add_points(light, "#bbbbbb")
    fig.add_points(dark, "#555555")
    fig.add_circle(0j, circle, "#000000")
    from .classes import srg
    for piece in boundary_pieces(srg(spec.c)):
        fig.add_piece_outline(piece, "#2060c0")
    legend = [("symbol cloud", "#555555")]
    if light is not None:
        legend.append(("enlarged cloud", "#bbbbbb"))
    legend.append((f"|z| = {circle:.10f}", "#000000"))
    fig.add_legend(legend)
    _write_text(args.out, fig.render())
    _emit({"out": args.out, "dark_points": int(len(dark)),
           "light_points": int(len(light)) if light is not None else 0,
           "circle_radius": circle})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache  # built on the first call to main, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dysrates",
        description="Contraction and averagedness factors for three-operator "
                    "splitting via complex-plane region analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="closed-form factor for a spec file")
    p.add_argument("spec")
    p.add_argument("--theorem", choices=["31", "32", "33", "41", "auto"],
                   default="auto")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("maxmod", help="boundary search for max |zeta - s|")
    p.add_argument("spec")
    p.add_argument("--eps", type=float, default=None,
                   help="boundary grid spacing (overrides spec file)")
    p.add_argument("--shift", type=float, default=None,
                   help="shift s (overrides spec file)")
    p.add_argument("--dump-grid", default=None, metavar="FILE",
                   help="write decimated symbol samples as CSV")
    p.set_defaults(func=cmd_maxmod)

    p = sub.add_parser("verify", help="2x2 realization check of a factor")
    p.add_argument("spec")
    p.add_argument("--rho", default="auto")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="new factors vs corrected priors")
    p.add_argument("spec")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="SVG of the symbol cloud")
    p.add_argument("spec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidClassError as exc:
        print(f"error: invalid class: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PreconditionError as exc:
        print(f"error: violated precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except UnboundedRegionError as exc:
        print(f"error: unbounded search domain: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except DysRatesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

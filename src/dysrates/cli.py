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
import dataclasses
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
from .search import EPS_GRID, _check_scale, search
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

_ATOM_KINDS = {atom.kind: atom for atom in cls.ATOMS}


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


def _positive(x: float, where: str) -> float:
    if x <= 0:
        raise SpecFileError(f"{where}: must be positive, got {x!r}")
    return x


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SpecFileError(
            f"{where}: unknown keys {sorted(unknown)}; allowed: "
            f"{sorted(allowed)}")


def _section(raw: dict, key: str, allowed, required: bool = False) -> dict:
    """The object raw[key] with no keys outside allowed; {} when an
    optional section is absent."""
    if key not in raw and not required:
        return {}
    obj = raw.get(key)
    if not isinstance(obj, dict):
        raise SpecFileError(f"'{key}' object is required" if required
                            else f"'{key}' must be an object")
    _reject_unknown(obj, allowed, key)
    return obj


def _number(obj: dict, key: str, where: str, default=None):
    """obj[key] as a finite float, or default when the key is absent."""
    if key not in obj:
        return default
    return _finite_number(obj[key], f"{where}.{key}")


def _parse_atom(obj, where: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecFileError(f"{where}: atom must be an object with 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _ATOM_KINDS:
        raise SpecFileError(
            f"{where}: unknown kind {kind!r}; known: {sorted(_ATOM_KINDS)}")
    ctor = _ATOM_KINDS[kind]
    names = [f.name for f in dataclasses.fields(ctor)]
    _reject_unknown(obj, ["kind"] + names, where)
    try:
        return ctor(*[_finite_number(obj[f], f"{where}.{f}") for f in names])
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
        classes = _section(raw, "classes", {"A", "B", "C", "Cprime"},
                           required=True)
        for key in ("A", "B", "C"):
            if key not in classes:
                raise SpecFileError(f"classes.{key} is required")
        self.a, self.b, self.c, self.c_prime = (
            _parse_class(classes[k], f"classes.{k}") if k in classes else None
            for k in ("A", "B", "C", "Cprime"))

        params = _section(raw, "params", {"alpha", "lambda", "s"},
                          required=True)
        if "alpha" not in params or "lambda" not in params:
            raise SpecFileError("params.alpha and params.lambda are required")
        self.alpha = _number(params, "alpha", "params")
        self.lam = _number(params, "lambda", "params")
        self.shift = _number(params, "s", "params", 0.0)

        self.eps_grid = _number(_section(raw, "search", {"eps_grid"}),
                                "eps_grid", "search", EPS_GRID)

        enlargement = _section(raw, "enlargement", {"mode"})
        mode = enlargement.get("mode", "none")
        if mode not in ("none", "disk_hull", "thm33", "thm41"):
            raise SpecFileError(f"unknown enlargement mode {mode!r}")
        self.enlargement_mode = mode

        plot_cfg = _section(raw, "plot", {"circle_radius", "eps"})
        self.plot_circle = _number(plot_cfg, "circle_radius", "plot")
        self.plot_eps = _number(plot_cfg, "eps", "plot", 1.0 / 30.0)
        for where, value in (("search.eps_grid", self.eps_grid),
                             ("plot.circle_radius", self.plot_circle),
                             ("plot.eps", self.plot_eps)):
            if value is not None:
                _positive(value, where)

    def params(self) -> DysParams:
        return DysParams(self.alpha, self.lam, self.shift)

    def effective_c(self, params: DysParams) -> cls.OperatorClassSpec:
        """C, or its enlargement for a run at params."""
        if self.enlargement_mode == "none":
            return self.c
        return cls.enlarge_C(self.c, params, self.enlargement_mode)


def load_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON in {path}: {exc}") from exc
    return ProblemSpec(raw)


_WRITE_CHARS = 1 << 18  # characters _write_text encodes per write


@functools.cache  # once per process
def _hold_freed_memory() -> None:
    """Keep memory a figure frees in the process for the next one.

    A figure allocates and frees several MB of arrays and text. By default
    glibc hands large blocks and the top of its heap back to the kernel,
    and how much it hands back follows the largest block freed so far, so
    each further figure in the same process would fault several MB back in,
    at a cost that depends on the host. Fixed thresholds of 32 MB
    (mmap) and 64 MB (trim) keep that memory. Other C libraries are left
    as they are."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, with no newline translation."""
    try:
        with open(path, "wb") as fh:
            for i in range(0, len(text), _WRITE_CHARS):
                fh.write(text[i:i + _WRITE_CHARS].encode("utf-8"))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _json_default(obj):
    """The JSON form of what json has none for: a report dataclass is
    written as its fields, a complex point as {"re": ..., "im": ...}."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


def _emit(report, **extra) -> None:
    """Write report, a dict or a report dataclass, to stdout as one JSON
    object with schema_version and the extra keys added.  This is the only
    place that decides the JSON form of a report."""
    if not isinstance(report, dict):
        report = _json_default(report)
    payload = {"schema_version": SCHEMA_VERSION, **report, **extra}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True,
                                default=_json_default))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_factor(args) -> int:
    spec = load_spec(args.spec)
    report = rates.factor(spec.a, spec.b, spec.c, spec.alpha, spec.lam,
                          args.theorem)
    _emit(report)
    return EXIT_OK


def cmd_maxmod(args) -> int:
    spec = load_spec(args.spec)
    shift = spec.shift if args.shift is None else _finite_number(
        args.shift, "--shift")
    params = DysParams(spec.alpha, spec.lam, shift)
    eps = spec.eps_grid if args.eps is None else _positive(
        _finite_number(args.eps, "--eps"), "--eps")
    result = search(spec.a, spec.b, spec.effective_c(params), params, eps)
    _emit(result, params={"alpha": params.alpha, "lambda": params.lam,
                          "s": params.shift}, eps_grid=eps)
    return EXIT_OK


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
    _emit(ver, passed=ver.passed)
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
    grids = [boundary_grid(resolvent_srg(spec.a, params.alpha), eps),
             boundary_grid(resolvent_srg(spec.b, params.alpha), eps),
             boundary_grid(srg(c_spec), eps)]
    # the symbol's terms must be in range, as for the search
    _check_scale(params, *(grid.pieces for grid in grids))
    za, zb, zc = (grid.points for grid in grids)
    shape = (za.size, zb.size, zc.size)
    size = za.size * zb.size * zc.size
    stride = size // cap + 1 if size > cap else 1
    ia, ib, ic = np.unravel_index(np.arange(0, size, stride), shape)
    return zeta(za[ia], zb[ib], zc[ic], params)


def cmd_plot(args) -> int:
    _hold_freed_memory()
    spec = load_spec(args.spec)
    params = spec.params()
    eps = spec.plot_eps
    dark = _cloud(spec, spec.c, params, eps)
    light = None
    if spec.c_prime is not None:
        light = _cloud(spec, spec.c_prime, params, eps)
    elif spec.enlargement_mode != "none":
        light = _cloud(spec, spec.effective_c(params), params, eps)

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
    except ArithmeticError:
        # Python floats raise where numpy would return inf or nan: ** on an
        # overflow, / by a square that underflowed to 0.  The exception's
        # text is the platform's errno string, so it is not printed.
        print("error: the spec's numbers put a result out of floating-point "
              "range", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

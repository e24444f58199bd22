"""Benchmark runner for dysrates.

    python3 bench/run.py --workload certify|sweep|figure --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one CLI call,
``dysrates.cli.main(argv)``, made in this single process with stdout
captured, so per-call times are not buried under interpreter start-up;
start-up and imports are measured separately as ``setup_s``.  Every output
is checked against oracles that do not come from the code under test.  The
last line of stdout is one JSON object with the result; the lines before it
are a human-readable report, including every failed check with its spec.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes over a fixed batch of
work and reports per-layer metrics per batch, each layer's self-time share
of the traced wall time, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import specs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LADDER_START = 1.0 / 30.0
LADDER_RUNGS = 4  # 1/30 .. 1/240; a finer grid needs several GB
GAP_TARGET = 1e-2
SWEEP_BATCH = 8  # problems per sweep batch: two of each placement
SETUP_REPEATS = 11
# End-to-end metrics named in BENCHMARK.json; see end_to_end for the rest.
GATED = ("setup_s", "time_to_result_s", "ops_per_s", "peak_rss_mb")
LAYERS = ("geometry", "classes", "symbol", "search", "rates", "verify",
          "svgplot", "cli")


# ---------------------------------------------------------------------------
# Operations and checks
# ---------------------------------------------------------------------------

class Op:
    """One CLI call: its argv, the spec it ran on, and what came out."""

    def __init__(self, argv, spec):
        self.argv = argv
        self.spec = spec
        self.code = None
        self.seconds = 0.0
        self.out = None
        self.gap = math.nan  # certified_upper - best_value on a ladder rung
        self.failures = []

    def check(self, ok: bool, name: str, detail="") -> bool:
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


class Runner:
    """Makes CLI calls, optionally under a tracer, and keeps every op."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.tracer = None
        self.ops = []
        self._written = {}

    def spec_file(self, name: str, spec: dict) -> str:
        path = self._written.get(name)
        if path is None:
            path = str(self.workdir / f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            self._written[name] = path
        return path

    def call(self, argv, spec) -> Op:
        op = Op(argv, spec)
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.enter("cli.main")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                op.code = self.cli.main(argv)
        except SystemExit as exc:
            op.code = exc.code
        except Exception:  # a traceback is a failed operation
            op.code = traceback.format_exc(limit=-2)
        finally:
            op.seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.exit()
        self.ops.append(op)
        if op.check(op.code == 0, "exit code",
                    f"{op.code!r} stderr={err.getvalue().strip()[:300]!r}"):
            try:
                op.out = json.loads(out.getvalue())
            except ValueError as exc:
                op.check(False, "JSON output", str(exc))
        return op


def _ordering(op: Op) -> None:
    o = op.out
    op.check(
        o["grid_best_value"] <= o["best_value"] <= o["certified_upper"],
        "grid_best <= best <= certified",
        f"{o['grid_best_value']!r} {o['best_value']!r} "
        f"{o['certified_upper']!r}")


# ---------------------------------------------------------------------------
# Workloads.  A unit is one result: a ladder, a problem or a figure.
# ---------------------------------------------------------------------------

def certify_unit(runner: Runner, name: str, rungs=LADDER_RUNGS) -> None:
    """maxmod with eps 1/30, 1/60, ... until the certificate gap is at most
    GAP_TARGET."""
    spec = specs.PUBLISHED[name]
    path = runner.spec_file(name, spec)
    value = specs.PUBLISHED_VALUE[name]
    for k in range(rungs):
        eps = LADDER_START / 2 ** k
        op = runner.call(["maxmod", path, "--eps", repr(eps)], spec)
        if op.out is None:
            return
        o = op.out
        op.check(abs(o["best_value"] - value) <= 1e-9, "best_value",
                 f"{o['best_value']!r} vs published {value!r}")
        op.check(o["certified_upper"] >= value - 1e-12, "certificate",
                 f"{o['certified_upper']!r} < {value!r}")
        _ordering(op)
        op.gap = o["certified_upper"] - o["best_value"]
        if op.gap <= GAP_TARGET:
            return
    if rungs == LADDER_RUNGS:
        op.check(False, "gap target",
                 f"gap {op.gap!r} > {GAP_TARGET} at the last rung")


def sweep_unit(runner: Runner, name: str, theorem: str, spec: dict) -> None:
    path = runner.spec_file(name, spec)
    op = runner.call(["factor", path], spec)
    if op.out is None:
        return
    factor = op.out.get("rho", op.out.get("theta"))
    if not op.check(isinstance(factor, float) and 0.0 < factor < 1.0,
                    "factor in (0, 1)", repr(factor)):
        return
    if theorem != "thm41":
        op = runner.call(["compare", path], spec)
        if op.out is not None:
            margins = [p["margin"] for p in op.out["pairs"]]
            op.check(bool(margins) and min(margins) > 0.0, "margins > 0",
                     repr(margins))
    op = runner.call(["verify", path, "--trials", "1000"], spec)
    if op.out is not None:
        op.check(op.out["passed"] is True, "verify passed")
        op.check(op.out["max_norm_seen"] <= factor + 1e-9,
                 "max_norm_seen <= factor",
                 f"{op.out['max_norm_seen']!r} > {factor!r}")
    argv = ["maxmod", path, "--eps", repr(LADDER_START)]
    if theorem == "thm41":
        argv += ["--shift", repr(1.0 - factor)]
    op = runner.call(argv, spec)
    if op.out is not None:
        op.check(op.out["best_value"] <= factor + 1e-9, "best <= factor",
                 f"{op.out['best_value']!r} > {factor!r}")
        _ordering(op)


def figure_unit(runner: Runner, name: str, digests: dict) -> None:
    spec = specs.FIGURES[name]
    path = runner.spec_file(f"fig_{name}", spec)
    svg = str(runner.workdir / f"fig_{name}.svg")
    op = runner.call(["plot", path, "--out", svg], spec)
    if op.out is None:
        return
    o = op.out
    data = Path(svg).read_bytes()
    circles = data.count(b"<circle")
    expected = o["dark_points"] + o["light_points"] + 1
    op.check(circles == expected, "circle count", f"{circles} != {expected}")
    op.check(o["circle_radius"] <= specs.FIGURE_RADIUS_MAX + 1e-9,
             "circle radius", repr(o["circle_radius"]))
    digest = hashlib.sha256(data).hexdigest()
    op.check(digests.setdefault(name, digest) == digest, "SVG determinism",
             "bytes differ from the first render in this run")


def run_unit(runner: Runner, unit) -> list:
    """Run one unit and return its ops.  An output that lacks a field a
    check reads fails the op that produced it instead of stopping the
    benchmark."""
    first = len(runner.ops)
    try:
        unit(runner)
    except KeyError as exc:
        runner.ops[-1].check(False, "output fields", repr(exc))
    return runner.ops[first:]


def workload_units(workload: str, seed: int):
    """Endless (label, callable(runner)) pairs for a seed."""
    if workload == "certify":
        order = list(specs.PUBLISHED)
        order = order if seed % 2 == 0 else order[::-1]
        while True:
            for name in order:
                yield name, functools.partial(certify_unit, name=name)
    elif workload == "sweep":
        for i, (theorem, spec) in enumerate(specs.sweep_problems(seed)):
            yield theorem, functools.partial(sweep_unit, name=f"s{seed}p{i}",
                                             theorem=theorem, spec=spec)
    else:
        digests = {}
        order = list(specs.FIGURES)
        order = order if seed % 2 == 0 else order[::-1]
        while True:
            for name in order:
                yield name, functools.partial(figure_unit, name=name,
                                              digests=digests)


def batch_size(workload: str) -> int:
    """Units in one batch, which holds each kind of input equally often:
    both ladders, eight problems (two per placement), both figures."""
    return SWEEP_BATCH if workload == "sweep" else 2


def warm_up(workload: str, runner: Runner) -> None:
    """One cheap pass so lazy imports and caches are filled before timing:
    the first rung of each ladder, or one batch of another seed."""
    if workload == "certify":
        for name in specs.PUBLISHED:
            run_unit(runner,
                     functools.partial(certify_unit, name=name, rungs=1))
        return
    for _, unit in itertools.islice(workload_units(workload, -1),
                                    batch_size(workload)):
        run_unit(runner, unit)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """Wall seconds of fresh interpreters that import dysrates.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dysrates.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def end_to_end(workload: str, seed: int, seconds: float, runner: Runner,
               setup_times: list):
    """Whole batches until `seconds` have passed.  Returns the metrics the
    benchmark gates on and the report rows, which add the per-call latency
    percentiles and, on certify, time_to_gap_s and final_gap per instance.

    Gated timings are medians over batches, so a stretch of contention from
    other tenants of the machine moves them least.  The per-call
    percentiles are reported, not gated: certify and sweep mix call kinds
    whose latencies differ several-fold in near-equal numbers, so the
    median falls between two clusters and swings with the mix, and the tail
    of a single-threaded closed loop mostly records such contention."""
    warm_up(workload, runner)
    units = workload_units(workload, seed)
    size = batch_size(workload)
    results = []  # (label, ops)
    per_unit = []  # mean unit time of each batch
    throughput = []  # calls per wall second of each batch
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        batch = [(label, run_unit(runner, unit)) for label, unit in
                 (next(units) for _ in range(size))]
        ops = [op for _, unit_ops in batch for op in unit_ops]
        throughput.append(len(ops) / (time.perf_counter() - t0))
        per_unit.append(sum(op.seconds for op in ops) / size)
        results += batch
    calls = [op.seconds for _, ops in results for op in ops]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(calls)
    beyond = f"{n}, {n - 1 - math.floor(0.9 * (n - 1))} above"
    rows = [
        ("setup_s", statistics.median(setup_times), "s", len(setup_times)),
        ("time_to_result_s", statistics.median(per_unit), "s",
         f"{len(per_unit)} batches"),
        ("ops_per_s", statistics.median(throughput), "1/s",
         f"{len(throughput)} batches"),
        ("call_ms_p50", 1e3 * statistics.median(calls), "ms", n),
        ("call_ms_p90", 1e3 * statistics.quantiles(
            calls, n=10, method="inclusive")[-1], "ms", beyond),
        ("peak_rss_mb", rss_mb, "MB", 1),
    ]
    if workload == "certify":
        for name in specs.PUBLISHED:
            ladders = [ops for label, ops in results if label == name]
            last = ladders[-1][-1]
            rows.append((f"{name}.time_to_gap_s", statistics.median(
                sum(op.seconds for op in ops) for ops in ladders), "s",
                len(ladders)))
            rows.append((f"{name}.final_gap", last.gap,
                         f"eps={last.argv[-1]}", 1))
    metrics = {name: (value, unit) for name, value, unit, _ in rows
               if name in GATED}
    return metrics, rows


def traced(workload: str, seed: int, seconds: float, runner: Runner):
    """Alternate untraced and traced passes over one fixed batch."""
    warm_up(workload, runner)
    batch = list(itertools.islice(workload_units(workload, seed),
                                  batch_size(workload)))
    tracer = spans.Tracer()
    walls = {False: [], True: []}
    snapshots = []
    start = time.perf_counter()
    while (not walls[True]
           or time.perf_counter() - start < seconds):
        for on in (False, True):
            if on:
                tracer.reset()
                tracer.install()
                runner.tracer = tracer
            t0 = time.perf_counter()
            try:
                for _, unit in batch:
                    run_unit(runner, unit)
            finally:
                walls[on].append(time.perf_counter() - t0)
                runner.tracer = None
                tracer.uninstall()
            if on:
                snapshots.append((tracer.stats, tracer.counts))
    probes = {}
    if workload == "sweep":
        probes = library_probes(seed, tracer)
    return walls, snapshots, tracer.absent, probes


def library_probes(seed: int, tracer):
    """dys_preflight on each problem of the batch and one dominance sweep of
    the same size, called directly (the CLI does not call them)."""
    classes = importlib.import_module("dysrates.classes")
    cli = importlib.import_module("dysrates.cli")
    rates = importlib.import_module("dysrates.rates")
    tracer.reset()
    tracer.install()
    try:
        for _, raw in itertools.islice(specs.sweep_problems(seed),
                                       SWEEP_BATCH):
            spec = cli.ProblemSpec(raw)
            classes.dys_preflight(spec.a, spec.b, spec.c, spec.params())
        rates.dominance_check(SWEEP_BATCH, rng_seed=seed % 2 ** 32)
    finally:
        tracer.uninstall()
    return tracer.stats


def span_shares(walls, snapshots) -> dict:
    """Self time of each span label under CLI calls, as a share of the
    traced batches' wall time.  What no span covers is the benchmark's own
    work: writing specs, parsing outputs and checking them."""
    wall = sum(walls[True])
    shares = {}
    for stats, _ in snapshots:
        for (root, label), v in stats.items():
            if root == "cli.main":
                shares[label] = shares.get(label, 0.0) + v[2] / wall
    return shares


_SPAN_MS = ("search.grid_evaluate", "search.ascend",
            "search.coordinate_polish", "verify.verify_contraction",
            "verify.verify_averagedness", "verify.class_membership",
            "verify.dys_matrix", "verify.extremal_search",
            "svgplot.add_points", "svgplot.bounds_for", "svgplot.render",
            "symbol.zeta_cloud", "geometry.boundary_grid",
            "classes.resolvent_srg", "classes.enlarge_C", "cli.load_spec",
            "rates.closed_form")


def _batch_metrics(stats, counts) -> dict:
    """Metrics of one traced batch: inclusive ms per span label, exact
    counts and the ratios built from them."""
    ms, calls = {}, {}
    for (root, label), (n, inclusive, _) in stats.items():
        if root == "cli.main":
            ms[label] = ms.get(label, 0.0) + 1e3 * inclusive
            calls[label] = calls.get(label, 0) + n
    out = {f"{label}.ms": (ms.get(label, 0.0), "ms") for label in _SPAN_MS}

    def ratio(num, den):
        return num / den if den else 0.0

    grid_ms = ms.get("search.grid_evaluate", 0.0)
    verify_ms = (ms.get("verify.verify_contraction", 0.0)
                 + ms.get("verify.verify_averagedness", 0.0)
                 - ms.get("verify.extremal_search", 0.0))
    out.update({
        "search.grid_evaluate.evals": (counts["grid_evals"], "count"),
        "search.grid_evaluate.evals_per_s": (
            ratio(counts["grid_evals"], grid_ms / 1e3), "1/s"),
        "search.refine.evals": (counts["refine_evals"], "count"),
        "search.refine.useful_frac": (
            ratio(counts["polish_useful"], counts["polish_seeds"]), "ratio"),
        "verify.trial_us": (ratio(1e3 * verify_ms, counts["verify_trials"]),
                            "us"),
        "verify.class_membership.calls": (
            calls.get("verify.class_membership", 0), "count"),
        "svgplot.bytes": (counts["svg_bytes"], "bytes"),
        "geometry.boundary_grid.points": (counts["boundary_points"],
                                          "count"),
    })
    return out


def layer_metrics(walls, snapshots, probes):
    """Per-batch medians over the traced batches (counts repeat exactly),
    the library probes, self-time shares per layer and the tracing
    overhead."""
    batches = [_batch_metrics(stats, counts) for stats, counts in snapshots]
    out = {name: (statistics.median(b[name][0] for b in batches), unit)
           for name, (_, unit) in sorted(batches[0].items())}
    for label in ("classes.dys_preflight", "rates.dominance_check"):
        out[f"{label}.ms"] = (1e3 * probes.get((label, label), [0, 0.0])[1],
                              "ms")
    shares = span_shares(walls, snapshots)
    for layer in LAYERS:
        out[f"share.{layer}"] = (
            sum(v for label, v in shares.items()
                if label.split(".")[0] == layer), "ratio")
    out["share.bench"] = (1.0 - sum(shares.values()), "ratio")
    out["trace.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0,
        "ratio")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _import_package():
    """Import dysrates from this checkout's src/, or exit with status 1 if
    it is not there."""
    if not (SRC / "dysrates" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'dysrates'} not found; run from the root "
                 "of a dysrates source checkout")
    sys.path.insert(0, str(SRC))
    import dysrates.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "dysrates":
        sys.exit(f"error: imported dysrates from {cli.__file__}, not {SRC}")
    return cli


def _report_failures(workload: str, ops) -> int:
    failed = [op for op in ops if op.failures]
    for op in failed:
        print(f"FAILED {workload} argv={op.argv[:1] + op.argv[2:]} "
              f"checks={op.failures} spec={json.dumps(op.spec)}")
    return len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["certify", "sweep", "figure"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = _import_package()
    setup_times = measure_setup() if not args.trace else []
    notes = []
    with tempfile.TemporaryDirectory(prefix="work-",
                                     dir=Path(__file__).parent) as tmp:
        runner = Runner(cli, Path(tmp))
        if args.trace:
            walls, snapshots, absent, probes = traced(
                args.workload, args.seed, args.seconds, runner)
            metrics = layer_metrics(walls, snapshots, probes)
            rows = [(name, value, unit, len(snapshots))
                    for name, (value, unit) in metrics.items()]
            notes.append(
                f"traced batches {len(walls[True])}, untraced "
                f"{len(walls[False])}; batch wall median traced "
                f"{statistics.median(walls[True]):.4f} s, untraced "
                f"{statistics.median(walls[False]):.4f} s")
            notes.append("layer self-time share of traced wall: " + ", ".join(
                f"{name[6:]} {value:.3f}" for name, (value, _)
                in metrics.items() if name.startswith("share.")))
            top = sorted(span_shares(walls, snapshots).items(),
                         key=lambda kv: -kv[1])[:6]
            notes.append("top spans by self-time share: " + ", ".join(
                f"{label} {share:.3f}" for label, share in top))
            if absent:
                notes.append(f"absent, not traced: {', '.join(absent)}")
        else:
            metrics, rows = end_to_end(args.workload, args.seed,
                                       args.seconds, runner, setup_times)

    ops = runner.ops
    failed = _report_failures(args.workload, ops)
    rows.append(("failed_ops_frac", failed / len(ops), "ratio", len(ops)))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  {'metric':36s} {'value':>14s}  {'unit':10s} samples")
    for name, value, unit, samples in rows:
        print(f"  {name:36s} {value:14.6g}  {unit:10s} {samples}")
    for line in notes:
        print(f"  {line}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

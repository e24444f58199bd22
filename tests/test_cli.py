"""Command-line surface: JSON report schema, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dysrates
from dysrates.classes import resolvent_srg, srg
from dysrates.cli import ProblemSpec, _cloud, main
from dysrates.geometry import boundary_grid
from dysrates.symbol import zeta

ALL_ONES_31 = {
    "classes": {
        "A": [{"kind": "strongly_monotone", "mu": 1.0},
              {"kind": "lipschitz", "L": 1.0}],
        "B": [{"kind": "monotone"}],
        "C": [{"kind": "cocoercive", "beta": 1.0}],
    },
    "params": {"alpha": 1.0, "lambda": 1.0, "s": 0.0},
}

PUBLISHED = {
    "classes": {
        "A": [{"kind": "monotone"}],
        "B": [{"kind": "monotone"}, {"kind": "lipschitz", "L": 0.5}],
        "C": [{"kind": "cocoercive", "beta": 1.0},
              {"kind": "strongly_monotone", "mu": 0.5}],
    },
    "params": {"alpha": 1.0, "lambda": 1.0, "s": 0.0},
}


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

def test_factor_thm31_all_ones(tmp_path, capsys):
    spec = write_spec(tmp_path, ALL_ONES_31)
    code, payload = run(capsys, ["factor", spec])
    assert code == 0
    assert payload["rho"] == pytest.approx(2.0 / 3.0)
    assert payload["theorem"] == "thm31"
    assert payload["schema_version"] == "1"


def test_factor_thm41_all_ones(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "classes": {
            "A": [{"kind": "strongly_monotone", "mu": 1.0}],
            "B": [{"kind": "monotone"}],
            "C": [{"kind": "monotone"}, {"kind": "lipschitz", "L": 1.0}],
        },
        "params": {"alpha": 1.0, "lambda": 1.0},
    })
    code, payload = run(capsys, ["factor", spec, "--theorem", "41"])
    assert code == 0
    assert payload["theta"] == pytest.approx(2.0 / 3.0)


def test_factor_precondition_exit_code_names_inequality(tmp_path, capsys):
    bad = json.loads(json.dumps(ALL_ONES_31))
    bad["params"]["lambda"] = 1.9
    spec = write_spec(tmp_path, bad)
    code = main(["factor", spec])
    captured = capsys.readouterr()
    assert code == 3
    assert "lambda < 2 - alpha/(2 beta_C)" in captured.err


def test_factor_unknown_key_rejected(tmp_path, capsys):
    bad = json.loads(json.dumps(ALL_ONES_31))
    bad["surprise"] = 1
    spec = write_spec(tmp_path, bad)
    code = main(["factor", spec])
    assert code == 2
    assert "surprise" in capsys.readouterr().err


def test_factor_nonfinite_number_rejected(tmp_path):
    bad = json.loads(json.dumps(ALL_ONES_31))
    bad["params"]["alpha"] = "Infinity"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad).replace('"Infinity"', "Infinity"))
    assert main(["factor", str(path)]) == 2


def test_factor_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["factor", str(path)]) == 2


# ---------------------------------------------------------------------------
# maxmod
# ---------------------------------------------------------------------------

def test_maxmod_coarse_instance(tmp_path, capsys):
    spec = write_spec(tmp_path, PUBLISHED)
    code, payload = run(capsys, ["maxmod", spec, "--eps", "0.025"])
    assert code == 0
    assert payload["best_value"] == pytest.approx(0.7236067977, abs=1e-6)
    assert payload["grid_best_value"] <= payload["best_value"] + 1e-15
    assert payload["best_value"] <= payload["certified_upper"]
    assert payload["lipschitz_constant"] <= 6.0


def test_maxmod_unbounded_exit_code(tmp_path, capsys):
    bad = {
        "classes": {
            "A": [{"kind": "monotone"}],
            "B": [{"kind": "monotone"}],
            "C": [{"kind": "strongly_monotone", "mu": 0.5}],
        },
        "params": {"alpha": 1.0, "lambda": 1.0},
    }
    spec = write_spec(tmp_path, bad)
    code = main(["maxmod", spec])
    assert code == 4
    assert "unbounded" in capsys.readouterr().err


def test_maxmod_enlargement_disk_hull(tmp_path, capsys):
    payload = json.loads(json.dumps(PUBLISHED))
    payload["enlargement"] = {"mode": "disk_hull"}
    spec = write_spec(tmp_path, payload)
    code, report = run(capsys, ["maxmod", spec, "--eps", "0.05"])
    assert code == 0
    assert report["best_value"] > 0.7236


def test_maxmod_deterministic_output_bytes(tmp_path, capsys):
    spec = write_spec(tmp_path, PUBLISHED)
    main(["maxmod", spec, "--eps", "0.05"])
    first = capsys.readouterr().out
    main(["maxmod", spec, "--eps", "0.05"])
    second = capsys.readouterr().out
    assert first == second


def test_json_floats_round_trip(tmp_path, capsys):
    spec = write_spec(tmp_path, PUBLISHED)
    code, payload = run(capsys, ["maxmod", spec, "--eps", "0.05"])
    assert code == 0
    rendered = json.dumps(payload)
    assert json.loads(rendered) == payload


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_auto_passes(tmp_path, capsys):
    spec = write_spec(tmp_path, ALL_ONES_31)
    code, payload = run(capsys, ["verify", spec, "--trials", "200",
                                 "--seed", "0"])
    assert code == 0
    assert payload["passed"] is True


def test_verify_low_rho_fails(tmp_path, capsys):
    spec = write_spec(tmp_path, PUBLISHED)
    code, payload = run(capsys, ["verify", spec, "--rho", "0.5",
                                 "--trials", "100"])
    assert code == 1
    assert payload["violations"]


# The two defects recorded with repro specs in bench/known_defects.json.
THM41_LIPSCHITZ_C = {
    "classes": {
        "A": [{"kind": "strongly_monotone", "mu": 1.0}],
        "B": [{"kind": "monotone"}],
        "C": [{"kind": "lipschitz", "L": 1.0}],
    },
    "params": {"alpha": 0.5, "lambda": 1.0, "s": 0.0},
}

THM41_SMALL_ALPHA = {
    "classes": {
        "A": [{"kind": "strongly_monotone", "mu": 0.0799534}],
        "B": [{"kind": "monotone"}],
        "C": [{"kind": "monotone"}, {"kind": "lipschitz", "L": 1.8013049}],
    },
    "params": {"alpha": 0.0102964, "lambda": 1.0, "s": 0.0},
}


@pytest.mark.parametrize("command", ["factor", "verify"])
def test_thm41_requires_monotone_c(tmp_path, capsys, command):
    spec = write_spec(tmp_path, THM41_LIPSCHITZ_C)
    code = main([command, spec])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "C monotone" in captured.err


# C is strongly monotone and Lipschitz but not cocoercive: no beta_C, so
# thm33 cannot apply and auto-dispatch must reach thm41.
SM_LIP_C = {
    "classes": {
        "A": [{"kind": "strongly_monotone", "mu": 0.6}],
        "B": [{"kind": "monotone"}],
        "C": [{"kind": "strongly_monotone", "mu": 0.3},
              {"kind": "lipschitz", "L": 0.8}],
    },
    "params": {"alpha": 0.5, "lambda": 1.0},
}


@pytest.mark.parametrize("command", ["factor", "verify"])
def test_auto_sends_strongly_monotone_lipschitz_c_to_thm41(tmp_path, capsys,
                                                          command):
    spec = write_spec(tmp_path, SM_LIP_C)
    code, payload = run(capsys, [command, spec, "--trials", "50"]
                        if command == "verify" else [command, spec])
    theta = 2.0 / (4.0 - 0.5 * 0.8 ** 2 / 0.6)
    assert code == 0
    if command == "factor":
        assert payload["theorem"] == "thm41"
        assert payload["theta"] == pytest.approx(theta, rel=1e-15)
    else:
        assert payload["passed"] is True
        assert payload["rho"] == pytest.approx(theta, rel=1e-15)


@pytest.mark.parametrize("command", ["factor", "verify"])
def test_auto_names_the_missing_thm41_hypothesis(tmp_path, capsys, command):
    payload = json.loads(json.dumps(SM_LIP_C))
    payload["params"]["lambda"] = 0.8
    code = main([command, write_spec(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("error: violated precondition: lambda = 1 "
                            "(averagedness requires lambda = 1)\n")


def test_verify_thm41_small_alpha_passes(tmp_path, capsys):
    # z_B near 0 makes ||A|| ~ 7e4; the membership tolerance scales with it
    spec = write_spec(tmp_path, THM41_SMALL_ALPHA)
    code, payload = run(capsys, ["verify", spec, "--trials", "1000"])
    assert code == 0
    assert payload["passed"] is True


def test_verify_zero_trials_warns(tmp_path, capsys):
    spec = write_spec(tmp_path, ALL_ONES_31)
    code = main(["verify", spec, "--trials", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert json.loads(captured.out)["passed"] is True


# ---------------------------------------------------------------------------
# a class of four atoms
# ---------------------------------------------------------------------------

# the published C with two atoms that contain its region, so the region and
# the published maximum (5 + sqrt 5)/10 stay the same
FOUR_ATOM_C = [{"kind": "cocoercive", "beta": 1.0},
               {"kind": "strongly_monotone", "mu": 0.5},
               {"kind": "lipschitz", "L": 1.0},
               {"kind": "averaged", "theta": 0.9}]


@pytest.mark.parametrize("argv", [
    ["maxmod", "--eps", "0.01"],
    ["verify", "--rho", "0.9", "--trials", "200"],
], ids=["maxmod", "verify"])
def test_four_atom_c_exits_ok(tmp_path, capsys, argv):
    payload = json.loads(json.dumps(PUBLISHED))
    payload["classes"]["C"] = FOUR_ATOM_C
    spec = write_spec(tmp_path, payload)
    code, report = run(capsys, [argv[0], spec] + argv[1:])
    assert code == 0
    if argv[0] == "maxmod":
        assert abs(report["best_value"] - (5.0 + math.sqrt(5.0)) / 10.0) \
            <= 1e-9
        assert report["certified_upper"] >= report["best_value"]
    else:
        assert report["passed"] is True


# ---------------------------------------------------------------------------
# bad settings: one stderr line and the documented exit code
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("section, value, argv, expected", [
    ("search", {"top_k": 0.5}, ["maxmod", "--eps", "0.1"], 2),
    ("search", {"max_iters": 2.7}, ["maxmod", "--eps", "0.1"], 2),
    ("search", {"ascent_step": 0.01}, ["maxmod", "--eps", "0.1"], 2),
    ("search", {"parallel": True}, ["maxmod", "--eps", "0.1"], 2),
    ("search", {"eps_grid": 0}, ["maxmod"], 2),
    (None, None, ["maxmod", "--eps", "-1"], 2),
    ("plot", {"eps": 0}, ["plot", "--out", "fig.svg"], 2),
    (None, None, ["verify", "--rho", "nan"], 2),
    (None, None, ["verify", "--rho", "inf"], 2),
    (None, None, ["verify", "--trials", "-5"], 2),
    (None, None, ["verify", "--seed", "-1"], 2),
    (None, None, ["maxmod", "--eps", "nan"], 2),
    (None, None, ["maxmod", "--eps", "inf"], 2),
    (None, None, ["maxmod", "--shift", "nan"], 2),
    (None, None, ["maxmod", "--eps", "0.1", "--shift", "inf"], 2),
    (None, None, ["verify", "--trials", "abc"], 2),
    (None, None, ["verify", "--rho", "-inf"], 2),
    ("enlargement", "thm33", ["maxmod", "--eps", "0.1"], 2),
    (None, None, ["maxmod", "--eps", "0.1", "--json-indent", "4"], 2),
], ids=["top_k_fraction", "max_iters_fraction", "ascent_step_removed",
        "parallel_removed", "eps_grid_zero", "eps_negative", "plot_eps_zero",
        "rho_nan", "rho_inf", "trials_negative", "seed_negative", "eps_nan",
        "eps_inf", "shift_nan", "shift_inf", "trials_not_integer",
        "rho_minus_inf", "enlargement_string_removed",
        "json_indent_removed"])
def test_bad_settings_exit_without_traceback(tmp_path, capsys, section,
                                             value, argv, expected):
    payload = json.loads(json.dumps(PUBLISHED))
    if section is not None:
        payload[section] = value
    spec = write_spec(tmp_path, payload)
    args = [argv[0], spec] + argv[1:]
    if "--out" in args:
        args[-1] = str(tmp_path / args[-1])
    code = main(args)
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_parser_is_reused_after_an_argparse_error(tmp_path, capsys):
    # main builds its parser once per process; a rejected command line
    # must leave it fit for the next call
    spec = write_spec(tmp_path, ALL_ONES_31)
    assert main(["factor", spec, "--theorem", "99"]) == 2
    capsys.readouterr()
    assert main(["factor", spec]) == 0
    out = capsys.readouterr().out
    src = str(Path(dysrates.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "dysrates.cli", "factor", spec],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src})
    assert fresh.returncode == 0
    assert fresh.stdout == out


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_thm31_margin(tmp_path, capsys):
    spec = write_spec(tmp_path, ALL_ONES_31)
    code, payload = run(capsys, ["compare", spec])
    assert code == 0
    first = payload["pairs"][0]
    assert first["new"]["rho"] == pytest.approx(2.0 / 3.0)
    assert first["prior"]["rho"] == pytest.approx(math.sqrt(0.5))
    assert first["margin"] == pytest.approx(math.sqrt(0.5) - 2.0 / 3.0)
    assert all(p["margin"] > 0 for p in payload["pairs"])


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def plot_payload():
    payload = json.loads(json.dumps(PUBLISHED))
    payload["classes"]["Cprime"] = [
        {"kind": "cocoercive", "beta": 1.0},
        {"kind": "shifted_lipschitz_ball", "center": 1.0,
         "radius": 1.0 / math.sqrt(2.0)},
    ]
    payload["plot"] = {"circle_radius": 0.7745966692, "eps": 1.0 / 15.0}
    return payload


def plot_spec(tmp_path):
    return write_spec(tmp_path, plot_payload())


# SHA-256 of the files written before the figure path moved to numpy arrays,
# with the plot report's point counts and circle radius (as repr).
PLOT_GOLDEN = {
    "cprime": ("b77ba90e6b55ed5930f4835ceb986ae6"
               "fbac9cd2e6c8561f06073893079d0cd7", 29131, 20368,
               "0.7745966692"),
    "thm33": ("220a493364abcd707a1bf80c856f1e0e"
              "c52cd638589d83c9eab24327ae3b3b6d", 29131, 24157,
              "0.7745966692"),
    "auto_circle": ("52019da5d0d0b054aa8bbc01aa037e5f"
                    "c72a4ea1de4a4ca1e19d945df36ed856", 29131, 20368,
                    "0.7741460515242731"),
    # the benchmark's two figure specs (C plain, Cprime enlarged, or the
    # thm33 enlargement; circle from the clouds) at plot.eps 1/120
    "figure_cprime_120": ("1fb7ff2d31f47da97e37163870a8f98a"
                          "4629ef98c8431ffb3b351e979f922001", 29977, 29988,
                          "0.7711062145798209"),
    "figure_thm33_120": ("29dbd4660336d5f88e70494e9174faed"
                         "1e72ca114699879beaa35bceeee9c60b", 29977, 29996,
                         "0.7732607663166762"),
}
DUMP_GRID_SHA256 = ("eb979f07b060e036a54e6ed2da3afdf2"
                    "9c0aa9a7fe51df3504b7e57b8436e366")


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variant", sorted(PLOT_GOLDEN))
def test_plot_golden_bytes(tmp_path, capsys, variant):
    payload = plot_payload()
    if variant.startswith("figure_"):
        del payload["plot"]["circle_radius"]
        payload["plot"]["eps"] = 1.0 / 120.0
    if "thm33" in variant:
        del payload["classes"]["Cprime"]
        payload["enlargement"] = {"mode": "thm33"}
    elif variant == "auto_circle":
        del payload["plot"]["circle_radius"]
    spec = write_spec(tmp_path, payload, name=f"{variant}.json")
    out = tmp_path / "fig.svg"
    code, report = run(capsys, ["plot", spec, "--out", str(out)])
    digest, dark, light, radius = PLOT_GOLDEN[variant]
    assert code == 0
    assert sha256_of(out) == digest
    assert report == {"schema_version": "1", "out": str(out),
                      "dark_points": dark, "light_points": light,
                      "circle_radius": float(radius)}
    assert repr(report["circle_radius"]) == radius


def test_plot_structure_and_determinism(tmp_path, capsys):
    spec = plot_spec(tmp_path)
    out1 = tmp_path / "fig1.svg"
    out2 = tmp_path / "fig2.svg"
    assert main(["plot", spec, "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["plot", spec, "--out", str(out2)]) == 0
    capsys.readouterr()
    svg1, svg2 = out1.read_text(), out2.read_text()
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert "circle" in svg1 and "polyline" in svg1


def test_plot_clouds_relative_to_circle(tmp_path, capsys):
    # the dark cloud stays strictly inside the published circle; the
    # enlarged cloud touches it (within grid resolution)
    from dysrates.symbol import DysParams
    spec = ProblemSpec(json.loads(open(plot_spec(tmp_path)).read()))
    params = DysParams(1.0, 1.0, 0.0)
    dark = _cloud(spec, spec.c, params, 1.0 / 60.0)
    light = _cloud(spec, spec.c_prime, params, 1.0 / 60.0)
    circle = 0.7745966692
    assert np.abs(dark).max() < circle
    assert np.abs(light).max() == pytest.approx(circle, abs=5e-3)


def test_plot_empty_region_exit_code(tmp_path, capsys):
    payload = json.loads(json.dumps(PUBLISHED))
    # mu > 1/beta is an inconsistent class: exit 3
    payload["classes"]["C"] = [{"kind": "cocoercive", "beta": 2.0},
                               {"kind": "strongly_monotone", "mu": 1.0}]
    spec = write_spec(tmp_path, payload)
    code = main(["plot", spec, "--out", str(tmp_path / "fig.svg")])
    assert code == 3


def test_verify_thm32_auto(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "classes": {
            "A": [{"kind": "monotone"}, {"kind": "lipschitz", "L": 1.0}],
            "B": [{"kind": "strongly_monotone", "mu": 1.0}],
            "C": [{"kind": "cocoercive", "beta": 1.0}],
        },
        "params": {"alpha": 1.0, "lambda": 1.0},
    })
    code, payload = run(capsys, ["verify", spec, "--trials", "1000",
                                 "--seed", "0"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["rho"] == pytest.approx(math.sqrt(2.0 / 3.0))
    assert payload["max_norm_seen"] <= math.sqrt(2.0 / 3.0) + 1e-9


def test_maxmod_dump_grid_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, PUBLISHED)
    csv_path = tmp_path / "grid.csv"
    code, _ = run(capsys, ["maxmod", spec, "--eps", "0.05",
                           "--dump-grid", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "re,im,shifted_modulus"
    assert len(lines) > 1000
    re_, im_, mod_ = lines[1].split(",")
    assert abs(complex(float(re_), float(im_))) == pytest.approx(float(mod_))
    assert sha256_of(csv_path) == DUMP_GRID_SHA256


# ---------------------------------------------------------------------------
# the decimated symbol cloud and the write paths
# ---------------------------------------------------------------------------

def full_cube(spec, c_spec, params, eps):
    za = boundary_grid(resolvent_srg(spec.a, params.alpha), eps).points
    zb = boundary_grid(resolvent_srg(spec.b, params.alpha), eps).points
    zc = boundary_grid(srg(c_spec), eps).points
    return zeta(za[:, None, None], zb[None, :, None], zc[None, None, :],
                params).ravel()


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["C", "Cprime", "thm33"]),
       st.floats(1.0 / 40.0, 1.0 / 8.0), st.data())
def test_cloud_is_the_strided_cube_bit_for_bit(which, eps, data):
    payload = plot_payload()
    payload["enlargement"] = {"mode": "thm33"}
    spec = ProblemSpec(payload)
    params = spec.params()
    c_spec = {"C": spec.c, "Cprime": spec.c_prime,
              "thm33": spec.effective_c()}[which]
    cube = full_cube(spec, c_spec, params, eps)
    size = cube.size
    cap = data.draw(st.one_of(st.sampled_from([1, size - 1, size, size + 1]),
                              st.integers(1, 2 * size)), label="cap")
    expected = cube if size <= cap else cube[::size // cap + 1]
    got = _cloud(spec, c_spec, params, eps, cap)
    assert got.shape == expected.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(expected).view(np.uint64))


def test_cloud_memory_does_not_grow_with_the_cube():
    # at eps 1/120 the full cube of the published instance is 408 MB
    import tracemalloc
    spec = ProblemSpec(PUBLISHED)
    tracemalloc.start()
    try:
        values = _cloud(spec, spec.c, spec.params(), 1.0 / 120.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < values.size <= 30000
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["plot", "--out"],
    ["maxmod", "--eps", "0.1", "--dump-grid"],
], ids=["plot_out", "maxmod_dump_grid"])
def test_unwritable_output_exits_io(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, PUBLISHED)
    target = tmp_path / "missing" / "out.file"
    code = main([argv[0], spec] + argv[1:] + [str(target)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {target}: ")

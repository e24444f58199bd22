"""Command-line surface: JSON report schema, exit codes, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dysrates
import dysrates.rates as rates
import dysrates.search as search_module
import dysrates.verify as verify_module
from dysrates import classes as cls
from dysrates import geometry
from dysrates.classes import resolvent_srg, srg
from dysrates.cli import (_ATOM_KINDS, _WRITE_CHARS, ProblemSpec, _cloud,
                          _emit, _write_text, main)
from dysrates.geometry import boundary_grid
from dysrates.svgplot import SvgFigure
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


def test_maxmod_disk_hull_of_point_c_is_c_itself(tmp_path, capsys):
    # mu = L makes srg(C) the single point 1/2: a hull of radius 0
    payload = json.loads(json.dumps(PUBLISHED))
    payload["classes"]["C"] = [{"kind": "strongly_monotone", "mu": 0.5},
                               {"kind": "lipschitz", "L": 0.5}]
    outputs = []
    for enlargement in (None, {"mode": "disk_hull"}):
        if enlargement is not None:
            payload["enlargement"] = enlargement
        spec = write_spec(tmp_path, payload)
        assert main(["maxmod", spec, "--eps", "0.05"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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


# Theorems 3.1-4.1 take A and B maximal monotone.  Without that check each
# spec got a closed form: thm31 0.8248 (verify refutes it at 1.2143),
# thm33 0.8581 (refuted at 0.9719) and thm41 0.5769 (verify exits 4 on B's
# unbounded resolvent region).
NONMONOTONE_B = [
    ([{"kind": "lipschitz", "L": 0.9}], [{"kind": "cocoercive", "beta": 1.0}]),
    ([{"kind": "averaged", "theta": 0.9}],
     [{"kind": "cocoercive", "beta": 1.0},
      {"kind": "strongly_monotone", "mu": 0.5}]),
    ([{"kind": "lipschitz", "L": 2.0}],
     [{"kind": "monotone"}, {"kind": "lipschitz", "L": 0.8}]),
]


@pytest.mark.parametrize("command", ["factor", "compare", "verify"])
def test_closed_forms_require_monotone_a_and_b(tmp_path, capsys, command):
    for b, c in NONMONOTONE_B:
        spec = write_spec(tmp_path, {
            "classes": {"A": [{"kind": "strongly_monotone", "mu": 0.6},
                              {"kind": "lipschitz", "L": 1.3}],
                        "B": b, "C": c},
            "params": {"alpha": 0.5, "lambda": 1.0}})
        code = main([command, spec])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == \
            "error: violated precondition: A and B monotone\n"


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


def test_verify_zero_trials_is_a_probe_only_check(tmp_path, capsys):
    # the published maximum is 0.7236; the probe refutes 0.1 without any
    # random trial
    spec = write_spec(tmp_path, PUBLISHED)
    code = main(["verify", spec, "--rho", "0.1", "--trials", "0"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 1
    # the published C fails hypothesis (iii), so the preflight warns too
    assert captured.err == (
        "warning: no random trials requested; only the probe was checked\n"
        "warning: the SRG theorem does not apply at s = 0.0 (false: (iii) "
        "(2 - lambda/(1 - s)) I - alpha C has an arc property); a pass shows "
        "no 2x2 counterexample, not a bound for every operator in the "
        "classes\n")
    assert payload["passed"] is False and payload["trials"] == 0
    assert [v["kind"] for v in payload["violations"]] == ["norm_bound"]
    assert payload["max_norm_seen"] == pytest.approx(0.7236067977, abs=1e-6)


@pytest.mark.parametrize("c_class, rho, warned", [
    (PUBLISHED["classes"]["C"], "0.73", True),
    ([{"kind": "cocoercive", "beta": 1.0},
      {"kind": "shifted_lipschitz_ball", "center": 1.0,
       "radius": 1.0 / math.sqrt(2.0)}], "0.78", False)],
    ids=["published", "published_enlarged"])
def test_verify_warns_where_the_srg_theorem_does_not_apply(
        tmp_path, capsys, c_class, rho, warned):
    # the published C fails hypothesis (iii), and a 3x3 instance in its
    # classes reaches sqrt(3/5) > 0.73; the pass over 2x2 realizations
    # stands, with one warning
    payload = _edited(lambda p: p["classes"].__setitem__("C", c_class))
    spec = write_spec(tmp_path, payload)
    code = main(["verify", spec, "--rho", rho])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["passed"] is True
    lines = captured.err.splitlines()
    if warned:
        assert len(lines) == 1 and lines[0].startswith("warning: ")
        assert "(iii)" in lines[0]
    else:
        assert lines == []


def test_verify_names_hypotheses_i_and_ii(tmp_path, capsys):
    # I + alpha A = Disk(-2, 1) lies in the left half-plane, so A is not
    # monotone and I + alpha A has no right-arc property; C's side holds
    payload = {"classes": {"A": [{"kind": "shifted_lipschitz_ball",
                                  "center": -3.0, "radius": 1.0}],
                           "B": [{"kind": "monotone"}],
                           "C": [{"kind": "cocoercive", "beta": 1.0}]},
               "params": {"alpha": 1.0, "lambda": 1.0}}
    spec = write_spec(tmp_path, payload)
    code = main(["verify", spec, "--rho", "5", "--trials", "50"])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["passed"] is True
    assert captured.err == (
        "warning: the SRG theorem does not apply at s = 0.0 (false: (i) I + "
        "alpha A has the right-arc property; (ii) A and B are monotone); a "
        "pass shows no 2x2 counterexample, not a bound for every operator "
        "in the classes\n")


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
    (None, None, ["maxmod", "--eps", "0.1", "--dump-grid", "grid.csv"], 2),
    ("search", {"top_k": 8}, ["maxmod", "--eps", "0.1"], 2),
    ("enlargement", {"mode": "thm41", "mu": 0.5},
     ["maxmod", "--eps", "0.1"], 2),
    ("plot", {"circle_radius": -1.0}, ["plot", "--out", "fig.svg"], 2),
    ("plot", {"circle_radius": 0.0}, ["plot", "--out", "fig.svg"], 2),
    ("search", {"eps_grid": -1}, ["factor"], 2),
    ("search", {"eps_grid": -1}, ["verify"], 2),
    ("enlargement", {"mode": "bogus"}, ["maxmod"], 2),
    (None, None, ["verify", "--rho", "abc"], 2),
], ids=["top_k_fraction", "max_iters_fraction", "ascent_step_removed",
        "parallel_removed", "eps_grid_zero", "eps_negative", "plot_eps_zero",
        "rho_nan", "rho_inf", "trials_negative", "seed_negative", "eps_nan",
        "eps_inf", "shift_nan", "shift_inf", "trials_not_integer",
        "rho_minus_inf", "enlargement_string_removed",
        "json_indent_removed", "dump_grid_removed", "top_k_removed",
        "enlargement_mu_removed",
        "plot_circle_radius_negative", "plot_circle_radius_zero",
        "factor_eps_grid_negative", "verify_eps_grid_negative",
        "enlargement_mode_unknown", "rho_not_number"])
def test_bad_settings_exit_without_traceback(tmp_path, capsys, section,
                                             value, argv, expected):
    payload = json.loads(json.dumps(PUBLISHED))
    if section is not None:
        payload[section] = value
    spec = write_spec(tmp_path, payload)
    args = [argv[0], spec] + argv[1:]
    if "--out" in args or "--dump-grid" in args:
        args[-1] = str(tmp_path / args[-1])
    code = main(args)
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "fig.svg").exists()
    assert not (tmp_path / "grid.csv").exists()


# ---------------------------------------------------------------------------
# an eps too fine or a trial count too large for the budgets: exit 3
# before anything is allocated
# ---------------------------------------------------------------------------

def assert_refused(tmp_path, capsys, section, value, argv, needle):
    payload = json.loads(json.dumps(PUBLISHED))
    if section is not None:
        payload[section] = value
    spec = write_spec(tmp_path, payload)
    args = [argv[0], spec] + argv[1:]
    if "--out" in args:
        args[-1] = str(tmp_path / args[-1])
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and needle in lines[0], lines
    assert not (tmp_path / "out.file").exists()


@pytest.mark.parametrize("section, value, argv", [
    (None, None, ["maxmod", "--eps", "5e-324"]),
    ("search", {"eps_grid": 5e-324}, ["maxmod"]),
    ("plot", {"eps": 5e-324}, ["plot", "--out", "out.file"]),
], ids=["eps_flag", "search_eps_grid", "plot_eps"])
def test_subnormal_eps_exits_precondition(tmp_path, capsys, section, value,
                                          argv):
    assert_refused(tmp_path, capsys, section, value, argv,
                   "finite boundary sample count")


@pytest.mark.parametrize("section, value, argv", [
    (None, None, ["maxmod", "--eps", "0.05"]),
    ("plot", {"eps": 0.05}, ["plot", "--out", "out.file"]),
], ids=["maxmod", "plot"])
def test_eps_over_sample_budget_exits_precondition(tmp_path, capsys,
                                                   monkeypatch, section,
                                                   value, argv):
    # the published regions take 56 to 96 samples each at eps 0.05
    monkeypatch.setattr(geometry, "SAMPLE_BUDGET", 50)
    assert_refused(tmp_path, capsys, section, value, argv,
                   "at most 50 boundary samples per region")


def test_eps_over_pair_budget_exits_before_evaluating(tmp_path, capsys,
                                                      monkeypatch):
    def evaluated(*args):
        raise AssertionError("a pair was evaluated")
    monkeypatch.setattr(search_module, "PAIR_BUDGET", 1000)
    monkeypatch.setattr(search_module, "_max_over_a", evaluated)
    assert_refused(tmp_path, capsys, None, None,
                   ["maxmod", "--eps", "0.05"],
                   "at most 1000 B x C grid pairs")


def test_eps_over_pair_budget_exits_before_sampling(tmp_path, capsys,
                                                    monkeypatch):
    # eps 1e-6 asks for 1785300 x 2570799 B x C pairs on the published spec
    def sampled(*args):
        raise AssertionError("a boundary was sampled")
    monkeypatch.setattr(geometry.Arc, "sample", sampled)
    monkeypatch.setattr(geometry.Segment, "sample", sampled)
    assert_refused(tmp_path, capsys, None, None,
                   ["maxmod", "--eps", "1e-6"],
                   f"at most {search_module.PAIR_BUDGET} B x C grid pairs")


def test_trials_over_budget_exit_before_drawing(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr(verify_module, "TRIAL_BUDGET", 10)
    spec = write_spec(tmp_path, PUBLISHED)
    code, report = run(capsys, ["verify", spec, "--rho", "0.9",
                                "--trials", "10"])
    assert code == 0 and report["trials"] == 10

    def drawn(*args):
        raise AssertionError("a trial was drawn")
    monkeypatch.setattr(verify_module, "_random_boundary_points", drawn)
    assert_refused(tmp_path, capsys, None, None,
                   ["verify", "--rho", "0.9", "--trials", "11"],
                   "at most 10 verify trials (11 requested)")


# ---------------------------------------------------------------------------
# every spec and enlargement refusal: its exit code and one stderr line
# ---------------------------------------------------------------------------

def _edited(edit):
    payload = json.loads(json.dumps(PUBLISHED))
    edit(payload)
    return payload


def _enlarged(mode, edit=lambda payload: None):
    def both(payload):
        payload["enlargement"] = {"mode": mode}
        edit(payload)
    return _edited(both)


LEFT_A = _edited(lambda p: p["classes"].__setitem__("A", [
    {"kind": "shifted_lipschitz_ball", "center": -2.0, "radius": 1.0}]))
# C = Disk(0.9, 0.1) and Disk(0, 0.5), which share no point; A and B admit
# thm41, whose closed form reads only mu and L_C
EMPTY_C = {"classes": {"A": [{"kind": "strongly_monotone", "mu": 1.0}],
                       "B": [{"kind": "monotone"}],
                       "C": [{"kind": "averaged", "theta": 0.1},
                             {"kind": "lipschitz", "L": 0.5}]},
           "params": {"alpha": 0.5, "lambda": 1.0}}
THM32_HUGE_L = {"classes": {"A": [{"kind": "monotone"},
                                  {"kind": "lipschitz", "L": 1e200}],
                            "B": [{"kind": "strongly_monotone", "mu": 1.0}],
                            "C": [{"kind": "cocoercive", "beta": 1.0}]},
                "params": {"alpha": 1.0, "lambda": 0.5}}
THM41_HUGE_L = {"classes": {"A": [{"kind": "strongly_monotone", "mu": 1.0}],
                            "B": [{"kind": "monotone"}],
                            "C": [{"kind": "monotone"},
                                  {"kind": "lipschitz", "L": 1e300}]},
                "params": {"alpha": 1e-300, "lambda": 1.0},
                "enlargement": {"mode": "thm41"}}
HUGE_LAMBDA = {"classes": {"A": [{"kind": "monotone"},
                                 {"kind": "lipschitz", "L": 1.0}],
                           "B": [{"kind": "monotone"},
                                 {"kind": "lipschitz", "L": 1.0}],
                           "C": [{"kind": "lipschitz", "L": 0.1}]},
               "params": {"alpha": 1.0, "lambda": 1e300, "s": 0.5}}
OUT_OF_RANGE = ("error: the spec's numbers put a result out of floating-point "
                "range")

REFUSALS = {
    "top_level_list": ([PUBLISHED], ["factor"], 2,
                       "error: top level must be an object"),
    "missing_A": (_edited(lambda p: p["classes"].pop("A")), ["factor"], 2,
                  "error: classes.A is required"),
    "missing_alpha": (_edited(lambda p: p["params"].pop("alpha")),
                      ["factor"], 2,
                      "error: params.alpha and params.lambda are required"),
    "atom_not_object": (_edited(lambda p: p["classes"].__setitem__("B", [5])),
                        ["factor"], 2,
                        "error: classes.B[0]: atom must be an object with "
                        "'kind'"),
    "empty_atom_list": (_edited(lambda p: p["classes"].__setitem__("A", [])),
                        ["factor"], 2,
                        "error: classes.A: expected a nonempty list of atoms"),
    "atom_field_not_number": (
        _edited(lambda p: p["classes"]["B"][1].__setitem__("L", "0.5")),
        ["factor"], 2, "error: classes.B[1].L: expected a number, got '0.5'"),
    # an unbounded C has no enlargement ball
    **{f"unbounded_c_{mode}": (
        _enlarged(mode, lambda p: p["classes"].__setitem__("C", [
            {"kind": "strongly_monotone", "mu": 0.5}])),
        ["maxmod", "--eps", "0.1"], 4, "error: unbounded search domain: "
        "C's region is unbounded, so no ball contains it")
       for mode in ("thm33", "thm41")},
    # J_A's region would be a left half-plane, which regions do not model
    **{f"left_half_plane_resolvent_{argv[0]}": (
        LEFT_A, argv, 3, "error: inverting a disk through 0 with "
        "nonpositive center gives a left half-plane")
       for argv in (["maxmod", "--eps", "0.1"], ["verify", "--rho", "0.9"],
                    ["plot", "--out", "fig.svg"])},
    # alpha 1e160: B's Lipschitz disk becomes Disk(1, 5e159), whose image
    # under z -> 1/z has a radius that underflows to 0
    **{f"huge_alpha_{argv[0]}": (
        _edited(lambda p: p["params"].__setitem__("alpha", 1e160)), argv, 3,
        "error: cannot invert the circle about 1.0 of radius 5e+159: its "
        "image (center -0.0, radius 0.0) is out of floating-point range")
       for argv in (["maxmod", "--eps", "0.1"], ["verify", "--rho", "0.9"],
                    ["plot", "--out", "fig.svg"])},
    # alpha 1e-320: A = (J^-1 - I)/alpha overflows on a 2x2 realization,
    # whose class checks would read inf and nan
    "subnormal_alpha_verify": (
        _edited(lambda p: p["params"].__setitem__("alpha", 1e-320)),
        ["verify", "--rho", "0.9"], 3,
        "error: the operator (J^-1 - I)/alpha realized from a resolvent "
        "value J is not finite at alpha = 1e-320"),
    **{f"empty_class_{argv[0]}": (
        EMPTY_C, argv, 3, "error: invalid class: inconsistent class: empty "
        "region, its real extent [lo, hi] has lo = 0.8 > hi = 0.5")
       for argv in (["factor"], ["verify"], ["maxmod", "--eps", "0.1"])},
    # alpha 5e-324: B's 0.5-Lipschitz disk scales to radius 0
    **{f"smallest_alpha_{argv[0]}": (
        _edited(lambda p: p["params"].__setitem__("alpha", 5e-324)), argv, 3,
        "error: violated precondition: a scaled region in floating-point "
        "range (the circle about 0.0 of radius 0.5 scaled by 5e-324 has "
        "center 0.0, radius 0.0)")
       for argv in (["maxmod"], ["verify", "--rho", "0.9"],
                    ["plot", "--out", "fig.svg"])},
    # alpha 1e300: B's 1e10-Lipschitz disk scales to an infinite radius
    "huge_scaled_disk_maxmod": (
        {"classes": {**PUBLISHED["classes"], "B": [
            {"kind": "monotone"}, {"kind": "lipschitz", "L": 1e10}]},
         "params": {"alpha": 1e300, "lambda": 1.0}}, ["maxmod"], 3,
        "error: violated precondition: a scaled region in floating-point "
        "range (the circle about 0.0 of radius 10000000000.0 scaled by "
        "1e+300 has center 0.0, radius inf)"),
    # alpha 1e300: A's strongly monotone line Re z = 1e300 scales to inf
    "huge_scaled_line_maxmod": (
        {"classes": {**PUBLISHED["classes"], "A": [
            {"kind": "strongly_monotone", "mu": 1e300}]},
         "params": {"alpha": 1e300, "lambda": 1.0}}, ["maxmod"], 3,
        "error: violated precondition: a scaled region in floating-point "
        "range (the line Re z = 1e+300 scaled by 1e+300 is at inf)"),
    # beta 1e-309: the cocoercive disk's center 1/(2 beta) is infinite
    **{f"subnormal_beta_{argv[0]}": (
        _edited(lambda p: p["classes"].__setitem__("C", [
            {"kind": "cocoercive", "beta": 1e-309}])), argv, 3,
        "error: invalid class: 1/(2 beta) must be finite, got beta = 1e-309")
       for argv in (["factor"], ["compare"], ["maxmod", "--eps", "0.1"],
                    ["verify", "--rho", "0.9"], ["plot", "--out", "fig.svg"])},
    # Python's float ** overflows in the closed forms and in a boundary
    "overflow_thm32_factor": (THM32_HUGE_L, ["factor"], 3, OUT_OF_RANGE),
    **{f"overflow_thm41_{argv[0]}": (THM41_HUGE_L, argv, 3, OUT_OF_RANGE)
       for argv in (["factor"], ["maxmod", "--eps", "0.1"])},
    **{f"overflow_boundary_{argv[0]}": (
        _edited(lambda p: p["classes"].__setitem__("C", [
            {"kind": "monotone"}, {"kind": "cocoercive", "beta": 1e-300}])),
        argv, 3, OUT_OF_RANGE)
       for argv in (["maxmod", "--eps", "0.1"], ["verify", "--rho", "0.9"])},
    # thm41 with L_C 1e-300: L_C ** 2 underflows to 0 and 2 mu / L_C^2
    # divides by it
    **{f"underflow_thm41_{argv[0]}": (
        {"classes": {"A": [{"kind": "strongly_monotone", "mu": 1.0}],
                     "B": [{"kind": "monotone"}],
                     "C": [{"kind": "monotone"},
                           {"kind": "lipschitz", "L": 1e-300}]},
         "params": {"alpha": 0.5, "lambda": 1.0}}, argv, 3, OUT_OF_RANGE)
       for argv in (["factor"], ["verify"])},
    # lambda 1e300: W conj(P) would overflow in every grid evaluation
    **{f"huge_lambda_{argv[0]}": (
        HUGE_LAMBDA, argv, 3, "error: violated precondition: a symbol scale "
        "whose square is finite (scale 3e+300)")
       for argv in (["maxmod", "--eps", "0.1"], ["verify", "--rho", "0.9"])},
    # alpha = lambda = 1e200: lam alpha overflows, though the resolvent
    # regions shrink to ~1e-200 and the terms of zeta do not
    **{f"huge_alpha_lambda_{argv[0]}": (
        {"classes": {"A": [{"kind": "strongly_monotone", "mu": 0.25}],
                     "B": [{"kind": "strongly_monotone", "mu": 0.25}],
                     "C": [{"kind": "cocoercive", "beta": 2.0}]},
         "params": {"alpha": 1e200, "lambda": 1e200}}, argv, 3,
        "error: violated precondition: a symbol scale whose square is "
        "finite (scale inf)")
       for argv in (["maxmod", "--eps", "0.1"], ["plot", "--out", "fig.svg"])},
    # a huge plot.circle_radius: the padded extent overflows to inf (1e308),
    # or the bounds stay finite while their extent overflows and the map's
    # scale 560 / extent is 0 (8e307)
    **{f"huge_circle_radius_{name}_plot": (
        _edited(lambda p, r=r: p.__setitem__("plot", {"circle_radius": r})),
        ["plot", "--out", "fig.svg"], 3,
        "error: violated precondition: a figure's bounds and scale in "
        f"floating-point range (bounds {bounds}, scale 0.0)")
       for name, r, bounds in (
           ("1e308", 1e308, "(-inf, inf, -inf, inf)"),
           ("8e307", 8e307, "(-9.6e+307, 9.6e+307, -9.6e+307, 9.6e+307)"))},
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_exit_code_and_line(tmp_path, capsys, name):
    payload, argv, expected, line = REFUSALS[name]
    spec = write_spec(tmp_path, payload)
    args = [argv[0], spec] + argv[1:]
    if "--out" in args:
        args[-1] = str(tmp_path / args[-1])
    code = main(args)
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert not (tmp_path / "fig.svg").exists()


# specs the theorem enlargements once refused: C without mu_C, beta_C or
# L_C, lambda outside Theorem 3.3's window, no mu on A or B
@pytest.mark.parametrize("payload", [
    _enlarged("thm33", lambda p: p["classes"]["C"].pop()),
    _enlarged("thm33", lambda p: p["params"].__setitem__("lambda", 1.5)),
    _enlarged("thm41"),
    _enlarged("thm41", lambda p: p["classes"].__setitem__("C", [
        {"kind": "monotone"}, {"kind": "lipschitz", "L": 1.0}]))],
    ids=["thm33_without_mu_c", "thm33_lambda_1.5", "thm41_without_l_c",
         "thm41_without_mu"])
def test_theorem_enlargement_of_any_bounded_c(tmp_path, capsys, payload):
    spec = ProblemSpec(payload)
    params = spec.params()
    report = cls.dys_preflight(spec.a, spec.b, spec.effective_c(params),
                               params)
    assert report.c_side_arc
    code, out = run(capsys, ["maxmod", write_spec(tmp_path, payload),
                             "--eps", "0.1"])
    assert code == 0
    assert out["best_value"] <= out["certified_upper"]


THM41_UNIT = {"classes": {"A": [{"kind": "strongly_monotone", "mu": 1.0}],
                          "B": [{"kind": "monotone"}],
                          "C": [{"kind": "monotone"},
                                {"kind": "lipschitz", "L": 1.0}]},
              "params": {"alpha": 1.0, "lambda": 1.0},
              "enlargement": {"mode": "thm41"}}


@pytest.mark.parametrize("payload, shift, best, upper", [
    # Theorem 3.3's ball at s = 0 on the published instance: sqrt(3/5)
    (_enlarged("thm33"), None, 0.7745966692414835, 0.774691323235624),
    # Theorem 4.1's ball at s = 1 - theta: theta = 2/3
    (THM41_UNIT, 1.0 - dysrates.averagedness_thm41(1.0, 1.0, 1.0).theta,
     0.6666666666666666, 0.6669898175629447)], ids=["thm33", "thm41"])
def test_maxmod_theorem_enlargement_at_its_own_shift(tmp_path, capsys,
                                                     payload, shift, best,
                                                     upper):
    # the values the theorems' closed-form balls gave, at eps 1/30
    argv = ["maxmod", write_spec(tmp_path, payload), "--eps",
            repr(1.0 / 30.0)]
    if shift is not None:
        argv += ["--shift", repr(shift)]
    code, out = run(capsys, argv)
    assert code == 0
    assert out["best_value"] == pytest.approx(best, rel=1e-15, abs=0.0)
    assert out["certified_upper"] == pytest.approx(upper, rel=1e-15, abs=0.0)


# the spec-file names of the atoms, as the README documents them
SPEC_KINDS = [
    ("monotone", cls.Monotone),
    ("strongly_monotone", cls.StronglyMonotone),
    ("cocoercive", cls.Cocoercive),
    ("lipschitz", cls.Lipschitz),
    ("averaged", cls.Averaged),
    ("shifted_lipschitz_ball", cls.ShiftedLipschitzBall),
]


def test_atom_kinds_are_distinct_and_round_trip():
    kinds = [atom.kind for atom in cls.ATOMS]
    assert len(set(kinds)) == len(kinds)
    assert all(_ATOM_KINDS[atom.kind] is atom for atom in cls.ATOMS)
    assert _ATOM_KINDS == dict(SPEC_KINDS)
    # kind is a class constant, not a field a spec entry could set
    assert all("kind" not in [f.name for f in dataclasses.fields(atom)]
               for atom in cls.ATOMS)


@pytest.mark.parametrize("kind, ctor", SPEC_KINDS)
def test_atom_takes_exactly_its_class_fields(tmp_path, capsys, kind, ctor):
    names = [f.name for f in dataclasses.fields(ctor)]
    atom = {"kind": kind, **{name: 0.5 for name in names}}
    payload = json.loads(json.dumps(PUBLISHED))
    payload["classes"]["C"] = [atom]
    assert ProblemSpec(payload).c.atoms == (ctor(*[0.5] * len(names)),)
    extra = "L" if "mu" in names else "mu"
    for name, bad in ([(name, {k: v for k, v in atom.items() if k != name})
                       for name in names] + [(extra, {**atom, extra: 0.5})]):
        payload["classes"]["C"] = [bad]
        code = main(["factor", write_spec(tmp_path, payload)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "classes.C[0]" in err and repr(name) in err


@pytest.mark.parametrize("kind", ["bogus", [], {}, 1],
                         ids=["unknown", "list", "object", "number"])
def test_unknown_atom_kind_exits_2(tmp_path, capsys, kind):
    payload = json.loads(json.dumps(PUBLISHED))
    payload["classes"]["A"] = [{"kind": kind}]
    assert main(["factor", write_spec(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: classes.A[0]: unknown kind")
    assert len(err.strip().splitlines()) == 1


# Ordinary numbers and the extremes of a float, subnormal to near overflow:
# whatever a spec holds, every command ends in a documented exit code.
NUMBER = st.sampled_from(3 * [1.0, 0.5, 2.0, 0.25, 0.75, 1.5]
                         + [5e-324, 1e-309, 1e-300, 1e200, 1e300])
SPEC_ATOM = {kind: st.fixed_dictionaries({"kind": st.just(kind), **{
    f.name: NUMBER | NUMBER.map(lambda x: -x) if f.name == "center"
    else NUMBER for f in dataclasses.fields(ctor)}})
    for kind, ctor in SPEC_KINDS}


def _atoms(*kinds):
    return st.tuples(*(SPEC_ATOM[kind] for kind in kinds)).map(list)


# Half the classes take a placement the theorems know, so that a good share
# of the specs reach a factor, a verify and a search.
PLACED = {"AB": st.one_of(_atoms("monotone"), _atoms("strongly_monotone"),
                          _atoms("monotone", "lipschitz"),
                          _atoms("strongly_monotone", "lipschitz")),
          "C": st.one_of(_atoms("cocoercive"),
                         _atoms("cocoercive", "strongly_monotone"),
                         _atoms("monotone", "lipschitz"))}
ANY_SPEC = st.fixed_dictionaries({
    "classes": st.fixed_dictionaries({k: st.lists(
        st.one_of(*SPEC_ATOM.values()), min_size=1, max_size=3)
        | PLACED["C" if k == "C" else "AB"] for k in "ABC"}),
    "params": st.fixed_dictionaries({"alpha": NUMBER, "lambda": NUMBER}),
    "plot": st.just({"eps": 0.25})})


@settings(deadline=None, derandomize=True, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ANY_SPEC)
def test_every_command_ends_in_a_documented_exit_code(tmp_path, capsys,
                                                       payload):
    spec = write_spec(tmp_path, payload)
    for argv in (["factor"], ["compare"], ["maxmod", "--eps", "0.25"],
                 ["verify", "--trials", "10"],
                 ["plot", "--out", str(tmp_path / "fig.svg")]):
        # an exception, or a numpy warning, escaping main fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([argv[0], spec] + argv[1:])
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), (argv, payload)
        if code >= 2:
            assert captured.out == "", (argv, payload)
            assert len(captured.err.splitlines()) == 1, (argv, payload)


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
# report form
# ---------------------------------------------------------------------------

def _repeated_kinds_spec(a_atoms, c_atoms):
    return {"classes": {"A": list(a_atoms), "B": [{"kind": "monotone"}],
                        "C": list(c_atoms)},
            "params": {"alpha": 0.5, "lambda": 1.0}}


@pytest.mark.parametrize("argv", [["factor"], ["compare"],
                                  ["verify", "--rho", "auto",
                                   "--trials", "50"]])
def test_repeated_atom_kinds_give_the_tightest_constants(tmp_path, capsys,
                                                          argv):
    # an intersection reads its largest mu and beta and its smallest L
    # whatever the order of its atoms, as its region does: every order
    # reports exactly what the class of the tightest atoms reports
    sm = [{"kind": "strongly_monotone", "mu": mu} for mu in (0.4, 0.6)]
    lip = [{"kind": "lipschitz", "L": L} for L in (2.0, 1.3)]
    coco = [{"kind": "cocoercive", "beta": beta} for beta in (0.8, 1.0)]
    spec = write_spec(tmp_path, _repeated_kinds_spec(
        [sm[1], lip[1]], [coco[1]]))
    code = main([argv[0], spec] + argv[1:])
    expected = (code, capsys.readouterr())
    assert code == 0
    for a_atoms in itertools.permutations(sm + lip):
        for c_atoms in itertools.permutations(coco):
            spec = write_spec(tmp_path, _repeated_kinds_spec(a_atoms,
                                                             c_atoms))
            code = main([argv[0], spec] + argv[1:])
            assert (code, capsys.readouterr()) == expected, \
                (a_atoms, c_atoms)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_TEXT = st.text(max_size=6)


def _same(values):
    """Pairs (value, its JSON form) of values that JSON writes as they
    are."""
    return values.map(lambda v: (v, v))


def _point(z):
    return {"re": float(z.real), "im": float(z.imag)}


_COMPLEX = st.one_of(st.complex_numbers(allow_nan=False,
                                        allow_infinity=False),
                     st.complex_numbers(allow_nan=False, allow_infinity=False,
                                        width=128).map(np.complex128))
_PARAMETERS = st.dictionaries(_TEXT, st.one_of(_FLOATS, _TEXT), max_size=3)
_CHECKED = st.lists(_TEXT, max_size=3)

_REPORTS = st.one_of(
    st.builds(lambda rho, theorem, parameters, checked: (
        rates.RateReport(rho, theorem, parameters, tuple(checked)),
        {"rho": rho, "theorem": theorem, "parameters": parameters,
         "assumptions_verified": checked}),
        _FLOATS, _TEXT, _PARAMETERS, _CHECKED),
    st.builds(lambda theta, theorem, parameters, checked: (
        rates.AveragednessReport(theta, theorem, parameters, tuple(checked)),
        {"theta": theta, "theorem": theorem, "parameters": parameters,
         "assumptions_verified": checked}),
        _FLOATS, _TEXT, _PARAMETERS, _CHECKED),
    st.builds(lambda values, best, grid_best, evaluations: (
        search_module.SearchResult(values[0], tuple(best), values[1],
                                   tuple(grid_best), values[2], values[3],
                                   values[4], evaluations),
        {"best_value": values[0], "best_point": [_point(z) for z in best],
         "grid_best_value": values[1],
         "grid_best_point": [_point(z) for z in grid_best],
         "certified_upper": values[2], "lipschitz_constant": values[3],
         "covering_radius": values[4], "evaluations": evaluations}),
        st.lists(_FLOATS, min_size=5, max_size=5),
        st.lists(_COMPLEX, min_size=3, max_size=3),
        st.lists(_COMPLEX, min_size=3, max_size=3), st.integers(0, 10 ** 9)),
    st.builds(lambda trials, rho, seen, violations, warnings: (
        verify_module.VerificationReport(trials, rho, seen, violations,
                                         warnings),
        {"trials": trials, "rho": rho, "max_norm_seen": seen,
         "violations": violations, "warnings": warnings}),
        st.integers(0, 10 ** 6), _FLOATS, _FLOATS,
        st.lists(st.dictionaries(_TEXT, st.one_of(_FLOATS, _TEXT,
                                                  st.lists(_TEXT)),
                                 max_size=3), max_size=2),
        st.lists(_TEXT, max_size=2)),
)

_LEAVES = st.one_of(_same(_TEXT), _same(st.integers()), _same(_FLOATS),
                    _same(st.booleans()), _same(st.none()),
                    _COMPLEX.map(lambda z: (z, _point(z))), _REPORTS)


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=4).map(
            lambda pairs: ([v for v, _ in pairs], [e for _, e in pairs])),
        st.dictionaries(_TEXT, children, max_size=4).map(
            lambda pairs: ({k: v for k, (v, _) in pairs.items()},
                           {k: e for k, (_, e) in pairs.items()})))


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(_TEXT, st.recursive(_LEAVES, _nested, max_leaves=12),
                       max_size=5))
def test_emit_writes_reports_as_their_fields(pairs):
    # a report dataclass is written as its fields and a complex point as
    # {"re", "im"}, at any depth; everything else as json writes it
    payload = {k: v for k, (v, _) in pairs.items()}
    expected = {"schema_version": "1",
                **{k: e for k, (_, e) in pairs.items()}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    assert out.getvalue() == json.dumps(expected, indent=2,
                                        sort_keys=True) + "\n"


def _field_names(report_type):
    return {f.name for f in dataclasses.fields(report_type)}


_THM41 = {"classes": {"A": [{"kind": "strongly_monotone", "mu": 1.0}],
                      "B": [{"kind": "monotone"}],
                      "C": [{"kind": "monotone"},
                            {"kind": "lipschitz", "L": 1.0}]},
          "params": {"alpha": 1.0, "lambda": 1.0}}


@pytest.mark.parametrize("payload, argv, report_type, extras", [
    (ALL_ONES_31, ["factor"], rates.RateReport, set()),
    (_THM41, ["factor"], rates.AveragednessReport, set()),
    (PUBLISHED, ["maxmod", "--eps", "0.05"], search_module.SearchResult,
     {"params", "eps_grid"}),
    (ALL_ONES_31, ["verify", "--trials", "20"],
     verify_module.VerificationReport, {"passed"}),
], ids=["factor-rate", "factor-averagedness", "maxmod", "verify"])
def test_report_keys_are_the_dataclass_fields_and_the_extras(
        tmp_path, capsys, payload, argv, report_type, extras):
    spec = write_spec(tmp_path, payload)
    code, report = run(capsys, [argv[0], spec] + argv[1:])
    assert code == 0
    assert set(report) == _field_names(report_type) | extras | {
        "schema_version"}


def test_compare_pairs_hold_rate_reports(tmp_path, capsys):
    spec = write_spec(tmp_path, ALL_ONES_31)
    code, report = run(capsys, ["compare", spec])
    assert code == 0
    assert set(report) == {"schema_version", "pairs", "epsilon", "eta"}
    for pair in report["pairs"]:
        assert set(pair) == {"new", "prior", "margin"}
        assert set(pair["new"]) == set(pair["prior"]) == \
            _field_names(rates.RateReport)


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


# SHA-256 of the files written with centipixel cloud rows, with the plot
# report's point counts and circle radius (as repr), which predate them.
PLOT_GOLDEN = {
    "cprime": ("f5da177108210008aef45501fa4645fe"
               "d091251788b38710ff706a379fdefe34", 29131, 20368,
               "0.7745966692"),
    "thm33": ("945a603d1d7eea86c0fc9bd0d481810a"
              "fd0ed9e69a807c1da5ef50a4100c544b", 29131, 24157,
              "0.7745966692"),
    "auto_circle": ("c8d5961dce3ff0a6ab8e4f01b76fb266"
                    "72cf268edbd806449a95c21cb017ab0f", 29131, 20368,
                    "0.7741460515242731"),
    # the benchmark's two figure specs (C plain, Cprime enlarged, or the
    # thm33 enlargement; circle from the clouds) at plot.eps 1/120
    "figure_cprime_120": ("6a671689db4d4b3e3ffcf5ecac359fcc"
                          "0520671862e9f0c1ec4f1a015fe20fe1", 29977, 29988,
                          "0.7711062145798209"),
    "figure_thm33_120": ("4bc206ab73a722b6ebf066a1691d739a"
                         "dc7af5827d24814fcd8d7632c2829ce7", 29977, 29996,
                         "0.7732607663166762"),
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_plot_spec(tmp_path, variant):
    payload = plot_payload()
    if variant.startswith("figure_"):
        del payload["plot"]["circle_radius"]
        payload["plot"]["eps"] = 1.0 / 120.0
    if "thm33" in variant:
        del payload["classes"]["Cprime"]
        payload["enlargement"] = {"mode": "thm33"}
    elif variant == "auto_circle":
        del payload["plot"]["circle_radius"]
    return write_spec(tmp_path, payload, name=f"{variant}.json")


@pytest.mark.parametrize("variant", sorted(PLOT_GOLDEN))
def test_plot_golden_bytes(tmp_path, capsys, variant):
    spec = golden_plot_spec(tmp_path, variant)
    out = tmp_path / "fig.svg"
    code, report = run(capsys, ["plot", spec, "--out", str(out)])
    digest, dark, light, radius = PLOT_GOLDEN[variant]
    assert code == 0
    assert sha256_of(out) == digest
    assert report == {"schema_version": "1", "out": str(out),
                      "dark_points": dark, "light_points": light,
                      "circle_radius": float(radius)}
    assert repr(report["circle_radius"]) == radius


@pytest.mark.parametrize("variant", ["figure_cprime_120", "figure_thm33_120"])
def test_plot_cloud_rows_within_half_a_centipixel(tmp_path, capsys,
                                                  monkeypatch, variant):
    # each cloud row's centre, read back in pixels, lies within 0.005 px of
    # the figure's own map of its point
    clouds = []
    add_points = SvgFigure.add_points

    def spy(fig, zs, color):
        clouds.append((fig, np.asarray(zs).ravel(), color))
        add_points(fig, zs, color)

    monkeypatch.setattr(SvgFigure, "add_points", spy)
    out = tmp_path / "fig.svg"
    code, report = run(capsys, ["plot", golden_plot_spec(tmp_path, variant),
                                "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    groups = re.findall(r'<g ([^>]*)>\n(.*?)\n</g>', svg, re.S)
    assert [g for g, _ in groups] == [
        f'fill="{color}" transform="scale(0.01)"' for _, _, color in clouds]
    for (fig, zs, _), (_, body) in zip(clouds, groups):
        rows = body.split("\n")
        xy = np.array([re.fullmatch(r'<circle cx="(\d{5})" cy="(\d{5})" '
                                    r'r="80"/>', row).groups()
                       for row in rows], dtype=float) / 100.0
        px, py = fig._map(zs.real, zs.imag)
        assert len(rows) == zs.size
        assert np.max(np.abs(xy[:, 0] - px)) <= 0.005 + 1e-9
        assert np.max(np.abs(xy[:, 1] - py)) <= 0.005 + 1e-9
    assert svg.count("<circle") == (report["dark_points"]
                                    + report["light_points"] + 1)


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap thresholds are glibc's")
def test_repeated_plots_reuse_freed_memory(tmp_path, capsys):
    # figures after the first in one process take the memory the earlier
    # ones freed from the heap instead of faulting it back in (several
    # hundred to two thousand minor faults per figure without the hold)
    spec = golden_plot_spec(tmp_path, "figure_thm33_120")
    argv = ["plot", spec, "--out", str(tmp_path / "fig.svg")]
    for _ in range(2):
        assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        assert main(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    capsys.readouterr()
    assert faults < 100, faults


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


def test_plot_largest_circle_radius_in_range(tmp_path, capsys):
    # 7.4e307 keeps the padded extent, 1.776e308, finite: the figure is
    # drawn, with the circle at 280 px / 1.2 (its padding) and no nan or
    # inf coordinate
    spec = write_spec(tmp_path, _edited(
        lambda p: p.__setitem__("plot", {"circle_radius": 7.4e307})))
    out = tmp_path / "fig.svg"
    code, report = run(capsys, ["plot", spec, "--out", str(out)])
    svg = out.read_text()
    assert code == 0 and report["circle_radius"] == 7.4e307
    assert "nan" not in svg and "inf" not in svg
    assert re.search(r'<circle cx="320.000000" cy="320.000000" '
                     r'r="233.333333" fill="none"', svg)
    assert svg.count("<circle") == report["dark_points"] + 1


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
              "thm33": spec.effective_c(params)}[which]
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


def test_write_text_encodes_across_write_blocks(tmp_path):
    # multi-byte characters (2, 3 and 4 bytes) on both sides of both block
    # edges, and a text that ends inside its third block
    n = _WRITE_CHARS
    text = "a" * (n - 1) + "é€" + "b" * (n - 2) + "😀é" + "€" * 99
    for k in (1, 2):
        assert ord(text[k * n - 1]) > 127 and ord(text[k * n]) > 127
    path = tmp_path / "out.txt"
    _write_text(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
    _write_text(str(path), "")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("argv", [
    ["plot", "--out"],
], ids=["plot_out"])
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

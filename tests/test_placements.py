"""Golden outputs of `factor`, `compare` and `verify` over a matrix of class
placements.

A and B each take one of four classes and C one of five, each spec runs
with lambda 1.0 and 0.8, and each spec goes through `factor --theorem`
{auto, 31, 32, 33, 41}, `compare` and `verify --trials 20`: 1120 cases.
For each case the fixture holds the exit code, the parsed report (None
when stdout is empty) and stderr.  Structure must match exactly and
floats to rel=1e-15.

Re-record the fixture with

    PYTHONPATH=src python tests/test_placements.py

and commit only the entries a change is meant to alter.  An entry whose
fresh run still matches it is kept as committed, so float noise of an
ulp rewrites nothing.
"""

import contextlib
import io
import itertools
import json
import pathlib
import tempfile

import pytest

from dysrates.cli import main
from oracles import assert_matches, rerecorded

FIXTURE = pathlib.Path(__file__).with_name("placement_golden.json")

MONOTONE = {"kind": "monotone"}


def _sm(mu):
    return {"kind": "strongly_monotone", "mu": mu}


def _lip(L):
    return {"kind": "lipschitz", "L": L}


A_CLASSES = {"monotone": [MONOTONE], "sm": [_sm(0.6)],
             "monotone+lip": [MONOTONE, _lip(1.3)],
             "sm+lip": [_sm(0.6), _lip(1.3)]}
B_CLASSES = {"monotone": [MONOTONE], "sm": [_sm(0.4)],
             "monotone+lip": [MONOTONE, _lip(0.9)],
             "sm+lip": [_sm(0.4), _lip(0.9)]}
C_CLASSES = {"coco": [{"kind": "cocoercive", "beta": 1.0}],
             "coco+sm": [{"kind": "cocoercive", "beta": 1.0}, _sm(0.5)],
             "monotone+lip": [MONOTONE, _lip(0.8)],
             "lip": [_lip(0.8)],
             "sm+lip": [_sm(0.3), _lip(0.8)]}
LAMBDAS = (1.0, 0.8)
COMMANDS = {
    **{f"factor --theorem {t}": ["factor", "--theorem", t]
       for t in ("auto", "31", "32", "33", "41")},
    "compare": ["compare"],
    "verify --trials 20": ["verify", "--trials", "20"],
}


def specs():
    """(label, spec dict) for every placement of the matrix."""
    for (a, ca), (b, cb), (c, cc), lam in itertools.product(
            A_CLASSES.items(), B_CLASSES.items(), C_CLASSES.items(),
            LAMBDAS):
        yield (f"A={a}|B={b}|C={c}|lambda={lam}",
               {"classes": {"A": ca, "B": cb, "C": cc},
                "params": {"alpha": 0.5, "lambda": lam}})


def run_case(directory, raw, argv):
    """Exit code, parsed stdout report and stderr of one CLI call."""
    path = pathlib.Path(directory) / "spec.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path)] + argv[1:])
    text = out.getvalue()
    return {"exit": code, "report": json.loads(text) if text else None,
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_placement_golden(tmp_path, golden, command):
    for label, raw in specs():
        case = f"{label}|{command}"
        got = json.loads(json.dumps(run_case(tmp_path, raw,
                                             COMMANDS[command])))
        assert_matches(got, golden[case], case)


def record(path=FIXTURE):
    """Write the fixture, one case per line so that diffs stay readable;
    an entry that still matches its committed one is kept as committed."""
    committed = json.loads(path.read_text()) if path.exists() else {}
    lines = []
    with tempfile.TemporaryDirectory() as directory:
        for label, raw in specs():
            for command, argv in COMMANDS.items():
                case = f"{label}|{command}"
                entry = rerecorded(run_case(directory, raw, argv),
                                   committed.get(case))
                lines.append(json.dumps(case) + ":"
                             + json.dumps(entry, sort_keys=True,
                                          separators=(",", ":")))
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    record()

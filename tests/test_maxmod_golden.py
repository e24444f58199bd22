"""Golden `maxmod` reports on the published instances.

The plain instance (A monotone, B monotone and 0.5-Lipschitz, C
1-cocoercive and 0.5-strongly monotone) and the enlarged one (C replaced by
its 1-cocoercive intersection with Disk(1, 1/sqrt 2)) run at eps 1/30 and
1/120; the plain instance with the disk_hull enlargement runs at eps 0.05.
For each case the fixture holds the exit code, the parsed report and
stderr.  Structure must match exactly and floats to rel=1e-15.

Re-record the fixture with

    PYTHONPATH=src python tests/test_maxmod_golden.py

and commit only the entries a change is meant to alter.  An entry whose
fresh run still matches it is kept as committed, so float noise of an
ulp rewrites nothing.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest

from dysrates.cli import main
from oracles import assert_matches, rerecorded

FIXTURE = pathlib.Path(__file__).with_name("maxmod_golden.json")

_AB = {"A": [{"kind": "monotone"}],
       "B": [{"kind": "monotone"}, {"kind": "lipschitz", "L": 0.5}]}
_UNIT = {"alpha": 1.0, "lambda": 1.0, "s": 0.0}
_COCO = {"kind": "cocoercive", "beta": 1.0}
PLAIN = {"classes": {**_AB, "C": [_COCO, {"kind": "strongly_monotone",
                                          "mu": 0.5}]},
         "params": _UNIT}
ENLARGED = {"classes": {**_AB, "C": [_COCO, {
    "kind": "shifted_lipschitz_ball", "center": 1.0,
    "radius": 1.0 / math.sqrt(2.0)}]}, "params": _UNIT}
DISK_HULL = {**PLAIN, "enlargement": {"mode": "disk_hull"}}

CASES = {
    **{f"{name}|eps=1/{d}": (spec, 1.0 / d)
       for name, spec in (("plain", PLAIN), ("enlarged", ENLARGED))
       for d in (30, 120)},
    "disk_hull|eps=0.05": (DISK_HULL, 0.05),
}


def run_case(directory, raw, eps):
    """Exit code, parsed stdout report and stderr of one maxmod call."""
    path = pathlib.Path(directory) / "spec.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["maxmod", str(path), "--eps", repr(eps)])
    text = out.getvalue()
    return {"exit": code, "report": json.loads(text) if text else None,
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_maxmod_golden(tmp_path, golden, case):
    got = json.loads(json.dumps(run_case(tmp_path, *CASES[case])))
    assert_matches(got, golden[case], case)


def test_rerecord_keeps_an_ulp_and_replaces_a_change():
    def entry(best):
        return {"exit": 0, "report": {"best_value": best}, "stderr": ""}

    committed = entry(0.7236067977499789)
    ulp = entry(math.nextafter(0.7236067977499789, 1.0))
    assert rerecorded(ulp, committed) is committed
    assert rerecorded(entry(0.7236), committed) == entry(0.7236)
    assert rerecorded({**committed, "exit": 1}, committed) == \
        {**committed, "exit": 1}
    assert rerecorded(ulp, None) == ulp


def record(path=FIXTURE):
    """Write the fixture, one case per line so that diffs stay readable;
    an entry that still matches its committed one is kept as committed."""
    committed = json.loads(path.read_text()) if path.exists() else {}
    lines = []
    with tempfile.TemporaryDirectory() as directory:
        for case, (raw, eps) in CASES.items():
            entry = rerecorded(run_case(directory, raw, eps),
                               committed.get(case))
            lines.append(json.dumps(case) + ":"
                         + json.dumps(entry, sort_keys=True,
                                      separators=(",", ":")))
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    record()

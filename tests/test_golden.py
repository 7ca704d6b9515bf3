"""Golden reports: every registry example and a small datum ladder, byte for byte.

Each file in ``tests/golden`` is the report of one CLI command exactly as
``horoflex ... --format json`` prints it, minus the ``timing_ms`` field.  The
files pin report content across commits, not just across two runs of one
commit.  Rewrite them (``PYTHONPATH=src python tests/test_golden.py``) only
for a change that is meant to alter reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from horoflex.cli import main
from horoflex.registry import list_examples

GOLDEN = Path(__file__).parent / "golden"

# name -> (torus_rank, dominant_rank, generators)
LADDER = {
    "cusp": (1, 0, [[2], [3]]),
    # rank-3 weights spanning only a plane
    "flat3": (2, 1, [[1, 0, 1], [1, 1, 1], [1, 2, 1]]),
    # a cone with a line; (0, 1) and (1, 1) are the same ray modulo that line
    "line": (2, 0, [[1, 0], [-1, 0], [0, 1], [1, 1]]),
    # (0, 1) lies in the cone and the group but not in the semigroup
    "gap2": (2, 0, [[1, 0], [0, 2], [0, 3]]),
    "r3-quad": (2, 1, [[x, y, 1] for x in (0, 1) for y in (0, 1)]),
    "r4-cube": (3, 1, [[x, y, z, 1] for x in (0, 1) for y in (0, 1) for z in (0, 1)]),
}
# saturate and grading need a pointed cone: on these the CLI exits 1
NOT_POINTED = {"line"}
# (p, q, m, degree bound) of ehm reports at the sizes the benchmark runs
EHM = [(3, 7, 6, 32), (2, 5, 3, 17), (1, 2, 1, 0)]


def run(argv: list[str], fmt: str) -> tuple[int, str]:
    """Exit code and standard output of the command in the given format."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", fmt])
    return code, out.getvalue()


def render(argv: list[str]) -> str:
    """The command's JSON report as the CLI prints it, without ``timing_ms``."""
    code, out = run(argv, "json")
    assert code in (0, 2), f"{argv} exited {code}"
    report = json.loads(out)
    del report["timing_ms"]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def golden_cases(directory: Path) -> dict[str, list[str]]:
    """Golden file stem -> CLI arguments; datum files are written to directory."""
    cases = {f"example.{name}": ["examples", "run", name] for name in list_examples()}
    for p, q, m, bound in EHM:
        cases[f"ehm-{p}-{q}-{m}.bound-{bound:02d}"] = [
            "ehm", "--p", str(p), "--q", str(q), "--m", str(m), "--bound", str(bound)
        ]
    for name, (torus_rank, dominant_rank, gens) in LADDER.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({
            "torus_rank": torus_rank,
            "dominant_rank": dominant_rank,
            "generators": gens,
            "label": name,
        }))
        datum = str(path)
        cases[f"{name}.check"] = ["check", datum]
        cases[f"{name}.orbits"] = ["orbits", datum]
        if name in NOT_POINTED:
            continue
        cases[f"{name}.saturate"] = ["saturate", datum]
        for face in range(json.loads(render(["orbits", datum]))["face_count"]):
            cases[f"{name}.grading-{face:02d}"] = ["grading", datum, "--face", str(face)]
    return cases


@pytest.fixture(scope="module")
def cases(tmp_path_factory) -> dict[str, list[str]]:
    return golden_cases(tmp_path_factory.mktemp("datums"))


def test_golden_files_cover_every_case(cases):
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(cases)


@pytest.mark.parametrize("stem", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_report_matches_golden(stem, cases):
    assert stem in cases, f"stale golden file {stem}.json"
    assert render(cases[stem]) == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_text_report_of_every_case(stem, cases):
    # the text view exits as the JSON run does and opens with the same header
    code, out = run(cases[stem], "json")
    report = json.loads(out)
    text_code, text = run(cases[stem], "text")
    assert text_code == code
    assert text.startswith(f"horoflex {report['command']} (version {report['version']})\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, argv in golden_cases(Path(tmp)).items():
            (GOLDEN / f"{stem}.json").write_text(render(argv), encoding="utf-8")
            print(stem, file=sys.stderr)

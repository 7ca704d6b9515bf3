import json

from horoflex import semigroup
from perfbench import checks, run


class Recorder:
    """Wraps a workload and keeps every record it is asked to check."""

    def __init__(self, workload):
        self.workload = workload
        self.records = []

    def check(self, record):
        self.records.append(record)
        return self.workload.check(record)


def _round(workload):
    recorder = Recorder(workload)
    session = run.Session(recorder, run.OP_LIMIT_S, digest=True)
    run.run_loop(workload, session, count=len(workload.items))
    assert len(session.ms) == len(recorder.records)
    return recorder.records, session


def test_untampered_round_passes(tmp_path):
    records, session = _round(run.Certify(seed=1, workdir=tmp_path, rounds=1))
    assert {r["op"] for r in records} == {"check", "saturate", "check_closure"}
    assert session.failed == []


def test_tampered_gap_is_a_failed_op(tmp_path, monkeypatch):
    original = semigroup.is_saturated

    def tampered(datum):
        check = original(datum)
        if check.saturated:
            return check
        # a generator is in the semigroup, so it is never a gap
        return semigroup.SaturationCheck(False, datum.generators[0])

    monkeypatch.setattr(semigroup, "is_saturated", tampered)
    records, session = _round(run.Certify(seed=1, workdir=tmp_path, rounds=1))
    non_normal = [r for r in records if r["op"] == "saturate"]
    assert non_normal
    assert len(session.failed) == len(non_normal)
    assert all("is in the semigroup" in line for line in session.failed)


def test_gap_routes():
    gens = [(2, 1), (3, 1), (0, 1)]
    assert checks.gap_problems(gens, (1, 1)) == []
    assert any("in the semigroup" in p for p in checks.gap_problems(gens, (5, 2)))
    assert any("not in the cone" in p for p in checks.gap_problems(gens, (-1, 1)))
    assert any("not in the group" in p for p in checks.gap_problems([(2, 2), (0, 2)], (1, 1)))


def test_witness_must_vanish_exactly_on_its_face():
    gens = [(0, 1), (1, 1), (2, 1)]
    good = {"face_index": 1, "functional": [1, 0], "face_rays": [[0, 1]],
            "generator_degrees": [0, 1, 2]}
    assert checks.witness_problems(gens, good) == []
    wrong_face = dict(good, face_rays=[[2, 1]])
    assert checks.witness_problems(gens, wrong_face)
    wrong_degree = dict(good, generator_degrees=[0, 1, 3])
    assert checks.witness_problems(gens, wrong_degree)


def test_ehm_monomials_are_recomputed(tmp_path):
    workload = run.Identities(seed=2, workdir=tmp_path, rounds=1)
    records, session = _round(workload)
    assert session.failed == []
    rec = next(r for r in records if r["op"] == "ehm")
    report = json.loads(rec["out"])
    report["invariant_monomials"][0]["grading_weight"] += 1
    assert checks.ehm_problems(report, *workload.items[rec["item"]][1:])


def _digest(record):
    d = checks.Digest()
    d.add(record)
    return d.hexdigest()


def test_digest_ignores_timing():
    report = {"command": "check", "timing_ms": 1.0}
    a = {"op": "check", "rc": 0, "out": json.dumps(report)}
    b = {"op": "check", "rc": 0, "out": json.dumps(dict(report, timing_ms=2.0))}
    c = {"op": "check", "rc": 2, "out": json.dumps(report)}
    assert _digest(a) == _digest(b) != _digest(c)


def test_orbits_round_passes(tmp_path):
    workload = run.Orbits(seed=4, workdir=tmp_path, rounds=1)
    workload.items = workload.items[:2]
    records, session = _round(workload)
    assert session.failed == []
    assert [r["face"] for r in records if r["op"] == "grading"][:3] == [0, 1, 2]

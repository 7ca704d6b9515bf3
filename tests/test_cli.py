import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from horoflex.cli import _json, main
from horoflex.registry import run_example
from horoflex.reporting import (
    CorruptReportError,
    DatumSpec,
    SpecError,
    build_check_report,
    build_grading_report,
    max_ambient_rank,
    parse_spec,
    verify_check_report,
)
from horoflex.semigroup import HorosphericalDatum

CUSP_TEXT = '{"torus_rank": 1, "dominant_rank": 0, "generators": [[2], [3]]}'
VERONESE_TEXT = '{"torus_rank": 2, "dominant_rank": 0, "generators": [[1, 0], [1, 1], [1, 2]]}'


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(CUSP_TEXT)
    return str(path)


@pytest.fixture
def veronese_file(tmp_path):
    path = tmp_path / "veronese.json"
    path.write_text(VERONESE_TEXT)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_spec_roundtrip():
    spec = parse_spec(CUSP_TEXT)
    assert spec == parse_spec(spec.dumps())
    labeled = DatumSpec(1, 0, ((2,), (3,)), "cusp")
    assert parse_spec(labeled.dumps()) == labeled


def test_parse_spec_preserves_generator_order():
    spec = parse_spec('{"torus_rank": 1, "dominant_rank": 0, "generators": [[3], [2]]}')
    assert spec.generators == ((3,), (2,))


@pytest.mark.parametrize("ranks", [(True, 0), (1, False)])
def test_datum_spec_rejects_bool_ranks(ranks):
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        DatumSpec(*ranks, ((1,),))
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        HorosphericalDatum(*ranks, [(1,)])


def test_parse_spec_rejects_duplicate_keys(tmp_path, capsys):
    text = '{"torus_rank": 1, "torus_rank": 2, "dominant_rank": 0, "generators": [[1, 0]]}'
    with pytest.raises(SpecError, match="duplicate field 'torus_rank'"):
        parse_spec(text)
    path = tmp_path / "twice.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: duplicate field 'torus_rank'")


def test_parse_spec_unknown_field():
    with pytest.raises(SpecError, match="unknown fields: 'color'"):
        parse_spec('{"torus_rank": 1, "dominant_rank": 0, "generators": [[1]], "color": 1}')


def test_parse_spec_missing_field():
    with pytest.raises(SpecError, match="missing fields: generators"):
        parse_spec('{"torus_rank": 1, "dominant_rank": 0}')


def test_parse_spec_dominance_violation():
    with pytest.raises(SpecError, match="dominance violation"):
        parse_spec('{"torus_rank": 1, "dominant_rank": 1, "generators": [[1, -1]]}')


def test_parse_spec_empty_generators():
    with pytest.raises(SpecError, match="at least one generator"):
        parse_spec('{"torus_rank": 1, "dominant_rank": 0, "generators": []}')


def test_parse_spec_syntax_error_position():
    with pytest.raises(SpecError, match="line 1 column"):
        parse_spec('{"torus_rank": 1 "dominant_rank": 0}')


def test_parse_spec_type_errors():
    with pytest.raises(SpecError, match="must be an integer"):
        parse_spec('{"torus_rank": true, "dominant_rank": 0, "generators": [[1]]}')
    with pytest.raises(SpecError, match="must be an integer"):
        parse_spec('{"torus_rank": 1, "dominant_rank": 0, "generators": [[1.5]]}')
    with pytest.raises(SpecError, match="label"):
        parse_spec('{"torus_rank": 1, "dominant_rank": 0, "generators": [[1]], "label": 3}')


def test_rank_cap(monkeypatch):
    assert max_ambient_rank() == 6
    monkeypatch.setenv("HOROFLEX_MAX_RANK", "9")
    assert max_ambient_rank() == 9
    monkeypatch.setenv("HOROFLEX_MAX_RANK", "zero")
    with pytest.raises(SpecError):
        max_ambient_rank()


# ---------------------------------------------------------------------------
# subcommands


def test_check_cusp_exit_two(cusp_file, capsys):
    code, report = run_json(capsys, ["check", cusp_file])
    assert code == 2
    assert report["schema"] == 1
    assert report["verdict"]["status"] == "NotCovered_NotNormal"
    assert report["verdict"]["saturation_gap"] == [1]
    assert report["witnesses"] == []


def test_check_veronese_exit_zero(veronese_file, capsys):
    code, report = run_json(capsys, ["check", veronese_file])
    assert code == 0
    assert report["verdict"]["status"] == "CertifiedFlexible"
    functionals = [w["functional"] for w in report["witnesses"]]
    assert functionals == [[1, 0], [0, 1], [2, -1], [0, 0]]


def test_check_text_format(veronese_file, capsys):
    code = main(["check", veronese_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "CertifiedFlexible" in out
    assert "functional" in out


def test_saturate_then_check(cusp_file, tmp_path, capsys):
    code, report = run_json(capsys, ["saturate", cusp_file])
    assert code == 0
    assert report["already_saturated"] is False
    assert report["saturated_datum"]["generators"] == [[1]]
    piped = tmp_path / "sat.json"
    piped.write_text(json.dumps(report["saturated_datum"]))
    code, report = run_json(capsys, ["check", str(piped)])
    assert code == 0
    assert report["verdict"]["status"] == "CertifiedFlexible"


def test_saturate_units_error(tmp_path, capsys):
    path = tmp_path / "units.json"
    path.write_text('{"torus_rank": 1, "dominant_rank": 0, "generators": [[1], [-1]]}')
    code = main(["saturate", str(path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_orbits(veronese_file, capsys):
    code, report = run_json(capsys, ["orbits", veronese_file])
    assert code == 0
    assert report["face_count"] == 4
    zero_face = report["faces"][0]
    assert zero_face["face_rays"] == []
    assert zero_face["off_face_generator_indices"] == [0, 1, 2]
    full_face = report["faces"][-1]
    assert full_face["off_face_generator_indices"] == []


def test_grading(veronese_file, capsys):
    code, report = run_json(capsys, ["grading", veronese_file, "--face", "2"])
    assert code == 0
    assert report["witness"]["functional"] == [2, -1]
    assert report["witness"]["generator_degrees"] == [2, 1, 0]


def test_grading_face_out_of_range(veronese_file, capsys):
    code = main(["grading", veronese_file, "--face", "9"])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


def test_ehm_subcommand(capsys):
    code, report = run_json(capsys, ["ehm", "--p", "1", "--q", "2", "--m", "1"])
    assert code == 0
    assert report["derived"] == {"k": 1, "a": 1, "b": 1, "height": "1/2"}
    assert report["all_ok"] is True
    assert report["checks"]["hypersurface_actions"]["sl2_preserved"] is True


def test_ehm_rejects_bad_slope(capsys):
    code = main(["ehm", "--p", "2", "--q", "2", "--m", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_examples_list(capsys):
    code, report = run_json(capsys, ["examples", "list"])
    assert code == 0
    assert report["examples"] == [
        "cusp",
        "danielewski",
        "ehm-1-2-1",
        "ehm-2-3-4",
        "plane",
        "veronese",
    ]


def test_examples_run_exit_codes(capsys):
    for name, expected in [
        ("cusp", 2),
        ("plane", 0),
        ("veronese", 0),
        ("danielewski", 0),
        ("ehm-1-2-1", 0),
        ("ehm-2-3-4", 0),
    ]:
        code, report = run_json(capsys, ["examples", "run", name])
        assert code == expected
        assert report["schema"] == 1
        assert report["name"] == name


def test_examples_run_looks_its_builder_up_at_call_time(capsys, monkeypatch):
    # a builder stored at import time would escape this rebinding (and a tracer's)
    import horoflex.registry as registry

    calls = []
    original = registry.build_danielewski_report

    def counted():
        calls.append(1)
        return original()

    monkeypatch.setattr(registry, "build_danielewski_report", counted)
    assert main(["examples", "run", "danielewski", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == [1]


def test_examples_run_unknown(capsys):
    code = main(["examples", "run", "nope"])
    assert code == 1
    assert "unknown example" in capsys.readouterr().err


def test_missing_file(capsys):
    code = main(["check", "/does/not/exist.json"])
    assert code == 1
    capsys.readouterr()


def test_rank_cap_enforced(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.json"
    gens = [[1, 0, 0, 0, 0, 0, 0]]
    path.write_text(json.dumps({"torus_rank": 7, "dominant_rank": 0, "generators": gens}))
    code = main(["check", str(path)])
    assert code == 1
    assert "HOROFLEX_MAX_RANK" in capsys.readouterr().err
    monkeypatch.setenv("HOROFLEX_MAX_RANK", "8")
    code = main(["check", str(path), "--format", "json"])
    assert code == 0
    capsys.readouterr()


def test_usage_error_exits_one(capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_json_output_has_sorted_keys(veronese_file, capsys):
    main(["check", veronese_file, "--format", "json"])
    out = capsys.readouterr().out
    keys = list(json.loads(out))
    assert keys == sorted(keys)
    assert "timing_ms" in out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# report re-verification


def test_verify_accepts_genuine_reports():
    spec = parse_spec(VERONESE_TEXT)
    verify_check_report(build_check_report(spec))
    verify_check_report(build_grading_report(spec, 1))


def test_verify_rejects_corrupted_functional():
    report = build_check_report(parse_spec(VERONESE_TEXT))
    bad = copy.deepcopy(report)
    bad["witnesses"][1]["functional"] = [5, 5]
    with pytest.raises(CorruptReportError):
        verify_check_report(bad)


def test_verify_rejects_corrupted_degree():
    report = build_check_report(parse_spec(VERONESE_TEXT))
    bad = copy.deepcopy(report)
    bad["witnesses"][0]["generator_degrees"][0] = -7
    with pytest.raises(CorruptReportError):
        verify_check_report(bad)


def test_verify_rejects_gap_on_certified():
    report = build_check_report(parse_spec(VERONESE_TEXT))
    bad = copy.deepcopy(report)
    bad["verdict"]["saturation_gap"] = [1, 1]
    with pytest.raises(CorruptReportError):
        verify_check_report(bad)


@pytest.mark.parametrize(
    "generators, gap, reason",
    [
        ([[4], [6]], [3], "outside the group"),
        ([[2], [3]], [-1], "outside the cone"),
    ],
)
def test_verify_rejects_fake_saturation_gap(generators, gap, reason):
    report = build_check_report(DatumSpec(1, 0, tuple(map(tuple, generators))))
    assert report["verdict"]["status"] == "NotCovered_NotNormal"
    verify_check_report(report)
    bad = copy.deepcopy(report)
    bad["verdict"]["saturation_gap"] = gap
    with pytest.raises(CorruptReportError, match=reason):
        verify_check_report(bad)


def test_verify_rejects_swapped_canonical_generators():
    # a consistent swap to the non-normal <2,3>: every degree is recomputed
    report = build_check_report(DatumSpec(1, 0, ((1,),)))
    verify_check_report(report)
    bad = copy.deepcopy(report)
    bad["canonical_generators"] = [[2], [3]]
    for w in bad["witnesses"]:
        w["generator_degrees"] = [w["functional"][0] * g for g in (2, 3)]
    with pytest.raises(CorruptReportError, match="canonical generators"):
        verify_check_report(bad)


@pytest.mark.parametrize(
    "face_rays, reason",
    [
        ([[2, 0]], r"face ray \[2, 0\] is not a ray of the cone"),
        ([], r"not positive on the ray \[1, 0\] off the face"),
    ],
)
def test_verify_rejects_wrong_face_rays(face_rays, reason):
    report = build_check_report(parse_spec(VERONESE_TEXT))
    assert report["witnesses"][1]["face_rays"] == [[1, 0]]
    bad = copy.deepcopy(report)
    bad["witnesses"][1]["face_rays"] = face_rays
    with pytest.raises(CorruptReportError, match=reason):
        verify_check_report(bad)


@pytest.mark.parametrize(
    "generators, status, gap, reason",
    [
        # the pointed quadrant, claimed to have units
        ([[1, 0], [0, 1]], "NotCovered_UnitsExist", None, "the cone has no line"),
        # a half-plane, whose units are hidden behind a gap in its cone and group
        ([[1, 0], [-1, 0], [0, 1]], "NotCovered_NotNormal", [1, 0], "the cone has a line"),
    ],
)
def test_verify_rejects_wrong_units_verdict(generators, status, gap, reason):
    spec = DatumSpec(2, 0, tuple(map(tuple, generators)))
    report = build_check_report(spec)
    verify_check_report(report)
    bad = copy.deepcopy(report)
    bad["verdict"] = {"status": status, "saturation_gap": gap}
    bad["witnesses"] = []
    with pytest.raises(CorruptReportError, match=reason):
        verify_check_report(bad)


@pytest.mark.parametrize(
    "verdict, reason",
    [
        ("x", "malformed verdict"),
        (None, "malformed verdict"),
        (3, "malformed verdict"),
        ({"status": ["CertifiedFlexible"]}, "unknown verdict status"),
    ],
)
def test_verify_rejects_malformed_verdict(verdict, reason):
    bad = build_check_report(parse_spec(VERONESE_TEXT))
    bad["verdict"] = verdict
    with pytest.raises(CorruptReportError, match=reason):
        verify_check_report(bad)


@pytest.mark.parametrize(
    "other",
    [
        DatumSpec(2, 0, ((1, 0), (0, 1))),
        # the same generators with the second coordinate dominant
        DatumSpec(1, 1, ((1, 0), (1, 1), (1, 2))),
    ],
)
def test_verify_rejects_datum_other_than_input(other):
    spec = parse_spec(VERONESE_TEXT)
    for report in (build_check_report(spec), build_grading_report(spec, 1)):
        verify_check_report(report, spec.datum)
        with pytest.raises(CorruptReportError, match="not the datum it was built from"):
            verify_check_report(report, other.datum)


QUAD_SPEC = DatumSpec(2, 1, ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)))


def _drop_three_witnesses(report):
    del report["witnesses"][3:6]


def _every_witness_face_zero(report):
    report["witnesses"] = [copy.deepcopy(report["witnesses"][0]) for _ in range(10)]


def _every_face_index_seven(report):
    for w in report["witnesses"]:
        w["face_index"] = 7


@pytest.mark.parametrize(
    "tamper, reason",
    [
        (_drop_three_witnesses, "do not list the cone's 10 faces in order"),
        (_every_witness_face_zero, "do not list the cone's 10 faces in order"),
        (_every_face_index_seven, "face rays are not those of face 7"),
    ],
)
def test_verify_rejects_incomplete_face_list(tamper, reason):
    # the cone over the unit square has 10 faces, each needing its witness
    report = build_check_report(QUAD_SPEC)
    assert [w["face_index"] for w in report["witnesses"]] == list(range(10))
    verify_check_report(report)
    bad = copy.deepcopy(report)
    tamper(bad)
    with pytest.raises(CorruptReportError, match=reason):
        verify_check_report(bad)


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("face_count", 99, "face_count is not the cone's 10 faces"),
        ("dimension", 2, "dimension is not that of face 3"),
        ("face_index", 99, "not one of the cone's 10 faces"),
    ],
)
def test_verify_rejects_wrong_grading_face(key, value, reason):
    report = build_grading_report(QUAD_SPEC, 3)
    assert report["witness"]["dimension"] == 1
    verify_check_report(report)
    bad = copy.deepcopy(report)
    (bad if key == "face_count" else bad["witness"])[key] = value
    with pytest.raises(CorruptReportError, match=reason):
        verify_check_report(bad)


@pytest.mark.parametrize(
    "path, value",
    [
        (("witnesses", 1, "face_rays"), [1]),
        (("witnesses", 1, "face_rays"), [[1, "0"]]),
        (("input", "generators"), [[1, 0], [1, None], [1, 2]]),
        (("input", "torus_rank"), "2"),
        (("input",), None),
    ],
)
def test_verify_rejects_malformed_entries(path, value):
    bad = build_check_report(parse_spec(VERONESE_TEXT))
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(CorruptReportError, match="malformed"):
        verify_check_report(bad)


def _schema_true(report):
    report["schema"] = True


def _canonical_generators_true(report):
    report["canonical_generators"] = [[True]]


def _dimension_true(report):
    assert report["witnesses"][1]["dimension"] == 1
    report["witnesses"][1]["dimension"] = True


def _face_count_true(report):
    assert report["face_count"] == 1
    report["face_count"] = True


@pytest.mark.parametrize(
    "build, tamper, reason",
    [
        (lambda: build_check_report(DatumSpec(1, 0, ((1,),))), _schema_true,
         "unknown schema version"),
        (lambda: build_check_report(DatumSpec(1, 0, ((1,),))), _canonical_generators_true,
         "canonical generators"),
        (lambda: build_check_report(DatumSpec(1, 0, ((1,),))), _dimension_true,
         "dimension is not that of face 1"),
        (lambda: build_grading_report(DatumSpec(1, 0, ((0,),)), 0), _face_count_true,
         "face_count is not the cone's 1 faces"),
    ],
    ids=["schema", "canonical_generators", "dimension", "face_count"],
)
def test_verify_rejects_json_booleans(build, tamper, reason):
    # JSON true loads as True, and True == 1 in Python
    report = build()
    verify_check_report(report)
    bad = json.loads(json.dumps(report))
    tamper(bad)
    with pytest.raises(CorruptReportError, match=reason):
        verify_check_report(bad)


def test_verify_rejects_check_report_without_verdict():
    # without its verdict, a check report is still audited as one
    report = build_check_report(parse_spec(VERONESE_TEXT))
    bad = copy.deepcopy(report)
    del bad["verdict"]
    bad["witnesses"][1]["functional"] = [5, 5]
    bad["canonical_generators"] = [[9, 9]]
    with pytest.raises(CorruptReportError, match="malformed verdict") as excinfo:
        verify_check_report(bad)
    assert "canonical generators" in str(excinfo.value)
    assert "functional does not vanish" in str(excinfo.value)


def test_verify_rejects_grading_report_without_witness():
    # without its witness, a grading report is audited as a check report
    report = build_grading_report(QUAD_SPEC, 3)
    bad = copy.deepcopy(report)
    del bad["witness"]
    bad["face_count"] = 99
    with pytest.raises(CorruptReportError, match="malformed verdict"):
        verify_check_report(bad)


@pytest.mark.parametrize("key", ["verdict", "witnesses"])
def test_verify_rejects_grading_report_with_check_fields(key):
    grading = build_grading_report(QUAD_SPEC, 3)
    check = build_check_report(QUAD_SPEC)
    bad = {**grading, key: check[key]}
    with pytest.raises(CorruptReportError, match=f"grading report carries '{key}'"):
        verify_check_report(bad)


def test_verify_rejects_gap_on_units_verdict():
    # only a NotCovered_NotNormal verdict carries a saturation gap
    report = build_check_report(DatumSpec(2, 0, ((1, 0), (-1, 0), (0, 1))))
    assert report["verdict"]["status"] == "NotCovered_UnitsExist"
    verify_check_report(report)
    bad = copy.deepcopy(report)
    bad["verdict"]["saturation_gap"] = [5, 7]
    with pytest.raises(CorruptReportError, match="NotCovered_UnitsExist verdict carries"):
        verify_check_report(bad)


@pytest.mark.parametrize("value", [None, "missing"])
def test_verify_rejects_non_certified_verdict_without_empty_witness_list(value):
    report = build_check_report(DatumSpec(1, 0, ((2,), (3,))))
    assert report["verdict"]["status"] == "NotCovered_NotNormal"
    verify_check_report(report)
    bad = copy.deepcopy(report)
    if value == "missing":
        del bad["witnesses"]
    else:
        bad["witnesses"] = value
    with pytest.raises(CorruptReportError, match="must list witnesses as"):
        verify_check_report(bad)


@pytest.mark.parametrize("report", [[], None, "x", 3])
def test_verify_rejects_non_object_report(report):
    with pytest.raises(CorruptReportError, match="must be a JSON object"):
        verify_check_report(report)


def _corrupt_witness_degrees(monkeypatch):
    """Make every grading witness the builders compute store degree 9."""
    import horoflex.reporting as reporting_module
    import horoflex.semigroup as semigroup_module

    original = semigroup_module.grading_for_face

    def corrupted(datum, face):
        witness = original(datum, face)
        return witness._replace(generator_weights=(9,) * len(witness.generator_weights))

    monkeypatch.setattr(semigroup_module, "grading_for_face", corrupted)
    monkeypatch.setattr(reporting_module, "grading_for_face", corrupted)


def test_corrupted_report_aborts_cli(veronese_file, capsys, monkeypatch):
    _corrupt_witness_degrees(monkeypatch)
    code = main(["check", veronese_file])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stored degree 9" in captured.err


def test_builders_audit_their_own_reports(capsys, monkeypatch):
    _corrupt_witness_degrees(monkeypatch)
    spec = parse_spec(VERONESE_TEXT)
    for build in (
        lambda: build_check_report(spec),
        lambda: build_grading_report(spec, 1),
        lambda: run_example("veronese"),
    ):
        with pytest.raises(CorruptReportError, match="stored degree 9"):
            build()
    assert main(["examples", "run", "veronese"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stored degree 9" in captured.err


def test_rank_five_cube_check_and_saturate(tmp_path, capsys):
    # the cone over the 4-cube: 16 generators, 82 faces, under the default rank cap
    gens = [[a, b, c, d, 1] for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    path = tmp_path / "cube5.json"
    path.write_text(json.dumps({"torus_rank": 4, "dominant_rank": 1, "generators": gens}))
    code, report = run_json(capsys, ["check", str(path)])
    assert code == 0
    assert report["verdict"]["status"] == "CertifiedFlexible"
    assert len(report["witnesses"]) == 82
    code, report = run_json(capsys, ["saturate", str(path)])
    assert code == 0
    assert report["already_saturated"] is True


# ---------------------------------------------------------------------------
# the JSON emitter


JSON_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é☃😀')),
    max_size=8,
)
JSON_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-07, 1e16, 1.5e300, float("inf"), float("nan")]),
    st.floats(),
    st.floats(-1e6, 1e6).map(lambda x: round(x, 3)),
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
    JSON_FLOATS,
    JSON_TEXT,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.dictionaries(JSON_TEXT, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"a": [True, 1, False, 0]})
@example([{}, [], (), ""])
@example({"timing_ms": round(12.34567, 3), "z": -0.0, "big": 2**70})
@example({"k\u00e9y\n\"q\"\\": {"nested": [[1, 2], [None]]}})
def test_json_emitter_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), {1, 2}, {"a": [Fraction(3)]}, {1: "int key"}, {"a": {None: 1}}, {"a": 1, 2: "b"}],
)
def test_json_emitter_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        _json(value)



def test_import_loads_neither_dataclasses_nor_inspect():
    """Records are NamedTuples, so starting any command loads no module that
    generates class code (``dataclasses``, and ``inspect`` behind it)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import horoflex.cli\n"
        "print(json.dumps([horoflex.cli.__file__, sorted({'dataclasses', 'inspect'} & set(sys.modules))]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", code, src], capture_output=True, text=True, check=True
    )
    path, loaded = json.loads(proc.stdout)
    assert os.path.dirname(os.path.dirname(path)) == src
    assert loaded == []

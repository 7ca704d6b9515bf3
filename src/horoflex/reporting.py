"""Datum files, certificate reports, and report re-verification.

The JSON surface lives here: parsing of datum files (strict, unknown and
duplicate fields rejected), builders for every report the command line
emits, and the re-verification pass that checks a report against its own
input.  The certificate builders (``check``, ``grading``) run that pass
before they return, so no caller receives an unaudited certificate.
"""

from __future__ import annotations

import json
import os
from typing import Any, NamedTuple, Optional

from .danielewski import (
    MAKAR_LIMANOV_NOTE,
    action_substitution,
    composition_law,
    preserves_surface,
    surface_equation,
    unit_specialization_exact,
)
from .ehm import (
    build_ehm,
    check_special_point,
    check_weight_identity,
    enumerate_invariant_monomials,
    verify_actions_on_hypersurface,
)
from .lattice import RationalCone, as_vector, dot, is_pointed
from .semigroup import (
    FlexStatus,
    GradingWitness,
    HorosphericalDatum,
    flexibility_verdict,
    grading_for_face,
    orbit_faces,
    saturate,
    units_exist,
)

SCHEMA_VERSION = 1
TOOL_NAME = "horoflex"
TOOL_VERSION = "0.1.0"

RANK_CAP_ENV = "HOROFLEX_MAX_RANK"
DEFAULT_RANK_CAP = 6

_SPEC_FIELDS = ("torus_rank", "dominant_rank", "generators", "label")


class SpecError(ValueError):
    """Rejected input: malformed JSON, bad fields, or rank over the cap."""


class CorruptReportError(RuntimeError):
    """A report failed re-verification against its own stated invariants."""


# ---------------------------------------------------------------------------
# datum files


class _SpecFields(NamedTuple):
    torus_rank: int
    dominant_rank: int
    generators: tuple[tuple[int, ...], ...]
    label: Optional[str] = None


class DatumSpec(_SpecFields):
    """A datum file as written: generator order and label preserved.

    Construction validates the ranks and generators by building their
    canonical (sorted, deduplicated) HorosphericalDatum, and keeps it as
    ``datum``: every report made from one spec reads that datum's cone and
    face lattice, computed on first use.  Invalid data raises ValueError.
    ``datum`` is not a field, so it takes no part in equality or ``repr``;
    keeping the original order here makes serialization lossless.
    """

    datum: HorosphericalDatum

    def __new__(cls, torus_rank: int, dominant_rank: int,
                generators: tuple[tuple[int, ...], ...], label: Optional[str] = None):
        self = super().__new__(cls, torus_rank, dominant_rank, generators, label)
        vars(self)["datum"] = HorosphericalDatum(torus_rank, dominant_rank, generators)
        return self

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate it too
        return cls(*iterable)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("DatumSpec is immutable")

    def to_payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "torus_rank": self.torus_rank,
            "dominant_rank": self.dominant_rank,
            "generators": [list(g) for g in self.generators],
        }
        if self.label is not None:
            out["label"] = self.label
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)


def _require_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise SpecError(f"duplicate field {key!r}")
        data[key] = value
    return data


def parse_spec(text: str) -> DatumSpec:
    """Strict parse of a datum file; unknown and repeated fields are rejected.

    JSON syntax errors carry line and column; semantic errors name the
    offending field or generator index.
    """
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return _spec_from_payload(data)


def _spec_from_payload(data: Any) -> DatumSpec:
    """Validate a decoded datum object: a datum file or a report's ``input``."""
    if not isinstance(data, dict):
        raise SpecError("datum file must contain a JSON object")
    unknown = sorted(set(data) - set(_SPEC_FIELDS))
    if unknown:
        raise SpecError("unknown fields: " + ", ".join(map(repr, unknown)))
    missing = [f for f in ("torus_rank", "dominant_rank", "generators") if f not in data]
    if missing:
        raise SpecError("missing fields: " + ", ".join(missing))
    torus_rank = _require_int(data["torus_rank"], "torus_rank")
    dominant_rank = _require_int(data["dominant_rank"], "dominant_rank")
    raw = data["generators"]
    if not isinstance(raw, list):
        raise SpecError("generators must be a list of integer vectors")
    gens = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise SpecError(f"generator {i} must be a list of integers")
        gens.append(tuple(_require_int(x, f"generator {i} entry") for x in row))
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise SpecError("label must be a string")
    try:
        return DatumSpec(torus_rank, dominant_rank, tuple(gens), label)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def max_ambient_rank() -> int:
    raw = os.environ.get(RANK_CAP_ENV)
    if raw is None:
        return DEFAULT_RANK_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SpecError(f"{RANK_CAP_ENV} must be a positive integer, got {raw!r}")
    if cap < 1:
        raise SpecError(f"{RANK_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def enforce_rank_cap(spec: DatumSpec) -> None:
    cap = max_ambient_rank()
    rank = spec.torus_rank + spec.dominant_rank
    if rank > cap:
        raise SpecError(
            f"ambient rank {rank} exceeds {RANK_CAP_ENV}={cap}; "
            "raise the cap to allow larger enumerations"
        )


# ---------------------------------------------------------------------------
# report builders


def _envelope(command: str, payload: dict[str, Any]) -> dict[str, Any]:
    report: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": command,
    }
    report.update(payload)
    return report


def _witness_payload(index: int, witness: GradingWitness, cone: RationalCone) -> dict[str, Any]:
    return {
        "face_index": index,
        "dimension": witness.face.dim,
        "face_rays": [list(cone.rays[j]) for j in witness.face.span_rays],
        "functional": list(witness.functional),
        "generator_degrees": list(witness.generator_weights),
    }


def build_check_report(spec: DatumSpec) -> dict[str, Any]:
    """The verdict report of spec, audited against ``spec.datum``.

    Raises CorruptReportError if the audit rejects it.
    """
    datum = spec.datum
    verdict = flexibility_verdict(datum)
    gap = None if verdict.saturation_gap is None else list(verdict.saturation_gap)
    report = _envelope(
        "check",
        {
            "input": spec.to_payload(),
            "canonical_generators": [list(g) for g in datum.generators],
            "verdict": {"status": verdict.status.value, "saturation_gap": gap},
            "witnesses": [
                _witness_payload(i, w, datum.cone)
                for i, w in enumerate(verdict.witnesses)
            ],
        },
    )
    verify_check_report(report, datum)
    return report


def build_saturate_report(spec: DatumSpec) -> dict[str, Any]:
    datum = spec.datum
    if units_exist(datum):
        raise SpecError(
            "the weight cone contains a line; saturation is undefined here"
        )
    closed = saturate(datum)
    return _envelope(
        "saturate",
        {
            "input": spec.to_payload(),
            "already_saturated": closed.generators == datum.generators,
            "saturated_datum": {
                **spec.to_payload(),
                "generators": [list(g) for g in closed.generators],
            },
        },
    )


def build_orbits_report(spec: DatumSpec) -> dict[str, Any]:
    datum = spec.datum
    faces = orbit_faces(datum)
    table = []
    for i, f in enumerate(faces):
        table.append(
            {
                "face_index": i,
                "dimension": f.face.dim,
                "face_rays": [list(datum.cone.rays[j]) for j in f.face.span_rays],
                "off_face_generator_indices": list(f.off_face_generators),
                "off_face_generators": [
                    list(datum.generators[j]) for j in f.off_face_generators
                ],
            }
        )
    return _envelope(
        "orbits",
        {
            "input": spec.to_payload(),
            "canonical_generators": [list(g) for g in datum.generators],
            "face_count": len(faces),
            "faces": table,
        },
    )


def build_grading_report(spec: DatumSpec, face_index: int) -> dict[str, Any]:
    """The witness report of one face, audited against ``spec.datum``.

    Raises CorruptReportError if the audit rejects it.
    """
    datum = spec.datum
    faces = datum.faces
    if not 0 <= face_index < len(faces):
        raise SpecError(
            f"face index {face_index} out of range 0..{len(faces) - 1}"
        )
    witness = grading_for_face(datum, faces[face_index])
    report = _envelope(
        "grading",
        {
            "input": spec.to_payload(),
            "canonical_generators": [list(g) for g in datum.generators],
            "face_count": len(faces),
            "witness": _witness_payload(face_index, witness, datum.cone),
        },
    )
    verify_check_report(report, datum)
    return report


def build_ehm_report(p: int, q: int, m: int, degree_bound: int = 8) -> dict[str, Any]:
    datum = build_ehm(p, q, m)
    monomials = enumerate_invariant_monomials(datum, degree_bound)
    identity = check_weight_identity(datum, monomials)
    point = check_special_point(datum, monomials)
    actions = verify_actions_on_hypersurface(datum)
    all_ok = identity.ok and point.all_ok and actions.all_ok
    quotient = actions.sl2_check.modulus_quotient
    return _envelope(
        "ehm",
        {
            "parameters": {"p": p, "q": q, "m": m, "degree_bound": degree_bound},
            "derived": {
                "k": datum.k,
                "a": datum.a,
                "b": datum.b,
                "height": f"{p}/{q}",
            },
            "hypersurface": str(datum.hypersurface),
            "grading_weights": list(datum.grading_action.weights),
            "twisted_weights": list(datum.twisted_action.weights),
            "cyclic_order": datum.twisted_action.cyclic_order,
            "cyclic_weights": list(datum.twisted_action.cyclic_weights),
            "invariant_monomials": [
                {"exponents": list(mon.exponents), "grading_weight": mon.grading_weight}
                for mon in monomials
            ],
            "checks": {
                "weight_identity": {
                    "ok": identity.ok,
                    "monomials_checked": identity.checked,
                    "failure": None if identity.failure is None else list(identity.failure),
                },
                "special_point": {
                    "ok": point.all_ok,
                    "on_hypersurface": point.on_hypersurface,
                    "monomial_exponents": list(point.monomial_exponents),
                    "monomial_invariant": point.monomial_invariant,
                    "value_at_point": str(point.value_at_point),
                    "zero_weight_avoids_y": point.zero_weight_avoids_y,
                },
                "hypersurface_actions": {
                    "ok": actions.all_ok,
                    "sl2_preserved": actions.sl2_check.preserved,
                    "determinant_unit": str(actions.sl2_check.unit),
                    "determinant_quotient": None if quotient is None else str(quotient),
                    "grading_invariant": actions.grading_invariant,
                    "twisted_weight": None
                    if actions.twisted_weight is None
                    else list(actions.twisted_weight),
                    "twisted_weight_expected": [actions.twisted_weight_expected, 0],
                },
            },
            "all_ok": all_ok,
        },
    )


def build_danielewski_report() -> dict[str, Any]:
    surface = preserves_surface()
    specialization = unit_specialization_exact()
    law = composition_law()
    action = action_substitution()
    all_ok = surface.preserved and specialization and law.ok
    return _envelope(
        "examples run danielewski",
        {
            "name": "danielewski",
            "surface": str(surface_equation()),
            "action": {v: str(img) for v, img in sorted(action.items())},
            "checks": {
                "preserves_surface": {
                    "ok": surface.preserved,
                    "unit": str(surface.unit),
                },
                "unit_specialization": {"ok": specialization},
                "composition_law": {
                    "ok": law.ok,
                    "label": "derived",
                    "law": "(t, s) after (t', s') = (t*t', s' + s*t'^-2)",
                },
            },
            "makar_limanov": {"statement": MAKAR_LIMANOV_NOTE, "label": "citation"},
            "all_ok": all_ok,
        },
    )


# ---------------------------------------------------------------------------
# re-verification


def _exact(value: Any, expected: Any) -> bool:
    """``value == expected`` with lists compared entrywise and types kept apart.

    JSON ``true`` loads as a Python ``True``, which equals 1; an audited
    integer field must not accept it.
    """
    if isinstance(value, list) and isinstance(expected, list):
        return len(value) == len(expected) and all(map(_exact, value, expected))
    return type(value) is type(expected) and value == expected


def _verify_witnesses(datum: HorosphericalDatum, witnesses: Any) -> list[str]:
    """Problems with grading witnesses, checked against the cone of the input.

    Each witness must name a face of the cone's face lattice by
    ``face_index`` and list that face's rays R and dimension, carry a
    functional that is 0 on R and > 0 on every other ray of the cone, and
    store as degrees the functional's values on the generators, all >= 0.
    The functional is then >= 0 on the cone and R is the ray set of the face
    it cuts out.  This implies that the degree is 0 on the generators in
    cone(R) and >= 1 on the others: a generator g lies in the cone, so
    g = sum c_r r over its rays with every c_r >= 0, and its degree is the
    sum of c_r times the functional over the rays r outside R.  If g is off
    cone(R), some ray outside R has c_r > 0, so that integer degree is
    positive.
    """
    if not isinstance(witnesses, list):
        return ["witnesses must be a list"]
    rank = datum.ambient_rank
    gens = datum.generators
    rays = datum.cone.rays
    faces = datum.faces if witnesses else ()
    problems = []
    for entry in witnesses:
        idx = entry.get("face_index") if isinstance(entry, dict) else None
        try:
            functional = as_vector(entry["functional"], rank)
            face_rays = [as_vector(r, rank) for r in entry["face_rays"]]
            degrees = as_vector(entry["generator_degrees"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"witness {idx}: malformed entry: {exc}")
            continue
        if type(idx) is not int or not 0 <= idx < len(faces):
            problems.append(f"witness {idx}: not one of the cone's {len(faces)} faces")
        else:
            if face_rays != [rays[j] for j in faces[idx].span_rays]:
                problems.append(f"witness {idx}: face rays are not those of face {idx}")
            if not _exact(entry.get("dimension"), faces[idx].dim):
                problems.append(f"witness {idx}: dimension is not that of face {idx}")
        face = set(face_rays)
        for r in sorted(face.difference(rays)):
            problems.append(f"witness {idx}: face ray {list(r)} is not a ray of the cone")
        for r in rays:
            value = dot(functional, r)
            if r in face and value != 0:
                problems.append(f"witness {idx}: functional does not vanish on {list(r)}")
            if r not in face and value <= 0:
                problems.append(
                    f"witness {idx}: functional is not positive on the ray {list(r)} off the face"
                )
        if len(degrees) != len(gens):
            problems.append(f"witness {idx}: degree table length mismatch")
            continue
        for g, d in zip(gens, degrees):
            actual = dot(functional, g)
            if actual != d:
                problems.append(
                    f"witness {idx}: stored degree {d} on {list(g)}, recomputed {actual}"
                )
            elif d < 0:
                problems.append(f"witness {idx}: negative degree on {list(g)}")
    return problems


def _verify_gap(datum: HorosphericalDatum, gap: Any) -> list[str]:
    """Problems with a reported saturation gap, checked against the input.

    A gap must lie in the cone and in the group of the input generators.
    Whether it also lies outside their semigroup is not checked here.
    """
    try:
        vec = as_vector(gap, datum.ambient_rank)
    except (TypeError, ValueError):
        return ["non-normal verdict without a saturation gap of the input rank"]
    problems = []
    if not datum.cone.contains(vec):
        problems.append(f"saturation gap {gap} lies outside the cone")
    if not datum.weight_lattice.contains(vec):
        problems.append(f"saturation gap {gap} lies outside the group")
    return problems


def verify_check_report(
    report: dict[str, Any], datum: Optional[HorosphericalDatum] = None
) -> None:
    """Re-derive every certificate invariant from the report's own input.

    A report must be an object, and its input is parsed again; a malformed
    one stops the audit.  The certificate builders pass the ``spec.datum``
    the report was built from: the parsed input must then have its ranks and
    generators, and the audit reads that datum's cone and face lattice
    instead of building them again.  Without it (a report from elsewhere)
    they are built once from the input.  The canonical generators must be
    the sorted, deduplicated input generators.  The shape is then decided
    once.  A report with a ``witness`` is a ``grading`` report: its
    ``face_count`` must be the number of faces, and it has no ``verdict`` or
    ``witnesses``.  Any other is a ``check`` report: its verdict is an object
    whose status is ``NotCovered_UnitsExist`` exactly when the cone has a
    line, only ``NotCovered_NotNormal`` carries a gap, and only
    ``CertifiedFlexible`` lists witnesses, face i at position i; any other
    lists ``[]``.  The gap and every witness are checked against the cone.
    Raises CorruptReportError listing every inconsistency; the ``check`` and
    ``grading`` builders call it on every report they make.
    """
    if not isinstance(report, dict):
        raise CorruptReportError(f"report must be a JSON object, not {type(report).__name__}")
    problems = []
    if not _exact(report.get("schema"), SCHEMA_VERSION):
        problems.append("unknown schema version")
    try:
        parsed = _spec_from_payload(report.get("input")).datum
    except SpecError as exc:
        problems.append(f"report input is malformed: {exc}")
        raise CorruptReportError("; ".join(problems)) from None
    if datum is None:
        datum = parsed
    elif datum != parsed:  # field equality: ranks and sorted generators
        problems.append("report input is not the datum it was built from")
        datum = parsed
    if not _exact(report.get("canonical_generators"), [list(g) for g in datum.generators]):
        problems.append("canonical generators are not the sorted input generators")
    if "witness" in report:
        witnesses = [report["witness"]]
        if not _exact(report.get("face_count"), len(datum.faces)):
            problems.append(f"face_count is not the cone's {len(datum.faces)} faces")
        for key in ("verdict", "witnesses"):
            if key in report:
                problems.append(f"grading report carries {key!r}")
    else:
        witnesses = report.get("witnesses")
        verdict = report.get("verdict")
        if not isinstance(verdict, dict):
            problems.append(f"malformed verdict {verdict!r}")
            verdict = {}
        status = verdict.get("status")
        gap = verdict.get("saturation_gap")
        pointed = is_pointed(datum.cone)
        if status not in [s.value for s in FlexStatus]:  # a list: a tampered status may not hash
            problems.append(f"unknown verdict status {status!r}")
        elif (status == FlexStatus.NOT_COVERED_UNITS_EXIST.value) == pointed:
            problems.append(f"status {status} but the cone {'has no' if pointed else 'has a'} line")
        if status == FlexStatus.NOT_COVERED_NOT_NORMAL.value:
            problems.extend(_verify_gap(datum, gap))
        elif gap is not None:
            problems.append(f"{status} verdict carries a saturation gap")
        if status == FlexStatus.CERTIFIED_FLEXIBLE.value:
            listed = witnesses if isinstance(witnesses, list) else []
            order = [w.get("face_index") if isinstance(w, dict) else None for w in listed]
            if order != list(range(len(datum.faces))):
                problems.append(
                    f"witnesses do not list the cone's {len(datum.faces)} faces in order"
                )
        elif witnesses != []:
            problems.append(f"{status} verdict must list witnesses as []")
    problems.extend(_verify_witnesses(datum, witnesses))
    if problems:
        raise CorruptReportError("; ".join(problems))


# ---------------------------------------------------------------------------
# text rendering


def _render_witness(entry: dict[str, Any]) -> str:
    rays = " ".join(str(tuple(r)) for r in entry["face_rays"]) or "(origin)"
    return (
        f"  face {entry['face_index']} (dim {entry['dimension']}): rays {rays}\n"
        f"    functional {tuple(entry['functional'])}"
        f"  degrees {tuple(entry['generator_degrees'])}"
    )


def render_text(report: dict[str, Any]) -> str:
    """Human-readable view of any report; same data as the JSON form."""
    lines = [f"{report['tool']} {report['command']} (version {report['version']})"]
    if "input" in report:
        spec = report["input"]
        label = f" label={spec['label']!r}" if "label" in spec else ""
        lines.append(
            f"input: torus_rank={spec['torus_rank']} dominant_rank={spec['dominant_rank']}"
            f" generators={spec['generators']}{label}"
        )
    if "verdict" in report:
        verdict = report["verdict"]
        lines.append(f"verdict: {verdict['status']}")
        if verdict.get("saturation_gap") is not None:
            lines.append(f"saturation gap: {tuple(verdict['saturation_gap'])}")
        if report.get("witnesses"):
            lines.append("witnesses:")
            lines.extend(_render_witness(w) for w in report["witnesses"])
    if "saturated_datum" in report:
        lines.append(f"already saturated: {report['already_saturated']}")
        lines.append(f"saturated generators: {report['saturated_datum']['generators']}")
    if "faces" in report:
        lines.append(f"faces: {report['face_count']}")
        for f in report["faces"]:
            rays = " ".join(str(tuple(r)) for r in f["face_rays"]) or "(origin)"
            lines.append(
                f"  face {f['face_index']} (dim {f['dimension']}): rays {rays}"
                f"  off-face generators {f['off_face_generators']}"
            )
    if "witness" in report:
        lines.append(f"faces: {report['face_count']}")
        lines.append(_render_witness(report["witness"]))
    if "parameters" in report:
        par = report["parameters"]
        der = report["derived"]
        lines.append(
            f"parameters: p={par['p']} q={par['q']} m={par['m']}"
            f" degree_bound={par['degree_bound']}"
        )
        lines.append(
            f"derived: k={der['k']} a={der['a']} b={der['b']} height={der['height']}"
        )
        lines.append(f"hypersurface: {report['hypersurface']}")
        checks = report["checks"]
        for name in ("weight_identity", "special_point", "hypersurface_actions"):
            lines.append(f"check {name}: {'ok' if checks[name]['ok'] else 'FAILED'}")
        lines.append(f"all checks: {'ok' if report['all_ok'] else 'FAILED'}")
    if report.get("name") == "danielewski":
        lines.append(f"surface: {report['surface']}")
        for var, img in report["action"].items():
            lines.append(f"  {var} -> {img}")
        for name, entry in report["checks"].items():
            tag = f" [{entry['label']}]" if "label" in entry else ""
            lines.append(f"check {name}: {'ok' if entry['ok'] else 'FAILED'}{tag}")
        lines.append(f"note [citation]: {report['makar_limanov']['statement']}")
        lines.append(f"all checks: {'ok' if report['all_ok'] else 'FAILED'}")
    if "examples" in report:
        lines.append("examples:")
        lines.extend(f"  {name}" for name in report["examples"])
    return "\n".join(lines)

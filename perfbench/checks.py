"""Output checks, run on each op's record after the timed loop.

Every check returns a list of problems (empty when the output is right).
Cone, lattice and semigroup questions go through ``oracles``, never through
horoflex's own lattice machinery.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Optional, Sequence

from perfbench.oracles import LatticeOracle, SemigroupOracle, cone_inequalities, dot, in_cone, in_span

CERTIFIED = "CertifiedFlexible"
NOT_NORMAL = "NotCovered_NotNormal"
UNITS = "NotCovered_UnitsExist"


def parse_report(record: dict[str, Any]) -> tuple[Optional[dict[str, Any]], list[str]]:
    try:
        report = json.loads(record["out"])
    except ValueError:
        return None, [f"{record['op']}: output is not JSON: {record['err'].strip()[:200]!r}"]
    if not isinstance(report, dict):
        return None, [f"{record['op']}: output is not a JSON object"]
    return report, []


def _gens(spec: dict[str, Any]) -> list[tuple[int, ...]]:
    return sorted({tuple(g) for g in spec["generators"]})


def _level(n: int) -> tuple[int, ...]:
    # every pointed certify datum has last coordinate >= 1 on each generator
    return (0,) * (n - 1) + (1,)


def witness_problems(gens: Sequence[tuple[int, ...]], witness: dict[str, Any]) -> list[str]:
    """A witness functional is >= 0 on every generator and 0 exactly on the
    generators of its face, which are those in the span of the face rays."""
    idx = witness.get("face_index")
    functional = witness["functional"]
    rays = witness["face_rays"]
    degrees = witness["generator_degrees"]
    problems = []
    if len(degrees) != len(gens):
        return [f"witness {idx}: {len(degrees)} degrees for {len(gens)} generators"]
    for g, d in zip(gens, degrees):
        value = dot(functional, g)
        if value != d:
            problems.append(f"witness {idx}: degree {d} on {list(g)}, functional gives {value}")
        if value < 0:
            problems.append(f"witness {idx}: negative on {list(g)}")
        on_face = in_span(rays, g)
        if on_face != (value == 0):
            where = "on" if on_face else "off"
            problems.append(f"witness {idx}: value {value} on {where}-face generator {list(g)}")
    return problems


def gap_problems(gens: Sequence[tuple[int, ...]], gap: Sequence[int]) -> list[str]:
    """A gap lies in the group and the cone but not in the semigroup."""
    n = len(gens[0])
    gap = tuple(gap)
    problems = []
    if len(gap) != n:
        return [f"gap {list(gap)} has the wrong rank"]
    if not LatticeOracle(gens, n).contains(gap):
        problems.append(f"gap {list(gap)} is not in the group")
    if not in_cone(cone_inequalities(gens, n), gap):
        problems.append(f"gap {list(gap)} is not in the cone")
    if SemigroupOracle(gens, _level(n)).member(gap):
        problems.append(f"gap {list(gap)} is in the semigroup")
    return problems


def check_report_problems(report: dict[str, Any], spec: dict[str, Any], line: bool) -> list[str]:
    gens = _gens(spec)
    if [tuple(g) for g in report["canonical_generators"]] != gens:
        return ["canonical generators differ from the sorted input"]
    status = report["verdict"]["status"]
    gap = report["verdict"]["saturation_gap"]
    witnesses = report["witnesses"]
    if line != (status == UNITS):
        return [f"verdict {status} but the cone {'contains' if line else 'has no'} line"]
    if status == UNITS:
        return [] if gap is None and not witnesses else ["units verdict with a gap or witnesses"]
    if status == NOT_NORMAL:
        if witnesses or gap is None:
            return ["non-normal verdict without a gap or with witnesses"]
        return gap_problems(gens, gap)
    if status != CERTIFIED or gap is not None or not witnesses:
        return [f"malformed verdict {status}"]
    if [w["face_index"] for w in witnesses] != list(range(len(witnesses))):
        return ["witness face indices are not 0..n-1"]
    problems = []
    for w in witnesses:
        problems.extend(witness_problems(gens, w))
    return problems


def saturate_problems(report: dict[str, Any], spec: dict[str, Any]) -> list[str]:
    """The closure lies in the cone and group of the input, and contains the
    input semigroup, so it spans the same cone and group."""
    gens = _gens(spec)
    closed = _gens(report["saturated_datum"])
    n = len(gens[0])
    if report["already_saturated"]:
        return ["a non-normal datum is reported as already saturated"]
    normals = cone_inequalities(gens, n)
    group = LatticeOracle(gens, n)
    problems = [f"closure generator {list(h)} is outside the cone" for h in closed
                if not in_cone(normals, h)]
    problems += [f"closure generator {list(h)} is outside the group" for h in closed
                 if not group.contains(h)]
    closure = SemigroupOracle(closed, _level(n))
    problems += [f"input generator {list(g)} is not in the closure" for g in gens
                 if not closure.member(g)]
    return problems


def orbits_problems(report: dict[str, Any], spec: dict[str, Any]) -> list[str]:
    gens = _gens(spec)
    faces = report["faces"]
    if report["face_count"] != len(faces) or not faces:
        return ["face count does not match the face table"]
    problems = []
    seen = set()
    for i, face in enumerate(faces):
        if face["face_index"] != i:
            problems.append(f"face {i} is listed as {face['face_index']}")
        rays = face["face_rays"]
        key = tuple(sorted(tuple(r) for r in rays))
        if key in seen:
            problems.append(f"face {i} repeats an earlier face")
        seen.add(key)
        off = [j for j, g in enumerate(gens) if not in_span(rays, g)]
        if face["off_face_generator_indices"] != off:
            problems.append(f"face {i}: off-face generators {face['off_face_generator_indices']} != {off}")
    return problems


def grading_problems(report: dict[str, Any], spec: dict[str, Any], face: int,
                     orbits: Optional[dict[str, Any]]) -> list[str]:
    gens = _gens(spec)
    witness = report["witness"]
    if witness["face_index"] != face:
        return [f"grading for face {face} reports face {witness['face_index']}"]
    if orbits is not None:
        if report["face_count"] != orbits["face_count"]:
            return ["grading and orbits disagree on the face count"]
        if witness["face_rays"] != orbits["faces"][face]["face_rays"]:
            return [f"grading and orbits disagree on the rays of face {face}"]
    return witness_problems(gens, witness)


def ehm_problems(report: dict[str, Any], p: int, q: int, m: int, bound: int) -> list[str]:
    """all_ok, plus each listed monomial recomputed from its exponents."""
    if report["parameters"] != {"p": p, "q": q, "m": m, "degree_bound": bound}:
        return ["ehm parameters are not echoed"]
    problems = [] if report["all_ok"] else ["ehm checks report a failure"]
    k, a = report["derived"]["k"], report["derived"]["a"]
    for mono in report["invariant_monomials"]:
        s, u, v, w, z = mono["exponents"]
        if s + u + v + w + z > bound or k * z != p * (s + u) - q * (v + w):
            problems.append(f"monomial {mono['exponents']} is not twist-homogeneous of degree <= {bound}")
        elif (v + w - s - u) % a:
            problems.append(f"monomial {mono['exponents']} fails the cyclic condition")
        elif mono["grading_weight"] != p * s + q * u - q * v - p * w or mono["grading_weight"] < 0:
            problems.append(f"monomial {mono['exponents']} has the wrong grading weight")
    return problems


def danielewski_problems(report: dict[str, Any]) -> list[str]:
    bad = [name for name, entry in report["checks"].items() if not entry["ok"]]
    if bad or not report["all_ok"]:
        return ["danielewski checks fail: " + ", ".join(bad)]
    return []


def evaluate(poly: Any, point: dict[str, int]) -> Fraction:
    """Value of a horoflex Polynomial at an integer point, from its term table."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = Fraction(coeff)
        for var, e in zip(poly.variables, exps):
            term *= point[var] ** e
        total += term
    return total


def flow_problems(outcome: dict[str, Any], point: dict[str, int]) -> list[str]:
    """exp(sD) then exp(tD) equals exp((s+t)D), exactly and at a sample point."""
    if not outcome["nilpotent"]:
        return ["triangular derivation not certified locally nilpotent"]
    if not outcome["law"]:
        return ["group law fails as a polynomial identity"]
    composed, expected = outcome["composed"], outcome["expected"]
    bad = [v for v in expected if evaluate(composed[v], point) != evaluate(expected[v], point)]
    return [f"group law fails at a sample point in {bad}"] if bad else []


def canonical(record: dict[str, Any]) -> str:
    """The op's output with timing removed, for the digest."""
    if record["op"] == "flow":
        outcome = record["outcome"]
        composed = outcome["composed"] if isinstance(outcome, dict) else {}
        return json.dumps({v: str(p) for v, p in sorted(composed.items())}, sort_keys=True)
    try:
        report = json.loads(record["out"])
    except ValueError:
        return record["out"]
    if isinstance(report, dict):
        report.pop("timing_ms", None)
    return json.dumps(report, sort_keys=True)


class Digest:
    """sha256 over the ops' outputs with timing removed, in op order."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, record: dict[str, Any]) -> None:
        self._hash.update(f"{record['op']} {record['rc']}\n".encode())
        self._hash.update(canonical(record).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

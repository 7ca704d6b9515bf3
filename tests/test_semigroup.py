import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import horoflex.lattice as lattice_module
import horoflex.semigroup as semigroup_module
from horoflex.cli import main
from horoflex.lattice import (
    NonPointedError,
    dot,
    dual_cone,
    hilbert_basis,
    is_pointed,
    primitive,
    vadd,
    vscale,
)
from horoflex.reporting import DatumSpec, build_check_report, verify_check_report
from horoflex.semigroup import (
    FlexStatus,
    HorosphericalDatum,
    flexibility_verdict,
    grading_for_face,
    is_saturated,
    orbit_faces,
    saturate,
    semigroup_member,
    units_exist,
)
from horoflex.lattice import face_lattice

from oracles import (
    SaturationOracle,
    SemigroupOracle,
    cone_inequalities,
    grading_by_dots,
    in_cone,
    off_face_by_dots,
)

CUSP = HorosphericalDatum(1, 0, [[2], [3]])
PLANE = HorosphericalDatum(2, 0, [[1, 0], [0, 1]])
VERONESE = HorosphericalDatum(2, 0, [[1, 0], [1, 1], [1, 2]])
MIXED = HorosphericalDatum(2, 0, [[1, 0], [1, 2], [2, 1]])


def spec_of(datum):
    return DatumSpec(datum.torus_rank, datum.dominant_rank, datum.generators)


def random_datum(rng, saturated=False):
    """Pointed, unit-free datum with rank <= 3 and coordinates <= 4."""
    while True:
        rank = rng.randint(1, 3)
        dominant = rng.choice([0, 0, 1]) if rank > 1 else 0
        torus = rank - dominant
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(-4, 4) for _ in range(torus)]
            g += [rng.randint(0, 4) for _ in range(dominant)]
            if any(g):
                gens.append(g)
        if not gens:
            continue
        datum = HorosphericalDatum(torus, dominant, gens)
        if units_exist(datum):
            continue
        return saturate(datum) if saturated else datum


# ---------------------------------------------------------------------------
# datum validation


def test_datum_validation_errors():
    with pytest.raises(ValueError, match="dominance violation"):
        HorosphericalDatum(1, 1, [[1, -1]])
    with pytest.raises(ValueError, match="at least one generator"):
        HorosphericalDatum(2, 0, [])
    with pytest.raises(ValueError, match="ambient rank"):
        HorosphericalDatum(0, 0, [])
    with pytest.raises(ValueError):
        HorosphericalDatum(-1, 1, [[1]])


def test_datum_canonicalizes_generators():
    d = HorosphericalDatum(2, 0, [[1, 2], [1, 0], [1, 2]])
    assert d.generators == ((1, 0), (1, 2))
    assert d.ambient_rank == 2


def test_torus_coordinates_may_be_negative():
    d = HorosphericalDatum(1, 1, [[-3, 2], [1, 0]])
    assert d.generators == ((-3, 2), (1, 0))


# ---------------------------------------------------------------------------
# membership


def test_semigroup_member_numerical():
    gens = [[2], [3]]
    expected = {0: True, 1: False, 2: True, 3: True, 4: True, 5: True, 7: True}
    for n, want in expected.items():
        assert semigroup_member(gens, [n]) == want


def test_semigroup_member_rank_two():
    gens = [[1, 0], [1, 2]]
    assert semigroup_member(gens, [2, 2])
    assert not semigroup_member(gens, [1, 1])
    assert not semigroup_member(gens, [0, 2])
    assert semigroup_member(gens, [0, 0])


# ---------------------------------------------------------------------------
# saturation


def test_cusp_not_saturated():
    check = is_saturated(CUSP)
    assert not check.saturated
    assert check.gap == (1,)


def test_plane_and_veronese_saturated():
    assert is_saturated(PLANE).saturated
    assert is_saturated(VERONESE).saturated
    assert is_saturated(PLANE).gap is None


def test_two_generator_slice_is_saturated():
    # the middle lattice point (1,1) is not in the group generated here
    d = HorosphericalDatum(2, 0, [[1, 0], [1, 2]])
    assert is_saturated(d).saturated


def test_mixed_datum_gap_frozen():
    check = is_saturated(MIXED)
    assert not check.saturated
    assert check.gap == (1, 1)
    assert SaturationOracle(list(MIXED.generators), 2).confirms_gap((1, 1))


def test_saturate_cusp():
    closed = saturate(CUSP)
    assert closed.generators == ((1,),)
    assert is_saturated(closed).saturated


def test_saturate_idempotent():
    closed = saturate(MIXED)
    assert is_saturated(closed).saturated
    assert saturate(closed).generators == closed.generators
    assert (1, 1) in closed.generators


def test_saturation_on_nonpointed_raises():
    d = HorosphericalDatum(1, 0, [[1], [-1]])
    with pytest.raises(NonPointedError):
        is_saturated(d)


# ---------------------------------------------------------------------------
# units


def test_units_detection():
    assert units_exist(HorosphericalDatum(1, 0, [[1], [-1]]))
    assert units_exist(HorosphericalDatum(2, 0, [[1, 0], [-1, 0], [0, 1]]))
    assert not units_exist(CUSP)
    assert not units_exist(VERONESE)


def test_units_from_vanishing_combination():
    # (1,2) + (1,-1) + (-2,-1) = 0 forces every generator invertible
    d = HorosphericalDatum(2, 0, [[1, 2], [1, -1], [-2, -1]])
    assert units_exist(d)


# ---------------------------------------------------------------------------
# orbits and witnesses


def test_orbit_faces_veronese():
    faces = orbit_faces(VERONESE)
    assert len(faces) == 4
    assert [f.face.dim for f in faces] == [0, 1, 1, 2]
    assert faces[0].off_face_generators == (0, 1, 2)
    assert faces[3].off_face_generators == ()
    one_dim = {f.off_face_generators for f in faces[1:3]}
    assert one_dim == {(1, 2), (0, 1)}


def test_grading_witnesses_veronese_frozen():
    faces = face_lattice(VERONESE.cone)
    witnesses = [grading_for_face(VERONESE, f) for f in faces]
    assert [w.functional for w in witnesses] == [(1, 0), (0, 1), (2, -1), (0, 0)]
    assert [w.generator_weights for w in witnesses] == [
        (1, 1, 1),
        (0, 1, 2),
        (2, 1, 0),
        (0, 0, 0),
    ]
    verify_check_report(build_check_report(spec_of(VERONESE)))


def test_grading_witnesses_on_a_flat_cone():
    # the equation x3 = 0 holds on the whole cone; no facet vanishes there,
    # so the whole cone's witness is the zero functional
    flat = HorosphericalDatum(3, 0, [[1, 0, 0], [0, 1, 0]])
    assert flat.faces[-1].zero_normals == ()
    witnesses = [grading_for_face(flat, f) for f in flat.faces]
    assert [w.functional for w in witnesses] == [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0)]
    assert witnesses[-1].generator_weights == (0, 0)


def test_grading_rejects_foreign_face():
    foreign = face_lattice(PLANE.cone)[1]
    with pytest.raises(ValueError):
        grading_for_face(VERONESE, foreign)


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_cusp():
    v = flexibility_verdict(CUSP)
    assert v.status is FlexStatus.NOT_COVERED_NOT_NORMAL
    assert v.saturation_gap == (1,)
    assert v.witnesses == ()


def test_verdict_units():
    v = flexibility_verdict(HorosphericalDatum(1, 0, [[1], [-1]]))
    assert v.status is FlexStatus.NOT_COVERED_UNITS_EXIST
    assert v.saturation_gap is None


def test_verdict_veronese():
    v = flexibility_verdict(VERONESE)
    assert v.status is FlexStatus.CERTIFIED_FLEXIBLE
    assert len(v.witnesses) == 4


def test_verdict_status_values():
    assert FlexStatus.CERTIFIED_FLEXIBLE.value == "CertifiedFlexible"
    assert FlexStatus.NOT_COVERED_NOT_NORMAL.value == "NotCovered_NotNormal"
    assert FlexStatus.NOT_COVERED_UNITS_EXIST.value == "NotCovered_UnitsExist"


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_verdict_consistency(seed):
    datum = random_datum(random.Random(seed))
    verdict = flexibility_verdict(datum)
    saturated = is_saturated(datum).saturated
    if verdict.status is FlexStatus.CERTIFIED_FLEXIBLE:
        assert saturated
        assert len(verdict.witnesses) == len(face_lattice(datum.cone))
        verify_check_report(build_check_report(spec_of(datum)))
    else:
        assert verdict.status is FlexStatus.NOT_COVERED_NOT_NORMAL
        assert not saturated
        assert SaturationOracle(list(datum.generators), datum.ambient_rank).confirms_gap(
            verdict.saturation_gap
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_saturate_produces_saturated(seed):
    datum = random_datum(random.Random(seed))
    closed = saturate(datum)
    assert is_saturated(closed).saturated
    # closure preserves the cone
    assert closed.cone == datum.cone


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_members_stay_in_cone_and_group(seed):
    rng = random.Random(seed)
    datum = random_datum(rng)
    gens = list(datum.generators)
    normals = cone_inequalities(gens, datum.ambient_rank)
    combo = [0] * datum.ambient_rank
    for _ in range(rng.randint(1, 5)):
        g = gens[rng.randrange(len(gens))]
        combo = [a + b for a, b in zip(combo, g)]
    assert semigroup_member(gens, combo)
    assert in_cone(normals, tuple(combo))
    assert datum.weight_lattice.contains(tuple(combo))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_saturation_gap_is_first_basis_element_outside_the_semigroup(seed):
    # membership by the oracles' own descent, not the one semigroup_member runs
    datum = random_datum(random.Random(seed))
    gens, rank = list(datum.generators), datum.ambient_rank
    oracle = SemigroupOracle(gens, rank, cone_inequalities(gens, rank))
    basis = hilbert_basis(datum.cone, datum.weight_lattice)
    expected = next((h for h in basis if not oracle.member(h)), None)
    assert is_saturated(datum).gap == expected


def test_verdict_computes_cone_data_once(monkeypatch, tmp_path, capsys):
    # one double description for the cone (hilbert_basis reuses its facets);
    # the report audit builds the input's cone and face lattice once and no
    # cone per witness; a CLI op hands its datum to the audit, so it builds
    # the cone and the face lattice once in all
    calls = []
    lattices = []
    original = lattice_module.generators_from_inequalities
    original_faces = semigroup_module.face_lattice

    def counted(*args):
        calls.append(args)
        return original(*args)

    def counted_faces(cone):
        lattices.append(cone)
        return original_faces(cone)

    monkeypatch.setattr(lattice_module, "generators_from_inequalities", counted)
    monkeypatch.setattr(semigroup_module, "face_lattice", counted_faces)
    vertices = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    cube = HorosphericalDatum(3, 1, vertices)
    verdict = flexibility_verdict(cube)
    assert verdict.status is FlexStatus.CERTIFIED_FLEXIBLE
    assert len(verdict.witnesses) == 28
    assert (len(calls), len(lattices)) == (1, 1)
    report = build_check_report(spec_of(cube))
    calls.clear()
    lattices.clear()
    verify_check_report(report)
    assert (len(calls), len(lattices)) == (1, 1)
    path = tmp_path / "r4-cube.json"
    path.write_text(spec_of(cube).dumps())
    for argv in (["grading", str(path), "--face", "11"], ["check", str(path)]):
        calls.clear()
        lattices.clear()
        assert main(argv) == 0
        assert (len(calls), len(lattices)) == (1, 1), argv
    capsys.readouterr()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_incidence_witness_matches_dual_cone(seed):
    # pointed cones of rank 1-5 inside the span of 1..rank random vectors,
    # so often not full-dimensional
    rng = random.Random(seed)
    rank = rng.randint(1, 5)
    basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(1, rank))]
    gens = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [rng.randint(1, 3)] + [rng.randint(-2, 2) for _ in basis[1:]]
        gens.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(rank)])
    datum = HorosphericalDatum(rank, 0, gens)
    assume(is_pointed(datum.cone))
    dual_rays = dual_cone(datum.cone).rays
    for face in datum.faces:
        face_rays = [datum.cone.rays[j] for j in face.span_rays]
        total = (0,) * rank
        for u in dual_rays:
            if all(dot(u, r) == 0 for r in face_rays):
                total = vadd(total, u)
        assert grading_for_face(datum, face).functional == primitive(total)


def incidence_datum(rng):
    """A datum of rank <= 4 that often has a zero generator, a line or a flat cone.

    The torus parts are integer combinations of 1..torus random vectors, so
    the cone is often not full-dimensional; a line is a torus vector and its
    negative.
    """
    rank = rng.randint(1, 4)
    dominant = rng.choice([0, 0, 1]) if rank > 1 else 0
    torus = rank - dominant
    basis = [[rng.randint(-2, 2) for _ in range(torus)] for _ in range(rng.randint(1, torus))]
    gens = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        gens.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(torus)]
                    + [rng.randint(0, 2) for _ in range(dominant)])
    if rng.random() < 0.4:
        gens.append([0] * rank)
    if rng.random() < 0.3:
        line = [rng.randint(-2, 2) for _ in range(torus)] + [0] * dominant
        gens += [line, [-a for a in line]]
    return HorosphericalDatum(torus, dominant, gens)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_orbits_and_gradings_match_dot_product_route(seed):
    # the zero-set masks decide on-face exactly as dot products with the
    # face's facets do, for zero generators, lines and flat cones too
    datum = incidence_datum(random.Random(seed))
    facets, gens = datum.cone.facets, datum.generators
    orbits = orbit_faces(datum)
    assert [o.face for o in orbits] == list(datum.faces)
    for orbit in orbits:
        zero = orbit.face.zero_normals
        assert orbit.off_face_generators == off_face_by_dots(facets, zero, gens)
        if is_pointed(datum.cone):
            witness = grading_for_face(datum, orbit.face)
            assert (witness.functional, witness.generator_weights) == grading_by_dots(
                facets, zero, gens
            )


def unimodular(rng, t):
    """A random matrix in GL_t(Z), as rows: elementary row operations on I."""
    rows = [[int(i == j) for j in range(t)] for i in range(t)]
    for _ in range(rng.randint(0, 2 * t)):
        i, j = rng.randrange(t), rng.randrange(t)
        if i == j:
            rows[i] = [-a for a in rows[i]]
        else:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def torus_image(datum, u):
    """The datum under U acting on its torus coordinates, and the map v -> U v."""
    t = datum.torus_rank

    def move(v):
        return tuple(dot(row, v[:t]) for row in u) + tuple(v[t:])

    return HorosphericalDatum(t, datum.dominant_rank, [move(g) for g in datum.generators]), move


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_orbits_and_witnesses_do_not_depend_on_torus_coordinates(seed):
    # U in GL_t(Z) acts on the torus coordinates and fixes the dominant ones.
    # Generators and rays re-sort under U, so faces are matched by their ray
    # sets mapped through U on a pointed cone; a cone with lines picks its
    # rays by coordinate order, so there faces are matched by the generators
    # on them.  On a flat cone the facets, hence the witness weights, depend
    # on the coordinates (only which generators get weight 0 does not).
    rng = random.Random(seed)
    datum = incidence_datum(rng)
    t = datum.torus_rank
    u = unimodular(rng, t)
    image, move = torus_image(datum, u)
    pointed = is_pointed(datum.cone)
    assert pointed == is_pointed(image.cone)

    def faces_by_key(d, f):
        out = {}
        for orbit in orbit_faces(d):
            off = frozenset(f(d.generators[i]) for i in orbit.off_face_generators)
            if pointed:
                key = frozenset(f(d.cone.rays[j]) for j in orbit.face.span_rays)
            else:
                key = frozenset(f(g) for g in d.generators) - off
            out[key] = (orbit.face.dim, off)
        return out

    assert len(datum.faces) == len(image.faces)
    assert faces_by_key(datum, move) == faces_by_key(image, lambda v: v)
    verdict, image_verdict = flexibility_verdict(datum), flexibility_verdict(image)
    assert verdict.status is image_verdict.status
    if verdict.status is not FlexStatus.CERTIFIED_FLEXIBLE:
        return
    flat = bool(datum.cone.equations)
    key_of = {
        frozenset(image.cone.rays[j] for j in w.face.span_rays): w for w in image_verdict.witnesses
    }
    for w in verdict.witnesses:
        other = key_of[frozenset(move(datum.cone.rays[j]) for j in w.face.span_rays)]
        image_weights = dict(zip(image.generators, other.generator_weights))
        for g, weight in zip(datum.generators, w.generator_weights):
            moved = image_weights[move(g)]
            assert (weight == 0) == (moved == 0) if flat else weight == moved
        if not flat:
            # functional' = U^{-T} functional, i.e. U^T functional' = functional
            back = tuple(sum(u[i][j] * other.functional[i] for i in range(t)) for j in range(t))
            assert back + other.functional[t:] == w.functional


def assert_semigroup_answers_move_with_torus_coordinates(datum, u):
    # the Hilbert basis and saturate commute with U; the reported gap is the
    # lexicographically first one, which does not, so U gap is only checked
    # to be a gap of U S: in the group and the cone, not in the semigroup
    image, move = torus_image(datum, u)
    assert is_pointed(image.cone) == is_pointed(datum.cone)
    if not is_pointed(datum.cone):
        return
    basis = hilbert_basis(datum.cone, datum.weight_lattice)
    assert set(hilbert_basis(image.cone, image.weight_lattice)) == set(map(move, basis))
    assert saturate(image) == torus_image(saturate(datum), u)[0]
    gap = is_saturated(datum).gap
    assert (gap is None) == (is_saturated(image).gap is None)
    if gap is not None:
        moved = move(gap)
        assert image.weight_lattice.contains(moved) and image.cone.contains(moved)
        assert not semigroup_member(image.generators, moved)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hilbert_basis_saturation_and_gap_do_not_depend_on_torus_coordinates(seed):
    rng = random.Random(seed)
    datum = incidence_datum(rng)
    assert_semigroup_answers_move_with_torus_coordinates(datum, unimodular(rng, datum.torus_rank))


def cone_over(points):
    """The datum of the cone over lattice points: torus part the point, dominant part 1."""
    return HorosphericalDatum(len(points[0]), 1, [tuple(p) + (1,) for p in points])


LARGE_CONES = {
    # the cone over the 4-cube (certified) and over the cyclic polytope with
    # vertices (t, t^2, ..., t^5), t = 0..7 (not normal)
    "cube5": cone_over(list(product((0, 1), repeat=4))),
    "cyclic8": cone_over([tuple(t**k for k in range(1, 6)) for t in range(8)]),
}


@pytest.mark.parametrize("name", sorted(LARGE_CONES))
def test_large_cones_do_not_depend_on_torus_coordinates(name):
    datum = LARGE_CONES[name]
    u = unimodular(random.Random(0), datum.torus_rank)  # seed 0: no signed permutation
    assert_semigroup_answers_move_with_torus_coordinates(datum, u)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_same_semigroup_from_other_generators(seed):
    # adding a sum of two generators changes no answer; 2S keeps the face
    # dimensions, the verdict and the functionals, and doubles the Hilbert
    # basis, the gap and every generator weight
    rng = random.Random(seed)
    datum = incidence_datum(rng)
    gens, t, r = datum.generators, datum.torus_rank, datum.dominant_rank
    wider = HorosphericalDatum(t, r, gens + (vadd(rng.choice(gens), rng.choice(gens)),))
    doubled = HorosphericalDatum(t, r, [vscale(2, g) for g in gens])
    verdict = flexibility_verdict(datum)
    for other, k in ((wider, 1), (doubled, 2)):
        assert [f.dim for f in other.faces] == [f.dim for f in datum.faces]
        other_verdict = flexibility_verdict(other)
        assert other_verdict.status is verdict.status
        gap = verdict.saturation_gap
        assert other_verdict.saturation_gap == (None if gap is None else vscale(k, gap))
        assert len(other_verdict.witnesses) == len(verdict.witnesses)
        for w, ow in zip(verdict.witnesses, other_verdict.witnesses):
            assert ow.functional == w.functional
            weights = dict(zip(other.generators, ow.generator_weights))
            assert [weights[vscale(k, g)] for g in gens] == [k * a for a in w.generator_weights]
        if is_pointed(datum.cone):
            basis = hilbert_basis(datum.cone, datum.weight_lattice)
            other_basis = hilbert_basis(other.cone, other.weight_lattice)
            assert other_basis == [vscale(k, h) for h in basis]

"""The cone kernel on the ladder datums, which are larger than any other test's.

Each ladder datum's cone, face lattice and grading witnesses are checked
against the routes of ``tests/oracles.py`` and against f-vectors known from
the polytopes themselves.
"""

import pytest

from horoflex.semigroup import HorosphericalDatum, flexibility_verdict, grading_for_face
from ladder import LADDER
from oracles import double_description_by_dots, grading_by_dots, rational_rank


def datum(name):
    p = LADDER[name]
    return HorosphericalDatum(p["torus_rank"], p["dominant_rank"], p["generators"])


DATUMS = {name: datum(name) for name in LADDER}

# faces by dimension 0..6: the apex, then the cone over each face of the polytope
F_VECTORS = {
    "cube6": (1, 32, 80, 80, 40, 10, 1),
    "cross6": (1, 10, 40, 80, 80, 32, 1),
    "cyclic8": (1, 8, 28, 52, 50, 20, 1),
    # 2-neighbourly: C(12, 2) = 66 edges; 2 C(9, 2) = 72 facets
    "cyclic12": (1, 12, 66, 164, 180, 72, 1),
}


@pytest.mark.parametrize("name", sorted(F_VECTORS))
def test_f_vectors_and_euler_relation(name):
    faces = DATUMS[name].faces
    f_vector = tuple(sum(f.dim == k for f in faces) for k in range(7))
    assert f_vector == F_VECTORS[name]
    assert sum((-1) ** k * fk for k, fk in enumerate(f_vector)) == 0


@pytest.mark.parametrize("name", sorted(F_VECTORS))
def test_rays_facets_and_face_dimensions_match_the_oracles(name):
    d = DATUMS[name]
    cone, rank = d.cone, d.ambient_rank
    assert (cone.equations, cone.lineality_basis) == ((), ())
    assert double_description_by_dots(d.generators, rank) == ([], list(cone.facets))
    # every point listed is a vertex of its polytope, so the rays are the generators
    assert cone.rays == d.generators
    if name != "cyclic12":  # the oracle's pruning takes seconds on its 72 facets
        assert double_description_by_dots(cone.facets, rank) == ([], list(cone.rays))
    for face in d.faces:
        assert face.dim == rational_rank([cone.rays[j] for j in face.span_rays])


@pytest.mark.parametrize("name", ["cube5", "cube6"])
def test_witnesses_match_the_dot_product_route(name):
    d = DATUMS[name]
    if name == "cube5":
        witnesses = flexibility_verdict(d).witnesses
    else:  # its Hilbert basis is out of reach of a quick test: the faces one by one
        witnesses = tuple(grading_for_face(d, face) for face in d.faces)
    assert [w.face for w in witnesses] == list(d.faces)
    for w in witnesses:
        functional, weights = grading_by_dots(d.cone.facets, w.face.zero_normals, d.generators)
        assert (w.functional, w.generator_weights) == (functional, weights)

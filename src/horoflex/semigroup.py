"""Weight-semigroup data and flexibility verdicts.

A datum is a finitely generated subsemigroup of an integer weight lattice,
split as (torus characters, dominant coordinates).  The coordinate algebra it
encodes is graded by the semigroup; normality is saturation of the semigroup,
units correspond to invertible weights, and each face of the weight cone
carries an orbit.  ``flexibility_verdict`` certifies the covered cases with
one integer grading functional per face.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .lattice import (
    FaceDescriptor,
    LatticeSubgroup,
    NonPointedError,
    RationalCone,
    Vec,
    as_vector,
    dot,
    face_lattice,
    group_generated,
    hilbert_basis,
    is_pointed,
    is_zero_vec,
    primitive,
    vadd,
    vsub,
)


class _DatumFields(NamedTuple):
    torus_rank: int
    dominant_rank: int
    generators: tuple[Vec, ...]


class HorosphericalDatum(_DatumFields):
    """Finitely generated semigroup of weights, with dominance enforced.

    ``generators`` live in rank ``torus_rank + dominant_rank``; the last
    ``dominant_rank`` coordinates must be nonnegative.  Generators are
    deduplicated and stored sorted.  The cone data (``cone``,
    ``weight_lattice``, ``faces``, ``generator_zero_sets``) is computed once
    per datum, on first use; the zero generator lies on every facet.  No dual
    cone is built.
    """

    def __new__(cls, torus_rank: int, dominant_rank: int, generators: Sequence[Sequence[int]]):
        for name, value in (("torus_rank", torus_rank), ("dominant_rank", dominant_rank)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer")
        rank = torus_rank + dominant_rank
        if rank == 0:
            raise ValueError("ambient rank must be positive")
        vecs = []
        for i, g in enumerate(generators):
            v = as_vector(g, rank)
            for j in range(torus_rank, rank):
                if v[j] < 0:
                    raise ValueError(
                        f"generator {i}: dominance violation, coordinate {j} is negative"
                    )
            vecs.append(v)
        if not vecs:
            raise ValueError("at least one generator is required")
        return super().__new__(cls, torus_rank, dominant_rank, tuple(sorted(set(vecs))))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate it too
        return cls(*iterable)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("HorosphericalDatum is immutable")

    @property
    def ambient_rank(self) -> int:
        return self.torus_rank + self.dominant_rank

    @cached_property
    def cone(self) -> RationalCone:
        return RationalCone(self.generators, self.ambient_rank)

    @cached_property
    def weight_lattice(self) -> LatticeSubgroup:
        return group_generated(self.generators)

    @cached_property
    def faces(self) -> tuple[FaceDescriptor, ...]:
        return tuple(face_lattice(self.cone))

    @cached_property
    def _face_set(self) -> frozenset[FaceDescriptor]:
        return frozenset(self.faces)

    @cached_property
    def generator_zero_sets(self) -> tuple[int, ...]:
        zeros, full = self.cone.zero_sets, (1 << len(self.cone.facets)) - 1
        return tuple(zeros.get(primitive(g), full) for g in self.generators)


# ---------------------------------------------------------------------------
# semigroup membership


def semigroup_member(gens: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Decide whether target is a nonnegative integer combination of gens.

    Memoized descent over generator subtractions.  The sum of the facets
    drops by at least one on each, so the descent terminates: the sum is
    positive off the origin exactly when the cone is pointed, since a point
    of the cone on which every facet vanishes spans a line in it.
    """
    vecs = [as_vector(g) for g in gens]
    if not vecs:
        raise ValueError("at least one generator is required")
    rank = len(vecs[0])
    vecs = [as_vector(g, rank) for g in vecs]
    cone = RationalCone(vecs, rank)
    if not is_pointed(cone):
        raise NonPointedError("semigroup membership: bounded search needs a pointed cone")
    nonzero = sorted({g for g in vecs if not is_zero_vec(g)})
    level = (0,) * rank
    for f in cone.facets:
        level = vadd(level, f)
    if any(dot(level, g) < 1 for g in nonzero):
        raise AssertionError("positive functional failed on a generator")
    t = as_vector(target, rank)
    memo: dict[Vec, bool] = {(0,) * rank: True}
    stack = [t]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
        elif not cone.contains(cur):
            memo[cur] = False
            stack.pop()
        else:
            children = [vsub(cur, g) for g in nonzero]
            unknown = [ch for ch in children if ch not in memo]
            if unknown:
                stack.extend(unknown)
            else:
                memo[cur] = any(memo[ch] for ch in children)
                stack.pop()
    return memo[t]


# ---------------------------------------------------------------------------
# saturation and units


class SaturationCheck(NamedTuple):
    saturated: bool
    gap: Optional[Vec]


def is_saturated(datum: HorosphericalDatum) -> SaturationCheck:
    """Check that the semigroup equals (its group) ∩ (its cone).

    The Hilbert basis of the intersection monoid generates it, so saturation
    holds exactly when every basis element already lies in the semigroup.
    A basis element lies in the semigroup exactly when it is a generator:
    the generators lie in the intersection monoid, where a basis element is
    irreducible, so it is no sum of two or more nonzero generators.  The
    first basis element (in lexicographic order) that is not a generator is
    reported as the gap.  Raises NonPointedError when the cone contains a
    line; test units first.
    """
    generators = set(datum.generators)
    basis = hilbert_basis(datum.cone, datum.weight_lattice)
    gap = next((h for h in basis if h not in generators), None)
    return SaturationCheck(gap is None, gap)


def saturate(datum: HorosphericalDatum) -> HorosphericalDatum:
    """Replace the generators by the Hilbert basis of (group ∩ cone).

    Idempotent; the result is saturated and generates the same cone and the
    same group.  On an already saturated datum the generator set is unchanged
    up to canonical ordering.
    """
    basis = hilbert_basis(datum.cone, datum.weight_lattice)
    if not basis:
        basis = [(0,) * datum.ambient_rank]
    return HorosphericalDatum(datum.torus_rank, datum.dominant_rank, basis)


def units_exist(datum: HorosphericalDatum) -> bool:
    """True when some nonzero weight and its negative both lie in the semigroup.

    Such a pair exists exactly when the weight cone contains a line: a line
    yields a vanishing nonnegative integer combination of generators, hence an
    inverse for each generator involved, and conversely a unit and its inverse
    span a line.
    """
    return not is_pointed(datum.cone)


# ---------------------------------------------------------------------------
# orbits and gradings


class OrbitFace(NamedTuple):
    """A face of the weight cone together with the generators off the face.

    The off-face generators span the weights of the vanishing ideal of the
    orbit closure attached to the face.
    """

    face: FaceDescriptor
    off_face_generators: tuple[int, ...]


def orbit_faces(datum: HorosphericalDatum) -> list[OrbitFace]:
    """Each face with the generators off it: those whose zero sets miss a facet of the face."""
    out = []
    for face in datum.faces:
        zero = sum(1 << i for i in face.zero_normals)
        off = tuple(i for i, z in enumerate(datum.generator_zero_sets) if zero & z != zero)
        out.append(OrbitFace(face, off))
    return out


class GradingWitness(NamedTuple):
    """Integer grading functional certifying one orbit.

    The functional vanishes on the generators lying on the face and is >= 1
    on every other generator, so the grading it induces is nonnegative with
    degree-zero part exactly the face subalgebra: a multiplicative action
    with no negative weights whose fixed locus is the orbit closure.
    """

    face: FaceDescriptor
    functional: Vec
    generator_weights: tuple[int, ...]


def grading_for_face(datum: HorosphericalDatum, face: FaceDescriptor) -> GradingWitness:
    """Witness functional for one face: a relative-interior point of the dual face.

    Built as the sum of the facets vanishing on the face, cleared to a
    primitive integer vector.  Those facets and the lines spanned by the
    equations generate the dual face, so the sum lies in its relative
    interior.  No facet vanishes on the full cone, so there the zero
    functional is returned (the trivial witness).  A face not in
    ``datum.faces`` (one lookup in a set built once per datum) raises ValueError.
    """
    cone = datum.cone
    if not is_pointed(cone):
        raise NonPointedError("grading witnesses require a pointed cone")
    if face not in datum._face_set:
        raise ValueError("the given face does not belong to the cone's face lattice")
    total = (0,) * datum.ambient_rank
    for i in face.zero_normals:
        total = vadd(total, cone.facets[i])
    functional = primitive(total)
    zero = sum(1 << i for i in face.zero_normals)
    weights = []
    for g, z in zip(datum.generators, datum.generator_zero_sets):
        w = dot(functional, g)
        if zero & z == zero:  # g lies on the face
            if w != 0:
                raise AssertionError("witness functional fails to vanish on the face")
        elif w < 1:
            raise AssertionError("witness functional not positive off the face")
        weights.append(w)
    return GradingWitness(face, functional, tuple(weights))


# ---------------------------------------------------------------------------
# verdicts


class FlexStatus(enum.Enum):
    CERTIFIED_FLEXIBLE = "CertifiedFlexible"
    NOT_COVERED_NOT_NORMAL = "NotCovered_NotNormal"
    NOT_COVERED_UNITS_EXIST = "NotCovered_UnitsExist"


class FlexibilityVerdict(NamedTuple):
    status: FlexStatus
    witnesses: tuple[GradingWitness, ...]
    saturation_gap: Optional[Vec]


def flexibility_verdict(datum: HorosphericalDatum) -> FlexibilityVerdict:
    """Certify flexibility or report why the datum is not covered.

    Units and non-normality each block the certificate; otherwise every face
    of the weight cone receives a grading witness, in time linear in the faces.
    """
    if units_exist(datum):
        return FlexibilityVerdict(FlexStatus.NOT_COVERED_UNITS_EXIST, (), None)
    check = is_saturated(datum)
    if not check.saturated:
        return FlexibilityVerdict(FlexStatus.NOT_COVERED_NOT_NORMAL, (), check.gap)
    witnesses = tuple(grading_for_face(datum, face) for face in datum.faces)
    return FlexibilityVerdict(FlexStatus.CERTIFIED_FLEXIBLE, witnesses, None)

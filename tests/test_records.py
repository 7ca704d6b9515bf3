"""Record semantics of every result and datum class: equality and hash over
the fields, immutability, and ``Name(field=value, ...)`` reprs."""

from fractions import Fraction

import pytest

from horoflex.actions import DiagonalTorusAction, MonomialWeightReport
from horoflex.danielewski import CompositionReport
from horoflex.ehm import (
    EHMDatum,
    HypersurfaceActionsReport,
    InvariantMonomial,
    SpecialPointReport,
    WeightIdentityReport,
    build_ehm,
)
from horoflex.lattice import FaceDescriptor, LatticeSubgroup
from horoflex.poly import HypersurfaceCheck, NilpotencyCheck, constant, variable
from horoflex.reporting import DatumSpec
from horoflex.semigroup import (
    FlexibilityVerdict,
    FlexStatus,
    GradingWitness,
    HorosphericalDatum,
    OrbitFace,
    SaturationCheck,
)

FACE = FaceDescriptor(zero_normals=(0,), span_rays=(1,), dim=1)
CHECK = HypersurfaceCheck(preserved=True, unit=constant(1), modulus_quotient=None,
                          residual=constant(0))
WITNESS = GradingWitness(face=FACE, functional=(1, 0), generator_weights=(1, 1))
_EHM = build_ehm(3, 7, 6)

# (class, fields in declared order); every value is already in normal form
RECORDS = [
    (LatticeSubgroup, dict(ambient_rank=2, basis=((1, 0), (0, 2)))),
    (FaceDescriptor, dict(zero_normals=(0, 2), span_rays=(1,), dim=1)),
    (HorosphericalDatum, dict(torus_rank=2, dominant_rank=0,
                              generators=((1, 0), (1, 1), (1, 2)))),
    (SaturationCheck, dict(saturated=False, gap=(1,))),
    (OrbitFace, dict(face=FACE, off_face_generators=(0, 2))),
    (GradingWitness, dict(face=FACE, functional=(1, 0), generator_weights=(0, 1))),
    (FlexibilityVerdict, dict(status=FlexStatus.CERTIFIED_FLEXIBLE, witnesses=(WITNESS,),
                              saturation_gap=None)),
    (NilpotencyCheck, dict(certified=True, order=2, bound=5, variable_orders=(("x", 1),))),
    (HypersurfaceCheck, dict(preserved=False, unit=constant(1), modulus_quotient=variable("t"),
                             residual=variable("x"))),
    (DiagonalTorusAction, dict(variables=("x", "y"), weights=(1, -1), cyclic_order=3,
                               cyclic_weights=(1, 2))),
    (MonomialWeightReport, dict(exponents=(1, 2), gm_weight=-1, cyclic_residue=2)),
    (EHMDatum, dict(p=_EHM.p, q=_EHM.q, m=_EHM.m, k=_EHM.k, a=_EHM.a, b=_EHM.b,
                    hypersurface=_EHM.hypersurface, grading_action=_EHM.grading_action,
                    twisted_action=_EHM.twisted_action)),
    (InvariantMonomial, dict(exponents=(1, 0, 0, 0, 0), grading_weight=3)),
    (WeightIdentityReport, dict(ok=False, checked=3, failure=(0, 1, 0, 0, 0))),
    (SpecialPointReport, dict(on_hypersurface=True, monomial_exponents=(7, 0, 3, 0, 0),
                              monomial_invariant=True, value_at_point=Fraction(1),
                              zero_weight_avoids_y=True, monomials_checked=5)),
    (HypersurfaceActionsReport, dict(sl2_check=CHECK, grading_invariant=True,
                                     twisted_weight=(4, 0), twisted_weight_expected=4)),
    (CompositionReport, dict(ok=True, residuals=(("x", constant(0)),))),
    (DatumSpec, dict(torus_rank=1, dominant_rank=0, generators=((3,), (2,)), label="cusp")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_semantics(cls, fields):
    record = cls(**fields)
    twin = cls(*fields.values())
    assert record == twin and hash(record) == hash(twin)
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"


def test_datum_normalises_and_validates():
    datum = HorosphericalDatum(1, 0, [[3], [2], [3]])
    assert datum.generators == ((2,), (3,))
    assert datum == HorosphericalDatum(1, 0, [(2,), (3,)])
    assert datum.cone is datum.cone
    with pytest.raises(AttributeError):
        datum.cone = None
    for ranks in ((True, 0), (1, False)):
        with pytest.raises(ValueError, match="must be a nonnegative integer"):
            HorosphericalDatum(*ranks, [[1, 1]])
    with pytest.raises(ValueError, match="generator 0: dominance violation, coordinate 1"):
        HorosphericalDatum(1, 1, [[0, -1]])


def test_action_reduces_cyclic_weights():
    action = DiagonalTorusAction(("x", "y"), (1, 2), 3, (4, -1))
    assert action.cyclic_weights == (1, 2)
    assert action == DiagonalTorusAction(("x", "y"), (1, 2), 3, (1, 2))
    assert DiagonalTorusAction(("x", "y"), (1, 2)).cyclic_weights == (0, 0)


def test_spec_keeps_its_datum_out_of_equality_and_repr():
    with pytest.raises(ValueError, match="dominance violation"):
        DatumSpec(1, 1, ((0, -1),))
    spec = DatumSpec(1, 0, ((3,), (2,)), "cusp")
    assert spec.datum is spec.datum
    assert spec.datum == HorosphericalDatum(1, 0, ((2,), (3,)))
    with pytest.raises(AttributeError):
        spec.datum = None
    twin = DatumSpec(1, 0, ((3,), (2,)), "cusp")
    assert spec.datum is not twin.datum
    assert spec == twin and hash(spec) == hash(twin)
    assert "datum" not in repr(spec)
    assert spec != DatumSpec(1, 0, ((2,), (3,)), "cusp")


@pytest.mark.parametrize("build, error", [
    (lambda: HorosphericalDatum(1, 1, [(1, 0), (0, 1)])._replace(
        generators=((0, -1), (3, 2), (3, 2))), "dominance violation"),
    (lambda: HorosphericalDatum._make([0, 0, ()]), "ambient rank must be positive"),
    (lambda: DatumSpec(1, 0, ((2,), (3,)), "cusp")._replace(generators=()),
     "at least one generator"),
    (lambda: DiagonalTorusAction(("x", "y"), (1, 2))._replace(cyclic_order=0),
     "cyclic_order must be a positive integer"),
], ids=["datum-replace", "datum-make", "spec-replace", "action-replace"])
def test_make_and_replace_validate_like_the_constructor(build, error):
    with pytest.raises(ValueError, match=error):
        build()


def test_replace_keeps_the_normal_form_and_the_spec_datum():
    datum = HorosphericalDatum(1, 0, [(2,), (3,)])._replace(generators=[(5,), (2,), (5,)])
    assert datum.generators == ((2,), (5,))
    spec = DatumSpec(1, 0, ((2,), (3,)), "cusp")._replace(label="x")
    assert spec.label == "x" and spec.datum == HorosphericalDatum(1, 0, ((2,), (3,)))
    action = DiagonalTorusAction(("x", "y"), (1, 2), 3)._replace(cyclic_weights=(4, -1))
    assert action.cyclic_weights == (1, 2)

import pytest

from horoflex.actions import (
    DiagonalTorusAction,
    is_invariant,
    monomial_weight,
    semi_invariant_weight,
)
from horoflex.poly import constant, parse_polynomial, variable


SCALE = DiagonalTorusAction(("x", "y"), (1, -1))
CYCLIC = DiagonalTorusAction(("x", "y"), (2, 3), cyclic_order=4, cyclic_weights=(1, 2))


def test_weights_validated():
    with pytest.raises(ValueError):
        DiagonalTorusAction(("x",), (1, 2))
    with pytest.raises(ValueError):
        DiagonalTorusAction(("x", "x"), (1, 2))
    with pytest.raises(ValueError):
        DiagonalTorusAction(("x",), (1,), cyclic_order=0)
    with pytest.raises(ValueError):
        DiagonalTorusAction(("x", "y"), (1, 2), True)


def test_cyclic_weights_normalized():
    act = DiagonalTorusAction(("x", "y"), (1, 1), cyclic_order=3, cyclic_weights=(-1, 5))
    assert act.cyclic_weights == (2, 2)


def test_monomial_weight_tuple_and_mapping():
    # exponents are tuples in the action's variable order; mappings are refused
    report = monomial_weight(SCALE, (2, 1))
    assert report.gm_weight == 1
    assert monomial_weight(CYCLIC, (1, 1)).cyclic_residue == 3
    with pytest.raises(ValueError):
        monomial_weight(SCALE, (2,))
    with pytest.raises(ValueError):
        monomial_weight(SCALE, {"x": 2, "y": 1})
    with pytest.raises(ValueError):
        monomial_weight(SCALE, {"w": 1})
    with pytest.raises(ValueError):
        monomial_weight(SCALE, (True, False))


def test_is_invariant():
    xy = parse_polynomial("x*y")
    assert is_invariant(SCALE, xy)
    assert is_invariant(SCALE, xy**3 + 2 * xy)
    assert not is_invariant(SCALE, parse_polynomial("x + y"))
    assert is_invariant(SCALE, constant(7))


def test_cyclic_part_blocks_invariance():
    xy = parse_polynomial("x*y")
    # weight 2+3=5 is nonzero, so not invariant even before the cyclic part
    assert not is_invariant(CYCLIC, xy)
    inv = parse_polynomial("x^2*y^4")  # weight 4+12=16 != 0
    assert not is_invariant(CYCLIC, inv)


def test_semi_invariant_weight():
    xy = parse_polynomial("x*y")
    assert semi_invariant_weight(SCALE, xy**2) == (0, 0)
    assert semi_invariant_weight(SCALE, variable("x")) == (1, 0)
    assert semi_invariant_weight(SCALE, parse_polynomial("x + y")) is None
    assert semi_invariant_weight(SCALE, constant(0)) is None
    assert semi_invariant_weight(SCALE, parse_polynomial("x^2 + x*y")) is None


def test_semi_invariant_weight_cyclic():
    p = parse_polynomial("x^2")
    assert semi_invariant_weight(CYCLIC, p) == (4, 2)

import contextlib
import io
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from horoflex import ehm, reporting
from horoflex.actions import is_invariant, monomial_weight
from horoflex.cli import main
from horoflex.ehm import (
    COORDINATES,
    SPECIAL_POINT,
    build_ehm,
    check_special_point,
    check_weight_identity,
    determinant_relation,
    enumerate_invariant_monomials,
    sl2_substitution,
    verify_actions_on_hypersurface,
)
from horoflex.poly import parse_polynomial, variable
from oracles import brute_force_monomials

PARAMS = [(1, 2, 1), (1, 3, 2), (2, 3, 4), (3, 5, 6)]
# every coprime 0 < p < q <= 7 with twist order m <= 6
FAMILY = [
    (p, q, m)
    for q in range(2, 8)
    for p in range(1, q)
    if gcd(p, q) == 1
    for m in range(1, 7)
]


def listed(monomials):
    return [(mon.exponents, mon.grading_weight) for mon in monomials]


# ---------------------------------------------------------------------------
# construction


def test_derived_constants_frozen():
    expected = {(1, 2, 1): (1, 1, 1), (1, 3, 2): (2, 1, 1), (2, 3, 4): (1, 4, 1)}
    for (p, q, m), (k, a, b) in expected.items():
        d = build_ehm(p, q, m)
        assert (d.k, d.a, d.b) == (k, a, b)
        assert d.a * d.k == m
        assert d.b * d.k == q - p


def test_derived_constants_formulas():
    for p, q, m in PARAMS:
        d = build_ehm(p, q, m)
        assert d.k == gcd(q - p, m)
        assert d.height == Fraction(p, q)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_ehm(1, 1, 1)  # slope one
    with pytest.raises(ValueError):
        build_ehm(3, 2, 1)  # slope above one
    with pytest.raises(ValueError):
        build_ehm(2, 4, 1)  # slope not reduced
    with pytest.raises(ValueError):
        build_ehm(1, 2, 0)  # order must be positive


@pytest.mark.parametrize("args", [(True, 2, 1), (1, True, 1), (1, 2, True)])
def test_build_rejects_bool_parameters(args):
    with pytest.raises(ValueError, match="positive integer"):
        build_ehm(*args)


def test_hypersurface_shape():
    d = build_ehm(1, 2, 1)
    x1, x4, x2, x3, y = (variable(n) for n in ("x1", "x4", "x2", "x3", "y"))
    assert d.hypersurface == y**d.b - x1 * x4 + x2 * x3
    d2 = build_ehm(1, 4, 1)  # b = 3
    assert d2.hypersurface == y**3 - x1 * x4 + x2 * x3


def test_action_weights_frozen():
    d = build_ehm(2, 3, 4)
    assert d.grading_action.weights == (2, 3, -3, -2, 0)
    assert d.twisted_action.weights == (-2, -2, 3, 3, 1)
    assert d.twisted_action.cyclic_order == 4
    assert d.twisted_action.cyclic_weights == (3, 3, 1, 1, 0)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_examples():
    d = build_ehm(1, 2, 1)
    found = {m.exponents: m.grading_weight for m in enumerate_invariant_monomials(d, 3)}
    assert found[(2, 0, 1, 0, 0)] == 0
    assert found[(1, 0, 0, 0, 1)] == 1


def test_enumeration_bound_zero_trivial():
    for p, q, m in PARAMS:
        mons = enumerate_invariant_monomials(build_ehm(p, q, m), 0)
        assert [mon.exponents for mon in mons] == [(0, 0, 0, 0, 0)]
        assert mons[0].grading_weight == 0


def test_enumeration_respects_cyclic_divisibility():
    d = build_ehm(2, 3, 4)
    for mon in enumerate_invariant_monomials(d, 6):
        s, u, v, w, _ = mon.exponents
        assert (-s - u + v + w) % 4 == 0


@pytest.mark.parametrize("bound", [True, False, -1, 2.0])
def test_enumeration_rejects_non_integer_bounds(bound):
    with pytest.raises(ValueError, match="nonnegative integer"):
        enumerate_invariant_monomials(build_ehm(1, 2, 1), bound)


def test_enumeration_matches_brute_force():
    # the quadruple loop keeps the order and the grading weights too
    for p, q, m in FAMILY:
        d = build_ehm(p, q, m)
        for bound in range(13):
            assert listed(enumerate_invariant_monomials(d, bound)) == brute_force_monomials(
                d, bound
            ), (p, q, m, bound)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILY), st.integers(0, 20))
def test_enumeration_matches_brute_force_random(params, bound):
    d = build_ehm(*params)
    assert listed(enumerate_invariant_monomials(d, bound)) == brute_force_monomials(d, bound)


def test_ehm_report_enumerates_once(monkeypatch):
    calls = []
    original = ehm.enumerate_invariant_monomials

    def counting(datum, degree_bound):
        calls.append(degree_bound)
        return original(datum, degree_bound)

    monkeypatch.setattr(ehm, "enumerate_invariant_monomials", counting)
    monkeypatch.setattr(reporting, "enumerate_invariant_monomials", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["ehm", "--p", "2", "--q", "5", "--m", "3", "--bound", "9"])
    assert code == 0
    assert calls == [9]


# ---------------------------------------------------------------------------
# weight identity


def test_weight_identity_all_params():
    for p, q, m in PARAMS:
        d = build_ehm(p, q, m)
        report = check_weight_identity(d, enumerate_invariant_monomials(d, 10))
        assert report.ok
        assert report.failure is None


def test_weight_identity_recomputed_independently():
    for p, q, m in PARAMS:
        d = build_ehm(p, q, m)
        for mon in enumerate_invariant_monomials(d, 10):
            s, u, v, w, z = mon.exponents
            direct = s * p + u * q - v * q - w * p
            folded = u * (q - p) + w * (q - p) + d.k * z
            assert direct == folded == mon.grading_weight
            assert direct >= 0


# ---------------------------------------------------------------------------
# special point


def test_special_point_reports():
    d = build_ehm(1, 2, 1)
    report = check_special_point(d, enumerate_invariant_monomials(d, 10))
    assert report.all_ok
    assert report.monomial_exponents == (2, 0, 1, 0, 0)
    assert report.value_at_point == 1

    d = build_ehm(2, 3, 4)
    report = check_special_point(d, enumerate_invariant_monomials(d, 10))
    assert report.all_ok
    assert report.monomial_exponents == (12, 0, 8, 0, 0)


def test_special_point_on_hypersurface_all_params():
    for p, q, m in PARAMS:
        d = build_ehm(p, q, m)
        assert d.hypersurface.evaluate(SPECIAL_POINT) == 0


def test_invariant_function_weight_arithmetic():
    # the witness function x1^(a*q) * x3^(a*p) has twisted weight zero
    for p, q, m in PARAMS:
        d = build_ehm(p, q, m)
        exps = (d.a * q, 0, d.a * p, 0, 0)
        report = monomial_weight(d.twisted_action, exps)
        assert report.gm_weight == -p * d.a * q + q * d.a * p == 0
        assert report.cyclic_residue == (-d.a * q + d.a * p) % d.a == 0


def test_zero_weight_monomials_avoid_y():
    for p, q, m in PARAMS:
        d = build_ehm(p, q, m)
        for mon in enumerate_invariant_monomials(d, 10):
            if mon.grading_weight == 0:
                assert mon.exponents[4] == 0


# ---------------------------------------------------------------------------
# actions on the hypersurface


def test_actions_reports_all_params():
    for p, q, m in PARAMS:
        report = verify_actions_on_hypersurface(build_ehm(p, q, m))
        assert report.all_ok
        assert report.sl2_check.preserved
        assert report.sl2_check.unit == parse_polynomial("1")
        assert report.grading_invariant
        assert report.twisted_weight == (q - p, 0)


def test_sl2_quotient_frozen_for_linear_case():
    # with y-exponent one the pullback differs by exactly the determinant term
    d = build_ehm(1, 2, 1)
    report = verify_actions_on_hypersurface(d)
    assert report.sl2_check.modulus_quotient == parse_polynomial("-x1*x4 + x2*x3")


def test_sl2_preserves_higher_exponent():
    d = build_ehm(1, 4, 1)  # b = 3
    report = verify_actions_on_hypersurface(d)
    assert report.all_ok


def test_sl2_recomposition_identity():
    d = build_ehm(1, 2, 1)
    sub = sl2_substitution()
    pulled = d.hypersurface.substitute(sub)
    check = verify_actions_on_hypersurface(d).sl2_check
    recomposed = check.unit * d.hypersurface + check.modulus_quotient * determinant_relation()
    assert recomposed == pulled


def test_sl2_identity_matches_sympy():
    x1, x2, x3, x4, y = sympy.symbols("x1 x2 x3 x4 y")
    a, b, g, dl = sympy.symbols("alpha beta gamma delta")
    surface = y - x1 * x4 + x2 * x3
    pulled = surface.subs(
        {
            x1: a * x1 + b * x2,
            x2: g * x1 + dl * x2,
            x3: a * x3 + b * x4,
            x4: g * x3 + dl * x4,
        },
        simultaneous=True,
    )
    diff = sympy.expand(pulled - surface)
    # difference must lie in the ideal of the determinant relation
    quotient = sympy.cancel(diff / (a * dl - b * g - 1))
    assert sympy.expand(quotient * (a * dl - b * g - 1) - diff) == 0

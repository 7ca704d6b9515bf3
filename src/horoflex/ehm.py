"""Verification suite for a family of threefolds with SL2 x cyclic symmetry.

The family is parametrized by coprime 0 < p < q and a twist order m >= 1 and
is realized on the determinantal hypersurface y^b = x1*x4 - x2*x3, where
k = gcd(q - p, m), a = m / k, b = (q - p) / k.  The module builds the two
diagonal actions carried by the family and checks, exactly and degree by
degree, the identities they are supposed to satisfy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple, Optional

from .actions import DiagonalTorusAction, is_invariant, monomial_weight, semi_invariant_weight
from .poly import HypersurfaceCheck, Polynomial, preserves_hypersurface, variable

COORDINATES = ("x1", "x2", "x3", "x4", "y")
SPECIAL_POINT = {"x1": 1, "x2": 0, "x3": 1, "x4": 0, "y": 0}


class EHMDatum(NamedTuple):
    """One member of the family, with derived constants and both actions."""

    p: int
    q: int
    m: int
    k: int
    a: int
    b: int
    hypersurface: Polynomial
    grading_action: DiagonalTorusAction
    twisted_action: DiagonalTorusAction

    @property
    def height(self) -> Fraction:
        return Fraction(self.p, self.q)


def build_ehm(p: int, q: int, m: int) -> EHMDatum:
    """Validate the parameters and assemble the datum.

    Requires gcd(p, q) = 1 and 0 < p < q (the slope p/q must be strictly
    below one; the family degenerates otherwise) and a twist order m >= 1.
    """
    for name, value in (("p", p), ("q", q), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer")
    if gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    if p >= q:
        raise ValueError("the slope p/q must be strictly less than one")
    k = gcd(q - p, m)
    a = m // k
    b = (q - p) // k
    x1, x2, x3, x4, y = (variable(v) for v in COORDINATES)
    equation = y**b - x1 * x4 + x2 * x3
    twisted = DiagonalTorusAction(
        COORDINATES, (-p, -p, q, q, k), a, (-1, -1, 1, 1, 0)
    )
    grading = DiagonalTorusAction(COORDINATES, (p, q, -q, -p, 0))
    return EHMDatum(p, q, m, k, a, b, equation, grading, twisted)


class InvariantMonomial(NamedTuple):
    """Exponents (s, u, v, w, z) of a twist-invariant monomial and its
    weight under the grading action."""

    exponents: tuple[int, int, int, int, int]
    grading_weight: int


def enumerate_invariant_monomials(datum: EHMDatum, degree_bound: int) -> list[InvariantMonomial]:
    """All twist-invariant monomials of total degree <= degree_bound.

    Every condition on the exponents (s, u, v, w, z) depends only on the
    degree pair A = s + u, B = v + w: the twisted weight vanishes when
    p*A - q*B = k*z for an integer z >= 0, the cyclic residue when
    B = A (mod a), and the degree bound reads A + B + z <= degree_bound.
    So the loop runs over the pairs, B stepping by a from A mod a until
    p*A - q*B turns negative, and expands each admissible pair over s in
    [0, A] and v in [0, B].  That is O(degree_bound^2 / a) pairs plus the
    output, against O(degree_bound^4) quadruples.  The list is sorted by
    exponents.
    """
    if isinstance(degree_bound, bool) or not isinstance(degree_bound, int) or degree_bound < 0:
        raise ValueError("degree_bound must be a nonnegative integer")
    p, q, k, a = datum.p, datum.q, datum.k, datum.a
    out = []
    for A in range(degree_bound + 1):
        for B in range(A % a, p * A // q + 1, a):
            kz = p * A - q * B
            if kz % k:
                continue
            z = kz // k
            if A + B + z > degree_bound:
                continue
            for s in range(A + 1):
                u = A - s
                for v in range(B + 1):
                    w = B - v
                    tau = p * s + q * u - q * v - p * w
                    out.append(InvariantMonomial((s, u, v, w, z), tau))
    out.sort(key=lambda mono: mono.exponents)
    return out


class WeightIdentityReport(NamedTuple):
    ok: bool
    checked: int
    failure: Optional[tuple[int, int, int, int, int]]


def check_weight_identity(
    datum: EHMDatum, monomials: list[InvariantMonomial]
) -> WeightIdentityReport:
    """Check both closed forms of the grading weight on the given monomials.

    For exponents (s, u, v, w, z) the weight must equal
    s*p + u*q - v*q - w*p, equal (u + w)*(q - p) + k*z, and be nonnegative.
    The direct weight is the exponents' dot product with the grading
    action's weights, as in ``monomial_weight``.
    """
    p, q, k = datum.p, datum.q, datum.k
    weights = datum.grading_action.weights
    for mono in monomials:
        exps = mono.exponents
        s, u, v, w, z = exps
        direct = sum(map(mul, exps, weights))
        folded = (u + w) * (q - p) + k * z
        if not (mono.grading_weight == direct == folded and direct >= 0):
            return WeightIdentityReport(False, len(monomials), mono.exponents)
    return WeightIdentityReport(True, len(monomials), None)


class SpecialPointReport(NamedTuple):
    """Checks around the distinguished point (1, 0, 1, 0, 0).

    The point lies on the hypersurface; the monomial x1^(a*q) * x3^(a*p) is
    twist-invariant, takes value 1 there, and no invariant monomial of
    grading weight zero involves y (so weight zero cannot vanish at the point).
    """

    on_hypersurface: bool
    monomial_exponents: tuple[int, int, int, int, int]
    monomial_invariant: bool
    value_at_point: Fraction
    zero_weight_avoids_y: bool
    monomials_checked: int

    @property
    def all_ok(self) -> bool:
        return (
            self.on_hypersurface
            and self.monomial_invariant
            and self.value_at_point == 1
            and self.zero_weight_avoids_y
        )


def check_special_point(
    datum: EHMDatum, monomials: list[InvariantMonomial]
) -> SpecialPointReport:
    """The special-point checks, with weight zero tested on the given monomials."""
    exponents = (datum.a * datum.q, 0, datum.a * datum.p, 0, 0)
    report = monomial_weight(datum.twisted_action, exponents)
    invariant = report.gm_weight == 0 and report.cyclic_residue == 0
    x1, x3 = variable("x1"), variable("x3")
    monomial = x1 ** exponents[0] * x3 ** exponents[2]
    value = monomial.evaluate(SPECIAL_POINT)
    on_surface = datum.hypersurface.evaluate(SPECIAL_POINT) == 0
    avoids_y = all(m.exponents[4] == 0 for m in monomials if m.grading_weight == 0)
    return SpecialPointReport(
        on_surface, exponents, invariant, value, avoids_y, len(monomials)
    )


def sl2_substitution() -> dict[str, Polynomial]:
    """Pullback of the SL2 action on the two coordinate pairs."""
    alpha, beta, gamma, delta = (variable(v) for v in ("alpha", "beta", "gamma", "delta"))
    x1, x2, x3, x4 = (variable(v) for v in ("x1", "x2", "x3", "x4"))
    return {
        "x1": alpha * x1 + beta * x2,
        "x2": gamma * x1 + delta * x2,
        "x3": alpha * x3 + beta * x4,
        "x4": gamma * x3 + delta * x4,
    }


def determinant_relation() -> Polynomial:
    alpha, beta, gamma, delta = (variable(v) for v in ("alpha", "beta", "gamma", "delta"))
    return alpha * delta - beta * gamma - 1


class HypersurfaceActionsReport(NamedTuple):
    """How the three symmetries treat the defining equation.

    The SL2 substitution fixes the equation modulo the determinant relation;
    the grading action gives every term weight zero; the twisted action scales
    every term by the same weight q - p with cyclic residue zero.
    """

    sl2_check: HypersurfaceCheck
    grading_invariant: bool
    twisted_weight: Optional[tuple[int, int]]
    twisted_weight_expected: int

    @property
    def all_ok(self) -> bool:
        return (
            self.sl2_check.preserved
            and self.grading_invariant
            and self.twisted_weight == (self.twisted_weight_expected, 0)
        )


def verify_actions_on_hypersurface(datum: EHMDatum) -> HypersurfaceActionsReport:
    sl2 = preserves_hypersurface(
        datum.hypersurface, sl2_substitution(), determinant_relation()
    )
    grading_ok = is_invariant(datum.grading_action, datum.hypersurface)
    twisted = semi_invariant_weight(datum.twisted_action, datum.hypersurface)
    return HypersurfaceActionsReport(sl2, grading_ok, twisted, datum.q - datum.p)

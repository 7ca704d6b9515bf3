"""A two-parameter family of threefold hypersurfaces, checked symbolically.

Each member lives on the hypersurface y^b = x1*x4 - x2*x3 and carries three
commuting symmetries: a linear substitution action on the x-coordinates, a
twisted one-parameter scaling (with a cyclic part of order a), and a grading
scaling.  The checks below are exact polynomial identities and exhaustive
monomial enumerations, no sampling anywhere.
"""

from horoflex.ehm import (
    build_ehm,
    check_special_point,
    check_weight_identity,
    enumerate_invariant_monomials,
    verify_actions_on_hypersurface,
)

for p, q, m in [(1, 2, 1), (1, 3, 2), (2, 3, 4)]:
    datum = build_ehm(p, q, m)
    print(f"=== parameters p={p} q={q} m={m}")
    print(f"  derived: k={datum.k} a={datum.a} b={datum.b} height={datum.height}")
    print(f"  hypersurface: {datum.hypersurface}")

    # invariant monomials of the twisted action, by exhaustive search
    monomials = enumerate_invariant_monomials(datum, 6)
    print(f"  invariant monomials up to degree 6: {len(monomials)}")
    for mon in monomials[:5]:
        print(f"    exponents {mon.exponents} -> grading weight {mon.grading_weight}")

    # every invariant monomial has the same weight under both formulas,
    # and the weight is never negative: the grading has no negative part
    up_to_10 = enumerate_invariant_monomials(datum, 10)
    identity = check_weight_identity(datum, up_to_10)
    print(f"  weight identity on {identity.checked} monomials: {identity.ok}")

    # the distinguished point is on the hypersurface and a known invariant
    # function takes the value one there, so the zero-degree locus meets it
    point = check_special_point(datum, up_to_10)
    print(
        f"  special point: on surface {point.on_hypersurface}, "
        f"witness monomial {point.monomial_exponents}, value {point.value_at_point}"
    )

    # the substitution action fixes the equation modulo the determinant
    # relation, as an exact identity with recorded quotient
    actions = verify_actions_on_hypersurface(datum)
    print(f"  substitution preserves the equation: {actions.sl2_check.preserved}")
    print(f"  twisted weight of the equation: {actions.twisted_weight}")
    print()

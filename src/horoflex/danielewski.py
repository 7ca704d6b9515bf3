"""Symbolic checks for the surface x*y^2 = z^2 - 1.

The surface carries an action of the semidirect product of a one-parameter
multiplicative group and an additive group,

    (t, s) . (x, y, z) = (t^2 (x + 2 z s + s^2 y^2), t^-1 y, z + s y^2),

whose negative multiplicative part makes it a standard source of
counterexamples.  Inverse parameters are handled by adjoining an inverse
variable tied to its partner by the relation t * t_inv = 1; the relation's
leading term is coprime to the surface equation's, so the divisibility
checks below are exact ideal-membership tests.
"""

from __future__ import annotations

from typing import NamedTuple

from .poly import (
    HypersurfaceCheck,
    Polynomial,
    compose_substitutions,
    divide,
    preserves_hypersurface,
    variable,
)


def surface_equation() -> Polynomial:
    x, y, z = variable("x"), variable("y"), variable("z")
    return x * y**2 - z**2 + 1


def inverse_relation(t: str = "t", t_inv: str = "t_inv") -> Polynomial:
    return variable(t) * variable(t_inv) - 1


def action_substitution(
    t: str = "t", t_inv: str = "t_inv", s: str = "s"
) -> dict[str, Polynomial]:
    """Pullback of the (t, s) action, with t^-1 written as t_inv."""
    x, y, z = variable("x"), variable("y"), variable("z")
    tv, iv, sv = variable(t), variable(t_inv), variable(s)
    return {
        "x": tv**2 * (x + 2 * z * sv + sv**2 * y**2),
        "y": iv * y,
        "z": z + sv * y**2,
    }


def preserves_surface() -> HypersurfaceCheck:
    """The full (t, s) action fixes the surface equation modulo t * t_inv = 1."""
    return preserves_hypersurface(
        surface_equation(), action_substitution(), inverse_relation()
    )


def unit_specialization_exact() -> bool:
    """At t = 1 the pullback of the equation is literally the equation."""
    specialized = {
        v: img.substitute({"t": 1, "t_inv": 1})
        for v, img in action_substitution().items()
    }
    equation = surface_equation()
    return equation.substitute(specialized) == equation


class CompositionReport(NamedTuple):
    """Per-coordinate residuals of the derived composition law.

    The law states (t, s) after (t', s') acts as (t t', s' + s t'^-2); it is
    derived by expanding both sides, so the report records, coordinate by
    coordinate, that the difference reduces to zero modulo the two inverse
    relations.
    """

    ok: bool
    residuals: tuple[tuple[str, Polynomial], ...]


def composition_law() -> CompositionReport:
    first = action_substitution("t2", "t2_inv", "s2")  # applied first
    second = action_substitution("t", "t_inv", "s")
    composed = compose_substitutions(second, first)

    t, ti = variable("t"), variable("t_inv")
    u, ui = variable("t2"), variable("t2_inv")
    s, w = variable("s"), variable("s2")
    combined_s = w + s * ui**2
    x, y, z = variable("x"), variable("y"), variable("z")
    expected = {
        "x": (t * u) ** 2 * (x + 2 * z * combined_s + combined_s**2 * y**2),
        "y": ti * ui * y,
        "z": z + combined_s * y**2,
    }
    relations = [inverse_relation("t", "t_inv"), inverse_relation("t2", "t2_inv")]
    residuals = []
    ok = True
    for coord in ("x", "y", "z"):
        difference = composed[coord] - expected[coord]
        _, remainder = divide(difference, relations)
        residuals.append((coord, remainder))
        ok = ok and remainder.is_zero
    return CompositionReport(ok, tuple(residuals))


MAKAR_LIMANOV_NOTE = (
    "The ring of functions invariant under every one-parameter additive "
    "action is the polynomial ring in y.  Cited from the literature; this "
    "package does not compute it."
)

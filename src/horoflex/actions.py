"""Diagonal multiplicative group actions with an optional cyclic twist.

An action scales each variable by t^weight and by a fixed root of unity
raised to the cyclic weight; a monomial transforms by the sum of its
exponent-weighted weights.  Everything here is exact integer arithmetic on
exponents, so invariance checks are decidable term by term.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .poly import Polynomial


class _ActionFields(NamedTuple):
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    cyclic_order: int = 1
    cyclic_weights: tuple[int, ...] = ()


class DiagonalTorusAction(_ActionFields):
    """Diagonal action: variable i gets weight weights[i] and, modulo
    cyclic_order, the residue cyclic_weights[i]."""

    __slots__ = ()

    def __new__(cls, variables: tuple[str, ...], weights: tuple[int, ...],
                cyclic_order: int = 1, cyclic_weights: tuple[int, ...] = ()):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if len(weights) != len(variables):
            raise ValueError("one weight per variable is required")
        order = cyclic_order
        if isinstance(order, bool) or not isinstance(order, int) or order < 1:
            raise ValueError("cyclic_order must be a positive integer")
        cyc = cyclic_weights or (0,) * len(variables)
        if len(cyc) != len(variables):
            raise ValueError("one cyclic weight per variable is required")
        return super().__new__(cls, variables, weights, order, tuple(c % order for c in cyc))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate it too
        return cls(*iterable)


class MonomialWeightReport(NamedTuple):
    exponents: tuple[int, ...]
    gm_weight: int
    cyclic_residue: int


def monomial_weight(
    action: DiagonalTorusAction, exponents: Sequence[int]
) -> MonomialWeightReport:
    """Total weight and cyclic residue of one monomial under the action.

    ``exponents`` has one entry per variable of the action, in its order.
    """
    exps = tuple(exponents)
    if len(exps) != len(action.variables):
        raise ValueError("exponent tuple length does not match the action")
    for x in exps:
        if isinstance(x, bool) or not isinstance(x, int) or x < 0:
            raise ValueError("exponents must be nonnegative integers")
    weight = sum(x * w for x, w in zip(exps, action.weights))
    residue = sum(x * c for x, c in zip(exps, action.cyclic_weights)) % action.cyclic_order
    return MonomialWeightReport(exps, weight, residue)


def _term_data(action: DiagonalTorusAction, p: Polynomial):
    for v in p.variables:
        if v not in action.variables:
            if any(e[p.variables.index(v)] for e in p.terms):
                raise ValueError(f"unknown variable {v!r}")
    index = [action.variables.index(v) if v in action.variables else None
             for v in p.variables]
    for e in p.terms:
        exps = [0] * len(action.variables)
        for pos, x in zip(index, e):
            if pos is not None:
                exps[pos] = x
        yield tuple(exps)


def is_invariant(action: DiagonalTorusAction, p: Polynomial) -> bool:
    """True when every term has weight zero and cyclic residue zero."""
    return p.is_zero or semi_invariant_weight(action, p) == (0, 0)


def semi_invariant_weight(
    action: DiagonalTorusAction, p: Polynomial
) -> Union[tuple[int, int], None]:
    """Common (weight, residue) of all terms.

    None when the terms disagree, and also for the zero polynomial, which
    determines no weight at all.
    """
    seen = None
    for exps in _term_data(action, p):
        report = monomial_weight(action, exps)
        pair = (report.gm_weight, report.cyclic_residue)
        if seen is None:
            seen = pair
        elif seen != pair:
            return None
    return seen

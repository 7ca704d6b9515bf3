"""Exact multivariate polynomial arithmetic over the rationals.

Terms map exponent tuples to nonzero coefficients: an ``int`` when the
coefficient is integral, a ``Fraction`` only when its denominator is not 1,
never a ``float`` or a ``bool``.  Integral polynomials, nearly all of those
this package builds, so add and multiply in int arithmetic.  The variable
universe of a polynomial is kept sorted by name so that the graded
lexicographic order (and with it every division result) is independent of
construction order.  Substitution lifts each image onto the result's
universe once and sums every term's product into one dict.  Also provides
derivations, a bounded local-nilpotency certificate, exponentials of
certified derivations, and the divisibility check used to verify that a
substitution preserves a hypersurface.  A derivation keeps the iterates that
certified it, so certifying it and then exponentiating it, once or many
times, applies it once per iterate.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]
PolyLike = Union["Polynomial", int, Fraction]


class PolynomialSyntaxError(ValueError):
    """Text that does not match the documented polynomial grammar."""


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_name(name: str) -> None:
    if not isinstance(name, str):
        raise TypeError(f"variable names must be strings, got {name!r}")
    if not _NAME.fullmatch(name):
        raise ValueError(f"not a valid variable name: {name!r}")


def _grlex(e: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(e), e)


def _times(
    a: Mapping[tuple[int, ...], Scalar], b: Mapping[tuple[int, ...], Scalar]
) -> dict[tuple[int, ...], Scalar]:
    """Product of two term dicts on one universe; zero sums are kept."""
    out: dict[tuple[int, ...], Scalar] = {}
    get = out.get
    b = b.items()
    for ea, ca in a.items():
        for eb, cb in b:
            key = tuple(map(add, ea, eb))
            out[key] = get(key, 0) + ca * cb
    return out


def _coefficient(value: Scalar) -> Scalar:
    """The stored form of a scalar: an int, or a Fraction that is not integral."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not polynomial coefficients")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"cannot treat {value!r} as a polynomial")


class Polynomial:
    """Immutable polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one entry per name in ``variables``) to
    nonzero coefficients, each an ``int`` or a non-integral ``Fraction``.
    Equality, hashing and printing do not see the difference, since
    ``3 == Fraction(3)`` and both hash and print alike; ``constant_value``
    and ``evaluate`` return a ``Fraction`` either way.  Coefficients given
    to the constructor must be ints or Fractions; floats and bools are
    refused.  Variable names are identifiers, as ``variable`` and the parser
    take them.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], Scalar],
    ):
        names = tuple(variables)
        for name in names:
            _check_name(name)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        order = tuple(sorted(names))
        perm = [names.index(v) for v in order]
        clean: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in terms.items():
            e = tuple(exps)
            if len(e) != len(names):
                raise ValueError("exponent tuple length does not match variables")
            for x in e:
                if isinstance(x, bool) or not isinstance(x, int) or x < 0:
                    raise ValueError(f"exponents must be nonnegative integers, got {x!r}")
            key = tuple(e[i] for i in perm)
            clean[key] = clean.get(key, 0) + _coefficient(coeff)
        object.__setattr__(self, "variables", order)
        object.__setattr__(self, "terms", Polynomial._make(order, clean).terms)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _make(variables: tuple[str, ...], terms: Mapping[tuple[int, ...], Scalar]) -> "Polynomial":
        # internal fast path: variables already sorted, coefficients exact;
        # drops zero terms and turns integral Fractions into ints
        p = object.__new__(Polynomial)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", {
            e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items()
            if c
        })
        return p

    # -- basic queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())))

    # -- universe alignment ----------------------------------------------------

    def on_universe(self, universe: tuple[str, ...]) -> dict[tuple[int, ...], Scalar]:
        """Re-key the terms onto a larger sorted variable universe."""
        if universe == self.variables:
            return dict(self.terms)
        pos = []
        for v in self.variables:
            try:
                pos.append(universe.index(v))
            except ValueError:
                raise ValueError(f"universe is missing variable {v!r}") from None
        width = len(universe)
        out: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            key = [0] * width
            for p, x in zip(pos, e):
                key[p] = x
            out[tuple(key)] = c
        return out

    @staticmethod
    def _merge_universe(a: "Polynomial", b: "Polynomial") -> tuple[str, ...]:
        if a.variables == b.variables:
            return a.variables
        return tuple(sorted(set(a.variables) | set(b.variables)))

    # -- arithmetic --------------------------------------------------------------

    @staticmethod
    def _coerce(value: PolyLike) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return constant(value)

    def _terms_on(self, universe: tuple[str, ...]) -> Mapping[tuple[int, ...], Scalar]:
        # read-only view: the terms themselves when the universe already matches
        return self.terms if universe == self.variables else self.on_universe(universe)

    def __add__(self, other: PolyLike) -> "Polynomial":
        other = Polynomial._coerce(other)
        universe = Polynomial._merge_universe(self, other)
        terms = self.on_universe(universe)
        get = terms.get
        for e, c in other._terms_on(universe).items():
            terms[e] = get(e, 0) + c
        return Polynomial._make(universe, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: PolyLike) -> "Polynomial":
        return self + (-Polynomial._coerce(other))

    def __rsub__(self, other: PolyLike) -> "Polynomial":
        return Polynomial._coerce(other) + (-self)

    def __mul__(self, other: PolyLike) -> "Polynomial":
        other = Polynomial._coerce(other)
        universe = Polynomial._merge_universe(self, other)
        return Polynomial._make(
            universe, _times(self._terms_on(universe), other._terms_on(universe))
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if isinstance(exponent, bool) or not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if exponent == 0:
            return constant(1)
        result = self
        for bit in bin(exponent)[3:]:  # square-and-multiply below the leading bit
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        universe = Polynomial._merge_universe(self, other)
        return self._terms_on(universe) == other._terms_on(universe)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        items = []
        for e, c in self.terms.items():
            support = tuple(
                (v, x) for v, x in zip(self.variables, e) if x
            )
            items.append((support, c))
        return hash(frozenset(items))

    # -- calculus and substitution -------------------------------------------

    def partial(self, var: str) -> "Polynomial":
        if var not in self.variables:
            return constant(0)
        idx = self.variables.index(var)
        out: dict[tuple[int, ...], Scalar] = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            key = tuple(x - 1 if i == idx else x for i, x in enumerate(e))
            out[key] = out.get(key, 0) + c * e[idx]
        return Polynomial._make(self.variables, out)

    def substitute(self, assignment: Mapping[str, PolyLike]) -> "Polynomial":
        """Ring homomorphism determined by the assignment.

        Variables absent from the assignment map to themselves.  The variable
        universe of the result is the union of the universes of the images of
        the variables that occur with a nonzero exponent.
        """
        images = {v: Polynomial._coerce(img) for v, img in assignment.items()}
        bases = {}
        for i, v in enumerate(self.variables):
            if any(e[i] for e in self.terms):
                img = images.get(v)
                bases[i] = img if img is not None else Polynomial._make((v,), {(1,): 1})
        universe = tuple(sorted({u for img in bases.values() for u in img.variables}))
        one = (0,) * len(universe)
        # powers[i][k] is the term dict of (image of variable i)^k on the universe
        powers = {i: [{one: 1}, img.on_universe(universe)] for i, img in bases.items()}
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        for e, c in self.terms.items():
            product = None
            for i, x in enumerate(e):
                if x:
                    chain = powers[i]
                    while len(chain) <= x:
                        chain.append(_times(chain[-1], chain[1]))
                    product = chain[x] if product is None else _times(product, chain[x])
            if product is None:
                out[one] = get(one, 0) + c
                continue
            for key, a in product.items():
                out[key] = get(key, 0) + c * a
        return Polynomial._make(universe, out)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Value at a rational point; raises if a needed variable is missing."""
        return self.substitute(dict(point)).constant_value()

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            factors = []
            for v, x in zip(self.variables, e):
                if x == 1:
                    factors.append(v)
                elif x > 1:
                    factors.append(f"{v}^{x}")
            if not factors:
                body = str(abs(c))
            else:
                mon = "*".join(factors)
                body = mon if abs(c) == 1 else f"{abs(c)}*{mon}"
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        if text.startswith("+ "):
            return text[2:]
        return "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def variable(name: str) -> Polynomial:
    _check_name(name)
    return Polynomial._make((name,), {(1,): 1})


def constant(value: Scalar) -> Polynomial:
    """The constant polynomial; an int or a Fraction, not a float or a bool."""
    return Polynomial._make((), {(): _coefficient(value)})


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(
    rf"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>{_NAME.pattern})|(?P<op>[-+*^()]))"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse the plain-text polynomial syntax.

    Grammar (also documented for the command line):

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := base ('^' natural)?
        base   := rational | identifier | '(' expr ')'

    where a rational is ``digits`` or ``digits/digits`` (the slash is only
    allowed inside a numeric literal).
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolynomialSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r} at position {pos}"
                )
            break
        pos = m.end()
        for kind in ("number", "name", "op"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    index = 0

    def peek() -> Optional[tuple[str, str]]:
        return tokens[index] if index < len(tokens) else None

    def take(expected: Optional[str] = None) -> tuple[str, str]:
        nonlocal index
        if index >= len(tokens):
            raise PolynomialSyntaxError("unexpected end of input")
        tok = tokens[index]
        if expected is not None and tok[1] != expected:
            raise PolynomialSyntaxError(f"expected {expected!r}, got {tok[1]!r}")
        index += 1
        return tok

    def parse_expr() -> Polynomial:
        sign = 1
        nxt = peek()
        if nxt is not None and nxt[1] in "+-":
            take()
            sign = -1 if nxt[1] == "-" else 1
        total = parse_term() * sign
        while True:
            nxt = peek()
            if nxt is None or nxt[1] not in "+-":
                return total
            take()
            part = parse_term()
            total = total + (part if nxt[1] == "+" else -part)

    def parse_term() -> Polynomial:
        result = parse_factor()
        while True:
            nxt = peek()
            if nxt is None or nxt[1] != "*":
                return result
            take()
            result = result * parse_factor()

    def parse_factor() -> Polynomial:
        base = parse_base()
        nxt = peek()
        if nxt is not None and nxt[1] == "^":
            take()
            kind, value = take()
            if kind != "number" or "/" in value:
                raise PolynomialSyntaxError("exponent must be a natural number")
            return base ** int(value)
        return base

    def parse_base() -> Polynomial:
        kind, value = take()
        if kind == "number":
            return constant(Fraction(value))
        if kind == "name":
            return variable(value)
        if value == "(":
            inner = parse_expr()
            take(")")
            return inner
        raise PolynomialSyntaxError(f"unexpected token {value!r}")

    result = parse_expr()
    if index != len(tokens):
        raise PolynomialSyntaxError(f"trailing input near {tokens[index][1]!r}")
    return result


# ---------------------------------------------------------------------------
# division


def divide(
    dividend: Polynomial, divisors: Sequence[Polynomial]
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: dividend = sum(q_i * divisors_i) + remainder.

    Divisors are tried in order against the graded-lex leading term; no
    remainder term is divisible by any divisor's leading term.  When the
    divisors' leading terms are pairwise coprime the zero-remainder test is a
    complete ideal-membership test (the only situation this package relies
    on).
    """
    divisors = list(divisors)
    if not divisors or any(d.is_zero for d in divisors):
        raise ZeroDivisionError("division by the zero polynomial")
    universe = dividend.variables
    for d in divisors:
        universe = tuple(sorted(set(universe) | set(d.variables)))
    work = dividend.on_universe(universe)
    divisor_data = []
    for d in divisors:
        terms = d.on_universe(universe)
        lead = max(terms, key=_grlex)
        divisor_data.append((terms, lead, terms[lead]))
    quotients: list[dict[tuple[int, ...], Scalar]] = [{} for _ in divisors]
    remainder: dict[tuple[int, ...], Scalar] = {}
    while work:
        e = max(work, key=_grlex)
        c = work[e]
        for qi, (terms, lead, lead_c) in enumerate(divisor_data):
            if all(x >= y for x, y in zip(e, lead)):
                shift = tuple(x - y for x, y in zip(e, lead))
                factor = _coefficient(Fraction(c, lead_c))
                quotients[qi][shift] = quotients[qi].get(shift, 0) + factor
                for de, dc in terms.items():
                    key = tuple(map(add, shift, de))
                    s = work.get(key, 0) - factor * dc
                    if s == 0:
                        work.pop(key, None)
                    else:
                        work[key] = s
                break
        else:
            remainder[e] = c
            del work[e]
    return (
        [Polynomial._make(universe, q) for q in quotients],
        Polynomial._make(universe, remainder),
    )


# ---------------------------------------------------------------------------
# derivations


class Derivation:
    """Derivation of a polynomial ring, given by images of variables.

    Variables missing from ``images`` are sent to zero; the extension to all
    polynomials is forced by additivity and the Leibniz rule.  The derivation
    keeps, per variable, the iterates v, d(v), ... once some d^k(v) is zero,
    so ``images`` is a read-only view.
    """

    __slots__ = ("images", "_chains")

    def __init__(self, images: Mapping[str, PolyLike]):
        if not all(isinstance(v, str) for v in images):
            raise TypeError("derivation keys must be variable names")
        for v in images:
            _check_name(v)
        cleaned = {v: Polynomial._coerce(img) for v, img in sorted(images.items())}
        object.__setattr__(self, "images", MappingProxyType(cleaned))
        object.__setattr__(self, "_chains", {})

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    def apply(self, p: PolyLike) -> Polynomial:
        p = Polynomial._coerce(p)
        total = constant(0)
        for v in p.variables:
            img = self.images.get(v)
            if img is None or img.is_zero:
                continue
            total = total + p.partial(v) * img
        return total

    __call__ = apply

    def closure_variables(self) -> tuple[str, ...]:
        out = set(self.images)
        for img in self.images.values():
            out.update(img.variables)
        return tuple(sorted(out))


class NilpotencyCheck(NamedTuple):
    """Outcome of the bounded local-nilpotency search.

    ``certified`` means every variable in the derivation's closure is killed
    by at most ``order`` applications, which suffices for local nilpotency on
    the whole ring.  ``certified=False`` only means the bound was too small:
    it is evidence of nothing.
    """

    certified: bool
    order: Optional[int]
    bound: int
    variable_orders: tuple[tuple[str, int], ...]


def _nilpotent_chains(d: Derivation, bound: int) -> Optional[dict[str, list[Polynomial]]]:
    """Per closure variable v, the nonzero iterates v, d(v), ..., d^(k-1)(v)
    for the least k <= bound with d^k(v) = 0; None if some variable has none.

    Complete chains are kept on the derivation and answer any later bound.
    """
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise ValueError("bound must be a positive integer")
    known = d._chains
    chains = {}
    for v in d.closure_variables():
        chain = known.get(v)
        if chain is None:
            cur = variable(v)
            chain = [cur]
            for _ in range(bound):
                cur = d.apply(cur)
                if cur.is_zero:
                    break
                chain.append(cur)
            else:
                return None
            known[v] = chain
        elif len(chain) > bound:
            return None
        chains[v] = chain
    return chains


def is_locally_nilpotent_bounded(d: Derivation, bound: int) -> NilpotencyCheck:
    """Search, per variable, for the least k <= bound with d^k(variable) = 0."""
    chains = _nilpotent_chains(d, bound)
    if chains is None:
        return NilpotencyCheck(False, None, bound, ())
    per_var = tuple((v, len(chain)) for v, chain in chains.items())
    return NilpotencyCheck(True, max((k for _, k in per_var), default=0), bound, per_var)


def exp_lnd(d: Derivation, parameter: str, bound: int = 8) -> dict[str, Polynomial]:
    """Substitution map of the one-parameter group generated by the derivation.

    Each variable maps to the finite series sum_k parameter^k d^k(v) / k!; the
    derivation must certify locally nilpotent at the given bound, otherwise
    this raises.  The parameter must be a fresh variable name.  The series is
    summed from the iterates that certify nilpotency, which the derivation
    keeps: d is applied sum_v k_v times in all, where d^(k_v)(v) = 0 first,
    however often the derivation is certified or exponentiated.
    """
    chains = _nilpotent_chains(d, bound)
    if chains is None:
        raise ValueError(
            f"derivation is not certified locally nilpotent within bound {bound}"
        )
    _check_name(parameter)
    if parameter in chains:
        raise ValueError(f"parameter {parameter!r} collides with a ring variable")
    out = {}
    for v, chain in chains.items():
        if len(chain) == 1:
            out[v] = chain[0]
            continue
        universe = tuple(sorted({parameter}.union(*(term.variables for term in chain))))
        at = universe.index(parameter)
        # the term c*m of d^k(v) becomes c/k! * t^k * m
        terms: dict[tuple[int, ...], Scalar] = {}
        factorial = 1
        for k, term in enumerate(chain):
            factorial *= k or 1
            for e, c in term.on_universe(universe).items():
                terms[e[:at] + (k,) + e[at + 1:]] = c if factorial == 1 else Fraction(c, factorial)
        out[v] = Polynomial._make(universe, terms)
    return out


def compose_substitutions(
    second: Mapping[str, PolyLike], first: Mapping[str, PolyLike]
) -> dict[str, Polynomial]:
    """Substitution map of 'apply first, then second' (as maps of points).

    Coordinate functions pull back contravariantly, so each image of the
    second map is rewritten through the first.
    """
    out = {v: Polynomial._coerce(img).substitute(first) for v, img in second.items()}
    for v, img in first.items():
        out.setdefault(v, Polynomial._coerce(img))
    return out


# ---------------------------------------------------------------------------
# hypersurface preservation


class HypersurfaceCheck(NamedTuple):
    """Certificate that a substitution maps (F) into (F) modulo a relation.

    ``preserved`` asserts F∘action = unit * F + modulus_quotient * modulus as
    an exact identity (without modulus, F∘action = unit * F).  ``residual`` is
    the reduction remainder and is zero exactly when ``preserved`` holds.
    """

    preserved: bool
    unit: Polynomial
    modulus_quotient: Optional[Polynomial]
    residual: Polynomial


def preserves_hypersurface(
    equation: Polynomial,
    action: Mapping[str, PolyLike],
    modulus: Optional[Polynomial] = None,
) -> HypersurfaceCheck:
    """Check that a substitution preserves the hypersurface of ``equation``.

    The pullback of the equation is reduced by the modulus first (when given)
    and then by the equation itself; a zero remainder certifies preservation
    and the quotients are returned for independent re-checking.  The test is
    complete whenever the leading terms of modulus and equation are coprime,
    which holds for every check this package performs.
    """
    if equation.is_zero:
        raise ValueError("the zero polynomial does not define a hypersurface")
    pulled = equation.substitute(action)
    if modulus is not None and modulus.is_zero:
        raise ValueError("the modulus must be nonzero")
    divisors = [modulus, equation] if modulus is not None else [equation]
    quotients, remainder = divide(pulled, divisors)
    recomposed = remainder
    for q, dv in zip(quotients, divisors):
        recomposed = recomposed + q * dv
    if recomposed != pulled:
        raise AssertionError("division identity failed to recompose")
    unit = quotients[-1]
    modulus_quotient = quotients[0] if modulus is not None else None
    return HypersurfaceCheck(remainder.is_zero, unit, modulus_quotient, remainder)

import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from horoflex.poly import (
    Derivation,
    Polynomial,
    PolynomialSyntaxError,
    compose_substitutions,
    constant,
    divide,
    exp_lnd,
    is_locally_nilpotent_bounded,
    parse_polynomial,
    preserves_hypersurface,
    variable,
)

X, Y, Z = variable("x"), variable("y"), variable("z")


def random_coefficient(rng, max_coef=5):
    """An int, or in some draws a Fraction n/d (integral ones included)."""
    n = rng.randint(-max_coef, max_coef)
    if rng.random() < 0.3:
        return Fraction(n, rng.randint(1, 4))
    return n


def random_poly(rng, names=("x", "y"), max_terms=4, max_deg=3, max_coef=5):
    p = constant(0)
    for _ in range(rng.randint(1, max_terms)):
        term = constant(random_coefficient(rng, max_coef))
        for name in names:
            term = term * variable(name) ** rng.randint(0, max_deg)
        p = p + term
    return p


def assert_coefficients_normal(p):
    """Every coefficient is a nonzero int or a Fraction with denominator > 1."""
    for c in p.terms.values():
        assert (type(c) is int and c != 0) or (
            type(c) is Fraction and c.denominator != 1
        ), (p, c)


def to_sympy(p):
    expr = sympy.Integer(0)
    syms = [sympy.Symbol(v) for v in p.variables]
    for exps, coef in p.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return sympy.expand(expr)


# ---------------------------------------------------------------------------
# arithmetic


def test_basic_arithmetic():
    p = (X + Y) ** 2
    assert p == X**2 + 2 * X * Y + Y**2
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert (p - p).is_zero


def test_constant_and_scalar_mixing():
    assert 2 * X + X == 3 * X
    assert X * Fraction(1, 2) * 2 == X
    assert (X + 1) - 1 == X
    assert constant(Fraction(3, 4)).constant_value() == Fraction(3, 4)


def test_variable_universes_merge():
    p = X + variable("a")
    assert p.variables == ("a", "x")
    q = p * Z
    assert q.variables == ("a", "x", "z")


def test_polynomial_identity_examples():
    left = (X + Y + Z) ** 3
    right = sum(
        (
            X**3,
            Y**3,
            Z**3,
            3 * X**2 * Y,
            3 * X**2 * Z,
            3 * Y**2 * X,
            3 * Y**2 * Z,
            3 * Z**2 * X,
            3 * Z**2 * Y,
            6 * X * Y * Z,
        ),
        constant(0),
    )
    assert left == right


def test_integral_coefficients_are_ints():
    p = Polynomial(["x", "y"], {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 0})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 3)}
    assert type(p.terms[(1, 0)]) is int
    assert type(variable("x").terms[(1,)]) is int
    assert constant(Fraction(6, 3)).terms == {(): 2}
    half = Fraction(1, 2) * X
    assert type((half + half).terms[(1,)]) is int
    assert_coefficients_normal(half * 2)
    # the public scalar results stay Fractions
    assert type(constant(3).constant_value()) is Fraction
    assert type((X + 1).evaluate({"x": 2})) is Fraction
    # ints and Fractions are interchangeable for equality, hashing and text
    assert constant(3) == constant(Fraction(3)) == 3 == Fraction(3)
    assert hash(constant(3)) == hash(Polynomial((), {(): Fraction(3)}))
    assert str(Fraction(3, 1) * X) == str(3 * X) == "3*x"


@pytest.mark.parametrize("coeff", [0.1, 1.0, float("nan")])
def test_constructor_rejects_float_coefficients(coeff):
    with pytest.raises(TypeError, match="cannot treat .* as a polynomial"):
        Polynomial(["x"], {(1,): coeff})
    with pytest.raises(TypeError, match="cannot treat .* as a polynomial"):
        constant(coeff)
    with pytest.raises(TypeError, match="cannot treat .* as a polynomial"):
        X * coeff


@pytest.mark.parametrize("coeff", [True, False])
def test_constructor_rejects_bool_coefficients(coeff):
    with pytest.raises(TypeError, match="booleans are not polynomial coefficients"):
        Polynomial(["x"], {(1,): coeff})
    with pytest.raises(TypeError, match="booleans are not polynomial coefficients"):
        constant(coeff)
    with pytest.raises(TypeError, match="booleans are not polynomial coefficients"):
        X * coeff


def test_constructor_rejects_bool_exponents():
    with pytest.raises(ValueError, match="nonnegative integers"):
        Polynomial(["x"], {(True,): 1})
    with pytest.raises(ValueError, match="nonnegative integers"):
        Polynomial(["x", "y"], {(1, False): 1})


@pytest.mark.parametrize("name", ["", "x y", "2x", "x-1", "x\n", "é"])
def test_constructor_rejects_invalid_variable_names(name):
    # the names variable() refuses, so str() of every polynomial parses back
    with pytest.raises(ValueError, match="not a valid variable name"):
        Polynomial((name,), {(2,): 3})
    with pytest.raises(ValueError, match="not a valid variable name"):
        Polynomial(("x", name), {(1, 1): 1})
    with pytest.raises(ValueError, match="not a valid variable name"):
        variable(name)
    # a derivation key is a variable name too, checked when it is built
    with pytest.raises(ValueError, match="not a valid variable name"):
        Derivation({name: X})


@pytest.mark.parametrize("name", [3, None, b"x", 1.5, ["x"]])
@pytest.mark.parametrize(
    "build",
    [
        lambda name: Polynomial((name,), {(1,): 1}),
        lambda name: variable(name),
        lambda name: exp_lnd(Derivation({"x": constant(1)}), name),
    ],
    ids=["Polynomial", "variable", "exp_lnd"],
)
def test_non_string_variable_names_are_named_type_errors(build, name):
    with pytest.raises(TypeError, match=f"variable names must be strings, got {re.escape(repr(name))}$"):
        build(name)


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        X ** (-1)
    with pytest.raises(ValueError):
        X**True


def test_power_multiplies_only_what_it_needs(monkeypatch):
    # square-and-multiply: x^1 is x itself, x^2 one square, x^5 two squares
    # and one product
    base = X + 1
    products = []
    original = Polynomial.__mul__

    def counting(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    powers, counts = [], []
    for k in (0, 1, 2, 5):
        products.clear()
        powers.append(base**k)
        counts.append(len(products))
    monkeypatch.undo()
    assert counts == [0, 0, 1, 3]
    assert powers == [constant(1), base, base * base, base * base * base * base * base]


def test_partial_and_evaluate():
    p = X**2 * Y + 3 * Y
    assert p.partial("x") == 2 * X * Y
    assert p.partial("y") == X**2 + 3
    assert p.evaluate({"x": 2, "y": Fraction(1, 3)}) == Fraction(4, 3) + 1


def test_substitute():
    p = X**2 + Y
    image = p.substitute({"x": Y, "y": constant(1)})
    assert image == Y**2 + 1
    # untouched variables stay themselves
    assert (X + Z).substitute({"x": Y}) == Y + Z


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_examples():
    assert parse_polynomial("x^2 - 2*x + 1") == (X - 1) ** 2
    assert parse_polynomial("-x*y") == -(X * Y)
    assert parse_polynomial("3/4*x^2*y - 2") == Fraction(3, 4) * X**2 * Y - 2
    assert parse_polynomial("(x + y)^2") == (X + Y) ** 2
    assert parse_polynomial("7") == constant(7)


def test_parse_errors():
    for bad in ["", "x +", "x^-1", "2x", "x**2", "(x", "x/y", "^2"]:
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(bad)


def test_str_is_reparseable_frozen():
    p = -(X**2) * Y + Fraction(1, 2) * Z - 3
    assert parse_polynomial(str(p)) == p
    assert str(constant(0)) == "0"
    assert str(X - Y) in {"x - y"}


# ---------------------------------------------------------------------------
# division


def test_exact_division_of_determinant_pullback():
    x1, x2, x3, x4 = (variable(f"x{i}") for i in (1, 2, 3, 4))
    a, b, g, d = (variable(n) for n in ("alpha", "beta", "gamma", "delta"))
    det = x1 * x4 - x2 * x3
    pulled = det.substitute(
        {
            "x1": a * x1 + b * x2,
            "x2": g * x1 + d * x2,
            "x3": a * x3 + b * x4,
            "x4": g * x3 + d * x4,
        }
    )
    assert divide(pulled, [det]) == ([a * d - b * g], constant(0))


def test_divide_remainder_invariants():
    dividend = X**2 * Y + X * Y**2 + Y**2
    divisors = [X * Y - 1, Y**2 - 1]
    quotients, remainder = divide(dividend, divisors)
    recomposed = remainder
    for q, d in zip(quotients, divisors):
        recomposed = recomposed + q * d
    assert recomposed == dividend
    assert remainder == X + Y + 1


def test_divide_by_one_divisor_leaves_remainder_when_not_exact():
    assert divide(X**2 + 1, [X + 1]) == ([X - 1], constant(2))
    assert divide(X**2 - 1, [X + 1]) == ([X - 1], constant(0))


# ---------------------------------------------------------------------------
# derivations


def test_derivation_images_and_apply():
    d = Derivation({"x": Y, "y": constant(0)})
    assert d.apply(X**2) == 2 * X * Y
    assert d.apply(X * Y) == Y**2
    assert d.apply(constant(5)).is_zero
    # keys are checked before they are sorted, so mixed types do not reach the sort
    with pytest.raises(TypeError, match="derivation keys must be variable names"):
        Derivation({1: X, "y": Y})


def test_leibniz_rule_frozen():
    d = Derivation({"x": X * Y, "y": Z, "z": constant(1)})
    p, q = X + Z**2, Y * X
    left = d.apply(p * q)
    right = d.apply(p) * q + p * d.apply(q)
    assert left == right


def test_nilpotency_certificate():
    d = Derivation({"x": Y, "y": constant(0)})
    check = is_locally_nilpotent_bounded(d, 5)
    assert check.certified
    assert check.order == 2
    assert dict(check.variable_orders) == {"x": 2, "y": 1}


def test_nilpotency_fails_for_euler():
    d = Derivation({"x": X})
    check = is_locally_nilpotent_bounded(d, 6)
    assert not check.certified


def test_exp_lnd_translation():
    d = Derivation({"x": Y, "y": constant(0)})
    e = exp_lnd(d, "t")
    assert e["x"] == X + variable("t") * Y
    assert e["y"] == Y


def test_exp_lnd_quadratic():
    d = Derivation({"x": Y**2, "y": constant(0)})
    e = exp_lnd(d, "s")
    assert e["x"] == X + variable("s") * Y**2


def test_exp_lnd_rejects_uncertified():
    with pytest.raises(ValueError):
        exp_lnd(Derivation({"x": X}), "t")
    with pytest.raises(ValueError):
        exp_lnd(Derivation({"x": Y, "y": constant(0)}), "x")


def test_exp_lnd_bound_error_before_collision():
    # Euler's derivation is never certified, and "x" would also collide
    with pytest.raises(ValueError, match="not certified"):
        exp_lnd(Derivation({"x": X}), "x")
    with pytest.raises(ValueError, match="positive integer"):
        exp_lnd(Derivation({"x": Y, "y": constant(0)}), "x", 0)


@pytest.mark.parametrize("bound", [True, 0, 2.0])
def test_nilpotency_rejects_non_integer_bounds(bound):
    d = Derivation({"x": Y, "y": constant(0)})
    with pytest.raises(ValueError, match="positive integer"):
        is_locally_nilpotent_bounded(d, bound)
    with pytest.raises(ValueError, match="positive integer"):
        exp_lnd(d, "t", bound)


def test_exp_lnd_applies_derivation_once_per_iterate(monkeypatch):
    # d^4(x) = d^2(y) = d(z) = 0 first: the certificate and the series share
    # those 4 + 2 + 1 applications.  Outside the derivation's own products,
    # the series multiplies nothing: each term is re-keyed into one dict.
    d = Derivation({"x": Y**2, "y": Z, "z": constant(0)})
    calls = []
    inside = []
    products = []
    original = Derivation.apply
    original_mul = Polynomial.__mul__

    def counting_mul(self, other):
        if not inside:
            products.append(other)
        return original_mul(self, other)

    def counting(self, p):
        calls.append(p)
        inside.append(p)
        try:
            return original(self, p)
        finally:
            inside.pop()

    monkeypatch.setattr(Derivation, "apply", counting)
    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    e = exp_lnd(d, "t")
    assert len(calls) == 7
    assert len(products) == 0
    monkeypatch.undo()
    t = variable("t")
    assert e["x"] == X + t * Y**2 + t**2 * Y * Z + Fraction(1, 3) * t**3 * Z**2
    assert e["y"] == Y + t * Z
    assert e["z"] == Z


def counting_applications(monkeypatch):
    calls = []
    original = Derivation.apply

    def counting(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(Derivation, "apply", counting)
    return calls


def test_derivation_keeps_its_iterates(monkeypatch):
    d = Derivation({"x": Y**2, "y": Z, "z": constant(0)})
    calls = counting_applications(monkeypatch)
    check = is_locally_nilpotent_bounded(d, 8)
    flows = [exp_lnd(d, name) for name in ("t", "s", "u")]
    # 4 + 2 + 1 applications for the certificate, none for the three series
    assert len(calls) == 7
    monkeypatch.undo()
    # the stored iterates stay true: the images cannot be changed under them
    with pytest.raises(TypeError):
        d.images["x"] = X
    fresh = Derivation(d.images)
    assert check == is_locally_nilpotent_bounded(fresh, 8)
    assert flows == [exp_lnd(fresh, name) for name in ("t", "s", "u")]


def test_stored_iterates_answer_each_bound(monkeypatch):
    d = Derivation({"x": Y**2, "y": Z, "z": constant(0)})
    assert is_locally_nilpotent_bounded(d, 64).certified
    calls = counting_applications(monkeypatch)
    # x needs 4 applications: a success at 64 does not certify bound 2 or 3
    for bound in (1, 2, 3, 4, 64):
        fresh = Derivation(d.images)
        assert is_locally_nilpotent_bounded(d, bound) == is_locally_nilpotent_bounded(fresh, bound)
    calls.clear()
    assert not is_locally_nilpotent_bounded(d, 2).certified
    with pytest.raises(ValueError, match="not certified"):
        exp_lnd(d, "t", 2)
    assert is_locally_nilpotent_bounded(d, 4).order == 4
    assert calls == []
    # bounds and parameters are still validated before the stored chains answer
    for bound in (0, True, 1.5):
        with pytest.raises(ValueError, match="positive integer"):
            is_locally_nilpotent_bounded(d, bound)
        with pytest.raises(ValueError, match="positive integer"):
            exp_lnd(d, "t", bound)
    with pytest.raises(ValueError, match="not a valid variable name"):
        exp_lnd(d, "t u")
    with pytest.raises(ValueError, match="collides"):
        exp_lnd(d, "y")


def test_exp_lnd_group_law_frozen():
    d = Derivation({"x": Y**2, "y": Z, "z": constant(0)})
    et = exp_lnd(d, "t")
    es = exp_lnd(d, "s")
    composed = compose_substitutions(et, es)
    er = exp_lnd(d, "r")
    ts = variable("t") + variable("s")
    for v, img in er.items():
        assert composed[v] == img.substitute({"r": ts})


def test_compose_substitutions_order():
    first = {"x": X + 1}
    second = {"x": X**2}
    # apply first, then second composed as second after first: x -> (x+1)^2
    assert compose_substitutions(second, first)["x"] == (X + 1) ** 2


def conjugate_flows(d, phi, phi_inverse):
    """exp(t D') for D' = phi^-1 o D o phi (as ring maps), and the same flow
    composed as phi, then exp(t D), then phi^-1 in both argument orders."""
    conjugate = Derivation({v: d.apply(img).substitute(phi_inverse) for v, img in phi.items()})
    flow = exp_lnd(d, "t")
    return (
        exp_lnd(conjugate, "t"),
        compose_substitutions(compose_substitutions(phi, flow), phi_inverse),
        compose_substitutions(phi_inverse, compose_substitutions(flow, phi)),
    )


def test_conjugate_flow_identity_pins_composition_order():
    # Freudenburg, Algebraic Theory of Locally Nilpotent Derivations, ch. 1
    d = Derivation({"x": constant(0), "y": X, "z": Y})
    phi = {"x": X, "y": Y + X**2, "z": Z + Y**3}
    phi_inverse = {"x": X, "y": Y - X**2, "z": Z - (Y - X**2) ** 3}
    flow, composed, reversed_order = conjugate_flows(d, phi, phi_inverse)
    assert flow == composed
    assert flow != reversed_order


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_conjugate_flow_identity_for_triangular_automorphisms(seed):
    # phi = (x, y + p(x), z + q(x, y)) has the triangular inverse
    # (x, y - p(x), z - q(x, y - p(x)))
    rng = random.Random(seed)
    p = random_poly(rng, names=("x",), max_terms=3, max_deg=3)
    q = random_poly(rng, names=("x", "y"), max_terms=3, max_deg=2)
    phi = {"x": X, "y": Y + p, "z": Z + q}
    phi_inverse = {"x": X, "y": Y - p, "z": Z - q.substitute({"y": Y - p})}
    d = Derivation({"x": constant(0), "y": X, "z": Y})
    flow, composed, _ = conjugate_flows(d, phi, phi_inverse)
    assert flow == composed


# ---------------------------------------------------------------------------
# hypersurface preservation


def test_preserves_hypersurface_simple():
    eq = X * Y - 1
    check = preserves_hypersurface(eq, {"x": 2 * X, "y": Fraction(1, 2) * Y})
    assert check.preserved
    assert check.unit == constant(1)
    assert check.residual.is_zero


def test_preserves_hypersurface_failure():
    eq = X * Y - 1
    check = preserves_hypersurface(eq, {"x": X + 1})
    assert not check.preserved
    assert not check.residual.is_zero


# ---------------------------------------------------------------------------
# properties and sympy cross-checks


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    a, b, c = (random_poly(rng) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_product_matches_sympy(seed):
    rng = random.Random(seed)
    a, b = random_poly(rng), random_poly(rng)
    assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_str_roundtrip_random(seed):
    rng = random.Random(seed)
    p = random_poly(rng, names=("x", "y", "z"))
    assert parse_polynomial(str(p)) == p


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_division_recomposition_random(seed):
    rng = random.Random(seed)
    dividend = random_poly(rng, names=("x", "y"))
    divisors = [random_poly(rng, names=("x", "y"), max_terms=2) for _ in range(2)]
    divisors = [d for d in divisors if not d.is_zero]
    if not divisors:
        return
    quotients, remainder = divide(dividend, divisors)
    recomposed = remainder
    for q, d in zip(quotients, divisors):
        recomposed = recomposed + q * d
    assert recomposed == dividend


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_leibniz_rule_random(seed):
    rng = random.Random(seed)
    d = Derivation(
        {
            "x": random_poly(rng, names=("x", "y"), max_terms=2, max_deg=2),
            "y": random_poly(rng, names=("x", "y"), max_terms=2, max_deg=2),
        }
    )
    p, q = random_poly(rng), random_poly(rng)
    assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)


def random_triangular_derivation(rng, names=("x", "y", "z")):
    """d(names[i]) is a polynomial in the later names only: locally nilpotent."""
    images = {}
    for i, name in enumerate(names):
        later = names[i + 1:]
        images[name] = random_poly(rng, names=later, max_terms=2, max_deg=2) if later else constant(
            random_coefficient(rng)
        )
    return Derivation(images)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_coefficient_invariant_after_every_operation(seed):
    rng = random.Random(seed)
    a, b = random_poly(rng), random_poly(rng)
    results = [a, b, a + b, a - b, a * b, a ** rng.randint(0, 3), a.partial("x"), a.partial("y")]
    results.append(a.substitute({"x": b, "y": Fraction(1, 2) * X + 1}))
    divisors = [d for d in (b, random_poly(rng, max_terms=2)) if not d.is_zero]
    if divisors:
        quotients, remainder = divide(a, divisors)
        results.extend(quotients)
        results.append(remainder)
    results.extend(exp_lnd(random_triangular_derivation(rng), "t", 64).values())
    for p in results:
        assert_coefficients_normal(p)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_division_recomposition_matches_sympy_rational(seed):
    rng = random.Random(seed)
    dividend = random_poly(rng, max_coef=7)
    divisors = [d for d in (random_poly(rng, max_terms=2) for _ in range(2)) if not d.is_zero]
    if not divisors:
        return
    quotients, remainder = divide(dividend, divisors)
    recomposed = to_sympy(remainder) + sum(
        to_sympy(q) * to_sympy(d) for q, d in zip(quotients, divisors)
    )
    assert sympy.expand(recomposed - to_sympy(dividend)) == 0


def as_sympy(value):
    if isinstance(value, Polynomial):
        return to_sympy(value)
    return sympy.Rational(value.numerator, value.denominator)


def random_assignment(rng, names, pool=("x", "y", "z", "u", "w")):
    """Images for a random subset of the names: scalars, or polynomials over a
    random part of the pool, which shares some names and brings new ones."""
    out = {}
    for name in names:
        if rng.random() < 0.3:
            continue
        if rng.random() < 0.2:
            out[name] = random_coefficient(rng)
        else:
            over = rng.sample(pool, rng.randint(0, 3))
            out[name] = random_poly(rng, names=over, max_terms=3, max_deg=2)
    return out


def substituted_universe(p, assignment):
    """Union of the universes of the images of the variables that occur in p
    with a nonzero exponent; a variable with no image maps to itself."""
    names = set()
    for i, v in enumerate(p.variables):
        if any(e[i] for e in p.terms):
            img = assignment.get(v, variable(v))
            names.update(img.variables if isinstance(img, Polynomial) else ())
    return tuple(sorted(names))


def sympy_substitute(p, assignment):
    return sympy.expand(
        to_sympy(p).xreplace({sympy.Symbol(v): as_sympy(img) for v, img in assignment.items()})
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_substitute_matches_sympy(seed):
    rng = random.Random(seed)
    p = random_poly(rng, names=("x", "y", "z"), max_terms=5)
    assignment = random_assignment(rng, ("x", "y", "z"))
    image = p.substitute(assignment)
    assert to_sympy(image) == sympy_substitute(p, assignment)
    assert image.variables == substituted_universe(p, assignment)
    assert_coefficients_normal(image)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compose_substitutions_matches_sympy(seed):
    rng = random.Random(seed)
    names = ("x", "y", "z")
    first = random_assignment(rng, names)
    second = {
        v: random_poly(rng, names=rng.sample(names, rng.randint(0, 3)), max_terms=3, max_deg=2)
        for v in names
        if rng.random() < 0.7
    }
    composed = compose_substitutions(second, first)
    assert set(composed) == set(second) | set(first)
    for v, img in composed.items():
        if v in second:
            assert to_sympy(img) == sympy_substitute(second[v], first)
            assert img.variables == substituted_universe(second[v], first)
        else:
            assert img == first[v]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_matches_sympy(seed):
    rng = random.Random(seed)
    p = random_poly(rng, names=("x", "y", "z"), max_terms=5)
    # a partial point: evaluation succeeds exactly when what is left is constant
    point = {v: random_coefficient(rng, 7) for v in ("x", "y", "z", "w") if rng.random() < 0.8}
    expected = sympy_substitute(p, point)
    if expected.free_symbols:
        with pytest.raises(ValueError, match="not constant"):
            p.evaluate(point)
    else:
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert sympy.Rational(value.numerator, value.denominator) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exp_lnd_matches_sympy_rational(seed):
    rng = random.Random(seed)
    d = random_triangular_derivation(rng)
    t = sympy.Symbol("t")
    images = {sympy.Symbol(v): to_sympy(img) for v, img in d.images.items()}

    def apply(expr):
        return sympy.expand(sum(img * sympy.diff(expr, v) for v, img in images.items()))

    for v, img in exp_lnd(d, "t", 64).items():
        term, total, k = sympy.Symbol(v), sympy.Integer(0), 0
        while term != 0:
            total += t**k * term / sympy.factorial(k)
            term, k = apply(term), k + 1
        assert sympy.expand(to_sympy(img) - total) == 0

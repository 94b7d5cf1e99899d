import math
import random
import re
from fractions import Fraction

import pytest

from ocpoly.algebra import (BASIS_NAMES, AlgebraParams, Octonion,
                            parse_octonion, random_octonion)
from ocpoly.errors import InvalidInput, ParseError, ResourceLimit
from ocpoly.opoly import OPolynomial, parse_opolynomial
from ocpoly.scalars import EXACT, REAL

# structure constants of definite and split algebras, rational ones included
GAMMAS = ((-1, -1, -1), (2, 3, 5), (-2, 3, Fraction(-1, 2)),
          (Fraction(3, 7), -5, Fraction(2, 3)))


class TestArithmetic:
    def test_add_sub(self, P, basis, rng):
        f = OPolynomial.make(P, [random_octonion(P, rng) for _ in range(4)])
        g = OPolynomial.make(P, [random_octonion(P, rng) for _ in range(3)])
        assert ((f + g) - g).coeffs == f.coeffs
        assert (f - f).is_zero()

    def test_scalar_operands(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [i, one])
        assert (f + 2).coeffs == (i + 2, one)
        assert (f - j).coeffs == (i - j, one)
        assert (f - i).coeffs == (Octonion.zero(P), one)

    def test_mul_by_zero(self, P, basis):
        f, zero = OPolynomial.make(P, basis), OPolynomial.zero(P)
        assert (f * zero).is_zero() and (zero * f).is_zero()

    def test_trailing_zero_trim(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [i, one, Octonion.zero(P)])
        assert f.degree == 1

    def test_mul_degree_and_leading(self, P, rng):
        f = OPolynomial.make(P, [random_octonion(P, rng) for _ in range(3)]
                             + [Octonion.one(P)])
        g = OPolynomial.make(P, [random_octonion(P, rng) for _ in range(2)]
                             + [Octonion.one(P)])
        h = f * g
        assert h.degree == 5
        assert h.coeff(5).isclose(Octonion.one(P))

    def test_mul_matches_eval_central_argument(self, P, rng):
        # with a central argument, eval is multiplicative
        f = OPolynomial.make(P, [random_octonion(P, rng) for _ in range(3)])
        g = OPolynomial.make(P, [random_octonion(P, rng) for _ in range(3)])
        c = Octonion.scalar(P, Fraction(3, 2))
        assert (f * g).eval(c).isclose(f.eval(c) * g.eval(c))

    def test_scale_sides(self, P, basis):
        # the two multiples of the self-test's ix + j differ: jl != lj
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [j, i])
        assert not f.scale_right(l).coeff(0).isclose(f.scale_left(l).coeff(0))


class TestCompanion:
    def test_coeffs_central(self, rng):
        # the polar-form sums equal the real parts of the product conj(f) f
        for gammas in GAMMAS:
            for field in (EXACT, REAL):
                P = AlgebraParams(field, *gammas)
                for _ in range(5):
                    f = OPolynomial.make(P, [random_octonion(P, rng)
                                             for _ in range(4)])
                    if f.is_zero():
                        continue
                    prod = OPolynomial.make(
                        P, [a.conj() for a in f.coeffs]) * f
                    want = [c.re() for c in prod.coeffs]
                    got = f.companion().coeffs
                    if field.exact:
                        assert all(c.is_central() for c in prod.coeffs)
                        assert got == tuple(want)
                        continue
                    scale = max(abs(c) for c in want)
                    assert len(got) == len(want)
                    assert got == pytest.approx(want, rel=1e-12,
                                                abs=1e-12 * scale)

    def test_roots_included(self, P, basis):
        # any root of f lies in a class cut out by the companion
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [j, i])
        comp = f.companion()
        lam = k  # f(k) = ik + j = 0 since ik = -j
        assert f.eval(lam).is_zero()
        assert comp.eval(lam.norm()) is not None  # shape check
        # substitute the class data T=0, N=1 into x^2 - Tx + N divides comp:
        val = comp.eval(complex(0, 1))
        assert abs(val) < 1e-12


class TestEval:
    def test_left_bracketing(self, rng):
        # term is a_t * (lambda^t) with powers formed by left products;
        # Horner's rule agrees exactly on every alternative algebra
        for gammas in GAMMAS:
            P = AlgebraParams(EXACT, *gammas)
            for _ in range(10):
                coeffs = [random_octonion(P, rng) for _ in range(6)]
                f = OPolynomial.make(P, coeffs)
                lam = random_octonion(P, rng)
                acc = Octonion.zero(P)
                power = Octonion.one(P)
                for a in coeffs:
                    acc = acc + a * power
                    power = power * lam
                assert f.eval(lam) == acc

    def test_power_well_defined(self, P, rng):
        # powers of a single element are association-free
        for _ in range(10):
            z = random_octonion(P, rng)
            p = Octonion.one(P)
            for t in range(5):
                assert OPolynomial.x(P).power(t).eval(z).isclose(p)
                p = p * z

    def test_right_div_linear(self, P, rng):
        for _ in range(20):
            f = OPolynomial.make(P, [random_octonion(P, rng)
                                     for _ in range(5)])
            lam = random_octonion(P, rng)
            g, r = f.right_div_linear(lam)
            assert r.isclose(f.eval(lam))
            # f = g * (x - lam) + r
            lin = OPolynomial.make(P, [-lam, Octonion.one(P)])
            back = g * lin + OPolynomial.make(P, [r])
            assert back.coeffs == f.coeffs


class TestComposition:
    def test_central_coeff_compose(self, P, rng):
        # coefficients in the center commute, so compose behaves classically
        f = OPolynomial.make(P, [Octonion.scalar(P, c) for c in (1, 2, 1)])
        g = OPolynomial.make(P, [Octonion.scalar(P, c) for c in (0, 3)])
        h = f.compose(g)
        z = random_octonion(P, rng)
        # central-coefficient polys evaluate multiplicatively on powers
        c = Octonion.scalar(P, Fraction(5, 3))
        assert h.eval(c).isclose(f.eval(g.eval(c)))

    def test_iterate_comp_matches_iterate_sub_on_subalgebra(self, P, basis):
        # coefficients and the point in one associative (complex) subalgebra
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [i, one + i, one])
        alpha = one * 2 - i
        f2 = f.iterate_comp(2)
        assert f2.eval(alpha).isclose(f.iterate_sub(alpha, 2))

    def test_iterate_sub(self, P, basis):
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [-one, Octonion.zero(P), one])  # x^2 - 1
        z = Octonion.zero(P)
        assert f.iterate_sub(z, 2).isclose(z)

    def test_degree_cap(self, P):
        f = OPolynomial.make(P, [Octonion.one(P)] * 18)
        with pytest.raises(ResourceLimit):
            f.compose(f)

    def test_composition_differs_from_product(self, P, basis):
        # f(f(x)) and f(x)*f(x) disagree already for a quaternion quadratic
        one, i, j, k, l = basis
        f = OPolynomial.make(P, [j, i, one])
        comp2 = f.iterate_comp(2)
        prod2 = f * f
        assert any(not comp2.coeff(t).isclose(prod2.coeff(t))
                   for t in range(max(comp2.degree, prod2.degree) + 1))


class TestSerialization:
    def test_json_roundtrip(self, P, rng):
        f = OPolynomial.make(P, [random_octonion(P, rng) for _ in range(4)])
        back = OPolynomial.from_json(f.to_json(), EXACT)
        assert back.coeffs == f.coeffs

    def test_text_roundtrip(self, P, rng):
        for _ in range(50):
            f = OPolynomial.make(P, [random_octonion(P, rng)
                                     for _ in range(rng.randint(1, 5))])
            if f.is_zero():
                continue
            back = parse_opolynomial(str(f), P)
            assert back.coeffs == f.coeffs

    def test_parse_compact_terms(self, P, basis):
        one, i, j, k, l = basis
        f = parse_opolynomial("x^2 + ix + 1 - ij", P)
        assert f.coeff(2).isclose(one)
        assert f.coeff(1).isclose(i)
        assert f.coeff(0).isclose(one - k)

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    @pytest.mark.parametrize("gammas", [(-1, -1, -1), (2, 3, 5)])
    def test_text_roundtrip_random(self, field, gammas):
        """str(f) reads back as f, to the last bit in real mode, with
        coordinates near 1e-7 and near 1e9."""
        P, rng = AlgebraParams(field, *gammas), random.Random(2222)
        for n in range(150):
            scale = (1e-7, 1e9)[n % 2]
            f = OPolynomial.make(P, [Octonion.make(P, [
                Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                if field.exact else rng.uniform(-1, 1) * scale
                for _ in range(8)]) for _ in range(rng.randint(1, 5))])
            assert parse_opolynomial(str(f), P) == f, str(f)

    def test_no_negative_zero(self, PR):
        """Each coordinate starts from 0.0, so a subtracted zero leaves no
        -0.0 for the JSON output."""
        f = parse_opolynomial("x^2 - 0x - (0 - 0 i) - 0 j", PR)
        assert [math.copysign(1, v) for c in f.coeffs for v in c.coords] \
            == [1] * 24

    # the terms of a power add up; whitespace may stand between any two
    # parts of a term and "*" between two parts that are both present
    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    @pytest.mark.parametrize("text,terms", [
        ("i*x", {(1, "i"): 1}),
        ("2 * x", {(1, "1"): 2}),
        ("(1 + i)*x", {(1, "1"): 1, (1, "i"): 1}),
        ("-3.5 * jl x^3 + 1e-4 kl", {(3, "jl"): "-3.5", (0, "kl"): "1e-4"}),
        ("- 1*x + 2*1 + 1", {(1, "1"): -1, (0, "1"): 3}),
        ("ij x + 1/2 ij", {(1, "k"): 1, (0, "k"): "1/2"}),
        ("x + 2E+3 il x - x^0", {(1, "1"): 1, (1, "il"): 2000, (0, "1"): -1}),
        ("(j - k) x^2 - x^2", {(2, "1"): -1, (2, "j"): 1, (2, "k"): -1})])
    def test_grammar(self, field, text, terms):
        P = AlgebraParams.octonions(field)
        rows = [[0] * 8 for _ in range(1 + max(t for t, _ in terms))]
        for (t, unit), v in terms.items():
            rows[t][BASIS_NAMES.index(unit)] = Fraction(v)
        assert parse_opolynomial(text, P).coeffs == tuple(
            Octonion.make(P, row) for row in rows)

    def test_parse_errors(self, P):
        with pytest.raises(ParseError):
            parse_opolynomial("", P)
        with pytest.raises(ParseError):
            parse_opolynomial("x^^2", P)

    @pytest.mark.parametrize("text,column", [
        ("x^^2", 1), ("x + 2*", 5), ("*i", 0), ("i*", 1), ("q", 0),
        ("1 + + i", 2), ("x*2", 1)])
    def test_bad_syntax_column(self, P, text, column):
        with pytest.raises(ParseError, match=f"polynomial syntax at column "
                                             f"{column}: "):
            parse_opolynomial(text, P)

    @pytest.mark.parametrize("text", ["2x", "i + x^2", "(1)", "1 + (i)",
                                      "2*", "*i", "1 - * i"])
    def test_element_refuses_x_parentheses_and_dangling_star(self, P, text):
        with pytest.raises(ParseError, match="bad element syntax at column"):
            parse_octonion(text, P)

    # each was misread: x + i and 2x
    @pytest.mark.parametrize("text,column", [("x i", 2), ("x x", 2)])
    def test_term_without_sign_refused(self, P, text, column):
        with pytest.raises(ParseError,
                           match=f"missing \\+/- at column {column}: "):
            parse_opolynomial(text, P)

    # each was refused: a spaced coefficient reads as the parenthesized one
    @pytest.mark.parametrize("text,parenthesized", [
        ("x + 2 i", "x + (2 i)"),
        pytest.param("x^2 + ix - 1/2 i - 1/4", "x^2 + ix + (-1/2 i - 1/4)",
                     id="x^2 + ix - 1/2 i - 1/4")])
    def test_spaced_coefficient(self, P, text, parenthesized):
        assert parse_opolynomial(text, P) == \
            parse_opolynomial(parenthesized, P)

    # the bare coefficient as the element syntax reads it in parentheses
    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    @pytest.mark.parametrize("text,parenthesized", [
        ("x - 1e-4", "x - (1e-4)"), ("1e-4x + 1", "(1e-4)x + 1"),
        ("x + 1.5E-3i", "x + (1.5E-3i)"), ("x + 2e+3", "x + (2e+3)")])
    def test_bare_coefficient_with_exponent_sign(self, field, text,
                                                 parenthesized):
        P = AlgebraParams.octonions(field)
        f = parse_opolynomial(text, P)
        assert f.coeffs == parse_opolynomial(parenthesized, P).coeffs
        assert f.degree == 1 and not f.coeff(0).is_zero()

    def test_spaced_coefficient_in_parentheses(self, P, basis):
        one, i, j, k, l = basis
        f = parse_opolynomial("x^2 + ix + (-1/2 i - 1/4)", P)
        assert f.coeffs == (-i / 2 - one / 4, i, one)
        f = parse_opolynomial("2x^2 + ix - 1/2", P)
        assert f.coeffs == (-one / 2, i, 2 * one)


# branches that no other test reaches: each refusal by its text, and
# __str__ skipping a zero middle coefficient
@pytest.mark.parametrize("call,error,text", [
    (lambda P, PR: OPolynomial.make(P, [Octonion.one(PR)]), InvalidInput,
     "coefficient from a different algebra"),
    (lambda P, PR: OPolynomial.x(P) + OPolynomial.x(PR), InvalidInput,
     "polynomials over different algebras"),
    (lambda P, PR: OPolynomial.zero(P).companion(), InvalidInput,
     "zero polynomial has no companion"),
    (lambda P, PR: OPolynomial.x(P).power(-1), InvalidInput,
     "negative power"),
    (lambda P, PR: OPolynomial.x(P).iterate_comp(0), InvalidInput,
     "need n >= 1"),
    (lambda P, PR: OPolynomial.x(P).iterate_sub(Octonion.one(P), 0),
     InvalidInput, "need n >= 1"),
    (lambda P, PR: OPolynomial.zero(P).right_div_linear(Octonion.one(P)),
     InvalidInput, "cannot divide the zero polynomial"),
    (lambda P, PR: str(parse_opolynomial("x^2 + 1", P)), None,
     "(1)x^2 + (1)"),
    (lambda P, PR: OPolynomial.from_json({"params": [-1, -1, -1]}, EXACT),
     ParseError, "bad polynomial JSON: 'coeffs'")],
    ids=["make-other-algebra", "add-other-algebra", "companion-of-zero",
         "negative-power", "iterate-comp-0", "iterate-sub-0",
         "divide-zero", "str-zero-middle", "json-without-coeffs"])
def test_refusals_and_branches(P, PR, call, error, text):
    if error is None:
        assert call(P, PR) == text
    else:
        with pytest.raises(error, match=re.escape(text)):
            call(P, PR)

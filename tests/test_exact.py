"""Property tests of exact-mode arithmetic on integers over one common
denominator, against Fraction arithmetic on coordinates, the doubling-rule
product and sympy's factoring."""

import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys import factortools
from sympy.polys.factortools import dup_factor_list

import ocpoly
from ocpoly.algebra import (AlgebraParams, ExactOctonion, Octonion,
                            parse_octonion, polar_form)
from ocpoly.errors import InvalidInput, NotInvertible, UnsupportedDegree
from ocpoly.opoly import OPolynomial, parse_opolynomial
from ocpoly.roots import (lmr_describe_class, lmr_sample_detailed,
                          reduce_linear, rmr_witness, roots)
from ocpoly.scalars import (EXACT, REAL, CentralPoly, ConjClass,
                            central_roots)

from doubling import cd_conj, cd_mul

PARAMS = [AlgebraParams(EXACT, *g) for g in
          ((-1, -1, -1), (2, 3, 5), (-2, 3, Fraction(-1, 2)),
           (Fraction(3, 7), -5, Fraction(2, 3)))]

# the same examples on every run, with no saved examples replayed
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
nonzero = rationals.filter(bool)
coords = st.tuples(*[rationals] * 8)


@st.composite
def elements(draw, params):
    """An element built from coordinates, or the same value produced by
    arithmetic, which holds integers but no coordinates."""
    x = Octonion.make(params, draw(coords))
    if draw(st.booleans()):
        x = (x * 3 - x) / 2
    return x


@st.composite
def operands(draw, count=2):
    params = draw(st.sampled_from(PARAMS))
    return (params,) + tuple(draw(elements(params)) for _ in range(count))


def assert_exact(x, expected):
    """x holds reduced integers over one positive denominator and equals
    the Fraction coordinates expected."""
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert tuple(Fraction(n, x.den) for n in x.num) == tuple(expected)
    assert x.coords == tuple(expected)
    assert all(type(c) is Fraction for c in x.coords)


def cd_norm(x, params):
    return cd_mul(x, cd_conj(x), params.gammas)[0]


@SETTINGS
@given(operands(), nonzero)
def test_linear_operations(ops, s):
    _, x, y = ops
    cx, cy = x.coords, y.coords
    assert_exact(x + y, [a + b for a, b in zip(cx, cy)])
    assert_exact(x - y, [a - b for a, b in zip(cx, cy)])
    assert_exact(-x, [-a for a in cx])
    assert_exact(x + s, [cx[0] + s] + list(cx[1:]))
    assert_exact(s - x, [s - cx[0]] + [-a for a in cx[1:]])
    assert_exact(x * s, [a * s for a in cx])
    assert_exact(s * x, [s * a for a in cx])
    assert_exact(x / s, [a / s for a in cx])


@SETTINGS
@given(operands())
def test_product_matches_doubling_rule(ops):
    params, x, y = ops
    assert_exact(x * y, cd_mul(x.coords, y.coords, params.gammas))


@SETTINGS
@given(operands(count=1))
def test_involution_trace_norm(ops):
    params, x = ops
    cx = x.coords
    assert_exact(x.conj(), cd_conj(cx))
    assert_exact(x.im(), (Fraction(0),) + cx[1:])
    assert x.re() == cx[0] and x.trace() == 2 * cx[0]
    assert x.norm() == cd_norm(cx, params)
    assert x.is_zero() == (not any(cx))
    assert all(type(v) is Fraction for v in (x.re(), x.trace(), x.norm()))


def test_integer_paths_leave_coords_unbuilt():
    """trace(), re() and OPolynomial.make read an element built by
    arithmetic on its integers: its Fraction coordinates stay unbuilt."""
    P = PARAMS[3]
    x = Octonion.make(P, [1, -2, Fraction(1, 3), 0, 4, 0, Fraction(-5, 6), 7])
    y = x * x + x
    slot = Octonion.__dict__["coords"]  # reads the slot, never builds it
    with pytest.raises(AttributeError):
        slot.__get__(y)
    assert y.trace() == 2 * y.re()
    OPolynomial.make(P, [y, y, Octonion.zero(P)])
    with pytest.raises(AttributeError):
        slot.__get__(y)
    assert y.re() == y.coords[0] and type(y.trace()) is Fraction


def test_equality_and_hash_leave_coords_unbuilt():
    """== and hash read num / den, which are canonical: elements built by
    arithmetic compare and hash without building Fraction coordinates."""
    P = PARAMS[3]
    x = Octonion.make(P, [1, -2, Fraction(1, 3), 0, 4, 0, Fraction(-5, 6), 7])
    y, z = x * x, x * x
    assert y == z and hash(y) == hash(z) and y != x
    slot = Octonion.__dict__["coords"]  # reads the slot, never builds it
    for w in (y, z):
        with pytest.raises(AttributeError):
            slot.__get__(w)


@SETTINGS
@given(operands())
def test_polar_form(ops):
    params, x, y = ops
    s = tuple(a + b for a, b in zip(x.coords, y.coords))
    assert polar_form(x, y) == (cd_norm(s, params) - cd_norm(x.coords, params)
                                - cd_norm(y.coords, params))


@SETTINGS
@given(operands(count=1))
def test_inverse(ops):
    params, x = ops
    n = cd_norm(x.coords, params)
    if n == 0:  # zero, or isotropic where the norm form is indefinite
        with pytest.raises(NotInvertible):
            x.inverse()
        return
    inv = x.inverse()
    assert_exact(inv, [c / n for c in cd_conj(x.coords)])
    one = (Fraction(1),) + (Fraction(0),) * 7
    assert cd_mul(x.coords, inv.coords, params.gammas) == one


@SETTINGS
@given(operands(count=1))
def test_division_by_zero_raises(ops):
    _, x = ops
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_scalar_operations_stay_on_integers():
    """Negation, division by a scalar and the inverse of an element built
    by arithmetic run on its integers: neither it nor the results build
    Fraction coordinates until read, and then they equal Fraction
    arithmetic on coordinates."""
    P = PARAMS[3]
    x = Octonion.make(P, [1, -2, Fraction(1, 3), 0, 4, 0, Fraction(-5, 6), 7])
    y = x * x + x
    slot = Octonion.__dict__["coords"]  # reads the slot, never builds it
    results = (-y, y / Fraction(-3, 4), y.inverse())
    for z in (y,) + results:
        with pytest.raises(AttributeError):
            slot.__get__(z)
    cy, n = y.coords, cd_norm(y.coords, P)
    assert_exact(results[0], [-a for a in cy])
    assert_exact(results[1], [a / Fraction(-3, 4) for a in cy])
    assert_exact(results[2], [c / n for c in cd_conj(cy)])


@SETTINGS
@given(operands(count=1), nonzero)
def test_equality_and_hash_across_representations(ops, s):
    params, x = ops
    built = Octonion.make(params, x.coords)
    for same in (x, (x + s) - s, (x * s) / s, -(-x), x.conj().conj(),
                 Octonion(x.coords, params)):
        assert same == built and built == same
        assert hash(same) == hash(built)
        assert same.isclose(built)
    assert len({built, x, (x * s) / s}) == 1
    assert (x + 1) != built


# ---------------------------------------------------------------------------
# Factoring of central polynomials

X = sympy.Symbol("x")


def class_keys(classes) -> list:
    return [(c.T, c.N, c.central, c.multiplicity) for c in classes]


def sympy_candidates(p: CentralPoly) -> list:
    """(T, N, central, multiplicity) of each factor from sympy.factor_list
    on the symbolic polynomial: x - r is the central class (2r, r^2)."""
    expr = sum(sympy.Rational(c.numerator, c.denominator) * X ** t
               for t, c in enumerate(p.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, X, domain="QQ"))
    out = []
    for fac, mult in factors:
        cs = [Fraction(int(c.p), int(c.q))
              for c in reversed(sympy.Poly(fac, X).all_coeffs())]
        assert len(cs) in (2, 3)
        if len(cs) == 2:
            r = -cs[0] / cs[1]
            out.append((2 * r, r * r, True, mult))
        else:
            out.append((-cs[1] / cs[2], cs[0] / cs[2], False, mult))
    return out


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for r, x in enumerate(a):
        for s, y in enumerate(b):
            out[r + s] += x * y
    return out


@st.composite
def factored(draw):
    """A leading coefficient and 1 to 4 factors x - r or x^2 - Tx + N, all
    with numerators and denominators up to one drawn scale: floats resolve
    the small scales and leave the large ones to sympy."""
    scale = draw(st.sampled_from((12, 10 ** 4, 10 ** 9, 10 ** 12)))
    r = st.builds(Fraction, st.integers(-scale, scale), st.integers(1, scale))
    factor = st.one_of(r.map(lambda a: [-a, Fraction(1)]),
                       st.tuples(r, r).map(lambda tn: [tn[1], -tn[0],
                                                       Fraction(1)]))
    return (draw(r.filter(bool)),
            draw(st.lists(factor, min_size=1, max_size=4)))


@settings(SETTINGS, max_examples=200)
@given(factored(), st.booleans())
def test_central_roots_match_sympy(lead_factors, repeat):
    """lead * (the factors, the first one twice if repeat), up to degree 4,
    the exact-mode cap."""
    lead, factors = lead_factors
    coeffs = [lead]
    for f in factors[:1] * repeat + factors:
        if len(coeffs) + len(f) - 2 <= 4:
            coeffs = poly_mul(coeffs, f)
    p = CentralPoly.make(EXACT, coeffs)
    assert class_keys(central_roots(p)) == sympy_candidates(p)


def test_central_roots_repeated_factor_with_leading_coefficient():
    # 3 (x - 1/2)^2 (x^2 + 1)
    coeffs = [Fraction(3)]
    for f in ([Fraction(-1, 2), 1], [Fraction(-1, 2), 1], [1, 0, 1]):
        coeffs = poly_mul(coeffs, [Fraction(c) for c in f])
    p = CentralPoly.make(EXACT, coeffs)
    assert class_keys(central_roots(p)) == [(1, Fraction(1, 4), True, 2),
                                            (0, 1, False, 1)]


@pytest.mark.parametrize("coeffs, sympy_calls", [
    # 12 (9959x + 7247)^2: one double linear factor, not a quadratic
    ([630228108, 1732148952, 1190180172], 0),
    # (9959x + 7247)^2 (x^2 + 1): the same, proposed from float roots
    (poly_mul(poly_mul([7247, 9959], [7247, 9959]), [1, 0, 1]), 0),
    # coefficients too large for floats to resolve the factors
    ([-4311760261558555689104695920, 4539660826875436020140040504,
      -908098134429997914716572392, 3681820440738743586107274888,
      393319631484299927902100760], 1),
    # a coefficient beyond float range
    (poly_mul(poly_mul([-10 ** 400, 1], [-1, 1]), [1, 0, 1]), 1),
    # lc * r beyond float range for the root r = 10^150
    (poly_mul(poly_mul([-1, 10 ** 200], [-10 ** 150, 1]), [1, 1, 1]), 1),
    # cubics: (2x - 1)(x^2 + x + 1), and (x - 1)(x + 2)(3x + 1)
    (poly_mul([-1, 2], [1, 1, 1]), 0),
    (poly_mul(poly_mul([-1, 1], [2, 1]), [1, 3]), 0),
], ids=["double-linear", "double-linear-quartic", "remainder", "beyond-float",
        "overflowing-proposal", "cubic-linear-quadratic",
        "cubic-three-linear"])
def test_central_roots_fixed_cases(coeffs, sympy_calls, monkeypatch):
    """Equal to sympy, which is called only on what float roots leave."""
    p = CentralPoly.make(EXACT, coeffs)
    expected = sympy_candidates(p)
    calls = []

    def counted(f, K):
        calls.append(f)
        return dup_factor_list(f, K)

    monkeypatch.setattr(factortools, "dup_factor_list", counted)
    assert class_keys(central_roots(p)) == expected
    assert len(calls) == sympy_calls


# a coefficient beyond the 4,300 digits str() converts is named by its
# digit count
@pytest.mark.parametrize("coeffs, named", [
    ([-4, 0, 0, 2], "1, 0, 0, -2"),
    ([3, 0, 0, 10 ** 4400 + 7], "<4401 digits>, 0, 0, 3")],
    ids=["x^3-2", "4401-digit-lead"])
def test_irreducible_cubic_is_named(coeffs, named, monkeypatch):
    """No proposal divides, sympy is called once, and the refusal names the
    factor by its integer coefficients."""
    calls = []

    def counted(f, K):
        calls.append(f)
        return dup_factor_list(f, K)

    monkeypatch.setattr(factortools, "dup_factor_list", counted)
    p = CentralPoly.make(EXACT, coeffs)
    with pytest.raises(UnsupportedDegree, match=re.escape(
            f"irreducible factor of degree 3 over Q, coefficients {named} "
            "from x^3 down; no rational conjugacy-class data")):
        central_roots(p)
    assert len(calls) == 1


def test_own_class_is_the_matched_class(P, PR):
    """A root's class in roots(): exact mode keeps the class it matched,
    real mode takes the root's own trace and norm."""
    cls = ConjClass(Fraction(0), Fraction(2), multiplicity=2)
    lam = parse_octonion("i + j", P)
    assert cls.matches(lam) and lam.own_class(cls) is cls
    lam_r = parse_octonion("0.1 + i + j", PR)
    own = lam_r.own_class(ConjClass(0.2, 2.01, multiplicity=2))
    assert (own.T, own.N, own.central, own.multiplicity) == \
        (lam_r.trace(), lam_r.norm(), False, 2)


def test_sympy_only_on_remainder():
    """Exact roots, witnesses and LMR classes of x^2 + ix - ij + 1 run
    without importing sympy; an irreducible quartic still needs it and
    still raises UnsupportedDegree."""
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from ocpoly.algebra import AlgebraParams, Octonion
        from ocpoly.errors import UnsupportedDegree
        from ocpoly.opoly import parse_opolynomial
        from ocpoly.roots import (ConjClass, lmr_describe_class,
                                  rmr_witness, roots)
        from ocpoly.scalars import EXACT, CentralPoly, central_roots
        P = AlgebraParams.octonions(EXACT)
        f = parse_opolynomial("x^2 + ix - ij + 1", P)
        assert len(roots(f).isolated) == 2
        rmr_witness(f, Octonion.basis(P, 3))
        lmr_describe_class(f, ConjClass(Fraction(0), Fraction(2)))
        print("sympy" in sys.modules)
        try:
            central_roots(CentralPoly.make(EXACT, [1, 1, 0, 0, 1]))
        except UnsupportedDegree as exc:
            print(exc)
        """)
    src = os.path.dirname(os.path.dirname(ocpoly.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines() == [
        "False", "irreducible factor of degree 4 over Q, coefficients "
        "1, 0, 0, 1, 1 from x^4 down; no rational conjugacy-class data"]



# ---------------------------------------------------------------------------
# Integer paths: construction, class membership, coefficient scale and the
# linear reduction, each against its Fraction form, on a definite and a
# split algebra

DEFINITE_AND_SPLIT = PARAMS[:2]  # (-1, -1, -1) and (2, 3, 5)
mixed = st.one_of(st.integers(-10 ** 20, 10 ** 20), rationals)


@SETTINGS
@given(st.sampled_from(DEFINITE_AND_SPLIT),
       st.lists(mixed, min_size=1, max_size=8))
def test_make_from_ints_and_fractions(params, cs):
    """make reads ints and Fractions into num / den directly; the element
    equals the one Field.coerce builds from the same values as text, and
    the one arithmetic builds, in num, den, coords, == and hash.  Floats
    still pass through Field.coerce: integral ones are read, others
    refused."""
    x = Octonion.make(params, cs)
    assert_exact(x, [Fraction(c) for c in cs] + [Fraction(0)] * (8 - len(cs)))
    via_text = Octonion.make(params, [str(c) for c in cs])
    for other in (via_text, -(-via_text)):
        assert (other.num, other.den) == (x.num, x.den)
        assert other.coords == x.coords
        assert other == x and hash(other) == hash(x)
    assert Octonion.make(params, cs[:7] + [2.0]) == \
        Octonion.make(params, cs[:7] + [2])
    with pytest.raises(InvalidInput):
        Octonion.make(params, cs[:7] + [0.5])


@SETTINGS
@given(st.sampled_from(DEFINITE_AND_SPLIT), coords, coords, nonzero)
def test_exact_matches_is_zero_gap(params, m, q, s):
    """In exact mode matches is equal trace and norm: exactly gap == 0, on
    conjugates of mu (members) and on mu + s, s mu (not, s != 1)."""
    mu, q = Octonion.make(params, m), Octonion.make(params, q)
    cls = ConjClass(mu.trace(), mu.norm())
    members = [mu, mu.conj()]
    if q.norm() != 0:
        members.append((q * mu) * q.inverse())
    for cand in members + [mu + s, mu * s]:
        assert cls.matches(cand) == (cls.gap(cand) == 0)
    assert all(cls.matches(c) for c in members)
    assert not cls.matches(mu + s)


# ---------------------------------------------------------------------------
# The class rule's integer paths (companion, linear reduction, class
# membership, evaluation), each against its Fraction form, on the standard
# octonions, a nonstandard definite algebra with den_t = 2 and a split one

CHAIN_PARAMS = [AlgebraParams(EXACT, *g) for g in
                ((-1, -1, -1), (-2, -3, Fraction(-1, 2)), (2, 3, 5))]


@st.composite
def polynomials(draw, max_degree=5):
    """An algebra of CHAIN_PARAMS and the coefficients of a degree drawn
    from 0 to max_degree, zeros among them."""
    params = draw(st.sampled_from(CHAIN_PARAMS))
    coeff = st.one_of(elements(params), st.just(Octonion.zero(params)))
    n = draw(st.integers(0, max_degree)) + 1
    return params, draw(st.lists(coeff, min_size=n, max_size=n))


@SETTINGS
@given(polynomials(), rationals, rationals)
def test_integer_reduce_linear_is_the_fraction_recursion(poly, T, N):
    """E = sum a_t p_t, G = sum a_t q_t with p_0 = 0, q_0 = 1 and
    p' = T p + q, q' = -N p, run on Fraction coordinates here."""
    params, cs = poly
    f = OPolynomial.make(params, cs)
    red = reduce_linear(f, ConjClass(T, N))
    E, G = [Fraction(0)] * 8, [Fraction(0)] * 8
    p, q = Fraction(0), Fraction(1)
    for a in f.coeffs:
        E = [e + c * p for e, c in zip(E, a.coords)]
        G = [g + c * q for g, c in zip(G, a.coords)]
        p, q = T * p + q, -N * p
    assert_exact(red.E, E)
    assert_exact(red.G, G)


def fraction_companion(cs, params) -> list:
    """conj(f) f from Fraction coordinates: norm(a_s) at 2s and the polar
    form n(a_s + a_t) - n(a_s) - n(a_t) at s + t, by the doubling rule."""
    out = [Fraction(0)] * (2 * len(cs) - 1)
    for s, x in enumerate(cs):
        out[2 * s] += cd_norm(x, params)
        for t, y in enumerate(cs[s + 1:], s + 1):
            xy = tuple(a + b for a, b in zip(x, y))
            out[s + t] += (cd_norm(xy, params) - cd_norm(x, params)
                           - cd_norm(y, params))
    while out[-1] == 0:
        out.pop()
    return out


@SETTINGS
@given(polynomials())
def test_companion_is_the_fraction_sum(poly):
    """conj(f) f on integers, one Fraction per coefficient, equals the sum
    of norms and polar forms taken in Fractions, trailing zeros trimmed."""
    params, cs = poly
    f = OPolynomial.make(params, cs)
    if f.is_zero():
        return
    got = f.companion().coeffs
    assert list(got) == fraction_companion([a.coords for a in f.coeffs],
                                           params)
    assert all(type(c) is Fraction for c in got)


def test_companion_trims_an_isotropic_leading_coefficient():
    """On (2, 3, 5), n(i + j + l + il) = -2 - 3 - 5 + 10 = 0: the companion
    of (i + j + l + il) x^2 + i x + 1/3 j has degree 3, not 4."""
    P = CHAIN_PARAMS[2]
    lead = parse_octonion("i + j + l + il", P)
    f = OPolynomial.make(P, [parse_octonion("1/3 j", P),
                             Octonion.basis(P, 1), lead])
    got = f.companion().coeffs
    assert lead.norm() == 0 and len(got) == 4
    assert list(got) == fraction_companion([a.coords for a in f.coeffs], P)


@SETTINGS
@given(st.sampled_from(CHAIN_PARAMS), coords, coords, rationals, rationals,
       st.integers(-3, 3))
def test_matches_is_equal_trace_and_norm(params, m, o, T, N, k):
    """matches on integers equals equal trace and norm in Fractions, for
    mu's own class, another element's, one with T or N moved, a drawn one
    and one with integer T and N."""
    mu, other = Octonion.make(params, m), Octonion.make(params, o)
    tr, n = 2 * mu.coords[0], cd_norm(mu.coords, params)
    for cT, cN in ((tr, n), (other.trace(), other.norm()), (tr, n + 1),
                   (tr + Fraction(1, 7), n), (T, N), (k, k * k)):
        cls = ConjClass(cT, cN)
        assert cls.matches(mu) == (tr == cT and n == cN)


@settings(SETTINGS, max_examples=30)
@given(polynomials(max_degree=32), st.data())
def test_eval_is_stepwise_horner(poly, data):
    """f(lam) on integers with one gcd equals Horner's rule through * and
    + on canonical elements, at degree 0 to 32; a scalar lam is the
    element it stands for."""
    params, cs = poly
    f = OPolynomial.make(params, cs)
    lam = data.draw(elements(params))
    want = f.coeff(f.degree)
    for a in reversed(f.coeffs[:-1]):
        want = want * lam + a
    assert_exact(f.eval(lam), want.coords)
    s = data.draw(rationals)
    assert f.eval(s) == f.eval(Octonion.scalar(params, s))


def test_exact_queries_never_compute_a_gap(monkeypatch):
    """Exact roots, witnesses and LMR samples of x^2 + ix - ij + 1 decide
    class membership by matches alone: gap only formats a refusal."""
    def refuse(self, mu):
        raise AssertionError("gap computed")

    P = PARAMS[0]
    f = parse_opolynomial("x^2 + ix - ij + 1", P)
    monkeypatch.setattr(ConjClass, "gap", refuse)
    assert sorted(str(lam) for lam, _ in roots(f).isolated) == ["-i + j", "j"]
    for mu in ("-ij", "il", "-1/2 i + 1/2 j - 1/2 k + 1/2 l"):
        mu = parse_octonion(mu, P)
        c = rmr_witness(f, mu)
        assert f.scale_right(c).eval(mu).is_zero()
    desc = lmr_describe_class(f, ConjClass(Fraction(0), Fraction(1)))
    for _, _, c, pt in lmr_sample_detailed(desc, 8, seed=5):
        assert f.scale_left(c).eval(pt).is_zero()


def test_exact_verdicts_compute_no_size(monkeypatch):
    """Exact thresholds are 0, so a witness at a non-central conjugate of a
    root, a parametrized LMR class, isclose and is_central take no size2."""
    def refuse(self):
        raise AssertionError("size2 computed")

    P = PARAMS[0]
    f = parse_opolynomial("x^2 + ix - ij + 1", P)
    monkeypatch.setattr(ExactOctonion, "size2", refuse)
    mu = parse_octonion("-k", P)  # a conjugate of the root j
    c = rmr_witness(f, mu)
    assert c != Octonion.one(P) and f.scale_right(c).eval(mu).is_zero()
    desc = lmr_describe_class(f, ConjClass(Fraction(0), Fraction(1)))
    assert desc.kind == "parametrized"
    assert mu.isclose(-(-mu)) and not mu.isclose(-mu)
    assert Octonion.scalar(P, 3).is_central() and not mu.is_central()


def test_exact_sphere_computes_no_size(monkeypatch):
    """roots(x^2 + 1): E = G = 0 on its one class, a sphere that exact mode
    decides with no size2, where the sizes |E| s + |G| of the real-mode
    test were taken first (2 calls)."""
    calls, size2 = [], ExactOctonion.size2
    monkeypatch.setattr(ExactOctonion, "size2",
                        lambda x: calls.append(x) or size2(x))
    r = roots(parse_opolynomial("x^2 + 1", PARAMS[0]))
    assert len(r.spherical) == 1 and not r.isolated and not r.anomalies
    assert calls == []


# ---------------------------------------------------------------------------
# The fused kernels: the class root -E^-1 G and the multiple roots of c f
# and f c, each one chain of products on numerators with one gcd, against
# the composition of the operators they replace

def composed(E, G, c):
    """-E^-1 G, -((E^-1 c^-1)(c G)) and -((c^-1 E^-1)(G c)) by operators,
    each a NotInvertible where an inverse is refused."""
    out = []
    for term in (lambda: -(E.inverse() * G),
                 lambda: -((E.inverse() * c.inverse()) * (c * G)),
                 lambda: -((c.inverse() * E.inverse()) * (G * c))):
        try:
            out.append(term())
        except NotInvertible as exc:
            out.append(exc)
    return out


@SETTINGS
@given(st.sampled_from(CHAIN_PARAMS), st.data())
def test_fused_roots_are_the_composition(params, data):
    """On a definite algebra, one with den_t = 2 and a split one."""
    E, G, c = (data.draw(elements(params)) for _ in range(3))
    for want, got in zip(composed(E, G, c),
                         (lambda: E.class_root(G),
                          lambda: E.multiple_root(G, c, True),
                          lambda: E.multiple_root(G, c, False))):
        if isinstance(want, NotInvertible):
            with pytest.raises(NotInvertible):
                got()
        else:
            assert_exact(got(), want.coords)


def test_fused_roots_refuse_an_isotropic_element():
    """x = -1 - i - j + 2k + 2l has norm 0 on (2, 3, 5)."""
    P = PARAMS[1]
    x = Octonion.make(P, [-1, -1, -1, 2, 2])
    y = Octonion.make(P, [1, 2, 0, Fraction(1, 3)])
    assert x.norm() == 0 and y.norm() != 0
    for E, c in ((x, y), (y, x)):
        for call in (lambda: E.multiple_root(y, c, True),
                     lambda: E.multiple_root(y, c, False),
                     lambda: -((E.inverse() * c.inverse()) * (c * y))):
            with pytest.raises(NotInvertible):
                call()
    with pytest.raises(NotInvertible):
        x.class_root(y)


def test_real_roots_are_the_composition_bit_for_bit(rng):
    """Real mode composes the operators in the same order, from a cached
    inverse or its own."""
    P = AlgebraParams.octonions(REAL)
    bits = lambda x: [v.hex() for v in x.coords]  # noqa: E731
    for _ in range(50):
        E, G, c = (Octonion.make(P, [rng.uniform(-3, 3) for _ in range(8)])
                   for _ in range(3))
        Einv = E.inverse()
        want = [-(Einv * G), -((Einv * c.inverse()) * (c * G)),
                -((c.inverse() * Einv) * (G * c))]
        for inv in (None, lambda: Einv):
            got = [E.class_root(G, inv), E.multiple_root(G, c, True, inv),
                   E.multiple_root(G, c, False, inv)]
            assert list(map(bits, got)) == list(map(bits, want))


def test_make_from_ints_skips_the_lcm(monkeypatch):
    """All-int coordinates go straight to numerators over den 1, equal in
    den, num, hash and == to the constructor's lcm path; a mixed int and
    Fraction input still takes that path."""
    built = []
    init = Octonion.__init__
    monkeypatch.setattr(Octonion, "__init__",
                        lambda x, cs, p: built.append(cs) or init(x, cs, p))
    cs = [3, -10 ** 30, 0, 7]
    for params in DEFINITE_AND_SPLIT:
        built.clear()
        x = Octonion.make(params, cs)
        assert built == []
        y = Octonion(tuple(map(Fraction, cs + [0] * 4)), params)
        assert (x.den, x.num) == (y.den, y.num) == (1, tuple(cs + [0] * 4))
        assert x == y and hash(x) == hash(y)
        built.clear()
        z = Octonion.make(params, cs[:3] + [Fraction(7, 2)])
        assert len(built) == 1 and z.den == 2


def test_one_gcd_per_exact_answer(monkeypatch):
    """On a reduction already made, the class root takes one _exact and
    each multiple root one, where the composition took two and five."""
    import ocpoly.algebra as algebra
    import ocpoly.roots as roots_mod
    P = PARAMS[0]
    f = parse_opolynomial("x^2 + ix - ij + 1", P)
    cls = ConjClass(Fraction(0), Fraction(1))
    assert lmr_describe_class(f, cls).kind == "parametrized"
    calls, exact = [], algebra._exact
    monkeypatch.setattr(algebra, "_exact",
                        lambda *a: calls.append(a) or exact(*a))
    c = Octonion.make(P, [1, 2, 0, -1, 0, 3])
    for side, g in (("left", f.scale_left(c)), ("right", f.scale_right(c))):
        calls.clear()
        mu = roots_mod.multiple_root(f, cls, c, side)
        assert len(calls) == 1
        assert g.eval(mu).is_zero()
    calls.clear()
    assert roots_mod._class_root(f, cls) in (parse_octonion("j", P),
                                             parse_octonion("-i + j", P))
    assert len(calls) == 1

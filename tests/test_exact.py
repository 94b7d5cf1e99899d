"""Property tests of exact-mode arithmetic on integers over one common
denominator, against Fraction arithmetic on coordinates, the doubling-rule
product and sympy's factoring."""

import math
import os
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
from ocpoly.algebra import AlgebraParams, Octonion, parse_octonion, polar_form
from ocpoly.errors import InvalidInput, NotInvertible
from ocpoly.opoly import OPolynomial, parse_opolynomial
from ocpoly.roots import (lmr_describe_class, lmr_sample_detailed,
                          reduce_linear, rmr_witness, roots)
from ocpoly.scalars import EXACT, CentralPoly, ConjClass, central_roots

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
], ids=["double-linear", "double-linear-quartic", "remainder", "beyond-float",
        "overflowing-proposal"])
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
        "False", "irreducible factor of degree 4 over Q; "
        "no rational conjugacy-class data"]



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


big = st.fractions(min_value=-10 ** 40, max_value=10 ** 40,
                   max_denominator=10 ** 30)


@SETTINGS
@given(st.sampled_from(DEFINITE_AND_SPLIT),
       st.lists(st.tuples(*[st.one_of(rationals, big)] * 8), max_size=4))
def test_exact_coeff_scale_is_the_float_formula(params, rows):
    f = OPolynomial.make(params, [Octonion.make(params, r) for r in rows])
    assert f.coeff_scale == max([1.0] + [abs(float(v)) for c in f.coeffs
                                         for v in c.coords])


@SETTINGS
@given(st.sampled_from(DEFINITE_AND_SPLIT),
       st.lists(coords, min_size=1, max_size=5), rationals, rationals)
def test_integer_reduce_linear_is_the_fraction_recursion(params, rows, T, N):
    """E = sum a_t p_t, G = sum a_t q_t with p_0 = 0, q_0 = 1 and
    p' = T p + q, q' = -N p, run on Fractions here."""
    cs = [Octonion.make(params, r) for r in rows]
    f = OPolynomial.make(params, cs)
    red = reduce_linear(f, ConjClass(T, N))
    E, G = Octonion.zero(params), Octonion.zero(params)
    p, q = Fraction(0), Fraction(1)
    for a in f.coeffs:
        E, G = E + a * p, G + a * q
        p, q = T * p + q, -N * p
    for got, want in ((red.E, E), (red.G, G)):
        assert (got.num, got.den) == (want.num, want.den)
        assert got.coords == want.coords


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

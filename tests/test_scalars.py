import math
import random
import re
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import event, given, settings, strategies as st

from ocpoly import scalars
from ocpoly.algebra import AlgebraParams, random_octonion
from ocpoly.errors import (InvalidInput, NoConvergence, ResourceLimit,
                           UnsupportedDegree)
from ocpoly.opoly import OPolynomial
from ocpoly.scalars import (EXACT, REAL, CentralPoly, Field, central_roots)


def classes_of(cands):
    return sorted((float(c.T), float(c.N)) for c in cands if not c.central)


def central_of(cands):
    return sorted(float(c.r) for c in cands if c.central)


def times(p, q):
    """The product of two polynomials given by ascending coefficients."""
    out = [0] * (len(p) + len(q) - 1)
    for t, a in enumerate(p):
        for u, b in enumerate(q):
            out[t + u] += a * b
    return out


class TestExactMode:
    def test_coerce_keeps_a_fraction(self):
        q = Fraction(3, 7)
        assert EXACT.coerce(q) is q

    def test_biquadratic(self):
        # x^4 + 3x^2 + 2 = (x^2+1)(x^2+2)
        p = CentralPoly.make(EXACT, [2, 0, 3, 0, 1])
        cands = central_roots(p)
        assert classes_of(cands) == [(0.0, 1.0), (0.0, 2.0)]
        assert central_of(cands) == []

    def test_two_rational_roots(self):
        p = CentralPoly.make(EXACT, [-1, 0, 1])  # x^2 - 1
        cands = central_roots(p)
        assert central_of(cands) == [-1.0, 1.0]

    def test_mixed_cubic(self):
        # (x - 2)(x^2 + 1) = x^3 - 2x^2 + x - 2
        p = CentralPoly.make(EXACT, [-2, 1, -2, 1])
        cands = central_roots(p)
        assert central_of(cands) == [2.0]
        assert classes_of(cands) == [(0.0, 1.0)]

    def test_multiplicity(self):
        # (x - 1)^2 (x^2 + 1)
        p = CentralPoly.make(EXACT, [1, -2, 2, -2, 1])
        cands = central_roots(p)
        mult = sum(c.multiplicity * (1 if c.central else 2) for c in cands)
        assert mult == p.degree

    def test_exact_values_are_fractions(self):
        p = CentralPoly.make(EXACT, ["1/4", 0, 1])  # x^2 + 1/4
        (c,) = central_roots(p)
        assert c.T == 0 and c.N == Fraction(1, 4)

    def test_degree_cap(self):
        p = CentralPoly.make(EXACT, [1, 0, 0, 0, 0, 1])
        with pytest.raises(UnsupportedDegree):
            central_roots(p)

    def test_zero_polynomial(self):
        with pytest.raises(InvalidInput):
            central_roots(CentralPoly.make(EXACT, []))


def failing_cubic_companion():
    """The companion of the 35th monic cubic over the octonions with
    random_octonion coefficients from random.Random(3), on which the solver
    does not converge."""
    P, rng = AlgebraParams.octonions(REAL), random.Random(3)
    for _ in range(35):
        f = OPolynomial.make(P, [random_octonion(P, rng)
                                 for _ in range(3)] + [1])
    return f.companion()


class TestRealMode:
    def test_biquadratic(self):
        p = CentralPoly.make(REAL, [2, 0, 3, 0, 1])
        cands = central_roots(p)
        got = classes_of(cands)
        assert len(got) == 2
        assert got[0] == pytest.approx((0.0, 1.0), abs=1e-9)
        assert got[1] == pytest.approx((0.0, 2.0), abs=1e-9)

    def test_real_roots(self):
        p = CentralPoly.make(REAL, [-1, 0, 1])
        cands = central_roots(p)
        assert central_of(cands) == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_double_root(self):
        # x^2 (x - 1)^2: repeated roots must not split into fake classes
        p = CentralPoly.make(REAL, [0, 0, 1, -2, 1])
        cands = central_roots(p)
        assert classes_of(cands) == []
        assert central_of(cands) == pytest.approx([0.0, 1.0], abs=1e-6)
        assert sum(c.multiplicity for c in cands) == 4

    def test_residual_invariant(self, rng):
        # every returned class substitutes back to (almost) zero
        for _ in range(25):
            deg = rng.randint(1, 6)
            coeffs = [rng.uniform(-3, 3) for _ in range(deg)] + \
                [rng.uniform(0.5, 3)]
            p = CentralPoly.make(REAL, coeffs)
            scale = 1 + max(abs(c) for c in coeffs)
            total = 0
            for c in central_roots(p):
                if c.central:
                    z = complex(c.r)
                    total += c.multiplicity
                else:
                    z = complex(c.T / 2, math.sqrt(4 * c.N - c.T ** 2) / 2)
                    total += 2 * c.multiplicity
                assert abs(p.eval(z)) < 1e-8 * scale
            assert total == p.degree

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(-60, 60), st.lists(
        st.tuples(st.integers(-8, 8), st.integers(0, 8), st.integers(1, 3)),
        min_size=1, max_size=12, unique_by=lambda c: c[:2]))
    def test_planted_classes_come_back(self, exponent, planted):
        """Real roots a and pairs a +- b i on a grid of step scale/4, scale
        = 2^exponent (1e-18 to 1e18), multiplicities 1-3, degree <= 12: the
        float coefficients are exact, and every planted class comes back
        with its multiplicity, or the solver says it did not converge."""
        scale, degree, classes = Fraction(2) ** exponent, 0, []
        for a, b, m in planted:
            if degree + m * (1 if b == 0 else 2) <= 12:
                degree += m * (1 if b == 0 else 2)
                classes.append((a * scale / 4, b * scale / 4, m))
        poly = [Fraction(1)]
        for a, b, m in classes:
            for _ in range(m):
                poly = times(poly, [-a, 1] if b == 0
                             else [a * a + b * b, -2 * a, 1])
        assert all(Fraction(float(c)) == c for c in poly)  # exact in float
        try:
            got = central_roots(CentralPoly.make(REAL, poly))
        except NoConvergence:
            event("NoConvergence")
            return
        assert sum(c.multiplicity * (1 if c.central else 2)
                   for c in got) == degree
        assert len(got) == len(classes)
        for a, b, m in classes:
            assert any(c.central == (b == 0) and c.multiplicity == m
                       and abs(c.T - 2 * a) <= 1e-4 * scale
                       and abs(c.N - a * a - b * b) <= 1e-4 * scale ** 2
                       for c in got), (a, b, m, got)

    def test_iterates_that_are_no_mirror_images(self, monkeypatch):
        """(x^2 + 1)(x^2 + 4), with the pair +-2i iterated as -2i and
        -2i - 1e-3: the class (0, 4) would be lost, so the solver refuses
        and states how many roots its classes place."""
        monkeypatch.setattr(scalars, "_aberth", lambda coeffs: np.array(
            [1j, -1j, -2j, -2j - 1e-3]))
        with pytest.raises(NoConvergence,
                           match="classes place 2 of the 4 roots"):
            central_roots(CentralPoly.make(REAL, [4, 0, 5, 0, 1]))

    def test_no_convergence_states_residual_and_threshold(self):
        """The 35th monic cubic over the octonions with random_octonion
        coefficients from random.Random(3): its companion's eigenvalues
        miss the stop rule (max|p(z)| 7.4e-10 against 8.0e-11), and so does
        every Aberth step from them.  The error states the smallest
        max|p(z)| any step reached and the threshold, as Octonion.misfit
        does."""
        p = failing_cubic_companion()
        number = r"(\d\.\d{3}e[+-]\d\d)"
        with pytest.raises(NoConvergence) as info:
            central_roots(p)
        m = re.fullmatch(f"Aberth solver failed for degree 6: residual "
                         f"{number} > threshold {number}", str(info.value))
        assert m, str(info.value)
        target = 1e-12 * max(1.0, max(abs(c) for c in p.coeffs))
        assert m[2] == f"{target:.3e}" and float(m[1]) > float(m[2])
        # no larger than at the eigenvalues, where the iteration starts
        start = scalars._companion_eigvals(np.array(p.coeffs[::-1]))
        assert float(m[1]) <= float(f"{np.max(np.abs(p.eval(start))):.3e}")

    def test_zero_roots_are_exact(self):
        # x^3 (x^2 + 1): three roots exactly 0, split off before the solver
        p = CentralPoly.make(REAL, [0, 0, 0, 1, 0, 1])
        zero, sphere = central_roots(p)
        assert (zero.T, zero.N, zero.central, zero.multiplicity) == \
            (0.0, 0.0, True, 3)
        assert (sphere.central, sphere.multiplicity) == (False, 1)

    def test_determinism(self):
        """Root finding takes no seed and reads no global random state."""
        p = CentralPoly.make(REAL, [1, 2, 3, 4, 5])
        np.random.seed(1)
        a = central_roots(p)
        np.random.seed(2)
        assert central_roots(p) == a

    def test_no_random_generator(self, monkeypatch):
        """No call builds a generator: not at the eigenvalues, not when
        Aberth steps refine them (a start moved off by 1e-3), not when
        the steps fail."""
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.random.default_rng called")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        (c,) = central_roots(CentralPoly.make(REAL, [1, 0, 1]))
        assert (c.T, c.N) == pytest.approx((0, 1))
        eigvals, deriv = scalars._companion_eigvals, CentralPoly.deriv
        built = []
        with monkeypatch.context() as m:
            m.setattr(scalars, "_companion_eigvals",
                      lambda cs: eigvals(cs) + 1e-3)
            m.setattr(CentralPoly, "deriv",
                      lambda p, k=1: built.append(k) or deriv(p, k))
            got = central_roots(CentralPoly.make(REAL, [-6, 11, -6, 1]))
        assert built == [1]  # p' of the first failing step: Aberth iterated
        assert [c.r for c in got] == pytest.approx([1, 2, 3])
        with pytest.raises(NoConvergence):
            central_roots(failing_cubic_companion())

    @pytest.mark.parametrize("field", [EXACT, REAL])
    def test_nonzero_constant_has_no_roots(self, field):
        assert central_roots(CentralPoly.make(field, [3])) == []


def hexes(z):
    """The bits of a complex scalar or array, as hex."""
    return [(complex(w).real.hex(), complex(w).imag.hex())
            for w in np.ravel(z)]


COEFFS = st.lists(st.floats(-1e3, 1e3), min_size=2,
                  max_size=17).filter(lambda cs: cs[-1])
POINTS = st.builds(complex, st.floats(-4, 4), st.floats(-4, 4))


class TestAgainstNumpy:
    """CentralPoly's derivative and Horner evaluation are numpy's polyder
    and polyval to the last bit, so the solver's stop test and its Newton
    steps on multiple roots decide as numpy.polynomial would."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(COEFFS, st.data())
    def test_deriv_is_polyder(self, cs, data):
        k = data.draw(st.integers(0, len(cs) - 1))
        got = CentralPoly.make(REAL, cs).deriv(k).coeffs
        want = npp.polyder(cs, k)
        assert [c.hex() for c in got] == [c.hex() for c in want]

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(COEFFS, POINTS, st.lists(POINTS, min_size=1, max_size=12))
    def test_eval_is_polyval(self, cs, z, zs):
        p = CentralPoly.make(REAL, cs)
        assert hexes(p.eval(z)) == hexes(npp.polyval(z, cs))
        zs = np.array(zs)
        assert hexes(p.eval(zs)) == hexes(npp.polyval(zs, cs))


# Each named threshold and, at the default eps, the literal its sites used.
THRESHOLDS = [
    ("residual_tol", 1e-8),     # roots: |f(lam)| of a root
    ("class_tol", 1e-6),        # E, G, [conj(G), E^-1]; ConjClass.matches
    ("fixed_tol", 1e-9),        # fixed points, orbit and period revisits
    ("witness_tol", 1e-7),      # conjugation, rmr_witness, lmr_singular
]


class TestThresholds:
    @pytest.mark.parametrize("name,literal", THRESHOLDS)
    def test_default_equals_literal(self, name, literal):
        assert getattr(REAL, name) == literal

    @pytest.mark.parametrize("name,literal", THRESHOLDS)
    def test_scale_with_eps_and_vanish_in_exact_mode(self, name, literal):
        assert getattr(Field(exact=False, eps=1e-7), name) == \
            pytest.approx(100 * literal)
        assert getattr(EXACT, name) == 0

    # -1 accepted every candidate (a negative threshold, squared), nan sent
    # every root to the anomalies, 1e9 made -1 a zero structure constant
    @pytest.mark.parametrize("eps", [-1.0, math.nan, 1e9, 0.0, 1.0,
                                     math.inf])
    def test_eps_out_of_range_refused(self, eps):
        with pytest.raises(InvalidInput, match=re.escape(repr(eps))):
            Field(exact=False, eps=eps)


class TestRealRange:
    # each was kept as inf or nan, or raised OverflowError
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 10 ** 400,
                                   Fraction(-10 ** 400, 3)],
                             ids=["inf", "-inf", "nan", "int", "fraction"])
    def test_coerce_refuses(self, x):
        with pytest.raises(InvalidInput, match="not a finite|beyond float"):
            REAL.coerce(x)

    @pytest.mark.parametrize("text,named", [
        ("1e400", "10000000000000000000... (401 digits) is beyond"),
        ("-1e400", "-1000000000000000000... (401 digits) is beyond"),
        ("inf", "'inf'"), ("nan", "'nan'"), ("infinity", "'infinity'")])
    def test_parse_refuses(self, text, named):
        with pytest.raises(InvalidInput, match=re.escape(named)):
            REAL.parse(text)


class TestDigitLimit:
    """A literal read, or an exact number written, has at most 4,300
    decimal digits, as many as int() and str() convert; the count is made
    on the text, or from the bit length, before any conversion."""

    @pytest.mark.parametrize("field", [EXACT, REAL], ids=["exact", "real"])
    @pytest.mark.parametrize("text,digits", [
        ("1" + "0" * 4300, 4301), ("1e4300", 4301), ("1e-4300", 4301),
        ("1_0e4299", 4301), ("1/" + "3" * 4301, 4301),
        ("1e3000000", 3000001), ("1e" + "9" * 4301, 4301)],
        ids=["integer", "exponent", "negative-exponent", "underscore",
             "denominator", "large-exponent", "exponent-digits"])
    def test_long_literal_refused(self, field, text, digits):
        with pytest.raises(ResourceLimit, match=f"a number of {digits} "
                           "digits; at most 4300 are read"):
            field.parse(text)

    def test_longest_literal_read(self):
        assert EXACT.parse("9" * 4300) == 10 ** 4300 - 1
        assert EXACT.parse("1e4299") == 10 ** 4299

    def test_long_number_written(self):
        assert EXACT.to_json(Fraction(1, 10 ** 4300 - 1)) == \
            "1/" + "9" * 4300
        with pytest.raises(ResourceLimit, match="a number of 4301 digits; "
                           "at most 4300 are written"):
            EXACT.to_json(Fraction(-10 ** 4300, 7))

    def test_range_refusal_counts_digits_without_str(self):
        with pytest.raises(InvalidInput, match=re.escape(
                "-1234567890123456789... (5010 digits) is beyond")):
            REAL.coerce(-1234567890123456789 * 10 ** 4991)


# the one refusal of ConjClass that no other test reaches
@pytest.mark.parametrize("T,N", [(Fraction(0), Fraction(1)), (0.0, 1.0)],
                         ids=["exact", "real"])
def test_radius_of_a_class_that_is_no_scalar(T, N):
    with pytest.raises(InvalidInput, match="not a central class"):
        scalars.ConjClass(T, N).r

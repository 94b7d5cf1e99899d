import math
import re
from fractions import Fraction

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import event, given, settings, strategies as st

from ocpoly import scalars
from ocpoly.errors import InvalidInput, NoConvergence, UnsupportedDegree
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
        monkeypatch.setattr(scalars, "_aberth", lambda coeffs, rng: np.array(
            [1j, -1j, -2j, -2j - 1e-3]))
        with pytest.raises(NoConvergence,
                           match="classes place 2 of the 4 roots"):
            central_roots(CentralPoly.make(REAL, [4, 0, 5, 0, 1]))

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
    ("composition_tol", 1e-7),  # verify_composition_fixed
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

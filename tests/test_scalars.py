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
from ocpoly.opoly import OPolynomial, parse_opolynomial
from ocpoly.scalars import (EXACT, REAL, CentralPoly, Field, central_roots)

from clusters import reference_clusters


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


# Real roots a and pairs a +- b i on a grid of step scale/4, scale =
# 2^exponent (1e-18 to 1e18), multiplicities 1-3
PLANTED = (st.integers(-60, 60), st.lists(
    st.tuples(st.integers(-8, 8), st.integers(0, 8), st.integers(1, 3)),
    min_size=1, max_size=12, unique_by=lambda c: c[:2]))
PLANTED_SETTINGS = settings(max_examples=150, deadline=None,
                            derandomize=True, database=None)


def planted_poly(exponent, planted):
    """(coefficients, degree, classes (a, b, m)) of the planted classes
    that fit in degree 12, in order, at scale 2^exponent."""
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
    return poly, degree, classes


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

    @PLANTED_SETTINGS
    @given(*PLANTED)
    def test_planted_classes_come_back(self, exponent, planted):
        """Real roots a and pairs a +- b i on a grid of step scale/4, scale
        = 2^exponent (1e-18 to 1e18), multiplicities 1-3, degree <= 12: the
        float coefficients are exact, and every planted class comes back
        with its multiplicity, or the solver says it did not converge."""
        poly, degree, classes = planted_poly(exponent, planted)
        scale = Fraction(2) ** exponent
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

    @PLANTED_SETTINGS
    @given(*PLANTED)
    def test_clusters_match_the_reference(self, exponent, planted):
        """scalars._clusters makes the merge decisions of the loop kept in
        tests/clusters.py, on the iterates central_roots clusters for the
        planted classes (the companion eigenvalues where Aberth's loop
        does not converge): the same (centroid, size) list to the bit."""
        p = CentralPoly.make(REAL, planted_poly(exponent, planted)[0])
        j = next(t for t, c in enumerate(p.coeffs) if c)
        rest = CentralPoly(REAL, p.coeffs[j:])
        try:
            zs = scalars._aberth(rest).tolist() if rest.degree else []
        except NoConvergence:
            zs = scalars._companion_eigvals(np.array(rest.coeffs[::-1]))
            zs = zs.tolist()
        assert_same_clusters(p, [0j] * j + zs)

    def test_clusters_match_the_reference_where_they_merge(self):
        """The same on failing_cubic_companion()'s eigenvalues, on (x -
        1)^3 (x^2 + 1)^2, whose iterates merge into groups of 3 and 2, and
        on (x - 1)(x - 1 - d), d = 2^-30 to 2^-6, whose two iterates merge
        up to d = 6e-8 and not beyond, so that a disc radius off by a
        factor of 2 moves a decision."""
        p = failing_cubic_companion()
        assert_same_clusters(p, scalars._companion_eigvals(
            np.array(p.coeffs[::-1])).tolist())
        p = CentralPoly.make(REAL, times(times([-1, 3, -3, 1], [1, 0, 1]),
                                         [1, 0, 1]))
        got = assert_same_clusters(p, scalars._aberth(p).tolist())
        assert sorted(k for _, k in got) == [2, 2, 3]
        merged = []
        for e in range(-60, -11):
            d = 2.0 ** (e / 2)
            p = CentralPoly.make(REAL, [1 + d, -(2 + d), 1])
            got = assert_same_clusters(p, scalars._aberth(p).tolist())
            merged.append(len(got) == 1)
        assert merged == sorted(merged, reverse=True) and 0 < sum(merged) < 49

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


def assert_same_clusters(p, zs):
    """scalars._clusters(p, zs), which must equal reference_clusters(p, zs)
    bit for bit, centroid and size by centroid and size."""
    got = scalars._clusters(p, list(zs))
    want = reference_clusters(p, list(zs))
    assert [(hexes(c), k) for c, k in got] == \
        [(hexes(c), k) for c, k in want]
    return got


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


def reference_eigvals(cs):
    """The companion eigenvalues as numpy built the matrix before the row
    was divided on Python floats: np.diag, and the division under
    np.errstate."""
    cs = np.array(cs)
    comp = np.diag(np.ones(len(cs) - 2), -1)
    with np.errstate(over="ignore"):
        comp[0] = -cs[1:] / cs[0]
    return np.linalg.eigvals(comp)


# Descending coefficients of degree 1-16, magnitudes 1e-150 to 1e150, the
# leading one nonzero
MAGNITUDES = st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
                       st.floats(1, 10), st.integers(-150, 149),
                       st.sampled_from([-1, 1]))
DESCENDING = st.tuples(MAGNITUDES, st.lists(
    st.one_of(st.just(0.0), MAGNITUDES), min_size=1, max_size=16))


class TestScalarStart:
    """The companion row is divided and the eigenvalue start is judged on
    Python scalars; numpy runs the eigenvalue solve and Aberth's loop."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(DESCENDING)
    def test_companion_eigvals_are_the_reference(self, lead_rest):
        cs = (lead_rest[0], *lead_rest[1])
        want = hexes(reference_eigvals(cs))
        for given_as in (tuple, list, np.array):
            assert hexes(scalars._companion_eigvals(given_as(cs))) == want

    @pytest.mark.parametrize("given_as", [tuple, list])
    def test_companion_refusal_text(self, given_as):
        with pytest.raises(InvalidInput, match=r"^leading coefficient "
                           r"1e-320: the companion matrix is not finite$"):
            scalars._companion_eigvals(given_as((1e-320, 1.0, 2.0)))

    def test_accepted_start_evaluates_no_array(self, monkeypatch):
        """A well-conditioned cubic's companion: its eigenvalues pass the
        start test, no Aberth step is taken, and CentralPoly.eval sees
        Python scalars only."""
        P = AlgebraParams.octonions(REAL)
        p = parse_opolynomial("x^3 + ix^2 - jx + 2", P).companion()
        seen, evaluate = [], CentralPoly.eval
        monkeypatch.setattr(CentralPoly, "eval", lambda q, z: seen.append(
            type(z)) or evaluate(q, z))
        monkeypatch.setattr(CentralPoly, "deriv", None)  # no step, no polish
        assert sum(c.multiplicity * 2 for c in central_roots(p)) == 6
        assert seen and not any(issubclass(t, np.ndarray) for t in seen)
        assert set(seen) <= {complex, float}

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_residual_is_never_accepted(self, monkeypatch, at):
        """A start with a nan eigenvalue, first or not, is not accepted:
        whatever _aberth returns satisfies all(|p(w)| < target), which a
        nan fails (max over Python scalars could drop it).  No Aberth step
        follows, so the start test alone decides."""
        p = CentralPoly.make(REAL, [-6, 11, -6, 1])
        target = 1e-12 * 11
        eigvals = scalars._companion_eigvals

        def start(cs):
            z = eigvals(cs).astype(complex)
            z[at] = complex(math.nan, 0.0)
            return z
        monkeypatch.setattr(scalars, "_companion_eigvals", start)
        monkeypatch.setattr(scalars, "_MAX_ITER", 0)  # the start test alone
        try:
            z = scalars._aberth(p)
        except NoConvergence:
            return
        assert all(abs(p.eval(w)) < target for w in z.tolist())


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

    def test_coerce_keeps_a_finite_float(self):
        """A finite float is returned as it is, the same object (inf, nan
        and an int beyond float range: test_coerce_refuses)."""
        x = 0.1 + 0.2
        assert REAL.coerce(x) is x

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

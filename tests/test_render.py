import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ocpoly.algebra import AlgebraParams, Octonion, random_octonion
from ocpoly.errors import InvalidInput
from ocpoly.opoly import OPolynomial
import ocpoly.render
from ocpoly.render import (SliceSpec, contraction_certificate, escape_steps,
                           render, step_matrix, steps_to_image, substitute,
                           write_pgm)
from ocpoly.scalars import REAL


def scalar_steps(f, spec):
    """Escape steps of the lattice one pixel at a time, by f.eval and
    Octonion.norm."""
    want = np.zeros(spec.width * spec.height, dtype=np.int64)
    for p, start in enumerate(spec.lattice()):
        lam = Octonion.make(f.params, start)
        for it in range(spec.max_iter):
            lam = f.eval(lam)
            if lam.norm() > spec.escape_radius ** 2:
                want[p] = it + 1
                break
    return want


def reference_steps(f, spec):
    """The escape-only loop: escaped pixels leave the batch, bounded ones
    run all max_iter steps of substitute."""
    mat = step_matrix(f)
    diag = np.array([float(d) for d in f.params.table.norm_diag])
    esc2 = float(spec.escape_radius) ** 2
    lam = spec.lattice().T
    norm = diag @ (lam * lam)
    steps = np.zeros(lam.shape[1], dtype=np.int64)
    active = np.arange(lam.shape[1])
    for it in range(spec.max_iter):
        lam = substitute(mat, lam, norm)
        norm = diag @ (lam * lam)
        esc = norm > esc2
        if esc.any():
            steps[active[esc]] = it + 1
            keep = ~esc
            active, lam, norm = active[keep], lam[:, keep], norm[keep]
            if active.size == 0:
                break
    return steps.reshape(spec.height, spec.width)


def named_view(name, params):
    """(f, spec) of a view whose orbits settle in different ways."""
    zero, one = Octonion.zero(params), Octonion.one(params)
    i, j = Octonion.basis(params, 1), Octonion.basis(params, 2)
    if name == "z^2":       # superattracting 0, landed on exactly
        f = OPolynomial.make(params, [zero, zero, one])
        return f, SliceSpec(base=zero, dir_u=one, dir_v=i, width=64,
                            height=64, scale=4 / 64)
    if name == "z^2 zoom":  # every pixel bounded
        f = OPolynomial.make(params, [zero, zero, one])
        return f, SliceSpec(base=zero, dir_u=one, dir_v=i, width=24,
                            height=24, scale=1 / 24)
    if name == "z^2 near 1":  # orbits leave the repelling 1 slowly
        f = OPolynomial.make(params, [zero, zero, one])
        return f, SliceSpec(base=one, dir_u=one, dir_v=i, width=8,
                            height=8, scale=2.0 ** -30)
    if name == "x^2 + 0.7":  # orbits leave a repelling point of size 0.84
        f = OPolynomial.make(params, [one * 0.7, zero, one])
        return f, SliceSpec(base=one * 0.5 + i * (math.sqrt(1.8) / 2),
                            dir_u=one, dir_v=j, width=8, height=8,
                            scale=2.0 ** -20)
    if name == "x^2 - 1":   # the superattracting 2-cycle 0, -1
        f = OPolynomial.make(params, [-one, zero, one])
        return f, SliceSpec(base=zero, dir_u=one, dir_v=i, width=64,
                            height=64, scale=4 / 64)
    # render_bench.py's slice: bounded orbits near a parabolic point
    f = OPolynomial.make(params, [i * (-0.5) - one * 0.25, i, one])
    return f, SliceSpec(base=j * 0.1, dir_u=one, dir_v=i, width=64,
                        height=64, scale=4 / 64, escape_radius=4.0)


def degree_view(degree, size, gammas):
    """(f, spec): f monic of the degree with seeded coefficients of the
    size (the zero polynomial for "zero"), on a 32x32 view through 0.1 j."""
    params = AlgebraParams(REAL, *gammas)
    one = Octonion.one(params)
    rng = random.Random(degree)
    if degree == "zero":
        f = OPolynomial.zero(params)
    else:
        f = OPolynomial.make(params, [
            random_octonion(params, rng, span=1) * size
            for _ in range(degree)] + [one])
    return f, SliceSpec(base=Octonion.basis(params, 2) * 0.1, dir_u=one,
                        dir_v=Octonion.basis(params, 1), width=32,
                        height=32, scale=3 / 32, max_iter=40)


def counted_steps(monkeypatch, f, spec):
    """(escape_steps(f, spec), its calls of substitute): one per kernel
    step, plus one for the bound of a certificate that exists."""
    calls = []

    def counted(*args):
        calls.append(1)
        return substitute(*args)

    monkeypatch.setattr(ocpoly.render, "substitute", counted)
    return escape_steps(f, spec), len(calls)


@pytest.fixture
def f_square(PR):
    # x^2: the filled set of bounded starts is exactly the closed unit ball
    return OPolynomial.make(PR, [Octonion.zero(PR), Octonion.zero(PR),
                                 Octonion.one(PR)])


@pytest.fixture
def spec(PR, basis_r):
    one, i, j, k, l = basis_r
    return SliceSpec(base=Octonion.zero(PR), dir_u=one, dir_v=i,
                     width=128, height=128, scale=4 / 128,
                     max_iter=50, escape_radius=2.0)


class TestEscapeSteps:
    def test_unit_disk_accuracy(self, f_square, spec):
        steps = escape_steps(f_square, spec)
        lat = spec.lattice().reshape(spec.height, spec.width, 8)
        radius = np.sqrt(np.sum(lat * lat, axis=-1))
        inside = radius <= 1.0 - 1e-9
        outside = radius >= 1.0 + 1e-9
        # bounded pixels carry step 0, escapers a positive count
        agree = np.sum(inside & (steps == 0)) + np.sum(outside & (steps > 0))
        total = np.sum(inside) + np.sum(outside)
        assert agree / total >= 0.99

    def test_lattice_rows_and_layout(self, PR, basis_r):
        """Row r * width + c is base + x_c dir_u + y_r dir_v, and its
        transpose is the kernel's C-contiguous (8, h*w) array, no copy."""
        one, i, j, k, l = basis_r
        spec = SliceSpec(base=j, dir_u=one, dir_v=i + l, width=3, height=2,
                         scale=0.5)
        lat = spec.lattice()
        assert lat.shape == (6, 8) and lat.T.flags.c_contiguous
        for r in range(2):
            for c in range(3):
                x, y = (c + 0.5 - 1.5) * 0.5, (r + 0.5 - 1.0) * 0.5
                want = (j + one * x + (i + l) * y).coords
                assert tuple(lat[3 * r + c]) == want

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("gammas", [(-1, -1, -1), (2, 3, 5),
                                        (-2, 3, Fraction(-1, 2))])
    def test_step_matches_eval(self, gammas, degree):
        # the p_t/q_t identity holds in every algebra, definite or not
        params = AlgebraParams(REAL, *gammas)
        rng = random.Random(degree)
        f = OPolynomial.make(params, [random_octonion(params, rng, span=1)
                                      for _ in range(degree + 1)])
        assert f.degree == degree
        lam = np.random.default_rng(5).uniform(-4, 4, (64, 8))
        diag = np.array([float(d) for d in params.table.norm_diag])
        got = substitute(step_matrix(f), lam.T.copy(), (lam * lam) @ diag)
        assert got.shape == (8, 64)
        for row, x in zip(got.T, lam):
            want = np.array(f.eval(Octonion.make(params, x)).coords)
            scale = max(1.0, np.abs(want).max())
            assert np.all(np.abs(row - want) <= 1e-12 * scale)

    def test_matches_scalar_orbits(self, PR, basis_r):
        one, i, j, k, l = basis_r
        rng = random.Random(5)
        f = OPolynomial.make(PR, [random_octonion(PR, rng, span=1) * 0.25
                                  for _ in range(4)])
        assert f.degree == 3
        spec = SliceSpec(base=j * 0.25, dir_u=one, dir_v=i, width=16,
                         height=16, scale=3 / 16, max_iter=30,
                         escape_radius=2.0)
        want = scalar_steps(f, spec)
        # the slice holds bounded pixels and several escape times
        assert 0 < np.sum(want == 0) < want.size
        assert len(set(want.tolist())) > 3
        assert np.sum(escape_steps(f, spec).ravel() != want) <= 1

    @pytest.mark.parametrize("degree", ["zero", 0, 1, 5, 8])
    def test_matches_scalar_orbits_nonstandard(self, degree):
        # a definite algebra whose norm diagonal is not all ones
        params = AlgebraParams(REAL, -2, -3, Fraction(-1, 2))
        one = Octonion.one(params)
        i, j = Octonion.basis(params, 1), Octonion.basis(params, 2)
        if degree == "zero":
            f = OPolynomial.zero(params)
        elif degree == 0:
            f = OPolynomial.make(params, [i * 1.5 + j])  # norm 7.5
        else:
            rng = random.Random(degree)
            f = OPolynomial.make(params, [
                random_octonion(params, rng, span=1) * 0.1
                for _ in range(degree)] + [one])
        spec = SliceSpec(base=j * 0.1, dir_u=one, dir_v=i, width=16,
                         height=16, scale=3 / 16, max_iter=30,
                         escape_radius=2.0)
        want = scalar_steps(f, spec)
        if degree == "zero":
            assert np.all(want == 0)
        elif degree == 0:
            assert np.all(want == 1)  # the orbit jumps to the constant
        else:
            assert len(set(want.tolist())) > 3
        assert np.sum(escape_steps(f, spec).ravel() != want) <= 1

    @pytest.mark.parametrize("gammas", [(-1, -1, -1),
                                        (-2, -3, Fraction(-1, 2))])
    @pytest.mark.parametrize("name", ["z^2", "z^2 zoom", "z^2 near 1",
                                      "x^2 + 0.7", "x^2 - 1", "bench"])
    def test_retirement_matches_reference_views(self, name, gammas):
        f, spec = named_view(name, AlgebraParams(REAL, *gammas))
        assert np.array_equal(escape_steps(f, spec),
                              reference_steps(f, spec))

    @pytest.mark.parametrize("degree", ["zero"] + list(range(17)))
    @pytest.mark.parametrize("gammas", [(-1, -1, -1),
                                        (-2, -3, Fraction(-1, 2))])
    @pytest.mark.parametrize("size", [0.2, 0.05])
    def test_retirement_matches_reference_degrees(self, size, gammas,
                                                  degree):
        # at size 0.05 most bounded orbits of degree >= 3 land on their
        # fixed point; at 0.2 they approach one beyond r* and run to
        # max_iter; degrees 9-16 have the largest rounding bound delta
        f, spec = degree_view(degree, size, gammas)
        assert np.array_equal(escape_steps(f, spec),
                              reference_steps(f, spec))

    def test_retirement_fires(self, PR, monkeypatch):
        """On the all-bounded z^2 view every orbit lands on 0, so the
        batch empties long before max_iter."""
        f, spec = named_view("z^2 zoom", PR)
        steps, calls = counted_steps(monkeypatch, f, spec)
        assert np.all(steps == 0)
        assert calls < spec.max_iter / 2

    @pytest.mark.parametrize("gammas", [(-1, -1, -1),
                                        (-2, -3, Fraction(-1, 2))])
    def test_certificate_fires(self, monkeypatch, gammas):
        """The degree-2 view at size 0.05 approaches its attracting point
        inside r* without landing on it: with the certificate off, every
        step runs; with it on, fewer than half do."""
        f, spec = degree_view(2, 0.05, gammas)
        steps, calls = counted_steps(monkeypatch, f, spec)
        assert np.any(steps == 0) and calls < spec.max_iter / 2
        monkeypatch.setattr(ocpoly.render, "contraction_certificate",
                            lambda *args: None)
        _, calls_off = counted_steps(monkeypatch, f, spec)
        assert calls_off == spec.max_iter

    def test_certificate_absent_for_bench(self, PR, monkeypatch):
        # |a_1| = |i| = 1 >= 1/2: no r*, and the same steps as without it
        f, spec = named_view("bench", PR)
        steps, calls = counted_steps(monkeypatch, f, spec)
        assert np.any(steps == 0) and calls == spec.max_iter
        mat = step_matrix(f)
        assert contraction_certificate(f, mat, np.ones(8), 4.0) is None

    def test_certificate_radius(self, PR):
        # x^2: r* = min(1, R/2, (1/2 - 0) / 2) = 1/4, delta near u
        f = OPolynomial.make(PR, [0, 0, 1])
        r, delta = contraction_certificate(f, step_matrix(f), np.ones(8),
                                           2.0)
        assert r == 0.25 and 0 < delta < 1e-13

    def test_indefinite_norm_refused(self):
        for gammas, definite in (((2, 3, 5), False), ((-1, -1, -1), True)):
            params = AlgebraParams(REAL, *gammas)
            zero, one = Octonion.zero(params), Octonion.one(params)
            f = OPolynomial.make(params, [zero, zero, one])
            spec = SliceSpec(base=zero, dir_u=one,
                             dir_v=Octonion.basis(params, 1), width=4,
                             height=4, scale=1.0)
            if definite:
                assert escape_steps(f, spec).shape == (4, 4)
            else:
                with pytest.raises(InvalidInput):
                    escape_steps(f, spec)

    # radius -2 drew the radius-2 image (the radius is squared); nan left
    # every pixel bounded, with overflow warnings; 1e200 overflowed when
    # squared
    @pytest.mark.parametrize("change,message", [
        ({"escape_radius": -2.0}, "escape radius"),
        ({"escape_radius": 0.0}, "escape radius"),
        ({"escape_radius": math.nan}, "escape radius"),
        ({"escape_radius": math.inf}, "escape radius"),
        ({"scale": math.nan}, "scale"),
        ({"scale": math.inf}, "scale"),
        ({"escape_radius": 1e200}, "finite square, got 1e\\+200")])
    def test_bad_radius_or_scale_refused(self, spec, change, message):
        with pytest.raises(InvalidInput, match=message):
            dataclasses.replace(spec, **change)

    def test_overflow_to_nan_escapes(self, PR, basis_r):
        # the iterates of x^2 + ix from 1e200 (1 + i) overflow to nan,
        # which compared as bounded: every pixel came out 0
        one, i, j, k, l = basis_r
        f = OPolynomial.make(PR, [0, i, 1])
        spec = SliceSpec(base=(one + i) * 1e200, dir_u=one, dir_v=i,
                         width=2, height=2, scale=1.0, escape_radius=1e150)
        with np.errstate(over="ignore", invalid="ignore"):
            assert (escape_steps(f, spec) == 1).all()

    def test_deterministic(self, f_square, spec):
        a = escape_steps(f_square, spec)
        b = escape_steps(f_square, spec)
        assert np.array_equal(a, b)

    def test_off_plane_slice(self, PR, basis_r):
        # shifting the slice off the plane of the disk shrinks the trace
        one, i, j, k, l = basis_r
        f = OPolynomial.make(PR, [Octonion.zero(PR), Octonion.zero(PR),
                                  Octonion.one(PR)])
        near = SliceSpec(base=j * 0.5, dir_u=one, dir_v=i, width=64,
                         height=64, scale=4 / 64, max_iter=50,
                         escape_radius=2.0)
        far = SliceSpec(base=j * 1.5, dir_u=one, dir_v=i, width=64,
                        height=64, scale=4 / 64, max_iter=50,
                        escape_radius=2.0)
        n_near = np.sum(escape_steps(f, near) == 0)
        n_far = np.sum(escape_steps(f, far) == 0)
        assert n_near > 0
        assert n_far == 0  # the ball has radius 1, base is 1.5 away


class TestImages:
    def test_steps_to_image_range(self, f_square, spec):
        steps = escape_steps(f_square, spec)
        img = steps_to_image(steps, spec.max_iter)
        assert img.dtype == np.uint8
        assert np.all(img[steps == 0] == 0)
        assert np.all(img[steps > 0] > 0)

    def test_write_pgm(self, f_square, spec, tmp_path):
        path = tmp_path / "out.pgm"
        render(f_square, spec, str(path))
        data = path.read_bytes()
        assert data.startswith(b"P5\n")
        header, rest = data.split(b"\n", 1)
        dims, rest = rest.split(b"\n", 1)
        maxval, pixels = rest.split(b"\n", 1)
        assert dims.split() == [b"128", b"128"]
        assert maxval == b"255"
        assert len(pixels) == 128 * 128

    def test_overwrite_leaves_only_fresh_bytes(self, f_square, spec,
                                               tmp_path):
        # a smaller image over a larger one leaves no bytes of the old
        path = str(tmp_path / "out.pgm")
        render(f_square, spec, path)
        small = dataclasses.replace(spec, width=16, height=16,
                                    scale=4 / 16)
        img = render(f_square, small, path)
        with open(path, "rb") as fh:
            assert fh.read() == b"P5\n16 16\n255\n" + img.tobytes()

    def test_write_to_a_device(self):
        # --out /dev/null and /dev/stdout are no regular files
        write_pgm("/dev/null", np.zeros((4, 4), dtype=np.uint8))


# the refusals of SliceSpec that no other test reaches, each by its text
@pytest.mark.parametrize("field,text", [
    ("dir_u", "slice directions must be nonzero"),
    ("dir_v", "slice directions must be nonzero"),
    ("width", "bad raster dimensions"), ("height", "bad raster dimensions"),
    ("max_iter", "bad raster dimensions")])
def test_spec_refusals(spec, PR, field, text):
    bad = Octonion.zero(PR) if field.startswith("dir") else 0
    with pytest.raises(InvalidInput, match=text):
        dataclasses.replace(spec, **{field: bad})

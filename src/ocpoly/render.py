"""Escape-time rendering of a 2-plane slice through the algebra.

Each pixel maps to lam = base + x*dirU + y*dirV; the substitution orbit of
lam under f is iterated until its norm exceeds the escape radius.  A single
numpy kernel iterates all pixels at once.  Every element satisfies
lam^2 = T lam - N with T = tr(lam) and N = n(lam), so lam^t = p_t lam + q_t
for real p_t, q_t, and f(lam) = sum_t p_t (a_t lam) + sum_t q_t a_t is one
matrix product of the fixed left-multiplication matrices of the a_t with a
column of features per pixel (``substitute``).  The norms of the escape test
are the N of the next step, and escaped pixels leave the batch.  Every
``RETIRE_EVERY`` steps, so do bounded pixels of two kinds, each given the
step 0 that running to ``max_iter`` would give: an iterate that landed
exactly on a fixed point (a step is a fixed float function of the pixel's
8 coordinates, so the orbit stays there), and an orbit trapped in a ball
that f maps into itself, rounding included, inside B(0, r*) where f
contracts (``contraction_certificate``; the proof is in ``escape_steps``).
The norm bounds the orbit only when the norm form is positive definite
(all structure constants negative), so other algebras are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Octonion
from .errors import InvalidInput, ResourceLimit
from .opoly import OPolynomial

RETIRE_EVERY = 8  # steps between retirement checks
MAX_PIXELS = 2048 * 2048  # the largest raster, before any array exists
UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class SliceSpec:
    base: Octonion
    dir_u: Octonion
    dir_v: Octonion
    width: int
    height: int
    scale: float
    max_iter: int = 50
    escape_radius: float = 2.0

    def __post_init__(self):
        if self.dir_u.is_zero() or self.dir_v.is_zero():
            raise InvalidInput("slice directions must be nonzero")
        if self.width < 1 or self.height < 1 or self.max_iter < 1:
            raise InvalidInput("bad raster dimensions")
        if self.width * self.height > MAX_PIXELS:
            raise ResourceLimit(f"raster {self.width} x {self.height} above "
                                f"the cap of {MAX_PIXELS} pixels")
        r = self.escape_radius
        if not (0 < r and r * r < math.inf):  # escape tests compare r^2
            raise InvalidInput(f"escape radius must be positive with a "
                               f"finite square, got {r!r}")
        if not math.isfinite(self.scale):
            raise InvalidInput(f"scale must be finite, got {self.scale!r}")

    def lattice(self) -> np.ndarray:
        """(height*width, 8) per-pixel start elements, as the transposed
        view of the kernel's (8, height*width) layout: the (8, 3) matrix
        [base dir_u dir_v] times the rows (1, x, y) of the pixels."""
        frame = np.array([self.base.coords, self.dir_u.coords,
                          self.dir_v.coords], dtype=float).T
        xs = (np.arange(self.width) + 0.5 - self.width / 2) * self.scale
        ys = (np.arange(self.height) + 0.5 - self.height / 2) * self.scale
        pix = np.ones((3, self.height, self.width))
        pix[1] = xs
        pix[2] = ys[:, None]
        return (frame @ pix.reshape(3, -1)).T


def step_matrix(f: OPolynomial) -> np.ndarray:
    """The (8, 9n+1) matrix [L(a_1) ... L(a_n) | a_0 ... a_n] of a real-mode
    f of degree n, the zero polynomial taken as the constant 0: the
    left-multiplication matrices of the coefficients a_t, t >= 1, then the
    coefficients themselves as columns."""
    table = f.params.table
    coeffs = f.coeffs or (Octonion.zero(f.params),)
    lefts = [table.left_matrix(c.coords) for c in coeffs[1:]]
    consts = np.array([[float(v) for v in c.coords] for c in coeffs]).T
    return np.hstack(lefts + [consts])


def substitute(mat: np.ndarray, lam: np.ndarray,
               norm: np.ndarray) -> np.ndarray:
    """f(lam) for each column of the (8, m) array ``lam``, where ``mat`` is
    the ``step_matrix`` of f and ``norm`` holds the (m,) norms n(lam).  With
    T = tr(lam) = 2 lam_0 and N = n(lam), lam^t = p_t lam + q_t where
    p_1 = 1, q_1 = 0, p_{t+1} = T p_t + q_t and q_{t+1} = -N p_t, so
    f(lam) = mat @ [p_1 lam; ...; p_n lam; q_0; ...; q_n].  Any algebra of
    the family will do: only the escape test needs a definite norm."""
    n = (mat.shape[1] - 1) // 9
    feats = np.empty((mat.shape[1], lam.shape[1]))
    qs = feats[8 * n:]
    qs[0] = 1.0
    if n:
        feats[:8] = lam
        qs[1] = 0.0
    if n > 1:
        trace, neg_norm = 2.0 * lam[0], -norm
        p = trace
        qs[2] = neg_norm
        for t in range(2, n + 1):
            np.multiply(lam, p, out=feats[8 * (t - 1):8 * t])
            if t < n:
                np.multiply(neg_norm, p, out=qs[t + 1])
                p = trace * p + qs[t]
    return mat @ feats


def contraction_certificate(f: OPolynomial, mat: np.ndarray,
                            diag: np.ndarray, radius: float):
    """(r*, delta) of the retirement test of ``escape_steps``, or None when
    |a_1| >= 1/2."""
    sizes = [c.abs() for c in f.coeffs]
    a1 = sizes[1] if len(sizes) > 1 else 0.0
    if a1 >= 0.5:
        return None
    lip = sum(t * s for t, s in enumerate(sizes[2:], 2))
    r = min(1.0, radius / 2, (0.5 - a1) / lip if lip else 1.0)
    # substitute on absolute values: |mat|, each |lam_k| at its largest,
    # r / sqrt(d_k), and the norm -r^2, so that q_{t+1} = r^2 p_t >= 0
    with np.errstate(over="ignore", invalid="ignore"):
        bound = substitute(np.abs(mat), (r / np.sqrt(diag))[:, None],
                           np.array([-r * r]))[:, 0]
        size = math.sqrt(8) * float(np.max(np.sqrt(diag) * bound))
    k = 16 * ((mat.shape[1] - 1) // 9 + 1)
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)
    return r, 2 * gamma * (size + r)


def escape_steps(f: OPolynomial, spec: SliceSpec) -> np.ndarray:
    """(height, width) array: 0 for bounded orbits, else the escape step.

    Escaped pixels leave the batch, and so, every ``RETIRE_EVERY`` steps,
    do pixels whose orbit is bounded for good, keeping the 0 that the loop
    run to max_iter would give them; escape is tested first.  An orbit is
    bounded for good when its new iterate equals the previous one x in all
    8 coordinates, or when |x| + 4 (d + delta) <= r*, with d = |f(x) - x|
    the step just taken, r* = min(1, R/2, (1/2 - |a_1|) / sum_{t>=2} t|a_t|)
    for escape radius R, and delta a bound on the float error of one
    ``substitute`` step at |lam| <= r*.

    Proof.  |uv| = |u| |v| on a definite algebra, so the derivative of
    a_t x^t along h, a sum of t products of a_t, h and t - 1 factors x, has
    norm at most t |a_t| |x|^(t-1) |h|: f is L-Lipschitz on B(0, r*) with
    L = sum_t t |a_t| r*^(t-1) <= 1/2, as r*^(t-1) <= r* for t >= 2.  With
    rho = 4 (d + delta), B(x, rho) lies in B(0, r*), and the computed step
    from any z in it lands within delta + L rho + delta + d <= rho of x
    (rounding, Lipschitz, rounding at x, step).  So the float orbit stays
    in that ball, inside B(0, R/2), and never escapes.  delta follows
    Higham (Accuracy and Stability of Numerical Algorithms, ch. 3): the
    float value of each coordinate is its exact sum of monomials, each
    times at most k factors (1 + e), |e| <= u, so its error is at most
    gamma_k = k u / (1 - k u) times the same sum of absolute values;
    k = 16 (n + 1) bounds the roundings along any path (9n + 1 in the
    product with mat, 2 in an entry of mat, 1 per feature, 2 per step of
    the p_t recursion and 10 per factor of the norm).  That sum is taken at
    the largest coordinates on B(0, r*), its norm bounded by sqrt(8) times
    its largest coordinate so scaled, and delta is 2 gamma_k times that
    plus r*, which covers the rounding of r*, |x|, d and the test.  The
    rule leaves alone attracting points beyond r* and every f with
    |a_1| >= 1/2; those orbits retire only on an exact repeat, until a
    test centred on the Jacobian at the fixed point reaches them.
    """
    f.params.require_real_definite("escape time")
    mat = step_matrix(f)
    diag = np.array([float(d) for d in f.params.table.norm_diag])
    esc2 = float(spec.escape_radius) ** 2
    lam = spec.lattice().T
    norm = diag @ (lam * lam)
    steps = np.zeros(lam.shape[1], dtype=np.int64)
    active = np.arange(lam.shape[1])
    for it in range(1, spec.max_iter + 1):
        prev, lam = lam, substitute(mat, lam, norm)
        prev_norm, norm = norm, diag @ (lam * lam)
        keep = inside = norm <= esc2  # a norm that overflowed to nan escapes
        if it % RETIRE_EVERY == 0:
            if it == RETIRE_EVERY:  # no render that ends sooner pays for it
                cert = contraction_certificate(f, mat, diag,
                                               spec.escape_radius)
            settled = (lam == prev).all(axis=0)
            # the test needs some x in B(0, r*); d^2 may overflow for an
            # escaped pixel, whose step is recorded
            if cert is not None and (prev_norm <= cert[0] ** 2).any():
                r, delta = cert
                with np.errstate(over="ignore", invalid="ignore"):
                    d2 = lam - prev
                    d2 *= d2
                    settled |= np.sqrt(prev_norm) + 4 * (
                        np.sqrt(diag @ d2) + delta) <= r
            keep = inside & ~settled
        if not keep.all():
            steps[active[~inside]] = it
            active = active[keep]
            lam = lam[:, keep]
            norm = norm[keep]
            if active.size == 0:
                break
    return steps.reshape(spec.height, spec.width)


def steps_to_image(steps: np.ndarray, max_iter: int) -> np.ndarray:
    """8-bit intensities: black for bounded pixels, brighter = later escape."""
    img = np.zeros(steps.shape, dtype=np.uint8)
    escaped = steps > 0
    img[escaped] = (1 + (254 * (steps[escaped] - 1)) // max(1, max_iter - 1)) \
        .astype(np.uint8)
    return img


def write_pgm(path: str, img: np.ndarray) -> None:
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.astype(np.uint8).tobytes())


def render(f: OPolynomial, spec: SliceSpec, path: str) -> np.ndarray:
    steps = escape_steps(f, spec)
    img = steps_to_image(steps, spec.max_iter)
    write_pgm(path, img)
    return img

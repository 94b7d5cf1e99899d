"""Escape-time rendering of a 2-plane slice through the algebra.

Each pixel maps to lam = base + x*dirU + y*dirV; the substitution orbit of
lam under f is iterated until its norm exceeds the escape radius.  A single
numpy kernel iterates all pixels at once on the algebra's multiplication
table: the powers lam^t come from the batched product
``ProductTable.mul_batch``, each coefficient acts as a fixed 8x8
left-multiplication matrix, and escaped pixels leave the batch.  The norm
bounds the orbit only when the norm form is positive definite (all
structure constants negative), so other algebras are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Octonion
from .errors import InvalidInput, ModeMismatch
from .opoly import OPolynomial


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

    def lattice(self) -> np.ndarray:
        """(height*width, 8) array of the per-pixel start elements."""
        base = np.array([float(c) for c in self.base.coords])
        du = np.array([float(c) for c in self.dir_u.coords])
        dv = np.array([float(c) for c in self.dir_v.coords])
        cols = (np.arange(self.width) + 0.5 - self.width / 2) * self.scale
        rows = (np.arange(self.height) + 0.5 - self.height / 2) * self.scale
        xs = np.repeat(rows, self.width)
        ys = np.tile(cols, self.height)
        return base[None, :] + ys[:, None] * du[None, :] + xs[:, None] * dv[None, :]


def escape_steps(f: OPolynomial, spec: SliceSpec) -> np.ndarray:
    """(height, width) array: 0 for bounded orbits, else the escape step."""
    if f.params.field.exact:
        raise ModeMismatch("rendering is a real-mode operation")
    table = f.params.table
    if any(d <= 0 for d in table.norm_diag):
        raise InvalidInput("escape time needs a positive definite norm form, "
                           f"got diagonal {table.norm_diag}")
    coeffs = f.coeffs or (Octonion.zero(f.params),)
    const = np.array([float(c) for c in coeffs[0].coords])
    lefts = [table.left_matrix(c.coords) for c in coeffs[1:]]
    diag = np.array([float(d) for d in table.norm_diag])
    esc2 = float(spec.escape_radius) ** 2
    lam = spec.lattice()
    steps = np.zeros(len(lam), dtype=np.int64)
    active = np.arange(len(lam))
    for it in range(spec.max_iter):
        # c_0 + c_1 lam + c_2 lam^2 + ..., each power from the one before
        acc = np.broadcast_to(const, lam.shape)
        power = lam
        for t, left in enumerate(lefts):
            if t:
                power = table.mul_batch(power, lam)
            acc = acc + power @ left
        lam = acc
        esc = np.einsum("c,pc->p", diag, lam * lam) > esc2
        if esc.any():
            steps[active[esc]] = it + 1
            active = active[~esc]
            lam = lam[~esc]
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

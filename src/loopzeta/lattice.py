"""Discrete-torus log-determinants and their constant-order term.

The graph Laplacian of the n_x x n_y torus has eigenvalues
4 - 2cos(2 pi j/n_x) - 2cos(2 pi k/n_y); removing the zero mode, the
log-determinant grows like (4G/pi) n_x n_y + log(n_x n_y) + c + o(1), and the
constant c tracks the continuum zeta determinant of the flat torus of the
same aspect ratio (only aspect differences are convention-free).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .zeta import _richardson

# Catalan constant
CATALAN = 0.91596559417721901505
# most sites n_x n_y of one lattice: its log-determinant holds a few float
# arrays of that many entries, 128 MiB each at the budget
_SITE_BUDGET = 1 << 24


@dataclass(frozen=True)
class TorusLatticeSpec:
    n_x: int
    n_y: int

    def __post_init__(self):
        for name in ("n_x", "n_y"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError("lattice sizes must be integers, got %r"
                                 % (getattr(self, name),)) from None
        if self.n_x < 2 or self.n_y < 2:
            raise ValueError("need n_x, n_y >= 2")
        sites = self.n_x * self.n_y
        if sites > _SITE_BUDGET:
            raise ValueError("lattice %d x %d has %d sites, budget is %d"
                             % (self.n_x, self.n_y, sites, _SITE_BUDGET))

    @property
    def aspect(self) -> float:
        return self.n_y / self.n_x


def discrete_torus_log_det(spec: TorusLatticeSpec) -> float:
    """log of the product of nonzero eigenvalues of the discrete torus
    Laplacian, from the cosine formula."""
    jx = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(spec.n_x) / spec.n_x)
    jy = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(spec.n_y) / spec.n_y)
    lam = jx[:, None] + jy[None, :]
    lam[0, 0] = 1.0  # excluded zero mode
    return float(np.sum(np.log(lam)))


def torus_constant(spec: TorusLatticeSpec) -> float:
    """c_N = log det' - (4G/pi) n_x n_y - log(n_x n_y)."""
    n = spec.n_x * spec.n_y
    return discrete_torus_log_det(spec) - (4.0 * CATALAN / math.pi) * n - math.log(n)


@dataclass(frozen=True)
class ConstantTermResult:
    limit: float
    cauchy_gap: float
    constants: tuple
    flagged: bool


def constant_term(specs) -> ConstantTermResult:
    """Richardson-extrapolated limit of c_N along a fixed-aspect sequence.

    Requires at least 4 sizes in geometric progression; c_N converges with
    an O(n^-2) leading correction, which one Richardson stage removes.
    """
    specs = list(specs)
    if len(specs) < 4:
        raise ValueError("need at least 4 lattice sizes")
    aspects = {round(s.aspect, 12) for s in specs}
    if len(aspects) != 1:
        raise ValueError("aspect ratio must be fixed along the sequence")
    sizes = [s.n_x for s in specs]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    ratios = {round(b / a, 12) for a, b in zip(sizes, sizes[1:])}
    if len(ratios) != 1:
        raise ValueError("sizes must grow geometrically")
    r = ratios.pop()

    cs = [torus_constant(s) for s in specs]
    cauchy_gap = abs(cs[-1] - cs[-2])
    return ConstantTermResult(
        # two Richardson stages at orders n^-2 and n^-4
        limit=float(_richardson(cs, (r**2, r**4))[-1]),
        cauchy_gap=float(cauchy_gap),
        constants=tuple(cs),
        flagged=bool(cauchy_gap > 1e-2),
    )


def aspect_difference_residual(aspect: int, zeta_log_det_rho,
                               zeta_log_det_one) -> float:
    """Residual of the lattice/continuum bridge in aspect differences.

    c_N already normalizes out the vertex count, so its limit is the
    determinant of the unit-area torus of the same shape; the continuum
    inputs (determinants of the 1 x rho and 1 x 1 tori) are therefore put on
    unit area by subtracting log(Area) = log(rho) before differencing.
    """
    c_rho = constant_term(standard_sequence(aspect)).limit
    c_one = constant_term(standard_sequence(1)).limit
    continuum = (zeta_log_det_rho - math.log(aspect)) - zeta_log_det_one
    return (c_rho - c_one) - continuum


def standard_sequence(aspect: int = 1, sizes=(64, 128, 256, 512)):
    """Fixed-aspect spec sequence n x (aspect*n) for the given base sizes."""
    return [TorusLatticeSpec(n, aspect * n) for n in sizes]

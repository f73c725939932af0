"""Wavefunction-space ground truth for validating the convolution method.

Closed-form dispersive Gaussian packets, the image-reflection solution on
the half line, and eigenmode evolution in a finite box, plus field
comparison metrics. All dynamics here are exact in time, and the box
spectrum is the image train's Fourier transform in closed form, so the
only numerics are sampling and the truncation of the mode sum.

Units: hbar = 1 and i dpsi/dt = -(1/2m) psi''. A packet with momentum
p0 > 0 moves to the right with velocity p0/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, SupportEscaped, TruncationTooSevere, ValidationError
from .phase_grid import WAVE_EDGE_TOL, ComplexWave, WignerField, row_blocks, wave_edge_fraction


@dataclass(frozen=True)
class GaussianPacket:
    """Free Gaussian packet; sigma is the position std of |psi|^2 at t = 0."""

    x0: float
    p0: float
    sigma: float
    m: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.p0, self.sigma, self.m))):
            raise ValidationError("packet x0, p0, sigma and m must be finite")
        if self.sigma <= 0 or self.m <= 0:
            raise ValidationError("need sigma > 0 and m > 0")

    def amplitude(self, x: np.ndarray, t: float) -> np.ndarray:
        """psi(x, t) evaluated in closed form.

        A = sigma^2 + i t/(2m) is the complex squared width; the phase
        convention carries e^{i p0 (x - x0 - p0 t / 2m)}.
        """
        A = self.sigma**2 + 0.5j * t / self.m
        B = x - self.x0 - self.p0 * t / self.m
        pref = (2.0 * np.pi * self.sigma**2) ** (-0.25) * (self.sigma / np.sqrt(A))
        return pref * np.exp(-(B**2) / (4.0 * A)) * np.exp(
            1j * self.p0 * (x - self.x0 - self.p0 * t / (2.0 * self.m))
        )


@dataclass(frozen=True)
class BoxSpectrum:
    """State in a hard-wall box [a, b] as orthonormal sine-mode coefficients.

    Mode n has u_n(x) = sqrt(2/L) sin(n pi (x-a)/L) and energy
    E_n = n^2 pi^2 / (2 m L^2); coefficients satisfy sum |c_n|^2 = 1.
    """

    a: float
    b: float
    m: float
    coefficients: np.ndarray

    def __post_init__(self):
        if self.b <= self.a or self.m <= 0:
            raise ValidationError("need b > a and m > 0")
        c = np.array(self.coefficients, dtype=np.complex128)
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)
        n2 = float(np.sum(np.abs(c) ** 2))
        if abs(n2 - 1.0) >= 1e-9:
            raise ValidationError(f"coefficient norm^2 = {n2!r}, not 1 within 1e-9")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def n_max(self) -> int:
        return len(self.coefficients)

    def energies(self) -> np.ndarray:
        n = np.arange(1, self.n_max + 1)
        return n**2 * np.pi**2 / (2.0 * self.m * self.length**2)

    def revival_time(self) -> float:
        """T with E_n T = 2 pi n^2 for every n: T = 4 m L^2 / pi."""
        return 4.0 * self.m * self.length**2 / np.pi


def free_gaussian(g: GaussianPacket, t: float,
                  x_min: float, dx: float, n: int) -> ComplexWave:
    """Sample the dispersed packet on the requested axis at time t.

    Raises SupportEscaped when the packet no longer fits the axis.
    """
    x = x_min + dx * np.arange(n)
    wave = ComplexWave(x_min, dx, n, g.amplitude(x, t))
    if wave_edge_fraction(wave) > WAVE_EDGE_TOL:
        raise SupportEscaped("dispersed packet reaches the axis ends")
    return wave


def images_reflect(g: GaussianPacket, t: float,
                   x_min: float, dx: float, n: int) -> ComplexWave:
    """Half-line solution psi(x, t) = [phi(x, t) - phi(-x, t)] theta(x).

    The image term makes psi(0, t) = 0 for all t; theta removes the
    unphysical x < 0 remainder (theta(0) = 0 here, consistent with the
    kernels). Requires the packet to start well inside x > 0.
    """
    require_inside(g, 0.0, math.inf)
    x = x_min + dx * np.arange(n)
    values = (g.amplitude(x, t) - g.amplitude(-x, t)) * (x > 0)
    wave = ComplexWave(x_min, dx, n, values)
    if wave_edge_fraction(wave) > WAVE_EDGE_TOL:
        raise SupportEscaped("reflected state reaches the axis ends")
    return wave


def require_inside(g: GaussianPacket, a: float, b: float) -> None:
    """Raise SupportEscaped when more than 1e-8 of the t = 0 packet's
    |psi|^2 mass lies outside the region (a, b); the half line is
    (0, inf).

    |psi|^2 at t = 0 is the normal density of mean x0 and std sigma, so
    the mass outside is the sum of its two tails, in closed form.
    """
    scale = g.sigma * math.sqrt(2.0)
    outside = 0.5 * (math.erfc((g.x0 - a) / scale) + math.erfc((b - g.x0) / scale))
    if outside > 1e-8:
        raise SupportEscaped(f"{outside:.2e} of the packet's mass lies outside "
                             f"the region ({a:g}, {b:g}) at t = 0")


def require_in_window(g: GaussianPacket, p_min: float, p_max: float) -> None:
    """Raise SupportEscaped when more than 1e-8 of the momentum density
    1/2 [N(p0, s) + N(-p0, s)], s = 1/(2 sigma), lies outside [p_min, p_max];
    the half line's odd extension and the box's image train both carry
    +-p0. The mass outside is the sum of four normal tails, in closed form."""
    scale = math.sqrt(2.0) / (2.0 * g.sigma)
    outside = 0.25 * sum(math.erfc((c - p_min) / scale) + math.erfc((p_max - c) / scale)
                         for c in (g.p0, -g.p0))
    if outside > 1e-8:
        raise SupportEscaped(f"{outside:.2e} of the packet's momentum density lies "
                             f"outside the window [{p_min:g}, {p_max:g}]")


def project_gaussian_to_box(g: GaussianPacket, a: float, b: float,
                            n_max: int) -> BoxSpectrum:
    """Sine-mode coefficients of the packet's odd image train in [a, b].

    Unfolded over its images, the train's coefficient on u_n is the
    packet's Fourier transform at k_n = n pi / L, in closed form:
    c_n = sqrt(2/L) (e^{-i k_n a} phi^(k_n) - e^{i k_n a} phi^(-k_n)) / 2i
    with phi^(k) = (8 pi sigma^2)^{1/4} e^{i k x0 - sigma^2 (k + p0)^2}.
    Past n_all = ceil((|p0| + 10/sigma) L / pi) every Gaussian factor is
    below e^{-100}, so the first min(n_max, n_all) modes are returned.

    Raises TruncationTooSevere when the modes past n_max hold more than
    1e-6 of the state in L2 (Parseval's tail).
    """
    if b <= a or n_max < 1:  # a negative n_max would slice from the end
        raise ValidationError("need b > a and n_max >= 1")
    require_inside(g, a, b)
    L = b - a
    n_all = math.ceil((abs(g.p0) + 10.0 / g.sigma) * L / math.pi)
    k = np.pi / L * np.arange(1, n_all + 1)
    s2, phase = g.sigma**2, k * (g.x0 - a)
    c = (np.sqrt(2.0 / L) * (8.0 * np.pi * s2) ** 0.25 / 2j
         * (np.exp(1j * phase - s2 * (k + g.p0) ** 2)
            - np.exp(-1j * phase - s2 * (k - g.p0) ** 2)))
    err = float(np.sqrt(np.sum(np.abs(c[n_max:]) ** 2)))
    if err > 1e-6:
        raise TruncationTooSevere(
            f"n_max = {n_max} reconstruction error {err:g} exceeds 1e-6"
        )
    c = c[:n_max] / np.sqrt(np.sum(np.abs(c[:n_max]) ** 2))
    return BoxSpectrum(a, b, g.m, c)


def box_evolve(s: BoxSpectrum, t: float,
               x_min: float, dx: float, n: int) -> ComplexWave:
    """psi(x, t) = sum_n c_n u_n(x) e^{-i E_n t}, zero outside [a, b].

    Endpoints land exactly on zero because every mode vanishes there.
    """
    x = x_min + dx * np.arange(n)
    L = s.length
    inside = (x > s.a) & (x < s.b)
    modes = np.arange(1, s.n_max + 1)
    values = np.zeros(n, dtype=np.complex128)
    phases = s.coefficients * np.exp(-1j * s.energies() * t)
    values[inside] = np.sqrt(2.0 / L) * np.sum(
        phases[:, None] * np.sin(np.outer(modes, np.pi * (x[inside] - s.a) / L)),
        axis=0,
    )
    return ComplexWave(x_min, dx, n, values)


@dataclass(frozen=True)
class FieldComparison:
    l2_rel: float
    max_abs: float
    mass_diff: float


def compare_fields(w_a: WignerField, w_b: WignerField) -> FieldComparison:
    """Distance of w_a from the reference w_b: ||a-b||_2/||b||_2, max |a-b|,
    and the mass of the difference |sum(a - b)| dx dp, which unlike
    |mass(a) - mass(b)| does not lose digits to two masses near 1. The
    norms are einsum sums, which wake no BLAS threads. The difference is
    formed per ``row_blocks`` block of rows, and its sums add up the blocks'."""
    if w_a.grid != w_b.grid:
        raise GridMismatch("cannot compare fields on different grids")
    a, b = w_a.values, w_b.values
    err2 = max_abs = total = 0.0
    for rows in row_blocks(len(a)):
        diff = a[rows] - b[rows]
        err2 += float(np.einsum("ij,ij->", diff, diff))
        max_abs = max(max_abs, float(np.abs(diff).max()))
        total += float(diff.sum())
    ref, err = float(np.sqrt(np.einsum("ij,ij->", b, b))), float(np.sqrt(err2))
    l2 = err / ref if ref > 0 else err
    return FieldComparison(
        l2_rel=l2,
        max_abs=max_abs,
        mass_diff=abs(total * w_a.grid.dx * w_a.grid.dp),
    )

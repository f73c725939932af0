"""Wigner transform of a pure state by Fourier analysis over the separation.

The transform used throughout is

    W(x, p) = (1/2pi) int e^{ipy} psi*(x + y/2) psi(x - y/2) dy,

the sign pairing under which multiplying psi by e^{i p0 x} shifts W by +p0
along p and a packet at momentum p0 drifts with velocity +p0/m under
i dpsi/dt = -(1/2m) psi''. The correlation product is Hermitian in y, so
the transform is real; the imaginary residue is asserted below tolerance
and discarded.

Discretization: the correlation is sampled on the lattice y_k = k * dy
with dy = 2 * dx of the wave axis, which places both factors x +- y/2 on
axis nodes exactly. Grid x nodes must therefore lie on the wave axis
(the axis may be an integer refinement of the grid). Values at the
requested momenta are the semi-discrete Fourier sums evaluated at exact
p, via Bluestein's chirp-z transform; they are never binned to
FFT-native frequencies.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainTooSmall, GridMismatch, NyquistViolation, guard
from .phase_grid import ComplexWave, PhaseGrid, WignerField, row_blocks, wave_edge_fraction


def _reach(psi: ComplexWave, grid: PhaseGrid, y_halfwidth: float | None
           ) -> tuple[slice, np.ndarray, np.ndarray, int]:
    """(sel, r, lags, K): the grid rows anchored on the wave's nonzero
    support [lo, hi], their wave-axis indices, each one's largest usable lag
    min(cap, r - lo, hi - r) and the largest K of those; beyond it, or off
    the rows, psi*(x_r + y_k/2) psi(x_r - y_k/2) = 0. GridMismatch if a
    grid x node is off the wave axis."""
    frac = (grid.x_axis() - psi.x_min) / psi.dx
    rows = np.round(frac).astype(int)
    if np.abs(frac - rows).max() > 1e-6:
        raise GridMismatch("grid x nodes do not lie on the wave axis")
    if rows.min() < 0 or rows.max() > psi.n - 1:
        raise DomainTooSmall("wave axis does not cover the grid x range")
    if y_halfwidth is None:
        # full reach; zero extension beyond the axis requires a decayed edge
        guard("transform_wave_edge", wave_edge_fraction(psi))
        cap = psi.n - 1
    else:
        cap = int(np.floor(y_halfwidth / (2.0 * psi.dx)))
        if cap < 1:
            raise DomainTooSmall("y_halfwidth below one correlation step")
        if rows.min() - cap < 0 or rows.max() + cap > psi.n - 1:
            raise DomainTooSmall(
                "wave axis must extend y_halfwidth/2 beyond the grid x range"
            )
    nonzero = np.flatnonzero(psi.samples)
    # an all-zero wave gets the empty support [0, -1]: no rows, no lags
    lo, hi = (nonzero[0], nonzero[-1]) if nonzero.size else (0, -1)
    sel = slice(int(np.searchsorted(rows, lo)),
                int(np.searchsorted(rows, hi, side="right")))
    r = rows[sel]
    lags = np.minimum(cap, np.minimum(r - lo, hi - r))
    return sel, r, lags, int(lags.max(initial=0))


def next_fast_len(n: int) -> int:
    """Smallest 11-smooth length >= n (factors 2, 3, 5, 7 and 11 only): the
    length ``scipy.fft.next_fast_len`` picks for complex transforms, so the
    padded transforms keep SciPy's sizes and bits."""
    m = max(n, 1)
    while True:
        r = m
        for f in (2, 3, 5, 7, 11):
            while r % f == 0:
                r //= f
        if r == 1:
            return m
        m += 1


@functools.lru_cache(maxsize=8)
def _chirp(n: int, m: int, w: complex, a: complex
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Chirp, padded chirp spectrum, pre-multiplier and padded length of an
    n-to-m chirp-z transform, as ``signal.czt`` forms them; cached."""
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    wk2 = w ** (k ** 2 / 2.0)
    nfft = next_fast_len(n + m - 1)
    Fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), nfft)
    pre = a ** -k[:n] * wk2[:n]
    for v in (wk2, Fwk2, pre):
        v.flags.writeable = False  # the cache hands them to every caller
    return wk2, Fwk2, pre, nfft


def _czt(x: np.ndarray, m: int, w: complex, a: complex) -> np.ndarray:
    """Chirp-z transform sum_k x[..., k] a^-k w^(jk), j < m, along the last
    axis (Bluestein 1968). Each step repeats the arithmetic of SciPy's
    ``signal.czt`` on ``numpy.fft``, whose complex transforms give the same
    bits as ``scipy.fft``'s, so the results are bit-identical to
    ``scipy.signal.czt`` without importing SciPy at all.

    All rows of ``x`` are transformed at once: the caller sizes the working
    set, and ``wigner_of`` passes one block of rows at a time. ``x * pre``
    is formed in one zero-padded buffer of the padded length, and the fft,
    the chirp-spectrum product and the ifft run in it in place; the product
    keeps SciPy's operand order, ``Fwk2 * y``, whose bits ``y *= Fwk2``
    does not give where the multiply fuses."""
    n = x.shape[-1]
    wk2, Fwk2, pre, nfft = _chirp(n, m, w, a)
    y = np.zeros(x.shape[:-1] + (nfft,), dtype=np.complex128)
    np.multiply(x, pre, out=y[..., :n])
    np.fft.fft(y, axis=-1, out=y)
    np.multiply(Fwk2, y, out=y)
    np.fft.ifft(y, axis=-1, out=y)
    return y[..., n - 1:n + m - 1] * wk2[:m]


def correlation_matrix(psi: ComplexWave, grid: PhaseGrid,
                       y_halfwidth: float | None = None,
                       block: tuple[np.ndarray, np.ndarray, np.ndarray, int] | None = None
                       ) -> tuple[np.ndarray, int, slice | np.ndarray]:
    """Correlation slices c(x_i, y_k) = psi*(x_i + y_k/2) psi(x_i - y_k/2).

    Returns (C, K, sel): one row of C per grid row in ``sel`` (the rows
    anchored on the wave's nonzero support), 2K+1 columns with column
    k + K holding y_k, K the largest lag those rows use. Every product the
    cut drops vanishes: its factors lie off the support or off the axis.

    ``block``, a ``_reach`` tuple narrowed to some of those rows (sel an
    index array, K still the whole transform's), restricts C to them.
    """
    sel, rows, lags, K = _reach(psi, grid, y_halfwidth) if block is None else block
    s = psi.samples
    C = np.zeros((len(lags), 2 * K + 1), dtype=s.dtype)
    for i, (r, lag) in enumerate(zip(rows, lags)):
        C[i, K - lag:K + lag + 1] = (np.conj(s[r - lag:r + lag + 1])
                                     * s[r + lag::-1][:2 * lag + 1])
    return C, K, sel


def fourier_over_separation(C: np.ndarray, K: int, dy: float,
                            p_axis: np.ndarray, backend: str = "czt") -> np.ndarray:
    """Complex transform (dy/2pi) sum_k C[..., k+K] e^{i p y_k} at exact p.

    The separation y runs along the last axis of ``C``. backend "czt"
    evaluates the sum with Bluestein's algorithm; "direct" forms the
    exponential matrix and contracts it, and serves the slow reference
    path, ``wigner_of(..., backend="direct")``.
    """
    p_axis = np.asarray(p_axis, dtype=np.float64)
    if backend == "czt":
        dp = p_axis[1] - p_axis[0]
        S = _czt(C, len(p_axis), np.exp(1j * dp * dy), np.exp(-1j * p_axis[0] * dy))
        # czt indexes columns from 0; restore the y_{-K} origin
        S *= np.exp(-1j * K * dy * p_axis)
    elif backend == "direct":
        y = dy * np.arange(-K, K + 1)
        S = C @ np.exp(1j * np.outer(y, p_axis))
    else:
        raise ValueError(f"unknown backend {backend!r}")
    # in place: S is this call's own array, and a copy would double it
    return np.multiply(dy / (2.0 * np.pi), S, out=S)


def wigner_of(psi: ComplexWave, grid: PhaseGrid,
              y_halfwidth: float | None = None,
              backend: str = "czt") -> WignerField:
    """Wigner transform of ``psi`` sampled on ``grid``.

    The wave axis must contain every grid x node (its spacing may be an
    integer refinement of the grid's). ``y_halfwidth`` truncates the
    correlation reach uniformly; states that are not compactly supported
    on their axis (image trains, box eigenmodes) require it, and the cap
    must then sit in a region where the correlation is negligible. The
    correlation and its transform run over the wave's nonzero support
    only (``correlation_matrix``), per ``row_blocks`` block of rows, into
    the real field, so no full correlation matrix or complex field is held.

    Raises DomainTooSmall, NyquistViolation, GridMismatch, or
    RealnessViolation (imaginary residue of the transform against its
    peak |Re|, guard ``realness``).
    """
    dy = 2.0 * psi.dx
    pmax = max(abs(grid.p_min), abs(grid.p_max))
    if pmax * dy >= np.pi:
        raise NyquistViolation(f"momentum window |p| <= {pmax:g} exceeds the representable "
                               f"band {np.pi / dy:g} of the correlation lattice")
    sel, rows, lags, K = _reach(psi, grid, y_halfwidth)
    at, p = np.arange(grid.n_x)[sel], grid.p_axis()
    # rows anchored off the wave's nonzero support are exact zeros
    W, residue = np.zeros((grid.n_x, grid.n_p)), 0.0
    for b in row_blocks(len(lags)):
        C, K, dest = correlation_matrix(psi, grid, y_halfwidth, (at[b], rows[b], lags[b], K))
        S = fourier_over_separation(C, K, dy, p, backend)
        residue = float(np.maximum(residue, np.abs(S.imag).max()))  # keeps a NaN
        W[dest] = S.real
    guard("realness", residue, max(W.max(), -W.min()), transform="wigner_of")
    W.flags.writeable = False  # a fresh array: the field keeps it
    return WignerField(grid, W)


"""Uniform phase-space grids, field containers, reductions, and file formats.

Conventions used across the package: hbar = 1, rectangle quadrature
(sum times dx*dp) for every integral, node i at x_min + i*dx with
dx = (x_max - x_min)/(n_x - 1), and out-of-grid reads treated as zero.
Fields are expected to be compactly supported inside the grid; the
``edge_mass`` diagnostic quantifies how well that holds.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, ValidationError

_BIN_HEADER = struct.Struct("<6d2Q")
_RIM = 2  # outermost rows/columns (or axis samples) counted as the edge
_NUM = "%.12g"  # every number of every CSV the package writes


@dataclass(frozen=True, eq=True)
class PhaseGrid:
    """Uniform rectangular discretization of (x, p) phase space.

    Equality is defined by the six constructor fields only; fields living
    on unequal grids must never be combined.
    """

    x_min: float
    x_max: float
    n_x: int
    p_min: float
    p_max: float
    n_p: int

    def __post_init__(self):
        if self.n_x < 2 or self.n_p < 2:
            raise ValidationError("grid needs at least 2 samples per axis")
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValidationError("grid extents must satisfy max > min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    def x_axis(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_x)

    def p_axis(self) -> np.ndarray:
        return self.p_min + self.dp * np.arange(self.n_p)

    def x_at(self, i: int) -> float:
        return self.x_min + i * self.dx

    def index_near_x(self, x: float) -> int:
        i = int(round((x - self.x_min) / self.dx))
        return min(max(i, 0), self.n_x - 1)

    def zero_p_index(self) -> int:
        """Index of the p = 0 sample.

        Momentum convolution aligns kernel and field rows through this
        index, so p = 0 must lie on the axis (within 1e-9 of a node).
        """
        j = round(-self.p_min / self.dp)
        if j < 0 or j >= self.n_p or abs(self.p_min + j * self.dp) > 1e-9 * self.dp:
            raise GridMismatch("p = 0 is not a sample of this momentum axis")
        return int(j)


@dataclass(frozen=True)
class WignerField:
    """Real-valued Wigner function samples on a PhaseGrid.

    values[i, j] = W(x_i, p_j), units 1/(length*momentum). The array is
    copied and frozen at construction; fields are immutable.
    """

    grid: PhaseGrid
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_x, self.grid.n_p):
            raise ValidationError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.n_x}, {self.grid.n_p})"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("field values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ComplexWave:
    """Complex wavefunction samples on a uniform spatial axis.

    samples[k] = psi(x_min + k*dx), units 1/sqrt(length).
    """

    x_min: float
    dx: float
    n: int
    samples: np.ndarray = field(compare=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.shape != (self.n,):
            raise ValidationError(f"expected {self.n} samples, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValidationError("wave samples must be finite")
        if self.dx <= 0 or self.n < 2:
            raise ValidationError("wave axis needs dx > 0 and n >= 2")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    def x_axis(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def x_max(self) -> float:
        return self.x_min + (self.n - 1) * self.dx

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dx)


def marginal_x(w: WignerField) -> np.ndarray:
    """Position density P(x_i) = sum_j W[i, j] * dp.

    Tiny negative entries are possible from discretization and are not
    clipped.
    """
    return w.values.sum(axis=1) * w.grid.dp


def marginal_p(w: WignerField) -> np.ndarray:
    """Momentum density P(p_j) = sum_i W[i, j] * dx."""
    return w.values.sum(axis=0) * w.grid.dx


def total_mass(w: WignerField) -> float:
    """Rectangle-rule integral of the field over the whole grid."""
    return float(w.values.sum() * w.grid.dx * w.grid.dp)


def abs_mass(w: WignerField) -> float:
    """Integral of |W|; the scale against which edge mass is judged."""
    return float(np.abs(w.values).sum() * w.grid.dx * w.grid.dp)


def edge_mass(w: WignerField) -> float:
    """|W| mass in the outermost two rows and columns.

    Compact support inside the grid means this is a negligible fraction
    of abs_mass; shear and transform guards compare the two.
    """
    v = np.abs(w.values)
    total = v[:_RIM, :].sum() + v[-_RIM:, :].sum()
    total += v[_RIM:-_RIM, :_RIM].sum() + v[_RIM:-_RIM, -_RIM:].sum()
    return float(total * w.grid.dx * w.grid.dp)


def wave_edge_fraction(psi: ComplexWave) -> float:
    """Fraction of |psi|^2 mass sitting in the outermost two axis samples."""
    d = np.abs(psi.samples) ** 2
    tot = d.sum()
    if tot == 0.0:
        return 0.0
    return float((d[:_RIM].sum() + d[-_RIM:].sum()) / tot)


# ---------------------------------------------------------------------------
# serialization: CSV (diffable) and flat binary (bit-exact round trip)
# ---------------------------------------------------------------------------

def _write_lines(path, header, lines, metadata: dict | None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        if metadata is not None:
            f.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
        f.write(",".join(header) + "\n")
        f.writelines(lines)


def write_csv(path, header, rows, metadata: dict | None = None) -> None:
    """The package's one CSV format: an optional ``# {json}`` line holding
    ``metadata``, the ``header`` names joined by commas, then each of
    ``rows`` (consumed lazily) as comma-joined values, 12 significant digits."""
    line = ",".join([_NUM] * len(header)) + "\n"
    _write_lines(path, header, (line % tuple(row) for row in rows), metadata)


def write_field_csv(w: WignerField, path, metadata: dict | None = None) -> None:
    """``x,p,value`` rows in ``write_csv``'s format, row-major in x then p;
    ``metadata`` is the leading JSON line (kernel provenance). The ``,p,value``
    cells are formatted once, so each x row is one ``%`` on a tuple, and
    the ``,p,0`` cells once, so a row of all +0.0 (every bit clear; a -0.0
    prints ``-0`` and is formatted) is a plain join."""
    cells = [f",{_NUM % p},{_NUM}\n" for p in w.grid.p_axis().tolist()]
    zeros = [cell % 0.0 for cell in cells]
    xs = (_NUM % x for x in w.grid.x_axis().tolist())
    nonzero = w.values.view(np.uint64).any(axis=1).tolist()
    lines = ((x + x.join(cells)) % tuple(vals.tolist()) if some else x + x.join(zeros)
             for x, some, vals in zip(xs, nonzero, w.values))
    _write_lines(path, ("x", "p", "value"), lines, metadata)


def read_field_csv(path) -> tuple[WignerField, dict | None]:
    """Inverse of write_field_csv; grid inferred from the coordinate columns."""
    metadata = None
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline()
        if first.startswith("#"):
            metadata = json.loads(first[1:].strip())
            first = f.readline()
        if first.strip() != "x,p,value":
            raise ValidationError(f"unexpected CSV header {first!r}")
        data = np.loadtxt(f, delimiter=",")
    xs = np.unique(data[:, 0])
    ps = np.unique(data[:, 1])
    n_x, n_p = len(xs), len(ps)
    if n_x * n_p != data.shape[0]:
        raise ValidationError("CSV rows do not form a complete grid")
    grid = PhaseGrid(float(xs[0]), float(xs[-1]), n_x, float(ps[0]), float(ps[-1]), n_p)
    values = data[:, 2].reshape(n_x, n_p)
    return WignerField(grid, values), metadata


def write_field_binary(w: WignerField, path, metadata: dict | None = None) -> None:
    """Flat little-endian block: 6 float64 grid fields (x_min, x_max,
    p_min, p_max, dx, dp), 2 uint64 dims, then n_x*n_p float64 values.
    An optional JSON metadata line follows the block.
    """
    g = w.grid
    with open(path, "wb") as f:
        f.write(_BIN_HEADER.pack(g.x_min, g.x_max, g.p_min, g.p_max, g.dx, g.dp,
                                 g.n_x, g.n_p))
        f.write(np.ascontiguousarray(w.values, dtype="<f8").tobytes())
        if metadata is not None:
            f.write(json.dumps(metadata, sort_keys=True).encode("utf-8"))


def read_field_binary(path) -> tuple[WignerField, dict | None]:
    with open(path, "rb") as f:
        raw = f.read()
    x_min, x_max, p_min, p_max, dx, dp, n_x, n_p = _BIN_HEADER.unpack_from(raw, 0)
    n_x, n_p = int(n_x), int(n_p)
    grid = PhaseGrid(x_min, x_max, n_x, p_min, p_max, n_p)
    if not (abs(grid.dx - dx) <= 1e-12 * max(1.0, abs(dx))
            and abs(grid.dp - dp) <= 1e-12 * max(1.0, abs(dp))):
        raise ValidationError("stored spacings disagree with grid extents")
    off = _BIN_HEADER.size
    count = n_x * n_p
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(n_x, n_p)
    metadata = None
    tail = raw[off + 8 * count:]
    if tail:
        metadata = json.loads(tail.decode("utf-8"))
    return WignerField(grid, values.copy()), metadata

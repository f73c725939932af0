"""Uniform phase-space grids, field containers, reductions, and file formats.

Conventions used across the package: hbar = 1, rectangle quadrature
(sum times dx*dp) for every integral, node i at x_min + i*dx with
dx = (x_max - x_min)/(n_x - 1), and out-of-grid reads treated as zero.
Fields are expected to be compactly supported inside the grid; the
``edge_mass`` diagnostic quantifies how well that holds.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, ValidationError

_BIN_HEADER = struct.Struct("<6d2Q")
_RIM = 2  # outermost rows/columns (or axis samples) counted as the edge
_NUM = "%.12g"  # every number of every CSV the package writes
_BLOCK_ROWS = 8  # rows (or columns) per block of every stage that streams a field


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
        if not np.isfinite([self.x_min, self.x_max, self.p_min, self.p_max]).all():
            raise ValidationError("grid extents must be finite")
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

    values[i, j] = W(x_i, p_j), units 1/(length*momentum). Fields are
    immutable. A C-contiguous float64 array that is already read-only and
    owns its memory is kept as it is, so a producer that freezes its fresh
    output, and keeps no writeable view of it, hands it over without a
    copy. Any other array (writeable, a view, another dtype or layout) is
    copied, and the copy frozen.
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
        # min and max propagate a NaN and reach an inf, with no field-sized mask
        if not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValidationError("field values must be finite")
        if v.flags.writeable or not (v.flags.owndata and v.flags.c_contiguous):
            v = v.copy()
            v.flags.writeable = False
        object.__setattr__(self, "values", v)

    # both masses, summed per block of whole columns as the shear's guard sums them,
    # kept in the field object's own __dict__ (fields compare by grid only)
    @functools.cached_property
    def _masses(self) -> tuple[float, float]:
        g = self.grid
        sums = [column_masses(self.values[:, cols], cols, g.n_p) for cols in row_blocks(g.n_p)]
        return tuple(math.fsum(m) * g.dx * g.dp for m in zip(*sums))

    @property
    def abs_mass(self) -> float:
        """Integral of |W|; the scale against which edge mass is judged."""
        return self._masses[0]

    @property
    def edge_mass(self) -> float:
        """|W| mass on the rim, the outermost two rows and columns: for a field
        supported inside the grid a negligible fraction of abs_mass."""
        return self._masses[1]


@functools.cache
def _rim(n: int) -> np.ndarray:
    """The outermost ``_RIM`` samples at either end of an n-sample axis, as a read-only mask."""
    rim = np.minimum(np.arange(n), np.arange(n - 1, -1, -1)) < _RIM
    rim.flags.writeable = False
    return rim


def column_masses(block: np.ndarray, cols: slice, n_p: int) -> tuple[float, float]:
    """|.| sum of ``block``, the whole columns ``cols`` of an ``n_p``-column
    field, and the part of that sum on the field's rim, each cell once."""
    a = np.abs(block, order="C")
    return a.sum(), a[_rim(len(a))[:, None] | _rim(n_p)[None, cols]].sum()


def row_blocks(n: int):
    """Slices of ``_BLOCK_ROWS`` consecutive indices that cover range(n),
    the last one short. The constant is read at each call, so setting it
    once moves every stage's blocks."""
    step = _BLOCK_ROWS
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


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
        if not (np.isfinite(self.x_min) and 0 < self.dx < np.inf) or self.n < 2:
            raise ValidationError("wave axis needs a finite x_min, 0 < dx < inf and n >= 2")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    def x_axis(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

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


def wave_edge_fraction(psi: ComplexWave) -> float:
    """Fraction of |psi|^2 mass sitting in the outermost two axis samples."""
    d = np.abs(psi.samples) ** 2
    tot = d.sum()
    return float(d[_rim(psi.n)].sum() / tot) if tot else 0.0


# ---------------------------------------------------------------------------
# serialization: CSV (diffable) and flat binary (bit-exact round trip)
# ---------------------------------------------------------------------------

def _write_lines(path, header, chunks, metadata: dict | None) -> None:
    """The optional metadata line and the header, then ``chunks`` (bytes)."""
    with open(path, "wb") as f:
        if metadata is not None:
            f.write(("# " + json.dumps(metadata, sort_keys=True) + "\n").encode())
        f.write((",".join(header) + "\n").encode())
        f.writelines(chunks)


def write_csv(path, header, rows, metadata: dict | None = None) -> None:
    """The package's one CSV format: an optional ``# {json}`` line holding
    ``metadata``, the ``header`` names joined by commas, then each of
    ``rows`` (consumed lazily) as comma-joined values, 12 significant digits."""
    line = ",".join([_NUM] * len(header)) + "\n"
    _write_lines(path, header, ((line % tuple(row)).encode() for row in rows), metadata)


@functools.cache
def _g12_tables():
    """``_g12``'s lookup tables, built on its first call."""
    c = np.arange(10000)[:, None]  # each 4-digit chunk: its ASCII word and trailing zeros
    digits = (c // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    chunk = digits.view("<u4").ravel().astype(np.uint64)
    chunk_tz = (c % [10, 100, 1000, 10000] == 0).sum(1)
    pow10 = np.array([float(f"1e{k}") for k in range(-300, 308)])
    # per decimal exponent X = -300..300: the bytes before the digits ('0.000'
    # of a fixed 0.0001 <= |v| < 1) and after them ('e+XX' and a newline)
    x = np.arange(-300, 301)[:, None]
    fixed, small = (x >= -4) & (x < 12), (x >= -4) & (x < 0)
    words = np.zeros((x.size, 16), np.uint8)
    words[:, 1:6] = small * (np.arange(5) < 1 - x) * list(b"0.000")
    exponent = abs(x) // [100, 10, 1] % 10 + ord("0")
    exponent[:, 0] *= abs(x[:, 0]) >= 100
    sign = np.where(x < 0, ord("-"), ord("+"))
    words[:, 8:13] = ~fixed * np.hstack([np.full_like(x, ord("e")), sign, exponent])
    words[:, 13] = ord("\n")
    # and the digit counts before the '.' (16: none) and always kept
    counts = np.hstack([np.where(fixed, np.where(small, 16, x + 1), 1),
                        np.where(fixed & ~small, x + 1, 1)])
    # per byte count k: masks of the low k bytes of a 16-byte (lo, hi) word pair, a '.' at byte k
    k, byte = np.arange(17)[:, None], np.arange(16)
    masks = np.hstack([(byte < k) * 255, (byte == k) * ord(".")]).astype(np.uint8)
    return chunk, chunk_tz, pow10, words.view("<u8"), counts, masks.view("<u8").T.copy()


def _g12(v: np.ndarray) -> np.ndarray:
    """``(len(v), 32)`` uint8 rows whose bytes, NUL bytes removed, read
    ``_NUM % v[i] + "\\n"``: the sign and prefix, 12 rounded digits with a
    '.' inserted and trailing fraction zeros cleared, then the exponent.
    The digits are rint(|v| 10**(11 - X)), the decimal exponent X from
    log10 and corrected once so that they lie in [1e11, 1e12], carried at
    1e12. That product is within 2e-4 of exact, so values within 1e-3 of
    a rounding tie, |v| <= 1e-290 and |v| >= 1e290 (and, as a guard, any
    whose digits still fall outside that range) are formatted by ``%``."""
    chunk, chunk_tz, pow10, words, counts, masks = _g12_tables()
    a = np.abs(v)
    zero = a == 0
    fast = zero | ((a > 1e-290) & (a < 1e290))
    a = np.where(fast & ~zero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * pow10[311 - e]
    e += (y >= 1e12).astype(np.intp) - (y < 1e11)
    y = a * pow10[311 - e]
    n = np.rint(y)
    fast &= (np.abs(y - np.floor(y) - 0.5) >= 1e-3) & (n >= 1e11) & (n <= 1e12)
    carry = n == 1e12
    e += carry
    n = np.where(zero | carry, carry * 1e11, n).astype(np.int64)
    q = n // 10000
    c0, c2 = q // 10000, n - q * 10000
    c1 = q - c0 * 10000
    del a, y, n, q  # freed before the word arrays are formed
    tz = chunk_tz[c2] + (c2 == 0) * (chunk_tz[c1] + (c1 == 0) * chunk_tz[c0])
    affix, (dot, kept) = words.take(e + 300, axis=0), counts.take(e + 300, axis=0).T
    kept = np.maximum(12 - tz, kept)
    dot[dot >= kept] = 16
    below_lo, below_hi, dot_lo, dot_hi = (m[dot] for m in masks)
    lo = (chunk[c0] | chunk[c1] << np.uint64(32)) & masks[0][kept]
    hi = chunk[c2] & masks[1][kept]
    up = lo & ~below_lo  # from the '.' on, the digits move up a byte; lo's top byte into hi
    rows = np.column_stack([
        affix[:, 0] | np.signbit(v) * np.uint64(ord("-")),
        (lo & below_lo) | up << np.uint64(8) | dot_lo,
        (hi & below_hi) | (hi & ~below_hi) << np.uint64(8) | up >> np.uint64(56) | dot_hi,
        affix[:, 1]]).astype("<u8", copy=False).view(np.uint8)
    for i, x in zip(np.flatnonzero(~fast).tolist(), v[~fast].tolist()):
        rows[i] = np.frombuffer((_NUM % x + "\n").encode().ljust(32, b"\0"), np.uint8)
    return rows


def write_field_csv(w: WignerField, path, metadata: dict | None = None) -> None:
    """``x,p,value`` rows in ``write_csv``'s format, row-major in x then p;
    ``metadata`` is the leading JSON line (kernel provenance). Per
    ``row_blocks`` block of x rows, rows of all +0.0 (every bit clear) are
    joins of the ``,p,0`` cells; other values are formatted by ``_g12``,
    joined to the ``x`` and ``,p,`` texts and written with the NUL bytes
    removed."""
    g = w.grid
    xs = [(_NUM % x).encode() for x in g.x_axis().tolist()]
    ps = [f",{_NUM % p},".encode() for p in g.p_axis().tolist()]
    zeros = [p + b"0\n" for p in ps]
    x_text, p_text = (np.array(t, "S").view(np.uint8).reshape(len(t), -1) for t in (xs, ps))
    blocks = list(row_blocks(g.n_x))  # the first block is the longest
    cells = np.empty((blocks[0].stop, g.n_p, x_text.shape[1] + p_text.shape[1] + 32), np.uint8)
    cells[:, :, x_text.shape[1]:-32] = p_text

    def chunks():
        for b in blocks:
            if not w.values[b].view(np.uint64).any():
                yield from (x + x.join(zeros) for x in xs[b])
                continue
            n = b.stop - b.start
            cells[:n, :, :x_text.shape[1]] = x_text[b, None]
            cells[:n, :, -32:] = _g12(w.values[b].ravel()).reshape(n, g.n_p, 32)
            yield cells[:n].tobytes().translate(None, b"\0")

    _write_lines(path, ("x", "p", "value"), chunks(), metadata)


def read_field_csv(path) -> tuple[WignerField, dict | None]:
    """Inverse of write_field_csv. The x and p columns must be its
    row-major uniform grid, x repeated n_p times and p tiled n_x times, to
    within the 12 printed digits; any other file raises ValidationError."""
    metadata = None
    with open(path, "r", encoding="utf-8") as f:
        try:
            first = f.readline()
            if first.startswith("#"):
                metadata = json.loads(first[1:])
                first = f.readline()
        except ValueError as exc:  # not UTF-8, or a # line that is not JSON
            raise ValidationError(f"malformed CSV field: {exc}") from exc
        if first.strip() != "x,p,value":
            raise ValidationError(f"unexpected CSV header {first!r}")
        try:
            row = f.readline()  # NumPy warns on a file with no rows
            if not row:
                raise ValidationError("the CSV field has no rows")
            data = np.loadtxt(itertools.chain([row], f), delimiter=",", ndmin=2)
        except ValueError as exc:  # not UTF-8, or a cell that is not a number
            raise ValidationError(f"malformed CSV field rows: {exc}") from exc
    if data.shape[1] != 3:
        raise ValidationError(f"CSV field rows have {data.shape[1]} columns, not 3")
    x, p = data[:, 0], data[:, 1]
    n_p = int(np.argmax(x != x[0])) or len(x)  # the rows of the first x
    n_x = len(x) // n_p
    if n_x * n_p != len(x):
        raise ValidationError("CSV rows do not form a complete grid")

    def off_grid(name):
        return ValidationError(f"the CSV's {name} column is not the row-major uniform "
                               f"{n_x} x {n_p} grid of write_field_csv to 12 digits")

    # an axis runs up from a finite start (a NaN first x, unequal to
    # itself, made every row its own run); one sample is PhaseGrid's check
    for name, lo, hi, n in (("x", x[0], x[-1], n_x), ("p", p[0], p[n_p - 1], n_p)):
        if not (lo < hi or n == 1 and lo == hi):
            raise off_grid(name)
    grid = PhaseGrid(float(x[0]), float(x[-1]), n_x, float(p[0]), float(p[n_p - 1]), n_p)
    # a printed coordinate and the axis rebuilt from the printed ends each
    # lie within 5e-12 max|end| of the written axis: 2e-11 holds both
    for name, col, axis in (("x", x, np.repeat(grid.x_axis(), n_p)),
                            ("p", p, np.tile(grid.p_axis(), n_x))):
        if not np.all(np.abs(col - axis) <= 2e-11 * np.abs(axis[[0, -1]]).max()):
            raise off_grid(name)
    return WignerField(grid, data[:, 2].reshape(n_x, n_p)), metadata


def write_field_binary(w: WignerField, path, metadata: dict | None = None) -> None:
    """Flat little-endian block: 6 float64 grid fields (x_min, x_max,
    p_min, p_max, dx, dp), 2 uint64 dims, then n_x*n_p float64 values.
    An optional JSON metadata line follows the block.
    """
    g = w.grid
    with open(path, "wb") as f:
        f.write(_BIN_HEADER.pack(g.x_min, g.x_max, g.p_min, g.p_max, g.dx, g.dp,
                                 g.n_x, g.n_p))
        f.write(np.ascontiguousarray(w.values, dtype="<f8").data)  # the buffer, not a copy
        if metadata is not None:
            f.write(json.dumps(metadata, sort_keys=True).encode("utf-8"))


def read_field_binary(path) -> tuple[WignerField, dict | None]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _BIN_HEADER.size:
        raise ValidationError(f"a {len(raw)}-byte file is shorter than the "
                              f"{_BIN_HEADER.size}-byte field header")
    x_min, x_max, p_min, p_max, dx, dp, n_x, n_p = _BIN_HEADER.unpack_from(raw, 0)
    n_x, n_p = int(n_x), int(n_p)
    grid = PhaseGrid(x_min, x_max, n_x, p_min, p_max, n_p)
    if not (abs(grid.dx - dx) <= 1e-12 * max(1.0, abs(dx))
            and abs(grid.dp - dp) <= 1e-12 * max(1.0, abs(dp))):
        raise ValidationError("stored spacings disagree with grid extents")
    off = _BIN_HEADER.size
    count = n_x * n_p
    if len(raw) < off + 8 * count:
        raise ValidationError(f"the file holds {len(raw) - off} bytes of values, "
                              f"not the {8 * count} of its {n_x} x {n_p} grid")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(n_x, n_p)
    metadata = None
    tail = raw[off + 8 * count:]
    if tail:
        try:
            metadata = json.loads(tail.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValidationError(f"the {len(tail)}-byte metadata tail is not UTF-8 JSON: "
                                  f"{exc}") from exc
    return WignerField(grid, values), metadata

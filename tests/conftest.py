import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wignerwall
from wignerwall import ComplexWave, GaussianPacket, PhaseGrid, free_gaussian


@pytest.fixture
def grid():
    # odd counts keep the axes symmetric with x = 0 and p = 0 on nodes
    return PhaseGrid(-12.0, 12.0, 257, -8.0, 8.0, 257)


@pytest.fixture
def packet():
    return GaussianPacket(x0=0.0, p0=0.0, sigma=1.0, m=1.0)


@pytest.fixture
def gaussian_wave(grid, packet):
    return free_gaussian(packet, 0.0, grid.x_min, grid.dx, grid.n_x)


def odd_extended_wave(packet: GaussianPacket, grid: PhaseGrid,
                      normalized: bool = False) -> ComplexWave:
    """phi(x) - phi(-x) sampled on the grid axis (full-line norm^2 = 2
    for a packet far from the origin); optionally rescaled to unit norm."""
    x = grid.x_min + grid.dx * np.arange(grid.n_x)
    values = packet.amplitude(x, 0.0) - packet.amplitude(-x, 0.0)
    if normalized:
        values = values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    return ComplexWave(grid.x_min, grid.dx, grid.n_x, values)


def lattice_rows(kernel, p) -> np.ndarray:
    """Every x row of ``kernel`` at the momenta ``p``, indexed by grid x
    row: its inside rows from ``rows_at``, +0.0 elsewhere."""
    out = np.zeros((kernel.grid.n_x, np.size(p)))
    out[kernel.inside] = kernel.rows_at(p)
    return out


def scipy_modules_after(code: str) -> list[str]:
    """Sorted names of the scipy modules loaded after ``code`` runs in a
    fresh interpreter with this package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wignerwall.__file__)))
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def disk_preset():
    """The disk-kernel preset's sampled indicator on every x point (3 x 3 x
    points, 441 x 441 y samples each) and its momentum axis. The CLI
    samples the x >= 0 points only; this samples the whole x axis with
    the CLI's axes and subcells (R = 1, so x1**2 + x2**2 is its level
    set bit for bit)."""
    from wignerwall.cli import _disk_indicator, load_config
    quadrant, x_ax, p_ax, _ = _disk_indicator(load_config(None, "disk-kernel"))
    ind = wignerwall.billiard_indicator(lambda x1, x2: x1**2 + x2**2, [x_ax, x_ax],
                                        quadrant.y_axes, subsamples=8)
    return ind, p_ax


def traced_peak_mib(f) -> float:
    """Peak of the memory that tracemalloc traces while ``f()`` runs, above
    the level at the call, in MiB. NumPy reports its data buffers to
    tracemalloc, so the figure does not depend on the machine."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()

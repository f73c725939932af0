import json
import os
import subprocess
import sys

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


def scipy_modules_after(code: str) -> list[str]:
    """Sorted names of the scipy modules loaded after ``code`` runs in a
    fresh interpreter with this package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wignerwall.__file__)))
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])

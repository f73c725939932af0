"""Each per-frame stage streams its rows in blocks: the Wigner transform
(``wigner_of``), the momentum convolution (``evolve_bounded``) and both
shear paths (``_fourier_shift_rows``, ``map_coordinates``). Every row's
arithmetic is the same whatever the block size, so each stage is compared
bit for bit, at block sizes 1, 3 and more than the row count, against
the one-shot formula over all rows."""

import numpy as np
import pytest

from wignerwall import (RealnessViolation, cli, convolution_engine, evolve_bounded,
                        free_evolution, wigner_transform)
from wignerwall.cli import _KINDS, _oracle_wave, load_config
from wignerwall.convolution_engine import _batched_fft_convolve
from wignerwall.free_evolution import ShearParams, shear_evolve
from wignerwall.wigner_transform import correlation_matrix, fourier_over_separation

BLOCKS = [1, 3, 100_000]


def same_bits(a, b):
    # uint64 views tell -0.0 from +0.0, which np.array_equal on floats does not
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def one_shot_wigner(psi, grid, y_halfwidth=None):
    """One correlation matrix of every support row, one transform of it."""
    C, K, sel = correlation_matrix(psi, grid, y_halfwidth)
    S = fourier_over_separation(C, K, 2.0 * psi.dx, grid.p_axis())
    W = np.zeros((grid.n_x, grid.n_p))
    W[sel] = S.real
    return W


def _halfline_oracle(t):
    cfg = load_config(None, "halfline-bounce")
    return _oracle_wave(cfg, t), cfg.grid, None


def _initial(preset):
    cfg = load_config(None, preset)
    psi, ycap = _KINDS[cfg.geometry["kind"]].extend(cfg)
    return psi, cfg.grid, ycap


WAVES = {
    "halfline-oracle-t0": lambda: _halfline_oracle(0.0),
    "halfline-oracle-t2": lambda: _halfline_oracle(2.0),
    "halfline-oracle-t4": lambda: _halfline_oracle(4.0),
    "halfline-w0": lambda: _initial("halfline-bounce"),
    "box-w0": lambda: _initial("box-traversal"),
}


@pytest.mark.parametrize("wave", sorted(WAVES))
def test_wigner_of_blocks_bit_identical(wave, monkeypatch):
    psi, grid, ycap = WAVES[wave]()
    if wave == "box-w0":
        assert ycap == 35.0  # the box's image train, capped at 3.5 L
    ref = one_shot_wigner(psi, grid, ycap)
    n_rows = len(correlation_matrix(psi, grid, ycap)[0])
    assert n_rows > 3 and np.abs(ref).max() > 0.0
    for rows in BLOCKS:
        monkeypatch.setattr(wigner_transform, "_BLOCK_ROWS", rows)
        assert same_bits(wigner_transform.wigner_of(psi, grid, ycap).values, ref)


def test_wigner_of_correlates_one_block_at_a_time(monkeypatch):
    # one correlation_matrix call per block of rows, each with the whole
    # transform's K, so each row's chirp-z keeps its length and its bits
    psi, grid, _ = _halfline_oracle(2.0)
    C, K, _ = correlation_matrix(psi, grid)
    calls = []
    original = wigner_transform.correlation_matrix

    def spy(*args, **kwargs):
        block, k, sel = original(*args, **kwargs)
        calls.append((block.shape, k))
        return block, k, sel

    monkeypatch.setattr(wigner_transform, "correlation_matrix", spy)
    monkeypatch.setattr(wigner_transform, "_BLOCK_ROWS", 7)
    wigner_transform.wigner_of(psi, grid)
    assert len(C) % 7 != 0 and len(calls) == len(C) // 7 + 1
    assert all(shape == (7, 2 * K + 1) and k == K for shape, k in calls[:-1])
    assert calls[-1] == ((len(C) % 7, 2 * K + 1), K)


@pytest.mark.parametrize("bad_block", [0, 5, -1])
def test_wigner_of_realness_residue_spans_every_block(bad_block, monkeypatch):
    # the residue is the max over all blocks: an imaginary part in any one
    # block, not only the last, raises
    psi, grid, _ = _halfline_oracle(2.0)
    original = wigner_transform.fourier_over_separation
    n_blocks = -(-len(correlation_matrix(psi, grid)[0]) // 16)
    seen = []

    def corrupt(*args, **kwargs):
        S = original(*args, **kwargs)
        if len(seen) == bad_block % n_blocks:
            S += 1e-6j
        seen.append(1)
        return S

    monkeypatch.setattr(wigner_transform, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(wigner_transform, "fourier_over_separation", corrupt)
    with pytest.raises(RealnessViolation):
        wigner_transform.wigner_of(psi, grid)
    assert len(seen) == n_blocks > 5


@pytest.mark.parametrize("preset, t", [("halfline-bounce", 2.0), ("box-traversal", 1.25)])
def test_evolve_bounded_blocks_bit_identical(preset, t, monkeypatch):
    cfg = load_config(None, preset)
    plan = cli.build_plan(cfg)
    grid = plan.initial.grid
    sheared = shear_evolve(plan.initial, ShearParams(t, plan.shear.m),
                           check_support=plan.check_support)
    ref = np.zeros((grid.n_x, grid.n_p))
    ref[plan._inside] = _batched_fft_convolve(sheared.values[plan._inside], None, grid.dp,
                                              grid.n_p - 1, plan._kernel_spectrum)
    assert plan._inside.sum() > 3
    for rows in BLOCKS:
        monkeypatch.setattr(convolution_engine, "_BLOCK_ROWS", rows)
        assert same_bits(evolve_bounded(plan, t).values, ref)


def one_shot_fourier_shift(values, shifts):
    n = values.shape[0]
    R = np.fft.rfft(values, axis=0)
    R *= np.exp(-2j * np.pi * np.outer(np.fft.rfftfreq(n), shifts))
    return np.fft.irfft(R, n, axis=0)


def one_shot_cubic_shift(values, shifts):
    # every output point's index and taps gathered at once
    n, n_p = values.shape
    rows = np.abs((np.arange(-1, n + 2) + n - 1) % (2 * n - 2) - (n - 1))
    coef = free_evolution._spline_coefficients(values)[rows].ravel()
    back = np.clip(-shifts, -n - 2.0, n + 2.0)
    start = np.floor(back)
    t = back - start
    start = start.astype(np.intp)
    i = np.arange(n)[:, None]
    flat = i * n_p + (start * n_p + np.arange(n_p))
    t2, t3 = t * t, t * t * t
    out = np.take(coef, flat, mode="clip")
    out *= (1.0 - t) ** 3 / 6.0
    tap = np.empty_like(out)
    for k, w in ((1, 2.0 / 3.0 - t2 + t3 / 2.0),
                 (2, (1.0 + 3.0 * (t + t2 - t3)) / 6.0),
                 (3, t3 / 6.0)):
        np.take(coef[k * n_p:], flat, mode="clip", out=tap)
        tap *= w
        out += tap
    np.copyto(out, 0.0, where=(i < -start) | (i > n - 1 - start - (t > 0.0)))
    return out


@pytest.mark.parametrize("n_x, n_p", [(7, 5), (513, 65), (521, 33)])
def test_shear_paths_blocks_bit_identical(n_x, n_p, monkeypatch):
    rng = np.random.default_rng(n_x)
    values = rng.standard_normal((n_x, n_p))
    # fractional, integer, negative and off-grid shifts, in rows
    shifts = np.linspace(-1.2 * n_x, 1.2 * n_x, n_p) + 0.37
    shifts[n_p // 2] = 0.0
    shifts[1] = -3.0
    refs = {free_evolution._fourier_shift_rows: one_shot_fourier_shift(values, shifts),
            free_evolution.map_coordinates: one_shot_cubic_shift(values, shifts)}
    assert np.any(refs[free_evolution.map_coordinates] != 0.0)
    for rows in BLOCKS:
        monkeypatch.setattr(free_evolution, "_BLOCK_ROWS", rows)
        for shift_rows, ref in refs.items():
            assert same_bits(shift_rows(values, shifts), ref)


@pytest.mark.parametrize("preset, t", [("halfline-bounce", 3.0), ("box-traversal", 1.875)])
def test_shear_evolve_blocks_bit_identical(preset, t, monkeypatch):
    # the preset frames: spectral on the half line, cubic in the box
    plan = cli.build_plan(load_config(None, preset))
    w0, grid = plan.initial, plan.initial.grid
    shifts = grid.p_axis() * (t / plan.shear.m) / grid.dx
    one_shot = one_shot_cubic_shift if preset == "box-traversal" else one_shot_fourier_shift
    ref = one_shot(w0.values, shifts)
    for rows in BLOCKS:
        monkeypatch.setattr(free_evolution, "_BLOCK_ROWS", rows)
        out = shear_evolve(w0, ShearParams(t, plan.shear.m), check_support=plan.check_support)
        assert same_bits(out.values, ref)

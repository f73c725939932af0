"""Each per-frame stage streams its rows in blocks: the Wigner transform
(``wigner_of``), the momentum convolution (``evolve_bounded``), both
shear paths (``_fourier_shift_rows``, ``map_coordinates``), the field
comparison (``compare_fields``) and the field CSV (``write_field_csv``,
compared byte for byte), and so do the plan's kernel rows
(``_sinc_rows``), their real amplitudes and its symmetry check
(``point_symmetry_defect``). All
of them take their slices from ``phase_grid.row_blocks``, so patching its
one ``_BLOCK_ROWS`` sets every stage's block size.
Every row's arithmetic is the same whatever the block size, so each stage
is compared bit for bit, at block sizes 1, 3 and more than the row count,
against the one-shot formula over all rows. The comparison's sums add up
the blocks' sums, so those are compared to within the rounding of
float64 sums instead."""

import numpy as np
import pytest

from wignerwall import (GridMismatch, PhaseGrid, RealnessViolation, WignerField,
                        boundary_kernels, cli, convolution_engine, evolve_bounded,
                        free_evolution, oracle, phase_grid, wigner_transform)
from wignerwall.cli import _KINDS, _oracle_wave, load_config
from wignerwall.convolution_engine import (BoundedEvolutionPlan, _batched_fft_convolve,
                                           point_symmetry_defect)
from wignerwall.free_evolution import ShearParams, shear_evolve
from wignerwall.wigner_transform import (correlation_matrix, fourier_over_separation,
                                         next_fast_len)

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
        monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
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
    monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", 7)
    wigner_transform.wigner_of(psi, grid)
    assert len(C) % 7 != 0 and len(calls) == len(C) // 7 + 1
    assert all(shape == (7, 2 * K + 1) and k == K for shape, k in calls[:-1])
    assert calls[-1] == ((len(C) % 7, 2 * K + 1), K)


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call appends to the returned list."""
    calls, original = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_one_block_size_sets_every_stage(monkeypatch, tmp_path):
    # phase_grid's one _BLOCK_ROWS sizes every stage's blocks: at 1 row,
    # wigner_of correlates one support row per call, evolve_bounded
    # convolves one inside row per call and write_field_csv formats one
    # row with a nonzero bit per call
    monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", 1)
    psi, grid, _ = _halfline_oracle(2.0)
    plan = cli.build_plan(load_config(None, "halfline-bounce"))
    n_support = len(correlation_matrix(psi, grid)[0])
    corr = _count_calls(monkeypatch, wigner_transform, "correlation_matrix")
    conv = _count_calls(monkeypatch, convolution_engine, "_batched_fft_convolve")
    text = _count_calls(monkeypatch, phase_grid, "_g12")
    wigner_transform.wigner_of(psi, grid)
    w = evolve_bounded(plan, 2.0)
    phase_grid.write_field_csv(w, tmp_path / "field.csv")
    assert len(corr) == n_support > 16
    assert len(conv) == plan.kernel.inside.sum() > 16
    assert len(text) == np.any(w.values != 0.0, axis=1).sum() > 16


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

    monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(wigner_transform, "fourier_over_separation", corrupt)
    with pytest.raises(RealnessViolation):
        wigner_transform.wigner_of(psi, grid)
    assert len(seen) == n_blocks > 5


@pytest.mark.parametrize("bad_block", [0, 5, -1])
def test_wigner_of_nan_realness_residue_raises(bad_block, monkeypatch):
    # a NaN imaginary part in any one block raises too, although its real
    # part is finite; Python's max(residue, nan) would keep the residue
    psi, grid, _ = _halfline_oracle(2.0)
    original = wigner_transform.fourier_over_separation
    n_blocks = -(-len(correlation_matrix(psi, grid)[0]) // 16)
    seen = []

    def corrupt(*args, **kwargs):
        S = original(*args, **kwargs)
        if len(seen) == bad_block % n_blocks:
            S.imag[:, 3] = np.nan
        seen.append(1)
        return S

    monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(wigner_transform, "fourier_over_separation", corrupt)
    with pytest.raises(RealnessViolation, match="^imaginary residue nan of wigner_of.s transform"):
        wigner_transform.wigner_of(psi, grid)
    assert len(seen) == n_blocks > 5


@pytest.mark.parametrize("preset, t", [("halfline-bounce", 2.0), ("box-traversal", 1.25)])
def test_evolve_bounded_blocks_bit_identical(preset, t, monkeypatch):
    cfg = load_config(None, preset)
    plan = cli.build_plan(cfg)
    grid = plan.initial.grid
    sheared = shear_evolve(plan.initial, ShearParams(t, plan.shear.m),
                           check_support=plan.check_support)
    inside = plan.kernel.inside
    ref = np.zeros((grid.n_x, grid.n_p))
    ref[inside] = _batched_fft_convolve(sheared.values[inside], None, grid.dp, 0,
                                        plan._kernel_amplitudes)
    assert inside.sum() > 3
    for rows in BLOCKS:
        monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
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
        monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
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
        monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
        out = shear_evolve(w0, ShearParams(t, plan.shear.m), check_support=plan.check_support)
        assert same_bits(out.values, ref)


def one_shot_sinc_rows(jumps, weights, p):
    pp = np.asarray(p, dtype=np.float64)[None, :]
    out = np.zeros((weights.shape[0], pp.size))
    live = np.flatnonzero(np.any(weights != 0.0, axis=1))
    b, w = jumps[live], weights[live]
    acc = sum(w[:, j, None] * np.sin(b[:, j, None] * pp) for j in range(w.shape[1]))
    with np.errstate(invalid="ignore", divide="ignore"):
        out[live] = np.where(np.abs(pp) < 1e-300, (w * b).sum(axis=1)[:, None] / np.pi,
                             acc / (np.pi * pp))
    return out


@pytest.mark.parametrize("preset", ["halfline-bounce", "box-traversal"])
def test_sinc_rows_blocks_bit_identical(preset, monkeypatch):
    # the preset kernels' one jump per row, and rows of three jumps with
    # zero-padded and all-zero rows among them, on the plan's lattice (p = 0
    # included) and on the grid window
    cfg = load_config(None, preset)
    kernel = _KINDS[cfg.geometry["kind"]].kernel(cfg.grid, cfg.geometry)
    rng = np.random.default_rng(5)
    jumps, weights = rng.uniform(0.1, 20.0, (41, 3)), rng.standard_normal((41, 3))
    weights[::4] = 0.0
    weights[1::4, 2] = jumps[1::4, 2] = 0.0
    karg = cfg.grid.dp * np.arange(-(cfg.grid.n_p - 1), cfg.grid.n_p)
    for b, w in ((kernel.jumps, kernel.weights), (jumps, weights)):
        for p in (karg, cfg.grid.p_axis()):
            ref = one_shot_sinc_rows(b, w, p)
            assert np.any(ref != 0.0) and np.any(np.all(ref == 0.0, axis=1))
            for rows in BLOCKS:
                monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
                assert same_bits(boundary_kernels._sinc_rows(b, w, p), ref)


def one_shot_amplitudes(rows, n):
    """The real amplitudes of kernel rows on the 2 n - 1 point difference
    lattice: every row zero padded to the alias-free circle and rolled so
    that p = 0 sits at index 0, transformed at once."""
    L = next_fast_len(2 * n - 1)
    circle = np.roll(np.pad(rows, ((0, 0), (0, L - (2 * n - 1)))), -(n - 1), axis=1)
    return np.fft.rfft(circle, axis=1).real, L


@pytest.mark.parametrize("preset", ["halfline-bounce", "box-traversal"])
def test_plan_amplitudes_blocks_bit_identical(preset, monkeypatch):
    plan = cli.build_plan(load_config(None, preset))
    grid = plan.initial.grid
    karg = grid.dp * np.arange(-(grid.n_p - 1), grid.n_p)
    ref, L = one_shot_amplitudes(plan.kernel.rows_at(karg), grid.n_p)
    assert len(ref) > 3
    for rows in BLOCKS:
        monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
        amp, length = BoundedEvolutionPlan(plan.kernel, plan.shear, plan.initial,
                                           plan.check_support)._kernel_amplitudes
        assert length == L and same_bits(amp, ref)


def one_shot_symmetry_defect(w):
    # the per-node mirror formula: each node's mirror index rounded and
    # checked on its own, all compared in one gather
    g = w.grid
    xi = np.round((-g.x_axis() - g.x_min) / g.dx).astype(int)
    pj = np.round((-g.p_axis() - g.p_min) / g.dp).astype(int)
    ok_x = (xi >= 0) & (xi < g.n_x) & \
        (np.abs(-g.x_axis() - (g.x_min + xi * g.dx)) < 1e-9 * max(1.0, g.dx))
    ok_p = (pj >= 0) & (pj < g.n_p) & \
        (np.abs(-g.p_axis() - (g.p_min + pj * g.dp)) < 1e-9 * max(1.0, g.dp))
    if not (ok_x.any() and ok_p.any()):
        return 0.0
    sub = w.values[np.ix_(ok_x, ok_p)]
    mirrored = w.values[np.ix_(xi[ok_x], pj[ok_p])]
    return float(np.abs(sub - mirrored).max())


@pytest.mark.parametrize("grid", [
    PhaseGrid(-24.0, 24.0, 513, -16.0, 16.0, 513),  # every mirror exists
    PhaseGrid(-3.0, 5.0, 33, -2.0, 6.0, 17),  # only |x| <= 3 and |p| <= 2 have mirrors
    PhaseGrid(-3.0, 5.0, 33, 1.0, 6.0, 11),  # no p mirror: no point is compared
], ids=["symmetric", "some-mirrors", "no-mirrors"])
def test_point_symmetry_defect_blocks_identical(grid, monkeypatch):
    rng = np.random.default_rng(grid.n_x + grid.n_p)
    w = WignerField(grid, rng.standard_normal((grid.n_x, grid.n_p)))
    ref = one_shot_symmetry_defect(w)
    assert (ref > 0.0) == (grid.p_min < 0.0)
    for rows in BLOCKS:
        monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
        if ref > 0.0:
            assert point_symmetry_defect(w) == ref
        else:  # a grid on which the check would compare nothing is refused
            with pytest.raises(GridMismatch, match="^no p node mirrors"):
                point_symmetry_defect(w)


@pytest.mark.parametrize("preset, t", [("halfline-bounce", 2.0), ("box-traversal", 1.25)])
def test_compare_fields_blocks_match_one_shot(preset, t, monkeypatch):
    cfg = load_config(None, preset)
    # the oracle on the whole grid, as the CLI's rows sit in it
    a = evolve_bounded(cli.build_plan(cfg), t).values
    b = wigner_transform.wigner_of(_oracle_wave(cfg, t), cfg.grid).values
    diff = a - b
    scale = cfg.grid.dx * cfg.grid.dp
    l2 = np.sqrt(np.einsum("ij,ij->", diff, diff)) / np.sqrt(np.einsum("ij,ij->", b, b))
    for rows in BLOCKS:
        monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
        cmp = oracle.compare_fields(WignerField(cfg.grid, a), WignerField(cfg.grid, b))
        assert cmp.max_abs == np.abs(diff).max()
        # two sums of the same n float64 terms, in any orders, are within
        # n eps of each other, times the sum of the terms' absolute values
        assert abs(cmp.l2_rel - l2) <= diff.size * 2.3e-16 * l2
        assert abs(cmp.mass_diff - abs(diff.sum()) * scale) <= \
            diff.size * 2.3e-16 * np.abs(diff).sum() * scale


def test_field_csv_blocks_bit_identical(tmp_path, monkeypatch):
    # a half-line frame, whose rows outside the wall are +0.0, with a row
    # of -0.0, scattered -0.0 cells and values that '%' formats itself;
    # 513 rows leave a short last block at 16 and 3 rows
    cfg = load_config(None, "halfline-bounce")
    v = evolve_bounded(cli.build_plan(cfg), 2.0).values.copy()
    v[300] = -0.0
    v[301, ::7] = -0.0
    v[302, :3] = 1e-300, -2.5e295, 0.12345678901249999
    w = WignerField(cfg.grid, v)
    assert np.any(np.all(v == 0.0, axis=1) & ~np.signbit(v).any(axis=1))
    meta = {"provenance": "test"}
    rows = ((x, p, v[i, j]) for i, x in enumerate(cfg.grid.x_axis().tolist())
            for j, p in enumerate(cfg.grid.p_axis().tolist()))
    phase_grid.write_csv(tmp_path / "ref.csv", ("x", "p", "value"), rows, meta)
    ref = (tmp_path / "ref.csv").read_bytes()
    for rows in BLOCKS + [16]:
        monkeypatch.setattr(phase_grid, "_BLOCK_ROWS", rows)
        phase_grid.write_field_csv(w, tmp_path / "field.csv", meta)
        assert (tmp_path / "field.csv").read_bytes() == ref

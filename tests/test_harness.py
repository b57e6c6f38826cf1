import argparse
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest

from pqcgeo import ansatz, cli, geometry, harness, optimize, qgt, simulator, vqe
from pqcgeo.cli import main

def _experiment(out_dir, trials=2, opt=None):
    settings = dict(optimizer="qng", metric_mode="block", max_steps=25, seed=9)
    settings.update(opt or {})
    return harness.run_vqe_experiment("ldca", vqe.load_bundled("entangled"),
                                      optimize.OptConfig(**settings), trials, out_dir)


def test_single_trial_single_step_csv_shape(tmp_path):
    _experiment(tmp_path, trials=1, opt=dict(max_steps=1, tol=np.inf))
    lines = (tmp_path / "trial_000.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + initial point + one step
    header = lines[0].split(",")
    assert header == ["step", "energy", "energy_error", "concurrence",
                      "ricci", "grad_norm", "theta_1", "theta_2", "theta_3", "theta_4",
                      "theta_5"]


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        _experiment(out, trials=3)
    for name in ("trial_000.csv", "trial_001.csv", "trial_002.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_summary_schema_and_padding(tmp_path):
    # a numpy trial count is written as a JSON integer (it used to fail in json.dumps)
    summary = _experiment(tmp_path, trials=np.int64(3), opt=dict(max_steps=30, tol=1e-4))
    data = json.loads((tmp_path / "summary.json").read_text())
    assert data["trials"] == 3
    for key in ("ansatz", "optimizer", "metric_mode", "steps", "energy_error_mean",
                "energy_error_std", "concurrence_mean", "concurrence_std",
                "ricci_mean", "ricci_std", "steps_to_threshold",
                "median_steps_to_threshold", "reached_fraction", "hamiltonian"):
        assert key in data
    assert len(data["steps"]) == 31
    assert all(len(data[k]) == 31 for k in ("energy_error_mean", "ricci_std"))
    assert data["hamiltonian"]["ground_energy"] == pytest.approx(summary["hamiltonian"]["ground_energy"])


def _trace_with_errors(energy_error):
    n = len(energy_error)
    zero = np.zeros(n)
    return optimize.Trace(theta=np.zeros((n, 4)), energy=zero,
                          energy_error=np.array(energy_error, dtype=float), concurrence=zero,
                          ricci=zero, grad_norm=zero, qng_fallback=np.zeros(n, dtype=bool))


@pytest.mark.parametrize("errors, median", [([[1.0, 1e-4], [1.0, 1.0]], None),
                                            ([[1.0, 1e-4], [1e-4, 1.0], [1.0, 1.0]], 1.0)],
                         ids=["one-of-two", "two-of-three"])
def test_median_steps_to_threshold_is_null_unless_more_than_half_the_trials_reach_it(errors,
                                                                                    median):
    # with exactly half reached, the median of the steps with inf for a miss is inf
    traces = [_trace_with_errors(e) for e in errors]
    summary = harness.summarize(traces, optimize.OptConfig(max_steps=1))
    assert summary["median_steps_to_threshold"] == median


def test_summary_mean_energy_error_ldca_qng_full_protocol():
    # 50-trial natural-gradient run: padded mean energy error at step 200
    # sits below chemical accuracy
    cfg = optimize.OptConfig(optimizer="qng", metric_mode="block", seed=20260808)
    traces = optimize.run_trials("ldca", vqe.load_bundled("entangled"), cfg, 50)
    summary = harness.summarize(traces, cfg)
    assert summary["energy_error_mean"][-1] <= 1e-3
    assert summary["reached_fraction"] >= 0.9


def test_partial_trial_failure_aborts(tmp_path, monkeypatch):
    original = optimize.energy_and_gradient

    def one_row_non_finite(hamiltonian, psi, jac):
        e, grad = original(hamiltonian, psi, jac)
        e[1] = np.nan
        return e, grad

    monkeypatch.setattr(optimize, "energy_and_gradient", one_row_non_finite)
    with pytest.raises(RuntimeError, match="non-finite energy"):
        _experiment(tmp_path / "out", trials=3)
    assert not (tmp_path / "out").exists()


# --- landscape scans ---

def test_hea_landscape_zero_row_is_flat_ten(tmp_path):
    values, mask, meta = harness.scan_landscape("hea", (0, 1), resolution=41)
    assert np.abs(values[0] - 10.0).max() < 1e-12  # theta_1 = 0 row
    assert not mask[0].any()
    assert values.min() >= -5.0 and values.max() <= 10.0
    assert meta["clip"] == [-5.0, 10.0]


def test_landscape_clip_mask_exact(tmp_path):
    values, mask, _ = harness.scan_landscape("hea", (0, 1), resolution=101)
    raw = ansatz.ricci_circuit_grid("hea", _grid_thetas("hea", (0, 1), 101))
    outside = (raw < -5.0) | (raw > 10.0)
    assert np.array_equal(mask, outside)
    assert mask.any()  # the C -> 1 pole region must be clipped
    assert np.all(values[mask] == -5.0)


def _grid_thetas(kind, scan, n):
    m = ansatz.param_count(kind)
    axis = np.linspace(0, 2 * np.pi, n)
    grid = np.zeros((n, n, m))
    grid[:, :, scan[0]] = axis[:, None]
    grid[:, :, scan[1]] = axis[None, :]
    return grid


def test_qgan_landscape_constant_without_entangler():
    values, mask, _ = harness.scan_landscape("qgan", (0, 1), resolution=21)
    assert np.abs(values - 10.0).max() < 1e-12  # theta_5 = 0 means C = 0 everywhere
    assert not mask.any()


def test_landscape_files_written(tmp_path):
    prefix = tmp_path / "scan" / "hea12"
    values, mask, meta = harness.scan_landscape("hea", (0, 1), resolution=11,
                                                out_prefix=prefix)
    grid = np.loadtxt(prefix.with_suffix(".csv"), delimiter=",")
    assert np.array_equal(grid, values)
    loaded_mask = np.loadtxt(tmp_path / "scan" / "hea12_mask.csv", delimiter=",")
    assert np.array_equal(loaded_mask.astype(bool), mask)
    saved_meta = json.loads((tmp_path / "scan" / "hea12_meta.json").read_text())
    assert saved_meta["resolution"] == 11


def _reference_write_grid_csv(path, grid):
    # the per-cell writer that the row-streamed one replaced
    lines = [",".join(repr(float(v)) if isinstance(v, float) or np.issubdtype(type(v), np.floating)
                      else str(int(v)) for v in row) for row in grid]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _assert_writers_agree(tmp_path, grid):
    harness._write_grid_csv(tmp_path / "new.csv", grid)
    _reference_write_grid_csv(tmp_path / "ref.csv", grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_grid_writer_matches_per_cell_reference_on_edge_values(tmp_path):
    edge = [-5.0, 10.0, -0.0, 0.0, 5e-324, 1e16, 0.1, -1.5e-7, 2.0 / 3.0]
    _assert_writers_agree(tmp_path, np.array(edge * 4).reshape(6, 6))


def test_grid_writer_matches_per_cell_reference_on_shea_pole_scan(tmp_path):
    fixed = np.array([np.pi / 2, np.pi / 2, 0.0, 0.0, 0.0, 0.0])
    values, mask, _ = harness.scan_landscape("shea", (2, 3), fixed_theta=fixed, resolution=801,
                                             out_prefix=tmp_path / "pole")
    assert mask.any() and not mask.all()
    for name, grid in (("pole.csv", values), ("pole_mask.csv", mask.astype(int))):
        _reference_write_grid_csv(tmp_path / "ref.csv", grid)
        assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_grid_writer_keeps_the_bits_of_each_repeated_value(tmp_path):
    # a dedupe on float equality would give -0.0 and 0.0 one text; the NaNs differ in sign
    neg_nan = -np.float64(np.nan)
    row = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, neg_nan, 0.1, -0.0, 0.0,
           np.nan, 5e-324, np.inf, 0.1, neg_nan]
    _assert_writers_agree(tmp_path, np.array([row, row[::-1], [-0.0] * 16, [7.25] * 16]))


def test_grid_writer_matches_per_cell_reference_on_non_contiguous_grids(tmp_path):
    grid = np.round(np.random.default_rng(5).uniform(-5.0, 10.0, (40, 60)), 1)
    grid[::3] = -5.0
    for view in (grid.T, grid[:, ::2], grid[::-1, 1::3]):
        assert not view.flags.c_contiguous
        _assert_writers_agree(tmp_path, view)


def test_grid_writer_matches_per_cell_reference_on_repeated_rows(tmp_path):
    rng = np.random.default_rng(20)
    half = rng.uniform(-5.0, 10.0, (30, 12))
    few = np.round(rng.uniform(-5.0, 10.0, (4, 12)), 1)
    for grid in (np.concatenate([half, half[::-1]]),  # the second half mirrors the first
                 np.concatenate([half, half[-2::-1]]),  # mirrored about a middle row
                 np.concatenate([half[:1], half, half[:1], half[:2]]),  # repeats far apart
                 few[rng.integers(0, 4, 50)], np.repeat(few, 3, axis=0), few[[0] * 5]):
        assert len(np.unique(grid, axis=0)) < len(grid)
        _assert_writers_agree(tmp_path, grid)


def _rows_that_differ_only_in_a_sign_bit():
    """Rows that differ from an earlier row only in a zero's or a NaN's sign bit,
    each repeated."""
    row = np.array([1.5, 0.0, -2.25, 0.0, 7.0])
    neg_zero, nan, neg_nan = row.copy(), row.copy(), row.copy()
    neg_zero[1] = -0.0
    nan[2], neg_nan[2] = np.nan, -np.float64(np.nan)
    assert np.signbit(neg_nan[2]) and not np.signbit(nan[2])
    return np.array([row, neg_zero, nan, neg_nan, row, neg_nan, neg_zero, nan, row, neg_zero])


def test_grid_writer_keeps_rows_that_differ_only_in_a_sign_bit_apart(tmp_path):
    # merged by float equality, the -0.0 row would be written as the 0.0 row
    _assert_writers_agree(tmp_path, _rows_that_differ_only_in_a_sign_bit())


def test_grid_writer_matches_per_cell_reference_on_non_contiguous_repeated_rows(tmp_path):
    rng = np.random.default_rng(21)
    base = np.round(rng.uniform(-5.0, 10.0, (6, 6)), 1)
    # rows and columns repeat
    grid = np.ascontiguousarray(base[rng.integers(0, 6, 30)][:, rng.integers(0, 6, 40)])
    for view in (grid.T, grid[::-1, ::2], grid[1::2, ::-3]):
        assert not view.flags.c_contiguous
        assert len(np.unique(view, axis=0)) < len(view)
        _assert_writers_agree(tmp_path, view)


def test_grid_writer_confirms_each_hash_match_by_its_bits(tmp_path, monkeypatch):
    # every row on one hash key: each row is compared with each distinct earlier row
    hashed = []
    monkeypatch.setattr(harness, "hash", lambda data: hashed.append(len(data)) or 0,
                        raising=False)
    rng = np.random.default_rng(22)
    few = np.round(rng.uniform(-5.0, 10.0, (5, 5)), 1)
    grid = np.concatenate([_rows_that_differ_only_in_a_sign_bit(), few[rng.integers(0, 5, 20)]])
    _assert_writers_agree(tmp_path, grid)
    assert len(hashed) == len(grid)


def _count_reprs(monkeypatch):
    """The values that harness formats, one entry per repr call."""
    calls = []
    monkeypatch.setattr(harness, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    return calls


def _slot(value):
    # the grid writer's table slot of a value: Fibonacci hashing of its bits
    bits = int(np.float64(value).view(np.uint64))
    return (bits * 0x9E3779B97F4A7C15 % 2**64) >> (64 - harness._SLOT_BITS)


def test_grid_writer_refuses_a_grid_that_is_not_float64(tmp_path):
    # read as uint64, the float32 pair 1.5, 2.5 was written as one value, 8.000001899898052
    for grid in (np.array([[1.5, 2.5], [3.5, 4.5]], dtype=np.float32),
                 np.arange(4).reshape(2, 2)):
        with pytest.raises(ValueError) as err:
            harness._write_grid_csv(tmp_path / "grid.csv", grid)
        assert str(err.value) == f"grid values must be float64, got {grid.dtype}"
        assert not (tmp_path / "grid.csv").exists()


def test_grid_writer_matches_per_cell_reference_on_the_longest_reprs(tmp_path):
    longest = [-2.2250738585072014e-308, -1.7976931348623157e+308, -1.2345678901234568e-05]
    positional = [-0.00012345678901234567, 0.30000000000000004, -123456789.01234567,
                  -1234567890123456.8]
    assert max(len(repr(v)) for v in longest) == 24
    assert all(sum(ch.isdigit() for ch in repr(v).lstrip("-0.")) == 17 for v in positional)
    rng = np.random.default_rng(25)
    scaled = rng.uniform(-1.0, 1.0, 24) * 10.0 ** rng.integers(-4, 16, 24)  # 17 digits, positional
    row = np.array(longest + positional + [0.0001, -0.0] + list(scaled))
    _assert_writers_agree(tmp_path, np.array([row, row[::-1], rng.permutation(row), row]))


def test_grid_writer_matches_per_cell_reference_on_values_that_share_a_slot(tmp_path,
                                                                            monkeypatch):
    # values on one slot of the writer's table evict each other, in one row and across rows
    values = np.random.default_rng(23).uniform(-5.0, 10.0, 100_000).tolist()
    slot = _slot(values[0])
    a, b, c = [v for v in values if _slot(v) == slot][:3]
    pick = np.random.default_rng(24).integers(0, 3, (40, 4))
    grid = np.column_stack([np.array([a, b, c])[pick], np.arange(40.0)])  # every row distinct
    calls = _count_reprs(monkeypatch)
    _assert_writers_agree(tmp_path, grid)
    assert calls.count(a) > 1  # a was evicted and formatted again


def test_grid_writer_matches_per_cell_reference_with_more_values_than_slots(tmp_path):
    # each row's values come back 30 rows later in another order, after 24,030 others
    rng = np.random.default_rng(26)
    first = rng.uniform(-5.0, 10.0, (30, 801))
    assert first.size > 2**harness._SLOT_BITS
    _assert_writers_agree(tmp_path, np.concatenate([first, rng.permuted(first, axis=1)]))


def test_grid_writer_matches_per_cell_reference_on_a_random_801_grid(tmp_path):
    # the grid of test_grid_writer_holds_one_row_of_python_objects
    _assert_writers_agree(tmp_path, np.random.default_rng(3).uniform(-5.0, 10.0, (801, 801)))


def _assert_mask_writer_agrees(tmp_path, mask):
    harness._write_mask_csv(tmp_path / "new.csv", mask)
    _reference_write_grid_csv(tmp_path / "ref.csv", mask.astype(int))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_mask_writer_matches_per_cell_reference(tmp_path):
    grid = np.round(np.random.default_rng(5).uniform(-5.0, 10.0, (40, 60)), 1)
    mask = grid > 4.0
    mask[0], mask[1] = False, True
    for view in (mask, mask.T, mask[::-1, ::2], np.arange(30).reshape(5, 6) % 3 == 0,
                 np.zeros((7, 3), dtype=bool), np.ones((3, 7), dtype=bool),
                 np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool)):
        _assert_mask_writer_agrees(tmp_path, view)


def test_mask_writer_holds_one_byte_array(tmp_path):
    # the 801 x 801 mask text is 1.28 MB, written from the array without a copy
    mask = np.random.default_rng(3).uniform(size=(801, 801)) < 0.3
    assert _traced_peak_mb(harness._write_mask_csv, tmp_path / "mask.csv", mask) <= 1.5
    _assert_mask_writer_agrees(tmp_path, mask)


HALF_PI = np.pi / 2
# 1-based scan pair and pinned values of a layout whose grid crosses the C = 1 pole,
# as in the landscape workload of perfbench
QGAN_LAYOUTS = (((1, 2), {5: HALF_PI}), ((1, 5), {2: HALF_PI}), ((2, 5), {1: HALF_PI}))
POLE_LAYOUTS = {
    "hea": (((1, 2), {}),),
    "ldca": (((3, 5), {}),),
    "qgan": QGAN_LAYOUTS,
    "qgan-aug": QGAN_LAYOUTS,
    "shea": (((1, 2), {3: np.pi, 4: 0.0}),),
}


def _pole_scans(kind):
    """(0-based scan pair, fixed theta) of each pole layout, unpinned values seeded."""
    rng = np.random.default_rng(11)
    for (a, b), pinned in POLE_LAYOUTS[kind]:
        fixed = rng.uniform(0.0, 2 * np.pi, ansatz.param_count(kind))
        for idx, value in pinned.items():
            fixed[idx - 1] = value
        yield (a - 1, b - 1), fixed


@pytest.mark.parametrize("kind", sorted(POLE_LAYOUTS))
def test_grid_writer_matches_per_cell_reference_on_pole_scans(tmp_path, kind):
    # the two clips repeat different rows
    for (scan, fixed), clip in itertools.product(_pole_scans(kind), (harness.DEFAULT_CLIP,
                                                                     (-5.0, 8.0))):
        values, mask, _ = harness.scan_landscape(kind, scan, fixed_theta=fixed, resolution=201,
                                                 clip=clip, out_prefix=tmp_path / "pole")
        assert mask.any() and not mask.all()
        for name, grid in (("pole.csv", values), ("pole_mask.csv", mask.astype(int))):
            _reference_write_grid_csv(tmp_path / "ref.csv", grid)
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("kind", sorted(POLE_LAYOUTS))
def test_row_blocked_scan_is_bit_identical_to_one_whole_grid_call(kind):
    lo, hi = harness.DEFAULT_CLIP
    # below one block, an exact multiple of the block, and a short tail block
    assert 5 < harness._ROW_BLOCK and 201 % harness._ROW_BLOCK
    for n in (2, 5, 2 * harness._ROW_BLOCK, 201):
        axis = np.linspace(0.0, 2.0 * np.pi, n)
        for (a, b), fixed in _pole_scans(kind):
            values, mask, _ = harness.scan_landscape(kind, (a, b), fixed_theta=fixed, resolution=n)
            # the whole cell-major (n, n, m) grid in one closed-form call, as before row blocks
            cell_major = np.broadcast_to(fixed, (n, n, len(fixed))).copy()
            cell_major[:, :, a] = axis[:, None]
            cell_major[:, :, b] = axis[None, :]
            raw = ansatz.ricci_circuit_grid(kind, cell_major)
            assert values.tobytes() == np.clip(raw, lo, hi).tobytes()
            assert mask.tobytes() == ((raw < lo) | (raw > hi)).tobytes()
            if n == 201:
                assert (raw < lo).any() and not mask.all()


def _parameter_major_scan(kind, scan, fixed, n):
    """The unclipped grid as the block path that per-axis scans replaced computed it:
    every cell's parameter vector, in parameter-major blocks of _ROW_BLOCK rows."""
    (a, b), m = scan, len(fixed)
    axis = np.linspace(0.0, 2.0 * np.pi, n)
    raw = np.empty((n, n))
    for start in range(0, n, harness._ROW_BLOCK):
        rows = axis[start:start + harness._ROW_BLOCK]
        block = np.broadcast_to(fixed[:, None, None], (m, rows.size, n)).copy()
        block[a] = rows[:, None]
        block[b] = axis[None, :]
        raw[start:start + rows.size] = ansatz.ricci_circuit_grid(kind, block.transpose(1, 2, 0))
    return raw


def _scan_layouts():
    """(family, 0-based scan pair, fixed theta) of seeded random and pole layouts."""
    rng = np.random.default_rng(16)
    for kind in ansatz.ANSATZE:
        m = ansatz.param_count(kind)
        for _ in range(3):
            a, b = rng.choice(m, 2, replace=False)
            yield kind, (int(a), int(b)), rng.uniform(0.0, 2 * np.pi, m)
        for scan, fixed in _pole_scans(kind):
            yield kind, scan, fixed
    # 1-based hea (3, 4) and qgan-aug (6, 7), which the closed form ignores, and hea
    # (1, 3), of which it reads only the row angle
    for kind, scan in (("hea", (2, 3)), ("qgan-aug", (5, 6)), ("hea", (0, 2))):
        yield kind, scan, rng.uniform(0.0, 2 * np.pi, ansatz.param_count(kind))


@pytest.mark.parametrize("n", [2, 5, harness._ROW_BLOCK + 1, 201])
def test_per_axis_scan_is_bit_identical_to_the_parameter_major_block_path(n):
    for kind, scan, fixed in _scan_layouts():
        raw = _parameter_major_scan(kind, scan, fixed, n)
        for lo, hi in (harness.DEFAULT_CLIP, (-5.0, 8.0)):
            values, mask, _ = harness.scan_landscape(kind, scan, fixed_theta=fixed, resolution=n,
                                                     clip=(lo, hi))
            assert values.tobytes() == np.clip(raw, lo, hi).tobytes(), (kind, scan)
            assert mask.tobytes() == ((raw < lo) | (raw > hi)).tobytes(), (kind, scan)
        if scan in ((2, 3), (5, 6)) and kind in ("hea", "qgan-aug"):
            assert (raw == raw[0, 0]).all()
        elif (kind, scan) == ("hea", (0, 2)):
            assert (raw == raw[:, :1]).all() and (n < 201 or (raw != raw[0]).any())


def test_cli_scan_with_dotted_prefix_keeps_the_dot(tmp_path, capsys):
    prefix = tmp_path / "d" / "run.v2"
    assert main(["scan-landscape", "--ansatz", "hea", "--grid", "5", "--out", str(prefix)]) == 0
    assert f"{prefix}.csv" in capsys.readouterr().out
    assert sorted(p.name for p in prefix.parent.iterdir()) == [
        "run.v2.csv", "run.v2_mask.csv", "run.v2_meta.json"]


def _traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_grid_writer_holds_one_row_of_python_objects(tmp_path):
    # building the whole 801 x 801 grid as Python objects takes about 30 MB
    grid = np.random.default_rng(3).uniform(-5.0, 10.0, (801, 801))
    assert _traced_peak_mb(harness._write_grid_csv, tmp_path / "grid.csv", grid) < 1.0


def test_grid_writer_holds_the_text_of_rows_still_to_be_repeated(tmp_path):
    # rows 401.. mirror rows 399..0, so the text of rows 0..399, about half the
    # 11.45 MB file, is kept until their repeats begin
    grid = np.random.default_rng(3).uniform(-5.0, 10.0, (801, 801))
    grid[401:] = grid[399::-1]
    path = tmp_path / "grid.csv"
    peak = _traced_peak_mb(harness._write_grid_csv, path, grid)
    assert peak <= path.stat().st_size / 2 / 2**20 + 1.0
    _reference_write_grid_csv(tmp_path / "ref.csv", grid)
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_grid_writer_drops_the_text_of_a_row_after_its_last_repeat(tmp_path):
    # each row repeats once, right after itself: the text of one row is kept at a time
    grid = np.repeat(np.random.default_rng(3).uniform(-5.0, 10.0, (400, 801)), 2, axis=0)
    assert _traced_peak_mb(harness._write_grid_csv, tmp_path / "grid.csv", grid) < 1.0


def test_grid_writer_on_the_shea_pole_scan_holds_under_1_mb(tmp_path):
    fixed = np.array([HALF_PI, HALF_PI, 0.0, 0.0, 0.0, 0.0])
    values, _, _ = harness.scan_landscape("shea", (2, 3), fixed_theta=fixed, resolution=801,
                                          clip=(-5.0, 8.0))
    assert len(np.unique(values.view(np.uint64), axis=0)) < len(values)  # rows repeat
    assert _traced_peak_mb(harness._write_grid_csv, tmp_path / "pole.csv", values) < 1.0


def test_grid_writer_formats_few_values_of_the_shea_pole_scan(tmp_path, monkeypatch):
    # the landscape benchmark's pole grid: formatting each distinct value once per distinct
    # row took 177,985 repr calls for its 1,981 distinct values
    fixed = np.array([HALF_PI, HALF_PI, 0.0, 0.0, 0.0, 0.0])
    values, _, _ = harness.scan_landscape("shea", (2, 3), fixed_theta=fixed, resolution=801,
                                          clip=(-5.0, 8.0))
    calls = _count_reprs(monkeypatch)
    harness._write_grid_csv(tmp_path / "pole.csv", values)
    assert len(np.unique(values.view(np.uint64))) <= len(calls) < 177_985 / 10


def test_landscape_scan_memory_is_bounded_by_its_output(tmp_path):
    # the 801 x 801 values are 5 MB; building the whole (m, n, n) parameter grid and the
    # closed form's whole-grid intermediates peaked at about 54 MB
    fixed = np.array([HALF_PI, HALF_PI, 0.0, 0.0, 0.0, 0.0])
    peak = _traced_peak_mb(lambda: harness.scan_landscape(
        "shea", (2, 3), fixed_theta=fixed, resolution=801, out_prefix=tmp_path / "pole"))
    assert peak <= 12.0
    assert (tmp_path / "pole_mask.csv").exists()


def test_hopf_suite_memory_stays_chunked():
    # one hopf_fiber call over all 10,000 states peaks at about 6.7 MB
    suite = dict(harness.VALIDATION_SUITES)["hopf-invariants"]
    assert _traced_peak_mb(suite, np.random.default_rng(7)) <= 4.0


def test_landscape_validation():
    with pytest.raises(ValueError):
        harness.scan_landscape("hea", (0, 0))
    with pytest.raises(ValueError):
        harness.scan_landscape("hea", (0, 7))
    with pytest.raises(ValueError):
        harness.scan_landscape("hea", (0, 1), resolution=1)
    with pytest.raises(ValueError):
        harness.scan_landscape("hea", (0, 1), clip=(4.0, 4.0))


@pytest.mark.parametrize("scan,resolution", [((0, True), 5), ((0, 1.5), 5), ((0.0, 1), 5),
                                             ((0, 1), 2.5), ((0, 1), True), ((0, 1), "5")])
def test_scan_landscape_refuses_indices_and_resolution_that_are_not_integers(tmp_path, scan,
                                                                             resolution):
    # (0, True) used to scan theta_2 and write [0, true]; 2.5 and 1.5 ended in tracebacks
    with pytest.raises(ValueError, match="integer"):
        harness.scan_landscape("hea", scan, resolution=resolution,
                               out_prefix=tmp_path / "scan" / "grid")
    assert not any(tmp_path.iterdir())


def test_scan_landscape_takes_numpy_integers_as_int(tmp_path):
    # numpy integers used to reach _meta.json, which json.dumps refused with a TypeError
    _, _, meta = harness.scan_landscape("hea", (np.int64(0), np.int32(2)),
                                        resolution=np.int64(5), out_prefix=tmp_path / "grid")
    assert json.loads((tmp_path / "grid_meta.json").read_text())["scan_indices"] == [0, 2]
    assert type(meta["resolution"]) is int and meta["resolution"] == 5
    assert [type(i) for i in meta["scan_indices"]] == [int, int]


@pytest.mark.parametrize("clip", [(True, "8"), (True, 8.0), (-5.0, "8"), (np.True_, 8.0),
                                  (None, 8.0), ("-5", "8"), (-5.0, 8.0, 9.0)],
                         ids=["bool-text", "bool", "text", "numpy-bool", "none", "texts",
                              "three"])
def test_scan_landscape_refuses_bool_and_text_clip_bounds(tmp_path, clip):
    # (True, "8") used to run as (1.0, 8.0) and write [1.0, 8.0] into _meta.json, and a
    # third bound was ignored
    with pytest.raises(ValueError, match="clip bounds must be two real numbers"):
        harness.scan_landscape("hea", (0, 1), resolution=5, clip=clip,
                               out_prefix=tmp_path / "scan" / "grid")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("big", [10**400, -10**400], ids=["10**400", "-10**400"])
def test_scan_and_hopf_refuse_integers_beyond_the_float_range(tmp_path, big):
    # the conversions to float raised OverflowError
    for kwargs, message in (({"clip": (-5, big)}, "clip bounds must be finite"),
                            ({"clip": (big, 10)}, "clip bounds must be finite"),
                            ({"fixed_theta": [0, 0, big, 0]}, "parameters must be finite")):
        with pytest.raises(ValueError, match=message):
            harness.scan_landscape("hea", (0, 1), resolution=5, out_prefix=tmp_path / "scan",
                                   **kwargs)
    assert not any(tmp_path.iterdir())
    with pytest.raises(ValueError, match="parameters must be finite"):
        harness.hopf_report("hea", [0, 0, 0, big])


def test_non_finite_clip_bounds_fail_before_any_file_is_written(tmp_path, capsys):
    # an infinite bound used to be written into _meta.json as Infinity, which strict JSON
    # parsers refuse, and clip=(-inf, 8) left the -inf pole cells unclipped
    prefix = tmp_path / "scan" / "bad"
    for clip in ((-np.inf, 8.0), (-5.0, np.inf), (np.nan, 8.0), (-5.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            harness.scan_landscape("hea", (0, 1), resolution=5, clip=clip, out_prefix=prefix)
    for bounds in (["-5", "inf"], ["nan", "8"], ["-5", "nan"]):
        assert main(["scan-landscape", "--ansatz", "hea", "--grid", "5", "--clip", *bounds,
                     "--out", str(prefix)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_non_finite_fixed_value_fails_before_any_file_is_written(tmp_path, capsys):
    n = 3 * harness._ROW_BLOCK + 5  # several row blocks
    prefix = tmp_path / "scan" / "bad"
    for value in (np.nan, np.inf):
        fixed = np.array([0.0, 0.0, value, 0.0])
        with pytest.raises(ValueError, match="finite"):
            harness.scan_landscape("hea", (0, 1), fixed_theta=fixed, resolution=n,
                                   out_prefix=prefix)
    capsys.readouterr()
    assert main(["scan-landscape", "--ansatz", "hea", "--fix", "3=nan", "--grid", str(n),
                 "--out", str(prefix)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_non_finite_fixed_value_at_a_scanned_slot_fails_before_any_file_is_written(tmp_path):
    # the scanned slots used to be overwritten unchecked, and _meta.json then held NaN and
    # Infinity, which strict JSON parsers refuse
    prefix = tmp_path / "scan" / "bad"
    for fixed in ([np.nan, np.inf, 0.3, 0.4], [0.0, np.nan, 0.3, 0.4], [-np.inf, 0.0, 0.3, 0.4]):
        with pytest.raises(ValueError, match="finite"):
            harness.scan_landscape("hea", (0, 1), fixed_theta=fixed, resolution=5,
                                   out_prefix=prefix)
    assert list(tmp_path.iterdir()) == []


# --- hopf report ---

def test_hopf_report_fields_and_invariant():
    report = harness.hopf_report("hea", [0.0, 0.0, 0.0, 0.0])
    assert report["x"] == [1.0, 0.0, -0.0, 0.0, 0.0] or report["x"][0] == 1.0
    assert report["sum_x_sq"] == pytest.approx(1.0, abs=1e-9)
    assert set(report["singular"]) == {"phi_a", "chi", "xi"}
    assert report["phi_a"] is None
    assert report["fiber_norm_sum"] == pytest.approx(1.0, abs=1e-9)


def test_hopf_report_ldca_coordinate_zeros():
    rng = np.random.default_rng(4)
    for _ in range(20):
        report = harness.hopf_report("ldca", rng.uniform(0, 2 * np.pi, 5))
        assert abs(report["x"][1]) < 1e-9 and abs(report["x"][4]) < 1e-9
        assert report["sum_x_sq"] == pytest.approx(1.0, abs=1e-9)


# --- validation suites and CLI ---

def test_validation_passes_on_fresh_build():
    ok, rows = harness.run_validation()
    assert ok, rows
    names = [name for name, _, _ in rows]
    assert names == ["concurrence-equivalence", "hopf-invariants", "curvature-consistency",
                     "qgt-structure", "gradient-check", "chart-convention"]
    chart_row = rows[-1]
    assert "sin_on_dtheta" in chart_row[2]


def test_validation_mutation_negative_control(monkeypatch):
    # corrupting the closed-form concurrence must trip the equivalence suite
    original = ansatz.concurrence_closed

    def corrupted(kind, theta):
        return 0.97 * np.asarray(original(kind, theta))

    monkeypatch.setattr(ansatz, "concurrence_closed", corrupted)
    suite = dict(harness.VALIDATION_SUITES)["concurrence-equivalence"]
    ok, detail = suite(np.random.default_rng(0))
    assert not ok


def test_a_suite_that_raises_is_a_failed_row_and_validate_exits_1(monkeypatch, capsys):
    # a NaN below the diagonal makes eigvalsh raise LinAlgError, which used to end the
    # command with exit 2 ("error: Eigenvalues did not converge") and no table
    assert main(["validate"]) == 0
    clean = capsys.readouterr().out.splitlines()
    original, calls = qgt._metric_from_qgt, []

    def nan_in_hea(g, mask):
        metric = original(g, mask)
        if not calls:  # the suite builds hea's metrics first
            metric[:, 1, 0] = np.nan
        calls.append(mask)
        return metric

    monkeypatch.setattr(qgt, "_metric_from_qgt", nan_in_hea)
    assert main(["validate"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 7 and lines[-1] == "VALIDATION FAILED"
    row = lines[3].split(maxsplit=2)
    assert row[:2] == ["qgt-structure", "FAIL"] and row[2].startswith("raised LinAlgError: ")
    assert lines[:3] + lines[4:6] == clean[:3] + clean[4:6]


def test_curvature_suite_catches_a_perturbed_closed_form(monkeypatch):
    # the curvature and the closed-form concurrence share ansatz._concurrence, so the
    # suite must take C from the prepared states to see a fault in it
    original = ansatz._concurrence

    def perturbed(kind, t):
        c = original(kind, t)
        return np.clip(c * (1 + 1e-6), 0.0, 1.0) if kind == ansatz.SHEA else c

    monkeypatch.setattr(ansatz, "_concurrence", perturbed)
    suite = dict(harness.VALIDATION_SUITES)["curvature-consistency"]
    ok, detail = suite(np.random.default_rng(7))
    assert not ok, detail


def test_curvature_suite_checks_the_partial_fractions_against_ricci_closed(monkeypatch):
    # the partial-fraction check must read geometry.ricci_closed, not a copy of R(C)
    original = geometry.ricci_closed
    monkeypatch.setattr(geometry, "ricci_closed", lambda c: original(c) * (1 + 1e-6))
    suite = dict(harness.VALIDATION_SUITES)["curvature-consistency"]
    ok, detail = suite(np.random.default_rng(7))
    assert not ok
    assert float(re.search(r"partial-fraction dev (\S+),", detail).group(1)) > 1e-5, detail


def test_curvature_and_concurrence_suites_draw_different_points(monkeypatch):
    seen = {}

    def recording(kind, thetas):
        seen.setdefault(kind, []).append(thetas.copy())
        return original(kind, thetas)

    original = harness._state_concurrence
    monkeypatch.setattr(harness, "_state_concurrence", recording)
    suites = dict(harness.VALIDATION_SUITES)
    for name in ("concurrence-equivalence", "curvature-consistency"):
        suites[name](np.random.default_rng(7))
    for kind in ansatz.ANSATZE:
        first, second = seen[kind]
        assert first.shape == second.shape == (10_000, ansatz.param_count(kind))
        assert not np.isin(first, second).any(), kind


def test_cli_hopf_and_exit_codes(tmp_path, capsys):
    assert main(["hopf", "--ansatz", "hea", "--theta", "0,0,0,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sum_x_sq"] == pytest.approx(1.0)

    # configuration errors exit 2
    assert main(["hopf", "--ansatz", "hea", "--theta", "0,0"]) == 2
    assert main(["hopf", "--ansatz", "qgan", "--theta", "1,2,3,4,nan"]) == 2
    assert main(["run-vqe", "--ansatz", "hea", "--hamiltonian", str(tmp_path / "missing.json"),
                 "--trials", "1", "--steps", "1"]) == 2
    bad = tmp_path / "bad.json"
    for text in ('{"nu": [1, 2, 3]}', '{"nu": [null, 0, 0, 0, 0, 0]}',
                 '{"nu": ["1", 0, 0, 0, 0, 0]}', '{"nu": [true, 0, 0, 0, 0, 0]}',
                 '[1, 0, 0, 0, 0, 0]'):
        bad.write_text(text)
        assert main(["run-vqe", "--ansatz", "hea", "--hamiltonian", str(bad),
                     "--trials", "1", "--steps", "1"]) == 2
    # --fix must name an unscanned index in 1..m and a finite value
    for fix in ("0=1.5", "7=1.5", "2=1.5", "5=nan", "5=inf"):
        assert main(["scan-landscape", "--ansatz", "shea", "--scan", "1", "2", "--fix", fix,
                     "--grid", "3", "--out", str(tmp_path / "fix")]) == 2
    # --scan is 1-based like --fix, and an index is fixed at most once
    capsys.readouterr()
    for args, message in ((["--scan", "0", "2"], "1..4"), (["--scan", "1", "5"], "1..4"),
                          (["--scan", "2", "2"], "1..4"),
                          (["--fix", "3=1", "--fix", "3=2"], "bad --fix index 3")):
        assert main(["scan-landscape", "--ansatz", "hea", *args, "--grid", "3",
                     "--out", str(tmp_path / "fix")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "fix.csv").exists()


@pytest.mark.parametrize("theta", ["0.1,,0.2,0.3,0.4", "0.1,0.2,0.3,0.4,", ",0.1,0.2,0.3,0.4",
                                   "0.1, ,0.2,0.3", "", "0.1,x,0.2,0.3"])
def test_cli_hopf_refuses_empty_and_non_numeric_theta_fields(capsys, theta):
    # empty fields used to be dropped, so "0.1,,0.2,0.3,0.4" ran hea on four values
    assert main(["hopf", "--ansatz", "hea", "--theta", theta]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad --theta ") and err.count("\n") == 1


def test_run_vqe_parser_takes_its_defaults_and_choices_from_the_api(tmp_path):
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {action.dest: action for action in commands.choices["run-vqe"]._actions}
    opt = optimize.OptConfig()
    expected = dict(optimizer=opt.optimizer, metric=opt.metric_mode, inversion=opt.inversion.name,
                    rcond=qgt.PseudoInverse().rcond, epsilon=qgt.Tikhonov().epsilon,
                    lr=opt.learning_rate, steps=opt.max_steps, tol=opt.tol, seed=opt.seed,
                    trials=harness.DEFAULT_TRIALS)
    assert {dest: actions[dest].default for dest in expected} == expected
    assert tuple(actions["optimizer"].choices) == (optimize.GD, optimize.QNG)
    assert tuple(actions["metric"].choices) == qgt.METRIC_MODES
    assert tuple(actions["inversion"].choices) == (qgt.PseudoInverse.name, qgt.Tikhonov.name)
    # a run given no settings records OptConfig() and the default policy
    assert main(["run-vqe", "--ansatz", "hea", "--hamiltonian", "entangled", "--trials", "1",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {key: summary[key] for key in ("optimizer", "metric_mode", "learning_rate", "tol",
                                          "max_steps", "seed", "inversion")} == {
        "optimizer": opt.optimizer, "metric_mode": opt.metric_mode,
        "learning_rate": opt.learning_rate, "tol": opt.tol, "max_steps": opt.max_steps,
        "seed": opt.seed, "inversion": {"policy": "pinv", "rcond": qgt.PseudoInverse().rcond}}


@pytest.mark.parametrize("argv", [
    ["hopf", "--ansatz", "hea"],
    ["hopf", "--ansatz", "HEA", "--theta", "0,0,0,0"],
    ["hopf", "--ansatz", "hea", "--theta"],
    ["run-vqe", "--ansatz", "hea", "--hamiltonian", "entangled", "--metric", "diagonal"],
    ["run-vqe", "--ansatz", "hea", "--hamiltonian", "entangled", "--inversion", "Tikhonov"],
    ["run-vqe", "--ansatz", "hea", "--hamiltonian", "entangled", "--steps", "2.5"],
    ["scan-landscape", "--ansatz", "hea", "--clip", "1"],
    ["scan-landscape", "--ansatz", "hea", "--grid", "-x"],
    ["validate", "--extra"],
    ["nope"],
    [],
])
def test_cli_argument_refusals_are_one_error_line(tmp_path, capsys, monkeypatch, argv):
    # argparse used to print a usage block of 2-7 lines before its message
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["hopf", "--ansatz", "qgan", "--theta", "0,0,1e308,1e308,1e308"],
    ["run-vqe", "--ansatz", "qgan", "--hamiltonian", "entangled", "--lr", "1e308",
     "--trials", "2", "--steps", "50", "--out", "run"],
])
def test_cli_refuses_angles_beyond_the_bound_without_warnings(tmp_path, capsys, monkeypatch,
                                                              argv):
    # these angles overflowed the maps' phase sums, with six RuntimeWarnings before the
    # error; --lr 1e308 moves the run-vqe angles by about 1e307 a step, and the update
    # to step 2 takes them past the bound, so the refusal names the learning rate
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: parameters must be finite and at most 2.2e+307 in size\n"
                   if argv[0] == "hopf" else "error: learning rate 1e+308 takes the "
                   "parameters beyond 2.2e+307 in size at step 2\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("optimizer", ["gd", "qng"])
def test_cli_refuses_a_learning_rate_whose_update_overflows(tmp_path, capsys, monkeypatch,
                                                            optimizer):
    # lr * d overflowed in the update with a RuntimeWarning, and the angle
    # check then named the parameters instead of the learning rate
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text('{"nu": [0, 0, 0, 0, 30, 30]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run-vqe", "--ansatz", "qgan", "--hamiltonian", "big.json", "--lr", "1e308",
                     "--trials", "2", "--steps", "5", "--optimizer", optimizer,
                     "--out", "run"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: learning rate 1e+308 takes the parameters beyond 2.2e+307 in size "
                   "at step 1\n")
    assert [p.name for p in tmp_path.iterdir()] == ["big.json"]


def test_cli_refuses_a_step_count_that_no_step_list_can_hold(tmp_path, capsys):
    # the trials ran, and then the summary's list(range(steps + 1)) raised OverflowError
    out = tmp_path / "run"
    assert main(["run-vqe", "--ansatz", "hea", "--hamiltonian", "entangled", "--trials", "2",
                 "--steps", "1000000000000000000000", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: max_steps must be below {sys.maxsize}, got 1000000000000000000000\n"
    assert not out.exists()


def test_a_run_whose_summary_fails_leaves_its_out_directory_untouched(tmp_path, capsys,
                                                                     monkeypatch):
    # --steps 100000000000 ran out of memory in summarize after the trial CSVs were written
    def out_of_memory(traces, config):
        raise MemoryError

    monkeypatch.setattr(harness, "summarize", out_of_memory)
    out = tmp_path / "run"
    out.mkdir()
    (out / "trial_007.csv").write_text("earlier run\n")
    assert main(["run-vqe", "--ansatz", "hea", "--hamiltonian", "entangled", "--trials", "2",
                 "--steps", "5", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert [p.name for p in out.iterdir()] == ["trial_007.csv"]
    assert (out / "trial_007.csv").read_text() == "earlier run\n"


def _non_finite_energy(monkeypatch):
    original = optimize.energy_and_gradient

    def nan_energies(h, psi, jac):
        e, grad = original(h, psi, jac)
        return np.full_like(e, np.nan), grad

    monkeypatch.setattr(optimize, "energy_and_gradient", nan_energies)
    optimize.run_trials("hea", vqe.load_bundled("entangled"), optimize.OptConfig(), 2)


def _fiber_off_the_sphere(monkeypatch):
    monkeypatch.setattr(geometry, "base_coordinates", lambda state: np.array([0.0, 4, 0, 0, 0]))
    geometry.hopf_fiber(np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("fail, message", [
    (_fiber_off_the_sphere, "|z|^2 + |w|^2 = 4.0 exceeds 1"),
    (lambda mp: geometry._safe_arccos(np.float64(1.5)), "arccos argument 1.5 out of range"),
    (lambda mp: geometry._mfs_field(geometry.SIN_ON_DTHETA)(np.array([1.0, 0.7, 1.1, 1.3])),
     "chart requires 0 <= C < 1, got 1.0"),
    (lambda mp: geometry.christoffel(lambda x: np.diag([1.0, 0.0]), np.array([0.1, 0.2])),
     "metric nearly singular: smallest singular value 0.0"),
    (_non_finite_energy, "non-finite energy nan at step 0"),
    (lambda mp: simulator.require_normalized(np.array([2.0, 0, 0, 0])),
     "state is not normalized: ||psi|| is 1.0 away from 1"),
    (lambda mp: simulator.expectation(np.array([1.0, 0, 0, 0]), 1j * np.eye(4)),
     "expectation has non-negligible imaginary part 1.0"),
], ids=["fiber", "arccos", "mfs-chart", "conditioning", "energy", "normalization", "residue"])
def test_error_messages_print_computed_numbers_as_plain_floats(monkeypatch, fail, message):
    # each of these printed its number as np.float64(...)
    with pytest.raises((ValueError, RuntimeError)) as exc:
        fail(monkeypatch)
    assert str(exc.value) == message and "np.float64" not in str(exc.value)


def test_cli_reads_negative_numbers_as_values(tmp_path, capsys):
    # argparse read only -1 and -0.5 style tokens as values, so these were refused as options
    for theta, first in (("-0.1,0.2,0.3,0.4", -0.1), ("-.5,0,0,0", -0.5), ("-1e-1,0,0,0", -0.1)):
        assert main(["hopf", "--ansatz", "hea", "--theta", theta]) == 0
        assert json.loads(capsys.readouterr().out)["theta"][0] == first
    prefix = tmp_path / "scan"
    assert main(["scan-landscape", "--ansatz", "hea", "--grid", "5", "--clip", "-1e1", "8",
                 "--out", str(prefix)]) == 0
    assert json.loads((tmp_path / "scan_meta.json").read_text())["clip"] == [-10.0, 8.0]
    capsys.readouterr()
    # a non-finite bound now reaches the finite-bounds check, and a negative rate its own
    for argv in (["scan-landscape", "--ansatz", "hea", "--clip", "-inf", "1"],
                 ["scan-landscape", "--ansatz", "hea", "--clip", "-Infinity", "1"],
                 ["scan-landscape", "--ansatz", "hea", "--clip", "-nan", "1"],
                 ["run-vqe", "--ansatz", "hea", "--hamiltonian", "entangled", "--lr", "-1e-2"]):
        assert main([*argv, "--out", str(tmp_path / "refused")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert "clip bounds must be finite" in err or "learning_rate must be positive" in err
    assert not (tmp_path / "refused").exists() and not (tmp_path / "refused.csv").exists()


@pytest.mark.parametrize("flag,name", [("--lr", "learning_rate"), ("--rcond", "rcond"),
                                       ("--epsilon", "epsilon")])
@pytest.mark.parametrize("inversion", ["pinv", "tikhonov"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_rejects_non_finite_step_and_inversion_settings(tmp_path, capsys, flag, name,
                                                            inversion, value):
    assert main(["run-vqe", "--ansatz", "ldca", "--hamiltonian", "entangled", "--optimizer", "qng",
                 "--inversion", inversion, flag, value, "--trials", "1", "--steps", "2",
                 "--out", str(tmp_path / "run")]) == 2
    assert f"{name} must be positive and finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize("args", [
    ["--seed", "-1"],
    ["--trials", "0"],
    ["--hamiltonian", "entangeld"],
    ["--hamiltonian", "missing.json"],
    ["--hamiltonian", "huge.json"],
])
def test_refused_run_vqe_leaves_out_untouched(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.json").write_text('{"nu": [%d, 0, 0, 0, 0, 0]}' % 10**400)
    argv = ["run-vqe", "--ansatz", "ldca", "--hamiltonian", "entangled", "--trials", "1",
            "--steps", "2", "--seed", "0", "--out", "run"]
    flag = argv.index(args[0])
    argv[flag + 1] = args[1]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "run").exists()
    if args[0] == "--seed":
        assert "seed must be a non-negative integer, got -1" in err[0]
    if args[1] == "entangeld":  # the misspelt name is listed with the bundled names
        assert all(f"'{name}'" in err[0] for name in ("entangeld", "entangled", "product"))


def test_scan_out_of_memory_exits_2_without_output(tmp_path, capsys, monkeypatch):
    # a --grid of 100000 asks numpy for 74.5 GiB; the MemoryError is raised here
    # instead of allocated for real
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000) and data type float64")

    monkeypatch.setattr(harness, "scan_landscape", out_of_memory)
    assert main(["scan-landscape", "--ansatz", "hea", "--grid", "100000",
                 "--out", str(tmp_path / "scan" / "grid")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: Unable to allocate 74.5 GiB for an array with shape "
                   "(100000, 100000) and data type float64"]
    assert not any(tmp_path.iterdir())


def test_bundled_name_and_its_json_file_give_identical_runs(tmp_path):
    # the same Hamiltonian through vqe.load_bundled and through Hamiltonian.from_json
    path = tmp_path / "entangled.json"
    path.write_text(json.dumps(vqe.load_bundled("entangled").to_dict()))
    outs = []
    for source in ("entangled", str(path)):
        outs.append(tmp_path / f"run{len(outs)}")
        assert main(["run-vqe", "--ansatz", "qgan", "--hamiltonian", source,
                     "--optimizer", "qng", "--trials", "3", "--steps", "20", "--seed", "5",
                     "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["summary.json", "trial_000.csv", "trial_001.csv", "trial_002.csv"]
    assert sorted(p.name for p in outs[1].iterdir()) == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_run_vqe_and_scan(tmp_path, capsys):
    rc = main(["run-vqe", "--ansatz", "ldca", "--hamiltonian", "entangled",
               "--optimizer", "qng", "--metric", "diag", "--trials", "2",
               "--steps", "10", "--seed", "1", "--out", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "summary.json").exists()
    rc = main(["scan-landscape", "--ansatz", "qgan", "--scan", "1", "2",
               "--fix", "5=1.5707963267948966", "--grid", "9",
               "--out", str(tmp_path / "scape")])
    assert rc == 0
    assert (tmp_path / "scape.csv").exists()
    rc = main(["scan-landscape", "--ansatz", "hea", "--scan", "1", "2",
               "--fix", "oops", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_rerun_with_fewer_trials_removes_stale_trial_files(tmp_path):
    _experiment(tmp_path, trials=3)
    _experiment(tmp_path, trials=1)
    assert sorted(p.name for p in tmp_path.glob("trial_*.csv")) == ["trial_000.csv"]


def _run_vqe_summary(tmp_path, *extra):
    out = tmp_path / "_".join(extra or ("default",))
    assert main(["run-vqe", "--ansatz", "ldca", "--hamiltonian", "entangled",
                 "--optimizer", "qng", "--trials", "2", "--steps", "6", "--seed", "3",
                 "--out", str(out), *extra]) == 0
    steps = [len((out / f"trial_{k:03d}.csv").read_text().splitlines()) - 2 for k in range(2)]
    return json.loads((out / "summary.json").read_text()), steps


def test_summary_records_inversion_and_qng_fallback_steps(tmp_path):
    # rcond 2 keeps no eigenvalue, so every update of a "qng" run is a plain GD step
    summary, steps = _run_vqe_summary(tmp_path, "--rcond", "2")
    assert summary["inversion"] == {"policy": "pinv", "rcond": 2.0}
    assert summary["qng_fallback_steps"] == steps and min(steps) > 0
    summary, _ = _run_vqe_summary(tmp_path)
    assert summary["inversion"] == {"policy": "pinv", "rcond": 1e-8}
    assert summary["qng_fallback_steps"] == [0, 0]
    summary, _ = _run_vqe_summary(tmp_path, "--inversion", "tikhonov", "--epsilon", "0.01")
    assert summary["inversion"] == {"policy": "tikhonov", "epsilon": 0.01}
    assert summary["qng_fallback_steps"] == [0, 0]


def _assert_outputs_finite(out):
    for csv in out.glob("trial_*.csv"):
        assert np.all(np.isfinite(np.loadtxt(csv, delimiter=",", skiprows=1))), csv
    # json writes a non-finite float as NaN, Infinity or -Infinity
    json.loads((out / "summary.json").read_text(),
               parse_constant=lambda name: pytest.fail(f"summary.json holds {name}"))


@pytest.mark.parametrize("scale", [1e5, 1e8])
def test_large_valid_hamiltonian_runs(tmp_path, scale):
    # the imaginary residue of <psi|H|psi> grows with H; at 1e5 times the bundled
    # coefficients it passed 1e-12 and qgan, shea and ldca exited 2
    ham = vqe.load_bundled("entangled")
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"nu": [scale * v for v in ham.nu], "label": "scaled"}))
    for kind in ("qgan", "shea", "ldca"):
        out = tmp_path / kind
        assert main(["run-vqe", "--ansatz", kind, "--hamiltonian", str(path), "--trials", "2",
                     "--steps", "5", "--optimizer", "qng", "--out", str(out)]) == 0
        _assert_outputs_finite(out)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors, e.g. "--clip -inf 1"
        return exc.code


def test_cli_boundary_property_scan_and_hamiltonian_json(tmp_path):
    # seeded random --scan/--fix combinations and mutated Hamiltonian JSON documents:
    # every one exits 0 or 2 through cli.main, none raises
    rng = np.random.default_rng(20260808)
    values = ["1.5", "-2", "0", "nan", "inf", "-inf", "1e400", "abc", "", "1=2"]
    for _ in range(200):
        kind = ansatz.ANSATZE[rng.integers(5)]
        m = ansatz.param_count(kind)
        argv = ["scan-landscape", "--ansatz", kind, "--scan",
                *(str(i) for i in rng.integers(-1, m + 2, size=2)),
                "--grid", str(rng.integers(-1, 4)), "--out", str(tmp_path / "scan")]
        for _ in range(rng.integers(4)):
            fix = f"{rng.integers(-1, m + 2)}={values[rng.integers(len(values))]}"
            argv += ["--fix", fix if rng.random() < 0.9 else fix.split("=")[0]]
        if rng.random() < 0.2:
            argv += ["--clip", *(values[rng.integers(6)] for _ in range(2))]
        assert _exit_code(argv) in (0, 2), argv

    bad_values = [None, "1", True, [], {}, [1.0], float("nan"), float("inf"), -float("inf"),
                  1e308, -1e308, 10**400, -(10**400)]
    nu = [-0.71, 0.018, -0.018, 0.01, 0.3, 0.3]
    path = tmp_path / "ham.json"
    for _ in range(200):
        doc = {"nu": list(nu), "label": "mutated"}
        for _ in range(rng.integers(1, 4)):
            op = rng.integers(6)
            target = doc.get("nu") if isinstance(doc, dict) else None
            if op == 0 and isinstance(target, list) and target:
                target[rng.integers(len(target))] = bad_values[rng.integers(len(bad_values))]
            elif op == 1 and isinstance(target, list):
                doc["nu"] = target[:rng.integers(len(target) + 1)] + [0.1] * rng.integers(3)
            elif op == 2:
                doc = [doc] if rng.random() < 0.5 else {"hamiltonian": doc}
            elif op == 3 and isinstance(doc, dict):
                doc["nu"] = bad_values[rng.integers(len(bad_values))]
            elif op == 4 and isinstance(doc, dict):
                doc["label"] = bad_values[rng.integers(len(bad_values))]
            elif op == 5:
                doc = bad_values[rng.integers(len(bad_values))]
        text = json.dumps(doc)
        path.write_text(text[:rng.integers(len(text) + 1)] if rng.random() < 0.1 else text)
        argv = ["run-vqe", "--ansatz", "hea", "--hamiltonian", str(path), "--trials", "1",
                "--steps", "2", "--out", str(tmp_path / "vqe")]
        code = _exit_code(argv)
        assert code in (0, 2), text
        if code == 0:
            _assert_outputs_finite(tmp_path / "vqe")


# --- the record-based trace writer and summary that Trace replaced ---

_Record = namedtuple("_Record", "step theta energy energy_error concurrence ricci grad_norm "
                                "qng_fallback")


def _records(trace):
    return [_Record(step, theta, *values) for step, (theta, *values) in enumerate(zip(
        trace.theta, trace.energy.tolist(), trace.energy_error.tolist(),
        trace.concurrence.tolist(), trace.ricci.tolist(), trace.grad_norm.tolist(),
        trace.qng_fallback.tolist()))]


def _reference_fmt(x):
    return repr(float(x))


def _reference_write_trace_csv(path, trace):
    m = len(trace[0].theta)
    header = ["step", "energy", "energy_error", "concurrence", "ricci",
              "grad_norm"] + [f"theta_{j + 1}" for j in range(m)]
    lines = [",".join(header)]
    for rec in trace:
        row = [str(rec.step), _reference_fmt(rec.energy), _reference_fmt(rec.energy_error),
               _reference_fmt(rec.concurrence), _reference_fmt(rec.ricci),
               _reference_fmt(rec.grad_norm)] + [_reference_fmt(v) for v in rec.theta]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _reference_padded_series(traces, attr, n_steps):
    out = np.empty((len(traces), n_steps + 1))
    for i, trace in enumerate(traces):
        vals = [getattr(rec, attr) for rec in trace]
        vals += [vals[-1]] * (n_steps + 1 - len(vals))
        out[i] = vals
    return out


def _reference_steps_to_threshold(trace, threshold=optimize.CHEMICAL_ACCURACY):
    for rec in trace:
        if rec.energy_error <= threshold:
            return rec.step
    return None


def _reference_summarize(traces, config):
    n_steps = config.max_steps
    summary = {"steps": list(range(n_steps + 1))}
    for attr in ("energy_error", "concurrence", "ricci"):
        series = _reference_padded_series(traces, attr, n_steps)
        summary[f"{attr}_mean"] = [float(v) for v in series.mean(axis=0)]
        summary[f"{attr}_std"] = [float(v) for v in series.std(axis=0)]
    stt = [_reference_steps_to_threshold(t) for t in traces]
    summary["threshold"] = optimize.CHEMICAL_ACCURACY
    summary["steps_to_threshold"] = stt
    summary["reached_fraction"] = sum(s is not None for s in stt) / len(stt)
    med = float(np.median([s if s is not None else math.inf for s in stt]))
    summary["median_steps_to_threshold"] = None if math.isinf(med) else med
    return summary


@pytest.mark.parametrize("kind", ansatz.ANSATZE)
def test_trace_outputs_match_the_record_based_reference(tmp_path, kind):
    h = vqe.load_bundled("entangled")
    configs = (optimize.OptConfig(optimizer="qng", max_steps=40, tol=1e-3, seed=6),
               optimize.OptConfig(optimizer="gd", max_steps=12, tol=1e-12, seed=6),
               optimize.OptConfig(optimizer="qng", max_steps=20, tol=1e-3, seed=6,
                                  inversion=qgt.PseudoInverse(rcond=2.0)))
    lengths, fallbacks = set(), set()
    for cfg in configs:
        summary = harness.run_vqe_experiment(kind, h, cfg, 4, tmp_path)
        records = [_records(t) for t in optimize.run_trials(kind, h, cfg, 4)]
        for k, recs in enumerate(records):
            _reference_write_trace_csv(tmp_path / "reference.csv", recs)
            assert ((tmp_path / f"trial_{k:03d}.csv").read_bytes()
                    == (tmp_path / "reference.csv").read_bytes()), (cfg, k)
            lengths.add(len(recs) == cfg.max_steps + 1)
            fallbacks.update(rec.qng_fallback for rec in recs)
        assert {k: summary[k] for k in _reference_summarize(records, cfg)} \
            == _reference_summarize(records, cfg)
        assert summary["qng_fallback_steps"] == [sum(rec.qng_fallback for rec in recs)
                                                 for recs in records]
    # trials that stop early and trials that reach max_steps; rows that fall back
    assert lengths == {True, False} and fallbacks == {True, False}


# --- the gradient-check suite: batched by family, checked against its per-sample loop ---

def _per_sample_gradient_deviations(rng):
    """The gradient-check suite per sample: per family, 200 parameter rows and then one
    Hamiltonian are drawn, and each row makes its own state_and_jacobian call and prepare_state
    call of the five-point stencil's shifts. Returns its worst gradient and Jacobian deviations
    and the (family, parameters) of each sample."""
    worst_g = worst_j = 0.0
    h = 1e-3
    samples = []
    for kind in ansatz.ANSATZE:
        m = ansatz.param_count(kind)
        thetas = rng.uniform(0, 2 * np.pi, (200, m))
        ham = vqe.Hamiltonian(nu=tuple(rng.normal(size=6)))
        for theta in thetas:
            samples.append((kind, theta))
            psi, jac = ansatz.state_and_jacobian(kind, theta)
            grad = vqe.energy_and_gradient(ham, psi, jac)[1]
            shift = h * np.eye(m)
            p2, p1, m1, m2 = ansatz.prepare_state(kind, np.stack(
                [theta + 2 * shift, theta + shift, theta - shift, theta - 2 * shift]))
            fd_jac = (8 * (p1 - m1) - (p2 - m2)) / (12 * h)
            worst_j = max(worst_j, float(np.abs(fd_jac - jac.T).max()))
            e2, e1, e_1, e_2 = (vqe.energy(ham, p) for p in (p2, p1, m1, m2))
            fd = (8 * (e1 - e_1) - (e2 - e_2)) / (12 * h)
            worst_g = max(worst_g, float(np.abs(grad - fd).max()))
    return worst_g, worst_j, samples


def _gradient_detail(worst_g, worst_j):
    return (f"five-point h=1e-3: energy grad dev {worst_g:.2e}, "
            f"jacobian dev {worst_j:.2e} (tol 1e-6)")


def _batched_gradient_deviations(monkeypatch, rng):
    """The suite's result, its worst gradient and Jacobian deviations, read from the max()
    calls that keep them (the Jacobian's, then the gradient's, per family), and the
    (family, parameters) of each state_and_jacobian call it makes."""
    kept, calls = [], []

    def keeping_max(*args):
        kept.append(max(*args))
        return kept[-1]

    def recording(kind, theta):
        calls.append((kind, np.array(theta)))
        return state_and_jacobian(kind, theta)

    state_and_jacobian = ansatz.state_and_jacobian
    with monkeypatch.context() as patch:
        patch.setattr(harness, "max", keeping_max, raising=False)
        patch.setattr(ansatz, "state_and_jacobian", recording)
        result = dict(harness.VALIDATION_SUITES)["gradient-check"](rng)
    return result, kept[-1], kept[-2], calls


@pytest.mark.parametrize("seed", [7, 8], ids=["suite-seed", "seed-8"])
def test_batched_gradient_suite_matches_the_per_sample_loop(monkeypatch, seed):
    (ok, detail), worst_g, worst_j, calls = _batched_gradient_deviations(
        monkeypatch, np.random.default_rng(seed))
    ref_g, ref_j, samples = _per_sample_gradient_deviations(np.random.default_rng(seed))
    assert ok, detail
    # one call per family, on that family's samples in the order they were drawn
    expected = [(kind, np.array([t for k, t in samples if k == kind])) for kind in ansatz.ANSATZE]
    assert [kind for kind, _ in calls] == list(ansatz.ANSATZE)
    assert all(t.tobytes() == ref.tobytes() for (_, t), (_, ref) in zip(calls, expected))
    # the same states and Jacobians, batched: the Jacobian deviation keeps its bits
    assert worst_j == ref_j
    # Equal on seeds 7-10, but the energies of a stack may round otherwise than one state's. An energy of size up to
    # sum|nu| (about 10 here) is known to a few ulps, about 5e-15, and the stencil's weights
    # sum to 18 / (12 h) = 1.5e3; two such roundings per difference give 1.5e-11.
    assert abs(worst_g - ref_g) <= 1.5e-11
    assert detail == _gradient_detail(worst_g, worst_j)


def test_validation_rows_match_the_per_sample_gradient_suite_and_a_jacobian_state_path(
        monkeypatch):
    _, new_rows = harness.run_validation()

    def reference_suite(rng):
        worst_g, worst_j, _ = _per_sample_gradient_deviations(rng)
        return worst_g <= 1e-6 and worst_j <= 1e-6, _gradient_detail(worst_g, worst_j)

    # prepare_state as it was: the state half of a state and Jacobian evaluation
    monkeypatch.setattr(ansatz, "prepare_state",
                        lambda kind, theta: ansatz.state_and_jacobian(kind, theta)[0])
    monkeypatch.setattr(harness, "VALIDATION_SUITES", tuple(
        (name, reference_suite if name == "gradient-check" else fn)
        for name, fn in harness.VALIDATION_SUITES))
    _, ref_rows = harness.run_validation()
    assert [row for row in new_rows if row[0] != "gradient-check"] == \
        [row for row in ref_rows if row[0] != "gradient-check"]
    assert all(ok for name, ok, _ in new_rows + ref_rows if name == "gradient-check")


def _gradient_suite(rng):
    return dict(harness.VALIDATION_SUITES)["gradient-check"](rng)


def test_gradient_suite_catches_a_perturbed_jacobian_column(monkeypatch):
    original = ansatz.state_and_jacobian

    def perturbed(kind, theta):
        psi, jac = original(kind, theta)
        jac[..., 0] *= 1 + 1e-4
        return psi, jac

    monkeypatch.setattr(ansatz, "state_and_jacobian", perturbed)
    ok, detail = _gradient_suite(np.random.default_rng(7))
    assert not ok, detail


def test_gradient_suite_catches_a_perturbed_analytic_gradient(monkeypatch):
    original = vqe.energy_and_gradient

    def perturbed(ham, psi, jac):
        e, grad = original(ham, psi, jac)
        return e, grad * (1 + 1e-4)

    monkeypatch.setattr(vqe, "energy_and_gradient", perturbed)
    ok, detail = _gradient_suite(np.random.default_rng(7))
    assert not ok, detail


@pytest.mark.parametrize("term", range(1, 6), ids=vqe.HAMILTONIAN_TERMS[1:])
def test_gradient_suite_checks_every_hamiltonian_term(monkeypatch, term):
    # the analytic gradient of H gains 1e-4 times that of its nu_t P_t part; the identity
    # term is left out, because its gradient is zero on normalized states
    original = vqe.energy_and_gradient
    unit = vqe.Hamiltonian(nu=tuple(np.eye(6)[term]))

    def perturbed(ham, psi, jac):
        e, grad = original(ham, psi, jac)
        return e, grad + 1e-4 * ham.nu[term] * original(unit, psi, jac)[1]

    monkeypatch.setattr(vqe, "energy_and_gradient", perturbed)
    ok, detail = _gradient_suite(np.random.default_rng(7))
    assert not ok, detail


def test_gradient_suite_reads_a_gradient_error_of_1e_9(monkeypatch):
    # The analytic gradient of H gains 1e-9 nu_1 in every component, nu_1 being the identity
    # coefficient; nu_1 is standard normal, so the error is about 1e-9. The central difference
    # at h = 1e-5 read about 8e-10 on correct code, so it could not tell this error from noise.
    def figure(detail):
        return float(detail.split("energy grad dev ")[1].split(",")[0])

    ok, clean = _gradient_suite(np.random.default_rng(7))
    assert ok, clean
    original = vqe.energy_and_gradient

    def perturbed(ham, psi, jac):
        e, grad = original(ham, psi, jac)
        return e, grad + 1e-9 * ham.nu[0]

    monkeypatch.setattr(vqe, "energy_and_gradient", perturbed)
    ok, off = _gradient_suite(np.random.default_rng(7))
    assert ok, off  # far inside the 1e-6 tolerance
    assert figure(off) >= 10 * figure(clean), (clean, off)


def test_gradient_suite_memory_is_bounded():
    # the largest share is qgan-aug's (4, k, 9, 4) shifted states and their temporaries
    assert _traced_peak_mb(_gradient_suite, np.random.default_rng(7)) <= 4.0


# --- each validate input evaluated once ---

def _call_log(monkeypatch, *targets):
    """Log (function name, first argument if it is a family name) for each call of the
    (module, name) targets."""
    log = []
    for module, name in targets:
        def logged(*args, _original=getattr(module, name), _name=name):
            log.append((_name, args[0] if isinstance(args[0], str) else None))
            return _original(*args)
        monkeypatch.setattr(module, name, logged)
    return log


def test_gradient_suite_evaluates_each_family_once(monkeypatch):
    log = _call_log(monkeypatch, (ansatz, "state_and_jacobian"), (ansatz, "prepare_state"),
                    (vqe, "energy"), (vqe, "energy_and_gradient"))
    ok, detail = _gradient_suite(np.random.default_rng(7))
    assert ok, detail
    for name in ("state_and_jacobian", "prepare_state"):
        assert [kind for called, kind in log if called == name] == list(ansatz.ANSATZE), name
    for name in ("energy", "energy_and_gradient"):
        assert sum(called == name for called, _ in log) == len(ansatz.ANSATZE), name


def test_qgt_suite_evaluates_each_family_once_and_calls_no_fs_metric(monkeypatch):
    log = _call_log(monkeypatch, (ansatz, "state_and_jacobian"), (qgt, "fs_metric"))
    ok, detail = dict(harness.VALIDATION_SUITES)["qgt-structure"](np.random.default_rng(7))
    assert ok, detail
    assert log == [("state_and_jacobian", kind) for kind in ansatz.ANSATZE]


def _qgt_suite_with_metrics(monkeypatch, edit=None):
    """The qgt-structure suite at seed 7 and the dense metric stack it builds per family;
    edit(kind, metric), if given, changes each stack in place before the suite reads it."""
    kinds, metrics = [], {}
    state_and_jacobian, metric_from_qgt = ansatz.state_and_jacobian, qgt._metric_from_qgt

    def recording(kind, theta):
        kinds.append(kind)
        return state_and_jacobian(kind, theta)

    def editing(g, mask):
        metrics[kinds[-1]] = metric = metric_from_qgt(g, mask)
        if edit is not None:
            edit(kinds[-1], metric)
        return metric

    with monkeypatch.context() as patch:
        patch.setattr(ansatz, "state_and_jacobian", recording)
        patch.setattr(qgt, "_metric_from_qgt", editing)
        ok, detail = dict(harness.VALIDATION_SUITES)["qgt-structure"](np.random.default_rng(7))
    return ok, detail, metrics


def _known_entry_figure(detail):
    return float(re.search(r"constant entries dev (\S+);", detail).group(1))


@pytest.mark.parametrize("kind, entry, shift, passes", [
    (ansatz.HEA, (0, 0), 1e-6, False), (ansatz.LDCA, (2, 2), 1e-6, False),
    (ansatz.HEA, (0, 1), np.nan, False), (ansatz.LDCA, (2, 4), np.nan, False),
    (ansatz.HEA, (0, 2), 1e-6, True), (ansatz.LDCA, (4, 4), 1e-6, True)],
    ids=["hea-00", "ldca-22", "hea-01-nan", "ldca-24-nan", "hea-02-free", "ldca-44-free"])
def test_qgt_suite_checks_the_known_entries_of_the_metrics_it_builds(monkeypatch, kind, entry,
                                                                     shift, passes):
    # One entry of each of kind's metrics moves. eigvalsh reads only the lower triangle, so an
    # upper entry reaches only the known-entry check: it must pass hea's free (0, 2) by, and
    # read a NaN in a known one (in the lower triangle, eigvalsh itself can raise LinAlgError).
    def edit(k, metric):
        if k == kind:
            metric[:, entry[0], entry[1]] += shift

    ok, detail, _ = _qgt_suite_with_metrics(monkeypatch, edit)
    figure = _known_entry_figure(detail)
    if passes:
        _, clean, _ = _qgt_suite_with_metrics(monkeypatch)
        assert ok and figure == _known_entry_figure(clean), detail
    elif np.isnan(shift):
        assert not ok and np.isnan(figure), detail
    else:
        assert not ok and figure == pytest.approx(shift, rel=1e-6), detail


def test_known_entry_deviation_matches_the_pass_through_construction(monkeypatch):
    # the construction it replaced: an expected metric that takes each free entry from the
    # metric itself, on the same 1,000-draw dense metrics
    ok, detail, metrics = _qgt_suite_with_metrics(monkeypatch)
    assert ok, detail
    g = metrics[ansatz.HEA]
    assert g.shape == (1000, 4, 4)
    expected = np.broadcast_to(np.eye(4), g.shape).copy()
    for (i, j) in ((0, 2), (1, 3), (2, 3)):
        expected[:, i, j] = expected[:, j, i] = g[:, i, j]
    hea = float(np.abs(g - expected).max())
    g = metrics[ansatz.LDCA]
    assert g.shape == (1000, 5, 5)
    expected = np.zeros_like(g)
    expected[:, 2, 2] = 1.0
    expected[:, 4, 4] = g[:, 4, 4]
    ldca = float(np.abs(g - expected).max())
    assert harness._known_entry_dev(ansatz.HEA, metrics[ansatz.HEA]) == hea
    assert harness._known_entry_dev(ansatz.LDCA, metrics[ansatz.LDCA]) == ldca
    assert f"constant entries dev {max(hea, ldca):.1e};" in detail


def _chart_suite_per_point():
    """validate's chart suite as it was: per-point metrics, one curvature call per point."""
    s2 = lambda x: np.diag([1.0, np.sin(x[0]) ** 2])
    dev_s2 = max(abs(geometry.scalar_curvature_numeric(s2, [th, 0.3]) - 2.0)
                 for th in np.linspace(0.4, np.pi - 0.4, 20))
    dev_flat = abs(geometry.scalar_curvature_numeric(lambda x: np.eye(4), [0.1, 0.2, 0.3, 0.4]))
    devs = {}
    for conv in geometry.CHART_CONVENTIONS:
        mfs = lambda x: geometry.mfs_metric(x[0], x[1], x[2], x[3], convention=conv)
        devs[conv] = max(abs(geometry.scalar_curvature_numeric(mfs, np.array([c, 0.7, 1.1, 1.3]))
                             - geometry.ricci_closed(c)) for c in np.arange(0.1, 0.91, 0.1))
    return dev_s2, dev_flat, devs


def test_chart_suite_matches_its_per_point_version(monkeypatch):
    dev_s2, dev_flat, devs = _chart_suite_per_point()
    sphere = np.stack(np.broadcast_arrays(np.linspace(0.4, np.pi - 0.4, 20), 0.3), axis=-1)
    r = geometry.scalar_curvature_stack(harness._round_sphere, sphere)
    s2 = lambda x: np.diag([1.0, np.sin(x[0]) ** 2])
    assert r.tolist() == [geometry.scalar_curvature_numeric(s2, p) for p in sphere]
    assert float(np.abs(r - 2.0).max()) == dev_s2
    assert geometry.resolve_chart_convention() == (geometry.SIN_ON_DTHETA, devs)
    # every curvature goes through the stacked entry: the sphere sweep, the flat point, and one
    # stack per convention
    log = _call_log(monkeypatch, (geometry, "scalar_curvature_stack"),
                    (geometry, "scalar_curvature_numeric"))
    ok, detail = harness._suite_chart(np.random.default_rng(7))
    assert [name for name, _ in log] == ["scalar_curvature_stack"] * 4
    assert ok and detail == (
        f"sphere dev {dev_s2:.1e}, flat dev {dev_flat:.1e}; resolved convention "
        f"{geometry.SIN_ON_DTHETA} (deviations "
        f"{{{', '.join(f'{k}: {v:.2e}' for k, v in devs.items())}}})")

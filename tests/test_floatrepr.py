"""The vectorized ``repr`` kernel against ``repr``, value by value and as
the bytes of a saved CSV."""
from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsadv import dataset as ds
from icsadv import floatrepr, forking

SWITCH_POINTS = [1e-05, 0.0001, 9999999999999998.0, 1e16]


def _around(values, ulps):
    """Each value and its neighbours up to ``ulps`` units away, both signs;
    the finite ones."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    steps = np.arange(2 * ulps + 1, dtype=np.uint64) - np.uint64(ulps)
    out = (bits[:, None] + steps).ravel().view(np.float64)  # wraps past 0
    out = out[np.isfinite(out)]
    return np.concatenate([out, -out])


def edge_values():
    """Powers of two and ten across the exponent range with their nearest
    neighbours, the switch points of fixed notation, integers around 2**53
    and from 10**15 to 10**17, the smallest subnormals, and the extremes;
    both signs."""
    powers_of_ten = [float("1e%d" % e) for e in range(-323, 309)]
    decades = [float(10 ** e) for e in (15, 16, 17)]
    return np.concatenate([
        _around(np.ldexp(1.0, np.arange(-1074, 1024)), 3),
        _around(powers_of_ten, 3),
        _around(SWITCH_POINTS, 50),
        _around(decades, 1000),
        _around([2.0 ** 53], 2000),
        np.arange(1, 10000, dtype=np.uint64).view(np.float64),
        [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    ])


def kernel_text(x):
    """The kernel's bytes for the values ``x``, each followed by a comma."""
    chars, keep = floatrepr.repr_cells(x)
    assert not keep[..., -1].any()
    chars[..., -1] = ord(",")
    keep[..., -1] = True
    return chars[keep].tobytes()


def assert_reprs(x):
    x = np.asarray(x, dtype=np.float64)
    want = ("%r," * x.size % tuple(x.ravel().tolist())).encode("ascii")
    got = kernel_text(x)
    if got != want:
        wrong = [(v, g, w) for v, g, w in zip(x.ravel().tolist(), got.split(b","),
                                              want.split(b",")) if g != w]
        pytest.fail("value, kernel, repr: %r" % wrong[:5])


def test_matches_repr_on_a_million_values():
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2 ** 64, 500_000, dtype=np.uint64, endpoint=False)
    patterns = bits.view(np.float64)
    integers = rng.integers(10 ** 15, 10 ** 17, 100_000).astype(np.float64)
    assert_reprs(np.concatenate([
        patterns[np.isfinite(patterns)],  # subnormals too, one in 2048
        rng.random(300_000),
        integers, -integers,
        edge_values(),
    ]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_matches_repr_on_hypothesis_floats(values):
    assert_reprs(values)


@pytest.mark.parametrize("shape", [(0,), (1,), (0, 4), (2, 3), (3, 1, 2)])
def test_one_layout_per_value(shape):
    x = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) - 2.5
    chars, keep = floatrepr.repr_cells(x)
    assert chars.shape == keep.shape == shape + (floatrepr.WIDTH,)
    assert chars.dtype == np.uint8 and keep.dtype == bool
    assert_reprs(x)


def test_the_digit_split_is_exact_for_every_lane_value():
    """``_swar8`` divides each 4-digit half by 100 and each 2-digit
    quarter by 10 with multiply-shifts: every lane value, in both halves."""
    k = np.arange(10000, dtype=np.uint64)
    x = np.concatenate([k, k * np.uint64(10000), k * np.uint64(10001)])
    got = floatrepr._swar8(x).astype("<u8").view(np.uint8).reshape(-1, 8)
    want = np.frombuffer("".join("%08d" % v for v in x.tolist()).encode(),
                         dtype=np.uint8).reshape(-1, 8) - ord("0")
    np.testing.assert_array_equal(got, want)


def _schema(n_features):
    return ds.Schema(tuple(ds.Feature("LIT,%d" % i, ds.SENSOR)
                           for i in range(n_features)))


def _row_writer(data, path):
    """The package's CSV format written one row at a time: ``repr`` of
    each cell, then the label token and CRLF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(data.schema.feature_names
                                + [data.schema.label_column])
        for row, label in zip(data.X.tolist(), data.y.tolist()):
            fh.write(",".join(map(repr, row)) + ","
                     + (ds.ATTACK_TOKEN if label else ds.NORMAL_TOKEN) + "\r\n")


def _edge_dataset(n_rows, n_features=7):
    """A dataset holding every fourth edge value, negatives included."""
    values = edge_values()[::4]
    X = np.resize(values, (n_rows, n_features))
    return ds.Dataset(_schema(n_features), X, np.arange(n_rows) % 3 == 0)


class TestSaveCsv:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block_cells", [3, 20, ds.BLOCK_CELLS])
    def test_writes_what_a_row_writer_writes(self, tmp_path, monkeypatch,
                                             workers, block_cells):
        """Blocks of one row (3 cells are under a row of 7), of two rows,
        and the default size; the edge values fill 1,050 rows."""
        monkeypatch.setattr(ds, "BLOCK_CELLS", block_cells)
        monkeypatch.setattr(forking, "worker_count",
                            lambda n_jobs: min(workers, n_jobs))
        data = _edge_dataset(1050)
        ds.save_csv(data, tmp_path / "saved.csv")
        _row_writer(data, tmp_path / "rows.csv")
        assert (tmp_path / "saved.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_blocks_of_no_row_and_one_row(self, tmp_path, n_rows):
        data = _edge_dataset(n_rows)
        assert ds.format_block(data, 0) == b"".join(
            b"%s,%s\r\n" % (b",".join(repr(v).encode() for v in row),
                            ds.ATTACK_TOKEN.encode())
            for row in data.X.tolist())
        ds.save_csv(data, tmp_path / "saved.csv")
        _row_writer(data, tmp_path / "rows.csv")
        assert (tmp_path / "saved.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

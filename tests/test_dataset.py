"""Dataset layer: schema validation, CSV round trips, scaling, splits."""
from __future__ import annotations

import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsadv import dataset as ds
from icsadv import forking
from icsadv.errors import (
    EmptyInputError,
    InputContractError,
    LabelError,
    ParameterError,
    ParseError,
    SchemaMismatchError,
    ShapeError,
)


def small_schema(n=3):
    feats = tuple(
        ds.Feature("LIT%d01" % (i + 1), ds.SENSOR) for i in range(n)
    )
    return ds.Schema(feats)


def small_dataset(n_rows=6, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    schema = small_schema(n_features)
    X = rng.normal(50, 10, (n_rows, n_features))
    y = rng.integers(0, 2, n_rows)
    return ds.Dataset(schema, X, y)


class TestSchema:
    def test_json_round_trip(self):
        schema = ds.Schema(
            (ds.Feature("LIT101", "sensor"), ds.Feature("P101", "actuator")),
            label_column="Normal/Attack",
        )
        again = ds.Schema.from_json(schema.to_json())
        assert again == schema
        assert again.kind_of("P101") == "actuator"
        assert again.index_of("LIT101") == 0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            ds.Schema((ds.Feature("A", "sensor"), ds.Feature("A", "sensor")))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            ds.Schema((ds.Feature("A", "pump"),))

    def test_label_collision_rejected(self):
        with pytest.raises(ParameterError, match="collides"):
            ds.Schema((ds.Feature("A", "sensor"),), label_column="A")

    def test_empty_schema_rejected(self):
        with pytest.raises(ParameterError):
            ds.Schema(())

    @pytest.mark.parametrize("path", [("features", 0, "name"),
                                      ("features", 0, "kind"), ("label",)])
    @pytest.mark.parametrize("value", [None, 7, True, ["A"]])
    def test_names_kinds_and_label_must_be_strings(self, path, value):
        """null is not read as a feature named "None", nor 7 as "7"."""
        doc = ds.Schema((ds.Feature("A", "sensor"),)).to_json()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ParseError, match="not a JSON string"):
            ds.Schema.from_json(doc)


class TestLabels:
    @pytest.mark.parametrize(
        "token,value",
        [("Normal", 0), ("normal", 0), (" NORMAL ", 0), ("Attack", 1), ("aTTack", 1)],
    )
    def test_encode_tolerates_case_and_space(self, token, value):
        assert ds.label_encode(token) == value

    def test_unknown_token_rejected(self):
        with pytest.raises(LabelError, match="anomaly"):
            ds.label_encode("anomaly")

    @given(st.sampled_from(["normal", "attack"]), st.data())
    def test_encode_decode_round_trip_any_casing(self, word, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
        token = "".join(c.upper() if up else c for c, up in zip(word, mask))
        assert ds._TOKENS[ds.label_encode(token)].lower() == word


class TestDatasetObject:
    def test_basic_shape_checks(self):
        schema = small_schema(2)
        with pytest.raises(ShapeError, match="ndim 2"):
            ds.Dataset(schema, np.zeros(4), np.zeros(4, dtype=int))
        with pytest.raises(ShapeError, match=r"labels .*\(3,\)"):
            ds.Dataset(schema, np.zeros((3, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ShapeError, match="width 2"):
            ds.Dataset(schema, np.zeros((3, 5)), np.zeros(3, dtype=int))

    def test_non_finite_named_by_position(self, tmp_path):
        """The dataset rejects a NaN cell; a CSV holding it names the
        file's line, not the 0-based data row, and the column."""
        schema = small_schema(2)
        X = np.zeros((3, 2))
        X[2, 1] = np.nan
        with pytest.raises(InputContractError):
            ds.Dataset(schema, X, np.zeros(3, dtype=int))
        p = tmp_path / "a.csv"
        p.write_text("LIT101,LIT201,Normal/Attack\n"
                     + "".join("%r,%r,Normal\n" % tuple(row) for row in X.tolist()))
        with pytest.raises(ParseError, match=r"a\.csv: line 4, column 'LIT201'"):
            ds.load_csv(p, schema)

    def test_bad_labels_rejected(self):
        schema = small_schema(1)
        with pytest.raises(ParameterError, match="labels"):
            ds.Dataset(schema, np.zeros((2, 1)), np.array([0, 5]))


class TestCsv:
    def test_save_load_round_trip_is_lossless(self, tmp_path):
        data = small_dataset(seed=5)
        p = tmp_path / "a.csv"
        ds.save_csv(data, p)
        again = ds.load_csv(p, data.schema)
        assert np.array_equal(again.X, data.X)  # repr floats: bit-exact
        assert np.array_equal(again.y, data.y)

    def test_save_twice_is_byte_identical(self, tmp_path):
        data = small_dataset(seed=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ds.save_csv(data, p1)
        ds.save_csv(data, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("X,Y,Normal/Attack\n1,2,Normal\n")
        with pytest.raises(SchemaMismatchError, match="header"):
            ds.load_csv(p, small_schema(2))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            ds.load_csv(p, small_schema(1))

    @pytest.mark.parametrize("text, line", [
        ("LIT101" + "0" * 200_000 + ",Normal/Attack\n1,Normal\n", 1),
        ("LIT101,Normal/Attack\n1,Normal\n" + "1" * 200_000 + ",Normal\n", 3),
    ])
    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path, text,
                                                         line):
        """A field longer than csv.field_size_limit() (131,072 characters)
        is a ParseError naming the file and the line, not a csv.Error."""
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="a.csv: line %d: field larger" % line):
            ds.load_csv(p, small_schema(1))

    def test_saved_name_over_the_csv_limit_names_file_and_line(self, tmp_path):
        """A column name over the csv module's field limit is saved, and
        loading it is a ParseError naming line 1, as for any header."""
        schema = ds.Schema((ds.Feature("LIT" + "1" * 131_070, ds.SENSOR),))
        p = tmp_path / "a.csv"
        ds.save_csv(ds.Dataset(schema, [[0.5]], [0]), p)
        with pytest.raises(ParseError, match="a.csv: line 1: field larger"):
            ds.load_csv(p, schema)

    def test_bad_cell_names_line_and_column(self, tmp_path):
        """A cell that is not a number, and one that float() parses but is
        not finite, each name the file, line and column."""
        schema = small_schema(2)
        p = tmp_path / "a.csv"
        for cell in ("oops", "nan", "inf", "-inf"):
            p.write_text(
                "LIT101,LIT201,Normal/Attack\n1.0,2.0,Normal\n1.0,%s,Attack\n" % cell
            )
            with pytest.raises(ParseError,
                               match=r"a\.csv: line 3, column 'LIT201'.*%s" % cell):
                ds.load_csv(p, schema)

    def test_bad_label_names_line(self, tmp_path):
        schema = small_schema(1)
        p = tmp_path / "a.csv"
        p.write_text("LIT101,Normal/Attack\n1.0,Normal\n2.0,Anomaly\n")
        with pytest.raises(LabelError, match="line 3"):
            ds.load_csv(p, schema)

    def test_ragged_row_rejected(self, tmp_path):
        schema = small_schema(2)
        p = tmp_path / "a.csv"
        p.write_text("LIT101,LIT201,Normal/Attack\n1.0,Normal\n")
        with pytest.raises(ParseError, match="line 2.*fields"):
            ds.load_csv(p, schema)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"\xff\xfeL\x00I\x00T\x00")  # a UTF-16 byte order mark
        with pytest.raises(ParseError, match="a.csv.*UTF-8"):
            ds.load_csv(p, small_schema(1))

    def test_header_with_a_comma_round_trips(self, tmp_path):
        schema = ds.Schema((ds.Feature("LIT,101", ds.SENSOR),))
        data = ds.Dataset(schema, [[0.5], [0.25]], [0, 1])
        p = tmp_path / "a.csv"
        ds.save_csv(data, p)
        assert p.read_bytes() == b'"LIT,101",Normal/Attack\r\n0.5,Normal\r\n0.25,Attack\r\n'
        assert np.array_equal(ds.load_csv(p, schema).X, data.X)

    def test_large_file_counts(self, tmp_path):
        # composition of a full-scale plant log: 449,919 rows of which
        # 53,900 carry the attack label
        n_attack, n_normal = 53_900, 396_019
        p = tmp_path / "big.csv"
        with open(p, "w") as fh:
            fh.write("LIT101,Normal/Attack\n")
            fh.writelines("0.5,Normal\n" for _ in range(n_normal))
            fh.writelines("0.7,Attack\n" for _ in range(n_attack))
        data = ds.load_csv(p, small_schema(1))
        assert data.n_rows == 449_919
        assert int(data.y.sum()) == n_attack
        assert int((data.y == 0).sum()) == n_normal


H1 = "LIT101,Normal/Attack\n"
H2 = "LIT101,LIT201,Normal/Attack\n"
ONE, TWO = ("LIT101",), ("LIT101", "LIT201")
# name: (feature names, file text, outcome of the line-by-line reader alone):
# the rows and labels it read, or the class and message (the file's path
# as {path}) it raised
READER_CORPUS = {
    "blank-line": (ONE, H1 + "1.0,Normal\n\n2.0,Attack\n",
                   (ParseError, "{path}: line 3 has 0 fields, expected 2")),
    "whitespace-line": (ONE, H1 + "1.0,Normal\n  \t\n",
                        (ParseError, "{path}: line 3 has 1 fields, expected 2")),
    "whitespace-cell": (ONE, H1 + " ,Normal\n", (
        ParseError, "{path}: line 2, column 'LIT101': cannot parse ' ' as a number")),
    "label-only": (ONE, H1 + ",Normal\n", (
        ParseError, "{path}: line 2, column 'LIT101': cannot parse '' as a number")),
    "quoted-number": (ONE, H1 + '"1.5",Normal\n2.5,Attack\n', ([[1.5], [2.5]], [0, 1])),
    "quoted-header-comma": (("LIT,101",), '"LIT,101",Normal/Attack\n0.5,Normal\n',
                            ([[0.5]], [0])),
    "underscore-digits": (ONE, H1 + "1_0,Normal\n", ([[10.0]], [0])),
    "arabic-indic-digit": (ONE, H1 + "\u0663,Attack\n", ([[3.0]], [1])),
    "hash-cell": (ONE, H1 + "1.0,Normal\n#0.5,Normal\n", (
        ParseError, "{path}: line 3, column 'LIT101': cannot parse '#0.5' as a number")),
    "lone-cr-endings": (TWO, H2.replace("\n", "\r") + "1.0,-0.0,Normal\r2.5,3e-320,Attack\r",
                        ([[1.0, -0.0], [2.5, 3e-320]], [0, 1])),
    "lone-cr-blank-line": (ONE, H1 + "1.0,Normal\r\r2.0,Attack\n",
                           (ParseError, "{path}: line 3 has 0 fields, expected 2")),
    "no-final-line-end": (TWO, H2 + "1.0,2.0,Normal\n0.1,-7.25,Attack",
                          ([[1.0, 2.0], [0.1, -7.25]], [0, 1])),
    "header-only": (TWO, H2, (np.empty((0, 2)), [])),
    "over-limit-finite": (ONE, H1 + "0." + "0" * 200_000 + "1,Normal\n", (
        ParseError, "{path}: line 2: field larger than field limit (131072)")),
    "too-many-fields": (ONE, H1 + "1.0,Normal\n1.0,2.0,Normal\n",
                        (ParseError, "{path}: line 3 has 3 fields, expected 2")),
    "too-few-fields": (TWO, H2 + "1.0,2.0,Normal\n1.0,Normal\n",
                       (ParseError, "{path}: line 3 has 2 fields, expected 3")),
    "bad-label": (TWO, H2 + "1.0,2.0,Normal\n1.0,2.0,Anomaly\n", (
        LabelError,
        "{path}: line 3: unknown label token 'Anomaly' (expected Normal or Attack)")),
    "nan-cell": (TWO, H2 + "1.0,2.0,Normal\n1.0,nan,Attack\n", (
        ParseError, "{path}: line 3, column 'LIT201': nan is not a finite number")),
    "inf-cell": (TWO, H2 + "1.0,2.0,Normal\n-inf,2.0,Attack\n", (
        ParseError, "{path}: line 3, column 'LIT101': -inf is not a finite number")),
    "nan-then-bad-label": (ONE, H1 + "nan,Normal\n1.0,Anomaly\n", (
        LabelError,
        "{path}: line 3: unknown label token 'Anomaly' (expected Normal or Attack)")),
    "spaced-cells-and-label": (TWO, H2 + " 1.5 ,\t-2e3, attack \r\n",
                               ([[1.5, -2000.0]], [1])),
    "nul-in-cell": (ONE, H1 + "1.0\x00,Normal\n", (
        ParseError,
        "{path}: line 2, column 'LIT101': cannot parse '1.0\\x00' as a number")),
    "nul-after-label": (ONE, H1 + "1.0,Normal\x00\n", (
        LabelError,
        "{path}: line 2: unknown label token 'Normal\\x00' (expected Normal or Attack)")),
    "needless-header-quotes": (ONE, '"LIT101","Normal/Attack"\r\n1.0,Normal\r\n',
                               ([[1.0]], [0])),
    "bom-header": (ONE, "\ufeff" + H1 + "1.0,Normal\n", (
        SchemaMismatchError, "{path}: header ['\\ufeffLIT101', 'Normal/Attack'] "
                             "does not match schema columns ['LIT101', 'Normal/Attack']")),
    "lone-cr-header": (TWO, H2.replace("\n", "\r") + "1.0,-0.0,Normal\n2.5,3e-320,Attack\n",
                       ([[1.0, -0.0], [2.5, 3e-320]], [0, 1])),
}


def _assert_reads_as(path, names, expected, labels):
    """``load_csv`` of ``path`` gives the rows and labels ``expected`` and
    ``labels``, bit for bit, or raises the class ``expected`` with the
    message ``labels``."""
    schema = ds.Schema(tuple(ds.Feature(n, ds.SENSOR) for n in names))
    if isinstance(expected, type):
        with pytest.raises(expected) as info:
            ds.load_csv(path, schema)
        assert type(info.value) is expected
        assert str(info.value) == labels.format(path=path)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on an empty body
        data = ds.load_csv(path, schema)
    expected = np.asarray(expected, dtype=np.float64)
    assert data.X.shape == expected.shape
    assert np.array_equal(data.X.view(np.uint64), expected.view(np.uint64))
    assert data.y.tolist() == labels


class TestReaders:
    """``load_csv`` reads a body with numpy and falls back to the
    line-by-line reader; either way a file gives what that reader alone
    gave."""

    @pytest.mark.parametrize("name", list(READER_CORPUS))
    def test_same_bits_or_same_error(self, tmp_path, name):
        names, text, (expected, labels) = READER_CORPUS[name]
        p = tmp_path / "a.csv"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        _assert_reads_as(p, names, expected, labels)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", list(READER_CORPUS))
    def test_same_bits_or_same_error_in_spans(self, tmp_path, monkeypatch, forks,
                                             name, workers):
        """The corpus cut into spans of a few dozen bytes, read by one,
        two or three forked workers."""
        monkeypatch.setattr(ds, "READ_BLOCK", 24)
        monkeypatch.setattr(forking, "worker_count", lambda n_jobs: min(workers, n_jobs))
        names, text, (expected, labels) = READER_CORPUS[name]
        p = tmp_path / "a.csv"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        _assert_reads_as(p, names, expected, labels)
        assert set(forks) <= {workers}
        assert multiprocessing.active_children() == []

    def test_a_pipe_is_read_once(self):
        """A file that cannot seek goes to the line-by-line reader alone,
        which reads what numpy refuses."""
        r, w = os.pipe()
        os.write(w, b'LIT101,Normal/Attack\n"1_0",Normal\n')
        os.close(w)
        try:
            data = ds.load_csv("/dev/fd/%d" % r, small_schema(1))
        finally:
            os.close(r)
        assert data.X.tolist() == [[10.0]]

    def test_saved_files_take_the_fast_path(self, tmp_path, monkeypatch):
        """Every file save_csv writes is read by numpy, bit for bit: a
        subnormal, a 17-digit integer, -0.0 and non-terminating fractions,
        under column names that must be quoted; so is its copy with LF line
        ends."""
        def refuse(*args):
            raise AssertionError("line-by-line reader called")

        monkeypatch.setattr(ds, "_read_rows", refuse)
        schema = ds.Schema((ds.Feature("LIT,101", ds.SENSOR), ds.Feature('P"101', ds.ACTUATOR),
                            ds.Feature("MV\n101", ds.ACTUATOR)))
        X = np.array([[5e-324, 1e16, 1.0], [-0.0, 0.1, 0.0], [1 / 3, -2 / 3, 1.0]])
        data = ds.Dataset(schema, X, [0, 1, 1])
        p, lf = tmp_path / "a.csv", tmp_path / "lf.csv"
        ds.save_csv(data, p)
        lf.write_bytes(p.read_bytes().replace(b"\r\n", b"\n"))
        assert lf.read_bytes().startswith(b'"LIT,101","P""101","MV\n101",Normal/Attack\n')
        for path in (p, lf):
            again = ds.load_csv(path, schema)
            assert np.array_equal(again.X.view(np.uint64), X.view(np.uint64))
            assert again.y.tolist() == [0, 1, 1]


# rows of a multi-span file: a subnormal, a 17-digit integer, -0.0 and
# non-terminating fractions, under mixed-case labels; over 8 kB, so that
# reading the header decodes none of the last line
SPAN_ROWS = [(5e-324, 1e16, "normal"), (-0.0, 1 / 3, "ATTACK"),
             (-2 / 3, 0.1, "Normal"), (1e16, -0.0, "aTTack")] * 100
# what the last line of that file holds in turn, and the line-by-line
# reader's outcome for it
LAST_LINES = {
    "clean": (b"0.25,0.5,attack\r\n", None),
    "bad-label": (b"0.25,0.5,Anomaly\r\n", (
        LabelError,
        "{path}: line 402: unknown label token 'Anomaly' (expected Normal or Attack)")),
    "nan": (b"0.25,nan,Normal\r\n", (
        ParseError, "{path}: line 402, column 'LIT201': nan is not a finite number")),
    "underscore-digits": (b"1_0,0.5,Normal\r\n", None),
    "no-final-line-end": (b"0.25,0.5,attack", None),
    "wide-label": (b"0.25,0.5,Normal" + b" " * 8 + b"x\r\n", (
        LabelError,
        "{path}: line 402: unknown label token 'Normal        x' "
        "(expected Normal or Attack)")),
    "blank-line": (b"\r\n0.25,0.5,Normal\r\n", (
        ParseError, "{path}: line 402 has 0 fields, expected 3")),
    "over-limit": (b"0." + b"0" * 200_000 + b"1,0.5,Normal\r\n", (
        ParseError, "{path}: line 402: field larger than field limit (131072)")),
    "non-utf8": (b"0.25,0.5,Norm\xffal\r\n", (
        ParseError, "{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
                    "in position 2249: invalid start byte")),
}


class TestForkedReader:
    """A body of two read blocks or more is read in spans by forked
    workers, to the bits or the error of one read in process."""

    @pytest.fixture
    def spans_of(self, monkeypatch):
        """512-byte read blocks and two workers; returns the file maker."""
        monkeypatch.setattr(ds, "READ_BLOCK", 512)
        monkeypatch.setattr(forking, "worker_count", lambda n_jobs: min(2, n_jobs))

        def write(path, last):
            body = b"".join(b"%r,%r,%s\r\n" % row for row in
                            [(x, y, label.encode()) for x, y, label in SPAN_ROWS])
            path.write_bytes(H2.encode() + body + last)
            return len(H2) + len(body)

        return write

    @pytest.mark.parametrize("name", list(LAST_LINES))
    def test_last_span_gives_the_line_reader_outcome(self, tmp_path, monkeypatch,
                                                      forks, spans_of, name):
        last, outcome = LAST_LINES[name]
        p = tmp_path / "a.csv"
        at = spans_of(p, last)
        assert ds._spans(p, len(H2))[-1][0] <= at  # the last line's span
        schema = small_schema(2)
        if outcome is None:
            forked = ds.load_csv(p, schema)
        else:
            with pytest.raises(outcome[0]) as info:
                ds.load_csv(p, schema)
            assert type(info.value) is outcome[0]
            assert str(info.value) == outcome[1].format(path=p)
        assert forks == [2]
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(ds, "_read_span", lambda *args: None)
        if outcome is None:
            alone = ds.load_csv(p, schema)
            assert np.array_equal(forked.X.view(np.uint64), alone.X.view(np.uint64))
            assert forked.y.tolist() == alone.y.tolist()
            assert forked.n_rows == len(SPAN_ROWS) + 1
        else:
            with pytest.raises(outcome[0], match="^%s$" % re.escape(str(info.value))):
                ds.load_csv(p, schema)

    def test_pinned_values_in_spans(self, tmp_path, forks, spans_of):
        p = tmp_path / "a.csv"
        spans_of(p, b"")
        data = ds.load_csv(p, small_schema(2))
        assert len(ds._spans(p, len(H2))) > 10
        X = np.array([row[:2] for row in SPAN_ROWS])
        assert np.array_equal(data.X.view(np.uint64), X.view(np.uint64))
        assert data.y.tolist() == [0, 1, 0, 1] * 100
        assert forks == [2]

    def test_a_worker_error_is_raised_in_the_parent(self, tmp_path, monkeypatch,
                                                   forks, spans_of):
        """An exception other than a refusal leaves the workers' spans as it
        is, with its class and message, and no worker behind. The first
        call is on the first span's first distinct label in sorted order,
        as a plain str."""
        def fails(token):
            raise RuntimeError("no label for %r" % token)

        # the workers are forked after this, so they inherit the patch
        monkeypatch.setattr(ds, "label_encode", fails)
        p = tmp_path / "a.csv"
        spans_of(p, b"")
        with pytest.raises(RuntimeError) as info:
            ds.load_csv(p, small_schema(2))
        assert type(info.value) is RuntimeError
        assert str(info.value) == "no label for 'ATTACK'"
        assert forks == [2]
        assert multiprocessing.active_children() == []

    def test_a_read_inside_a_pool_stays_in_process(self, tmp_path, forks, spans_of):
        p = tmp_path / "a.csv"
        spans_of(p, b"")
        with forking.forked_pool(1):
            data = ds.load_csv(p, small_schema(2))
        assert forks == [1]  # the open pool alone
        assert len(ds._spans(p, len(H2))) > 10
        X = np.array([row[:2] for row in SPAN_ROWS])
        assert np.array_equal(data.X.view(np.uint64), X.view(np.uint64))
        assert data.y.tolist() == [0, 1, 0, 1] * 100
        assert multiprocessing.active_children() == []

    def test_a_pipe_is_read_in_process(self, forks, spans_of):
        r, w = os.pipe()
        body = "".join("%r,%r,%s\n" % row for row in SPAN_ROWS)
        os.write(w, (H2 + body).encode())
        os.close(w)
        try:
            data = ds.load_csv("/dev/fd/%d" % r, small_schema(2))
        finally:
            os.close(r)
        assert data.n_rows == len(SPAN_ROWS)
        assert forks == []


def test_a_small_round_trip_loads_no_process_pool(tmp_path):
    """A body of one block and one span is written and read in the process,
    so neither direction imports ``multiprocessing``."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from icsadv import dataset as ds",
        "schema = ds.Schema((ds.Feature('LIT101', ds.SENSOR),))",
        "data = ds.Dataset(schema, np.arange(10.0).reshape(10, 1), [0, 1] * 5)",
        "ds.save_csv(data, sys.argv[1])",
        "again = ds.load_csv(sys.argv[1], schema)",
        "assert again.X.tolist() == data.X.tolist() and again.y.tolist() == [0, 1] * 5",
        "print('multiprocessing' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(ds.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "a.csv")],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=60)
    assert done.stdout == "False\n"


class TestMinmax:
    def test_known_values(self):
        schema = small_schema(2)
        data = ds.Dataset(
            schema, np.array([[0.0, 10.0], [5.0, 30.0], [10.0, 20.0]]), np.zeros(3)
        )
        params = ds.fit_minmax(data)
        out = ds.apply_minmax(data, params)
        assert np.allclose(out.X[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(out.X[:, 1], [0.0, 1.0, 0.5])

    def test_constant_feature_maps_to_zero(self):
        schema = small_schema(1)
        data = ds.Dataset(schema, np.full((4, 1), 7.0), np.zeros(4))
        out = ds.apply_minmax(data, ds.fit_minmax(data))
        assert (out.X == 0.0).all()

    def test_out_of_range_values_clamped(self):
        schema = small_schema(1)
        ref = ds.Dataset(schema, np.array([[0.0], [10.0]]), np.zeros(2))
        params = ds.fit_minmax(ref)
        other = ds.Dataset(schema, np.array([[-5.0], [15.0]]), np.zeros(2))
        out = ds.apply_minmax(other, params)
        assert out.X[:, 0].tolist() == [0.0, 1.0]

    def test_feature_name_mismatch(self):
        a = small_dataset(n_features=2)
        b = ds.Dataset(
            ds.Schema((ds.Feature("Q1", "sensor"), ds.Feature("Q2", "sensor"))),
            a.X.copy(),
            a.y.copy(),
        )
        with pytest.raises(SchemaMismatchError):
            ds.apply_minmax(b, ds.fit_minmax(a))

    def test_empty_fit_rejected(self):
        schema = small_schema(1)
        empty = ds.Dataset(schema, np.empty((0, 1)), np.empty(0, dtype=int))
        with pytest.raises(EmptyInputError):
            ds.fit_minmax(empty)

    @pytest.mark.parametrize("key", ["mins", "maxs"])
    @pytest.mark.parametrize("bad", [None, float("nan"), float("-inf"), True, "0.5"])
    def test_non_finite_params_are_parse_errors(self, key, bad):
        doc = ds.fit_minmax(small_dataset(seed=3)).to_json()
        doc[key][1] = bad
        with pytest.raises(ParseError, match=key):
            ds.NormalizationParams.from_json(doc)

    @pytest.mark.parametrize("names", [[None, 5], ["F0", True], "ab", None,
                                       {"F0": 1}])
    def test_feature_names_are_a_list_of_strings(self, names):
        """null, 5 and true are not read as names, nor "ab" as ("a", "b")."""
        doc = ds.fit_minmax(small_dataset(seed=3)).to_json()
        doc["feature_names"] = names
        with pytest.raises(ParseError, match="feature"):
            ds.NormalizationParams.from_json(doc)

    def test_params_json_round_trip(self):
        params = ds.fit_minmax(small_dataset(seed=3))
        again = ds.NormalizationParams.from_json(params.to_json())
        assert again.feature_names == params.feature_names
        assert np.array_equal(again.mins, params.mins)
        assert np.array_equal(again.maxs, params.maxs)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=2,
                max_size=2,
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_output_always_in_unit_box(self, rows):
        schema = small_schema(2)
        data = ds.Dataset(schema, np.array(rows), np.zeros(len(rows)))
        out = ds.apply_minmax(data, ds.fit_minmax(data))
        assert out.X.min() >= 0.0
        assert out.X.max() <= 1.0


class TestMergeAndSplit:
    def test_merge_counts(self):
        # stacking the two capture periods: 410,400 + 112,480 rows
        schema = small_schema(1)
        a = ds.Dataset(schema, np.zeros((410_400, 1)), np.zeros(410_400))
        b = ds.Dataset(schema, np.ones((112_480, 1)), np.ones(112_480))
        merged = ds.merge(a, b)
        assert merged.n_rows == 522_880
        assert int(merged.y.sum()) == 112_480

    def test_merge_schema_mismatch(self):
        a = small_dataset(n_features=2)
        b = ds.Dataset(
            ds.Schema((ds.Feature("other", "sensor"), ds.Feature("x", "sensor"))),
            np.zeros((2, 2)),
            np.zeros(2),
        )
        with pytest.raises(SchemaMismatchError):
            ds.merge(a, b)

    def test_split_sizes_and_partition(self):
        data = small_dataset(n_rows=10, seed=1)
        train, test = ds.split(data, 0.8, seed=42)
        assert train.n_rows == 8 and test.n_rows == 2
        whole = np.sort(
            np.concatenate([train.X, test.X]).view("f8,f8,f8"), order=["f0", "f1", "f2"], axis=0
        )
        orig = np.sort(data.X.view("f8,f8,f8"), order=["f0", "f1", "f2"], axis=0)
        assert np.array_equal(whole, orig)

    def test_split_floor_rule(self):
        data = small_dataset(n_rows=7)
        train, test = ds.split(data, 0.5, seed=0)
        assert train.n_rows == 3  # floor(3.5)
        assert test.n_rows == 4

    def test_split_deterministic(self):
        data = small_dataset(n_rows=30, seed=2)
        a1, _ = ds.split(data, 0.8, seed=9)
        a2, _ = ds.split(data, 0.8, seed=9)
        b1, _ = ds.split(data, 0.8, seed=10)
        assert np.array_equal(a1.X, a2.X)
        assert not np.array_equal(a1.X, b1.X)

    def test_split_bad_fraction(self):
        data = small_dataset()
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                ds.split(data, frac, seed=0)

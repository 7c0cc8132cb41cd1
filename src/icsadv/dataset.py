"""Tabular dataset handling: schema, CSV I/O, labels, scaling, splits.

The on-disk format is deliberately boring: one header row, comma-separated,
period decimal separator, label tokens ``Normal`` / ``Attack`` in the last
column. The schema JSON names every feature and its kind::

    {"features": [{"name": "LIT101", "kind": "sensor"}, ...],
     "label": "Normal/Attack"}

Floats are written as ``repr`` writes them, so a save/load round trip is
lossless and byte-identical across runs. ``save_csv`` formats the body in
blocks of ``BLOCK_CELLS`` cells (``format_block``), each with array
operations: ``floatrepr.repr_cells`` gives every cell's ``repr`` bytes at
once, with no Python call per cell.

``load_csv`` has one fast path, for the format ``save_csv`` writes: the
header bytes it writes (``_header``), CRLF or LF line ends, and rows of
numbers and a label token. numpy's C reader parses each span of such a
body in one call, converting each cell with the routine ``float()`` uses.
Any other file (a header quoted otherwise or led by a byte order mark, a
quoted cell, a bare CR, a NUL, a blank line, a line over
``csv.field_size_limit()``) and any file numpy or ``label_encode`` refuses (``1_0``, a non-ASCII digit, any
malformed cell, row or label) is read from its start, line by line, by
the csv module and ``float()``: that reader accepts what they accept and
names any fault's file, line and column. Either way a file gives the same
bits or the same error.

Both directions map one function over the body in order with
``forking.ordered``: the writer ``format_block`` over blocks of rows, the
reader ``_read_span`` over spans of about ``READ_BLOCK`` bytes cut at line
ends. A body of two blocks or spans or more goes to forked workers, one
per usable core, to the same bytes or the same matrix; a body of one, and
any read or write while a pool of the package is open (a pipeline run's
own), stay in the process. A file that cannot seek is read line by line.
"""
from __future__ import annotations

import array
import contextlib
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import floatrepr, forking
from .errors import (
    OPEN_FRACTION,
    EmptyInputError,
    InputContractError,
    LabelError,
    ParameterError,
    ParseError,
    SchemaMismatchError,
    choice,
    class_labels,
    finite_array,
    finite_floats,
    instance,
    integer,
    listed,
    parses,
    real,
    text,
)

SENSOR = "sensor"
ACTUATOR = "actuator"
_KINDS = (SENSOR, ACTUATOR)

NORMAL_TOKEN = "Normal"
ATTACK_TOKEN = "Attack"
_TOKENS = np.array([NORMAL_TOKEN, ATTACK_TOKEN], dtype=object)
# the end of a body line, by label: the token and CRLF (the tokens are of
# one length)
_LINE_ENDS = np.array([list(("%s\r\n" % t).encode("ascii")) for t in _TOKENS],
                      dtype=np.uint8)

# cells in one CSV body block: the unit ``save_csv`` formats and writes at
# once, and hands to a forked worker
BLOCK_CELLS = 32768

# bytes in one read block: ``load_csv`` cuts a body at the first line end
# past each, and ``_read_span`` parses each span
READ_BLOCK = 1 << 20

# characters of ``_read_span``'s label cell: a label of this many or more
# may have been cut, and goes to the line-by-line reader
_LABEL_WIDTH = 8


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str


@dataclass(frozen=True)
class Schema:
    """Ordered feature list plus the label column name."""

    features: tuple[Feature, ...]
    label_column: str = "Normal/Attack"

    def __post_init__(self):
        for f in listed(self.features, "schema features"):
            instance(f, "schema feature", Feature)
        if not self.features:
            raise ParameterError("schema needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ParameterError("duplicate feature names in schema")
        for f in self.features:
            if not f.name:
                raise ParameterError("empty feature name")
            choice(f.kind, "feature %r kind" % f.name, _KINDS)
        if self.label_column in names:
            raise ParameterError(
                "label column %r collides with a feature name" % self.label_column
            )

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    def kind_of(self, name: str) -> str:
        for f in self.features:
            if f.name == name:
                return f.kind
        raise ParameterError("unknown feature %r" % name)

    def index_of(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise ParameterError("unknown feature %r" % name)

    def to_json(self) -> dict:
        return {
            "features": [{"name": f.name, "kind": f.kind} for f in self.features],
            "label": self.label_column,
        }

    @classmethod
    @parses("schema")
    def from_json(cls, obj: dict) -> "Schema":
        feats = tuple(
            Feature(text(f["name"], "schema feature name"),
                    text(f["kind"], "schema feature kind"))
            for f in obj["features"]
        )
        return cls(feats, text(obj["label"], "schema label"))


def label_encode(token: str) -> int:
    """Map a label token to 0 (normal) or 1 (attack), case-insensitively."""
    t = token.strip().lower()
    if t == "normal":
        return 0
    if t == "attack":
        return 1
    raise LabelError("unknown label token %r (expected Normal or Attack)" % token)


class Dataset:
    """Feature matrix + encoded labels bound to a schema.

    X is a C-contiguous float64 (n_rows, n_features) matrix of finite
    values; y is int64 in {0, 1}. Both are checked by the array rule in
    ``errors``: a non-number, NaN or infinite cell raises
    ``InputContractError``, a wrong ndim, width or length ``ShapeError``,
    and a label other than 0 or 1 ``ParameterError``.
    """

    def __init__(self, schema: Schema, X: np.ndarray, y: np.ndarray):
        self.schema = instance(schema, "schema", Schema)
        self.X = np.ascontiguousarray(finite_array(X, 2, schema.n_features))
        self.y = class_labels(y, self.X.shape[0])

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def load_csv(path, schema: Schema) -> Dataset:
    """Read a dataset CSV, validating the header against the schema.

    A file in the format ``save_csv`` writes is read by numpy
    (``_read_body``); any other, and any numpy refuses, line by line
    (``_read_rows``), to the same bits or the same error. A fault is named
    by file, line and, for a cell, column.
    """
    expected = schema.feature_names + [schema.label_column]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            body = _read_body(fh, path, expected)
            if body is None:
                reader = csv.reader(fh)
                cells, labels = _read_rows(reader, path, expected)
                body = (np.frombuffer(cells, dtype=np.float64)
                        .reshape(-1, len(expected) - 1), labels)
    except UnicodeDecodeError as exc:
        raise ParseError("%s: not UTF-8 text: %s" % (path, exc)) from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError("%s: line %d: %s" % (path, reader.line_num, exc)) from None
    X, labels = body
    try:
        return Dataset(schema, X, np.frombuffer(labels, dtype=np.uint8))
    except InputContractError:  # float() and numpy parse "nan" and "inf"
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ParseError("%s: line %d, column %r: %s is not a finite number"
                         % (path, row + 2, expected[col], X[row, col])) from None


def _read_body(fh, path, expected):
    """The feature matrix and encoded labels of the open file ``fh`` at
    ``path``, read span by span (``_spans``, ``_read_span``) and joined in
    order; or None, with ``fh`` unread, when ``_read_rows`` must read it.

    Only the format ``save_csv`` writes takes this path. The file starts
    with the header bytes ``save_csv`` writes for the columns ``expected``
    (``_header``), their line end CRLF or LF, and no column name is over
    ``csv.field_size_limit()``, which the csv module refuses. The file can
    seek, so that ``_read_rows`` reads it again from its start. No span is
    refused. Any other file, a quoted header or a UTF-8 byte order mark
    among them, goes to ``_read_rows``.
    """
    if not fh.seekable() or max(map(len, expected)) > csv.field_size_limit():
        return None
    header = _header(expected)
    with open(path, "rb") as raw:
        first = raw.read(len(header))
    if first != header and not first.startswith(header[:-2] + b"\n"):
        return None
    n_features = len(expected) - 1
    cells, labels = array.array("d"), bytearray()
    spans = _spans(path, len(header) - (first != header))  # LF: one byte less
    blocks = forking.ordered(_read_span, spans, path, n_features)
    with contextlib.closing(blocks):
        for block in blocks:
            if block is None:
                return None
            cells.frombytes(block[0].view(np.uint8))  # one copy
            labels += block[1]
    return np.frombuffer(cells, dtype=np.float64).reshape(-1, n_features), labels


def _spans(path, start):
    """The (start, stop) byte spans of the body that starts at byte
    ``start`` of the file at ``path``, cut at the first line end (``\\n``)
    at least ``READ_BLOCK`` bytes past the previous cut; the last stop is
    None, the file's end.

    The byte after a ``\\n`` always starts a line, and no byte of a
    multi-byte UTF-8 character is ``\\n``.
    """
    cuts = [start]
    with open(path, "rb") as raw:
        size = raw.seek(0, io.SEEK_END)
        while cuts[-1] + READ_BLOCK < size:
            raw.seek(cuts[-1] + READ_BLOCK - 1)
            # a block at a time, so that a line longer than one is not
            # held whole
            while raw.readline(READ_BLOCK)[-1:] not in (b"\n", b""):
                pass
            if raw.tell() >= size:
                break
            cuts.append(raw.tell())
    return list(zip(cuts, cuts[1:] + [None]))


def _read_span(path, n_features, span):
    """The feature matrix (C-contiguous) and encoded labels of the body
    lines in bytes ``span = (start, stop)`` of the file at ``path`` (to its
    end when ``stop`` is None), read by one ``np.loadtxt`` call; or None
    when the file must go to ``_read_rows``.

    numpy splits the span at CRLF and LF into rows, at commas into
    ``n_features`` cells and a label, and keeps each label as it stands
    (at most ``_LABEL_WIDTH - 1`` characters). Each distinct label goes
    through ``label_encode``. A span that numpy might read differently from
    the csv module is refused: one holding a quote, a NUL (numpy drops a
    label's trailing NULs) or a bare CR, or a line over
    ``csv.field_size_limit()`` bytes, or a label of ``_LABEL_WIDTH``
    characters or more (numpy cuts it), or fewer rows than lines (numpy
    skips an empty line). So is any span that is not UTF-8 or that numpy
    or ``label_encode`` refuses: ``_read_rows`` then raises the fault with
    its line, or reads what ``float()`` reads and numpy does not (``1_0``).
    Each cell goes through ``PyOS_string_to_double`` either way, so both
    readers give the same bits.
    """
    start, stop = span
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(-1 if stop is None else stop - start)
    # one pass per byte value, and no list of lines: the LFs, whether every
    # CR ends a CRLF, and the longest line
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    bare_cr = (np.count_nonzero(raw == ord("\r"))
               != np.count_nonzero(raw[ends[ends > 0] - 1] == ord("\r")))
    longest = np.diff(ends, prepend=-1, append=len(data)).max() - 1
    if (b'"' in data or b"\0" in data or bare_cr
            or longest > csv.field_size_limit()):
        return None
    if not data.strip(b"\r\n"):  # loadtxt warns on a span of no rows
        return None if data else (np.empty((0, n_features)), b"")
    dtype = [("cells", np.float64, n_features), ("label", "U%d" % _LABEL_WIDTH)]
    try:
        rows = np.loadtxt(io.StringIO(data.decode("utf-8")), dtype=dtype,
                          delimiter=",", comments=None, ndmin=1)
        tokens, codes = np.unique(rows["label"], return_inverse=True)
        tokens = tokens.tolist()  # plain str
        if (len(rows) < len(ends) + (data[-1:] != b"\n")
                or max(map(len, tokens)) >= _LABEL_WIDTH):
            return None
        encoded = np.array([label_encode(t) for t in tokens], dtype=np.uint8)
    except ValueError:  # UnicodeDecodeError and LabelError too
        return None
    return np.ascontiguousarray(rows["cells"]), encoded[codes].tobytes()


def _read_rows(reader, path, expected):
    """The feature cells (row-major, float64) and encoded labels (one byte
    each) under a header equal to ``expected``.

    Both accumulate in flat buffers: a list of Python float lists costs
    about seven times the bytes of the matrix it becomes.
    """
    cells = array.array("d")
    labels = bytearray()
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("%s: empty file, expected a header row" % path) from None
    if header != expected:
        raise SchemaMismatchError(
            "%s: header %r does not match schema columns %r"
            % (path, header, expected)
        )
    n_cols = len(expected)
    for lineno, row in enumerate(reader, start=2):
        if len(row) != n_cols:
            raise ParseError(
                "%s: line %d has %d fields, expected %d"
                % (path, lineno, len(row), n_cols)
            )
        try:
            cells.extend([float(v) for v in row[:-1]])
        except ValueError:
            for ci, v in enumerate(row[:-1]):
                try:
                    float(v)
                except ValueError:
                    raise ParseError(
                        "%s: line %d, column %r: cannot parse %r as a number"
                        % (path, lineno, expected[ci], v)
                    ) from None
            raise
        try:
            labels.append(label_encode(row[-1]))
        except LabelError as exc:
            raise LabelError("%s: line %d: %s" % (path, lineno, exc)) from None
    return cells, labels


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the canonical CSV format (repr floats, tokens).

    Only the header goes through ``csv.writer``, which quotes a column name
    holding a comma, quote or line break; a row of ``repr`` floats and a
    label token holds none of them. The body is written block by block
    (``format_block``, through ``forking.ordered``), so a body of two
    blocks or more is formatted by forked workers unless a pool of the
    package is open: its workers hold the cores then, as a run's do while
    the parent writes its logs. Each block's cells are formatted together
    by ``floatrepr.repr_cells``, to the bytes ``repr`` gives one by one.
    """
    with open(path, "wb") as fh:
        fh.write(_header(dataset.schema.feature_names
                         + [dataset.schema.label_column]))
        blocks = forking.ordered(format_block, block_starts(dataset), dataset)
        with contextlib.closing(blocks):
            for block in blocks:
                fh.write(block)


def _header(names) -> bytes:
    """The header line ``save_csv`` writes for the columns ``names``: one
    ``csv.writer`` row, which quotes a name holding a comma, quote or line
    break, ending in CRLF."""
    line = io.StringIO(newline="")
    csv.writer(line).writerow(names)
    return line.getvalue().encode("utf-8")


def _block_rows(n_features: int) -> int:
    return max(1, BLOCK_CELLS // n_features)


def block_starts(dataset: Dataset) -> range:
    """The first row of each body block of ``dataset``."""
    return range(0, dataset.n_rows, _block_rows(dataset.n_features))


def format_block(dataset: Dataset, start: int) -> bytes:
    """The CSV lines of the body block that starts at row ``start``.

    ``floatrepr.repr_cells`` lays out every cell's ``repr`` bytes, the
    shortest text that reads back to the same float, with a spare slot
    after each that takes its comma; each row ends in its label token and
    CRLF, and one mask keeps the block's bytes in order.
    """
    rows = slice(start, start + _block_rows(dataset.n_features))
    chars, keep = floatrepr.repr_cells(dataset.X[rows])
    chars[..., -1] = ord(",")
    keep[..., -1] = True
    n, width = len(chars), dataset.n_features * floatrepr.WIDTH
    text = np.concatenate([chars.reshape(n, width), _LINE_ENDS[dataset.y[rows]]],
                          axis=1)
    keep = np.concatenate([keep.reshape(n, width),
                           np.ones((n, _LINE_ENDS.shape[1]), dtype=bool)], axis=1)
    return text[keep].tobytes()


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature min/max fitted on some reference dataset."""

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        for name in ("mins", "maxs"):
            values = finite_array(getattr(self, name), 1, what=name)
            object.__setattr__(self, name, values)
        if self.mins.shape != (len(self.feature_names),) or (
            self.mins.shape != self.maxs.shape
        ):
            raise ParameterError("normalization parameter lengths disagree")
        if np.any(self.maxs < self.mins):
            raise ParameterError("max < min in normalization parameters")

    def to_json(self) -> dict:
        return {
            "format": "minmax-params",
            "version": 1,
            "feature_names": list(self.feature_names),
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
        }

    @classmethod
    @parses("min-max parameters", "minmax-params")
    def from_json(cls, obj: dict) -> "NormalizationParams":
        names = obj["feature_names"]
        if not isinstance(names, list):
            raise ValueError("feature_names %r is not a JSON list" % (names,))
        return cls(
            tuple(text(name, "feature name") for name in names),
            finite_floats(obj["mins"], "mins"),
            finite_floats(obj["maxs"], "maxs"),
        )


def fit_minmax(dataset: Dataset) -> NormalizationParams:
    if dataset.n_rows == 0:
        raise EmptyInputError("cannot fit normalization on an empty dataset")
    return NormalizationParams(
        tuple(dataset.schema.feature_names),
        dataset.X.min(axis=0),
        dataset.X.max(axis=0),
    )


def apply_minmax(dataset: Dataset, params: NormalizationParams) -> Dataset:
    """Scale every feature to [0, 1]; constant features map to 0.0.

    Values outside the fitted range are clamped, so the output always lies
    in the unit box regardless of where the parameters were fitted.
    """
    if tuple(dataset.schema.feature_names) != params.feature_names:
        raise SchemaMismatchError(
            "normalization parameters were fitted on different features"
        )
    span = params.maxs - params.mins
    safe = np.where(span > 0, span, 1.0)
    X = (dataset.X - params.mins) / safe
    X = np.clip(X, 0.0, 1.0)
    X[:, span == 0] = 0.0
    return Dataset(dataset.schema, X, dataset.y.copy())


def merge(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets that share an identical schema."""
    if instance(a, "a", Dataset).schema != instance(b, "b", Dataset).schema:
        raise SchemaMismatchError("cannot merge datasets with different schemas")
    return Dataset(
        a.schema,
        np.concatenate([a.X, b.X], axis=0),
        np.concatenate([a.y, b.y], axis=0),
    )


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; |train| = floor(train_fraction * n_rows)."""
    train_fraction = real(train_fraction, "train_fraction", OPEN_FRACTION)
    rng = np.random.default_rng(integer(seed, "seed", 0))
    perm = rng.permutation(dataset.n_rows)
    n_train = math.floor(train_fraction * dataset.n_rows)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(dataset.schema, dataset.X[tr], dataset.y[tr]),
        Dataset(dataset.schema, dataset.X[te], dataset.y[te]),
    )

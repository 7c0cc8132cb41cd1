"""Tabular dataset handling: schema, CSV I/O, labels, scaling, splits.

The on-disk format is deliberately boring: one header row, comma-separated,
period decimal separator, label tokens ``Normal`` / ``Attack`` in the last
column. The schema JSON names every feature and its kind::

    {"features": [{"name": "LIT101", "kind": "sensor"}, ...],
     "label": "Normal/Attack"}

Floats are written with ``repr`` so a save/load round trip is lossless and
byte-identical across runs.
"""
from __future__ import annotations

import array
import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    LabelError,
    ParameterError,
    ParseError,
    SchemaMismatchError,
    finite_floats,
    parses,
)

SENSOR = "sensor"
ACTUATOR = "actuator"
_KINDS = (SENSOR, ACTUATOR)

NORMAL_TOKEN = "Normal"
ATTACK_TOKEN = "Attack"


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
        if not self.features:
            raise ParameterError("schema needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ParameterError("duplicate feature names in schema")
        for f in self.features:
            if not f.name:
                raise ParameterError("empty feature name")
            if f.kind not in _KINDS:
                raise ParameterError(
                    "feature %r has unknown kind %r (expected sensor/actuator)"
                    % (f.name, f.kind)
                )
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
            Feature(str(f["name"]), str(f["kind"])) for f in obj["features"]
        )
        return cls(feats, str(obj["label"]))


def label_encode(token: str) -> int:
    """Map a label token to 0 (normal) or 1 (attack), case-insensitively."""
    t = token.strip().lower()
    if t == "normal":
        return 0
    if t == "attack":
        return 1
    raise LabelError("unknown label token %r (expected Normal or Attack)" % token)


def label_decode(value: int) -> str:
    if value == 0:
        return NORMAL_TOKEN
    if value == 1:
        return ATTACK_TOKEN
    raise LabelError("label values must be 0 or 1, got %r" % value)


class Dataset:
    """Feature matrix + encoded labels bound to a schema.

    X is float64 (n_rows, n_features); y is int64 in {0, 1}.
    """

    def __init__(self, schema: Schema, X: np.ndarray, y: np.ndarray):
        try:
            X = np.ascontiguousarray(X, dtype=np.float64)
            y = np.asarray(y)
        except (TypeError, ValueError) as exc:
            raise ParameterError("X and y must be arrays of numbers: %s" % exc) from None
        if X.ndim != 2:
            raise ParameterError("X must be 2-D, got %d-D" % X.ndim)
        if y.ndim != 1:
            raise ParameterError("y must be 1-D, got %d-D" % y.ndim)
        if X.shape[0] != y.shape[0]:
            raise ParameterError(
                "row count mismatch: X has %d rows, y has %d" % (X.shape[0], y.shape[0])
            )
        if X.shape[1] != schema.n_features:
            raise SchemaMismatchError(
                "X has %d columns but schema lists %d features"
                % (X.shape[1], schema.n_features)
            )
        if not np.isfinite(X).all():
            bad = np.argwhere(~np.isfinite(X))[0]
            raise ParameterError(
                "non-finite value at row %d, column %r"
                % (bad[0], schema.features[bad[1]].name)
            )
        if y.size and not np.isin(y, (0, 1)).all():
            raise LabelError("labels must be 0 or 1")
        self.schema = schema
        self.X = X
        self.y = y.astype(np.int64, copy=False)  # checked before the cast

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def load_csv(path, schema: Schema) -> Dataset:
    """Read a dataset CSV, validating the header against the schema."""
    expected = schema.feature_names + [schema.label_column]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            cells, labels = _read_rows(csv.reader(fh), path, expected)
    except UnicodeDecodeError as exc:
        raise ParseError("%s: not UTF-8 text: %s" % (path, exc)) from None
    X = np.frombuffer(cells, dtype=np.float64).reshape(-1, len(expected) - 1)
    y = np.frombuffer(labels, dtype=np.uint8).astype(np.int64)
    return Dataset(schema, X, y)


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
    holding a comma, quote or line break; a row of repr floats and a label
    token holds none of them, so it is joined as it is.
    """
    header = dataset.schema.feature_names + [dataset.schema.label_column]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        # one row at a time: a whole-matrix tolist() holds every cell as a
        # Python float at once (46 MB more peak for 100k x 10)
        for row, label in zip(dataset.X, dataset.y.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + "," + label_decode(label)
                     + "\r\n")


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature min/max fitted on some reference dataset."""

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
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
        return cls(
            tuple(obj["feature_names"]),
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
    if a.schema != b.schema:
        raise SchemaMismatchError("cannot merge datasets with different schemas")
    return Dataset(
        a.schema,
        np.concatenate([a.X, b.X], axis=0),
        np.concatenate([a.y, b.y], axis=0),
    )


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; |train| = floor(train_fraction * n_rows)."""
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(
            "train_fraction must be in (0, 1), got %r" % train_fraction
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n_rows)
    n_train = math.floor(train_fraction * dataset.n_rows)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(dataset.schema, dataset.X[tr], dataset.y[tr]),
        Dataset(dataset.schema, dataset.X[te], dataset.y[te]),
    )

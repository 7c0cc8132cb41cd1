"""Exception types shared across the package, and one rule for each kind
of input a user supplies. Every error raised on bad input derives from
ValueError, so a caller that does not care about the type catches one thing.

* JSON documents: each is built by a function decorated with ``parses``,
  and each input file is decoded by ``read_json``, so a malformed document
  raises ``ParseError`` naming the document, and every error from a file
  names the file;
* arrays: feature arrays go through ``finite_array``, label vectors through
  ``class_labels`` (checked before the cast, so 0.5 is never read as 0),
  a training set through ``training_set``, which applies both, and a
  document's number arrays through ``finite_floats``;
* settings: counts and seeds go through ``integer``, every real-valued
  setting through ``real``; neither truncates nor converts text, and
  ``real`` rejects NaN and infinity. Each is checked once, where it is set;
* keys: a document block with a fixed set of keys goes through
  ``known_keys``, so a misspelt key fails rather than being ignored.
"""
import functools
import json
import math
import numbers

import numpy as np


class IcsAdvError(ValueError):
    """Base class for all package-specific errors."""


class SchemaMismatchError(IcsAdvError):
    """Header or schema disagreement between two artifacts."""


class ParseError(IcsAdvError):
    """Malformed CSV or JSON input; message names row/column when known."""


class LabelError(IcsAdvError):
    """Label token outside the Normal/Attack vocabulary."""


class ParameterError(IcsAdvError):
    """Out-of-range or inconsistent configuration value."""


class EmptyInputError(IcsAdvError):
    """Operation that needs at least one row received none."""


class ShapeError(IcsAdvError):
    """Array dimension disagreement (e.g. vector length vs model input)."""


class KindMismatchError(IcsAdvError):
    """Attack targeted a feature of the wrong kind (sensor vs actuator)."""


class InputContractError(IcsAdvError):
    """Caller violated a documented data contract (e.g. wrong labels)."""


class DegenerateTargetError(IcsAdvError):
    """Training target has a single class where two are required."""


# a missing key or index, a wrong type, or a value that does not convert
# (int("x"), a ragged array) or does not fit (int(inf), a huge Decimal)
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError,
              ArithmeticError)


def parses(document: str, tag: str | None = None):
    """Decorator for a function that builds something from a JSON document,
    passed as its last positional argument; ``document`` names it in errors.

    The document must be a JSON object, with ``"format": tag`` when a tag
    is given. An exception of a ``_MALFORMED`` type raised while building
    becomes ``ParseError``; package errors pass through unchanged.
    """

    def decorate(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            doc = args[-1]
            if not isinstance(doc, dict):
                raise ParseError("%s must be a JSON object" % document)
            if tag is not None and doc.get("format") != tag:
                raise ParseError("%s needs format tag %r, got %r"
                                 % (document, tag, doc.get("format")))
            try:
                return build(*args, **kwargs)
            except IcsAdvError:
                raise
            except _MALFORMED as exc:
                raise ParseError("malformed %s: %r" % (document, exc)) from exc

        return wrapper

    return decorate


def finite_floats(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, for a builder decorated with
    ``parses``: JSON ``null`` converts to NaN, so a NaN or infinite entry
    raises ``ValueError`` naming ``what``."""
    out = np.asarray(values, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ValueError("%s holds a null, NaN or infinite number" % what)
    return out


def finite_array(values, ndim, width: int | None = None) -> np.ndarray:
    """``values`` as a float64 array (``np.asarray``: no copy if it is one)
    with ``ndim`` axes, or one of a tuple of counts, ``width`` entries on
    its last axis when given, and only finite entries."""
    try:
        out = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputContractError("features must be numbers: %s" % exc) from None
    ndims = ndim if isinstance(ndim, tuple) else (ndim,)
    if out.ndim not in ndims or (width is not None and out.shape[-1] != width):
        raise ShapeError("features have shape %r, expected ndim %s and width %s"
                         % (out.shape, ndim, "any" if width is None else width))
    if not np.isfinite(out).all():
        raise InputContractError("features contain NaN or infinite values")
    return out


def class_labels(values, n_rows: int | None, n_classes: int = 2) -> np.ndarray:
    """``values`` as an int64 vector of ``n_rows`` class indices in [0,
    ``n_classes``); ``n_rows`` None takes any length. Every entry is checked
    before the cast."""
    try:
        y = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InputContractError("labels must be numbers: %s" % exc) from None
    if y.dtype.kind not in "biuf":
        raise InputContractError("labels must be numbers, got %s" % y.dtype)
    if y.ndim != 1 or (n_rows is not None and y.shape[0] != n_rows):
        raise ShapeError("labels have shape %r, expected (%s,)"
                         % (y.shape, "n" if n_rows is None else n_rows))
    if not np.isfinite(y).all():
        raise InputContractError("labels contain NaN or infinite values")
    if y.size and ((y.dtype.kind == "f" and (y != np.trunc(y)).any())
                   or y.min() < 0 or y.max() >= n_classes):
        raise ParameterError("labels must be integers in [0, %d)" % n_classes)
    return y.astype(np.int64, copy=False)


def training_set(X, y, width: int | None, n_classes: int):
    """A training set: X as a C-contiguous matrix of at least one row,
    ``width`` columns unless None, and y as its class indices."""
    X = np.ascontiguousarray(finite_array(X, 2, width))
    if X.shape[0] == 0:
        raise EmptyInputError("cannot train on an empty dataset")
    return X, class_labels(y, X.shape[0], n_classes)


def integer(value, name: str, minimum: int) -> int:
    """``value`` as an int when it is an integer (not a bool) >= ``minimum``;
    anything else, 2.5, "7" or true included, raises ``ParameterError``
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError("%s must be an integer, got %r" % (name, value))
    if value < minimum:
        raise ParameterError("%s must be >= %d, got %r" % (name, minimum, value))
    return int(value)


def real(value, name: str) -> float:
    """``value`` as a float when it is a finite real number (not a bool);
    anything else, NaN, inf, true or "1.2" included, raises
    ``ParameterError`` naming ``name``."""
    try:
        if (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value)):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ParameterError("%s must be a finite number, got %r" % (name, value))


def known_keys(doc: dict, allowed, where: str) -> None:
    """Raise ``ParameterError`` naming ``where`` and every key of ``doc``
    outside ``allowed``."""
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ParameterError(
            "unknown keys in %s: %s" % (where, ", ".join(sorted(unknown)))
        )


def read_json(path, build):
    """``build(document)`` for the JSON file at ``path``. Text that is not
    JSON raises ``ParseError``; it and every package error from ``build``
    keep their class and name the path. A missing or unreadable file raises
    ``OSError``."""
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ParseError("%s: invalid JSON: %s" % (path, exc)) from exc
    try:
        return build(doc)
    except IcsAdvError as exc:
        raise type(exc)("%s: %s" % (path, exc)) from exc

"""Exception types shared across the package, and the one rule for JSON
input documents.

Every error raised on bad user input derives from ValueError so callers
that do not care about the fine-grained type can catch one thing. Every
JSON document read from outside is built by a function decorated with
``parses``, and every input file is decoded by ``read_json``, so a
malformed document raises ``ParseError`` naming the document and the file.
"""
import functools
import json

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


def read_json(path, build):
    """``build(document)`` for the JSON file at ``path``. Text that is not
    JSON raises ``ParseError``, which like one from ``build`` names the
    path; a missing or unreadable file raises ``OSError``."""
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ParseError("%s: invalid JSON: %s" % (path, exc)) from exc
    try:
        return build(doc)
    except ParseError as exc:
        raise ParseError("%s: %s" % (path, exc)) from exc

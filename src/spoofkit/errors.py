"""Exception types shared across the toolkit, and the checks that turn a
malformed model document into an InputError."""

import json
from contextlib import contextmanager


class SpoofkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(SpoofkitError):
    """Malformed or out-of-contract input data, or data on which a step is
    undefined (one class, an empty slice, a diverged fit)."""


class UsageError(SpoofkitError):
    """CLI invocation error (wrong flags for the selected mode)."""


def model_doc(doc, kind: str, version: int) -> dict:
    """A serialized model's document, checked for its `kind` and
    `format_version`; `doc` is the JSON text or what it parsed to."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError:
            raise InputError(f"{kind} model document is not valid JSON") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise InputError(f"not a {kind} model document")
    if doc.get("format_version") != version:
        raise InputError(f"{kind} model format_version "
                         f"{doc.get('format_version')!r} is not {version}")
    return doc


@contextmanager
def malformed(what: str):
    """Report a missing key or a wrongly typed value while decoding `what`
    as an InputError."""
    try:
        yield
    except KeyError as exc:
        raise InputError(f"{what} has no key {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {what}: {exc}") from None

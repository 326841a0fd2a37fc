"""Exception types shared across the toolkit, and the checks that turn a
malformed model document into an InputError."""

import json
from contextlib import contextmanager


class SpoofkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(SpoofkitError):
    """Malformed or out-of-contract input data."""


class DegenerateLabels(SpoofkitError):
    """A label vector contains only one class where two are required."""


class MetricError(SpoofkitError):
    """A metric is undefined on the given data slice."""


class TrainingError(SpoofkitError):
    """Optimization diverged or otherwise failed."""


class BalanceError(SpoofkitError):
    """Not enough samples to balance classes to the requested count."""


class SplitOverlap(SpoofkitError):
    """The same file appears in more than one dataset split."""


class ManifestError(SpoofkitError):
    """A dataset manifest failed validation."""


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

"""Shared exception types, and the one statement of the parameter and
capacity rules.

Exit-code mapping used by the CLI lives in cli.py; library code raises
these and never calls sys.exit itself.
"""

import math
import sys


class RamspectError(Exception):
    """Base class for all package errors."""


class ParameterError(RamspectError, ValueError):
    """A caller-supplied parameter is malformed or out of its legal range."""


class ContractViolation(RamspectError, ValueError):
    """A documented precondition between components was broken (e.g. overlapping
    vertex sets passed where disjoint ones are required)."""


class CapacityError(RamspectError):
    """The request is well-formed but exceeds a hard size cap of an exact
    routine.  Raised only by _require_cap, whose message states the cap."""


class GraphParseError(RamspectError, ValueError):
    """Malformed graph text; the message names the offending line."""


class ConstructionFailure(RamspectError):
    """A pipeline stage could not produce its output after exhausting its
    retry budget.  Carries the stage name and a diagnostics dict."""

    def __init__(self, stage: str, message: str, diagnostics: dict | None = None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.diagnostics = diagnostics or {}


def _require(rule: str, values: dict, *names: str) -> None:
    """Refuse with a ParameterError each of values[name] that breaks rule.

    names picks the keys to check, every key when none is given, and None
    passes every rule.  The rules:
    - "positive": v > 0, tested as not v > 0 so that NaN fails too;
    - "count": positive and at most sys.maxsize, the bound of the islice
      over the audit's candidates and of the int64 bucket arithmetic;
    - "number": not NaN;
    - "non-negative": v >= 0, NaN failing, the domain of a master seed.
    """
    for name in names or values:
        v = values[name]
        if v is None:
            continue
        if rule == "number":
            if math.isnan(v):
                raise ParameterError(f"{name} must be a number, got nan")
        elif rule == "non-negative":
            if not v >= 0:
                raise ParameterError(f"{name} must be non-negative, got {v}")
        elif not v > 0:
            raise ParameterError(f"{name} must be positive, got {v}")
        elif rule == "count" and v > sys.maxsize:
            raise ParameterError(f"{name} must be at most {sys.maxsize}, got {v}")


def _require_cap(what: str, value: int, cap: int, why: str = "") -> None:
    """Refuse with a CapacityError a value above cap; value == cap passes.

    The one message: "{what} {value} is above the cap {cap}", then "; {why}"
    when a reason is given.
    """
    if value > cap:
        raise CapacityError(f"{what} {value} is above the cap {cap}" + (f"; {why}" if why else ""))

"""Exception hierarchy and warnings shared by all omegafract modules.

Every exception carries a stable machine-readable ``code`` that the CLI
reports verbatim.  Input errors (bad documents) are distinct from
precondition errors (structurally valid automaton handed to an operation
whose requirements it does not meet); the CLI maps the two groups to
different exit statuses.
"""

from __future__ import annotations


class OmegafractError(Exception):
    """Base class for all library errors."""

    code = "error"


class FormatError(OmegafractError):
    """The input document is not syntactically valid."""

    code = "syntax-error"


class ValidationError(OmegafractError):
    """The document parses but violates a structural invariant
    (digit out of range, unknown state, empty start set, duplicate
    transition, ...)."""

    code = "semantic-error"


class EmptyLanguageError(OmegafractError):
    """Trimming removed every state: the automaton accepts no infinite word."""

    code = "empty-language"


class NotTrimError(OmegafractError):
    """Operation requires a trim automaton."""

    code = "not-trim"


class AmbiguousError(OmegafractError):
    """Operation requires an unambiguous automaton and the input has a word
    with two distinct accepting runs."""

    code = "ambiguous-input"


class NotStronglyConnectedError(OmegafractError):
    """Operation requires a strongly connected automaton with at least one
    transition."""

    code = "not-strongly-connected"


class CapExceededError(OmegafractError):
    """An enumeration would exceed the configured cap."""

    code = "cap-exceeded"


class ArityError(OmegafractError):
    """Operation is only defined for the stated arity."""

    code = "arity"


class ConfigError(OmegafractError):
    """Analysis configuration violates its invariants."""

    code = "config"


class NotConvergedError(OmegafractError):
    """An iterative solver used up its iteration budget before reaching
    its tolerance; no unconverged value is returned."""

    code = "not-converged"


class NonCriticalExponentWarning(UserWarning):
    """Emitted when a component's transfer matrix has spectral radius away
    from 1, i.e. the requested exponent is not that component's critical
    dimension and the measure degenerates to 0 or infinity."""

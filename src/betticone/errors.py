"""Exception types shared across the package.

The split matters for the CLI contract: malformed serialized input exits
with status 1, a violated operation precondition (not-in-cone, bad cone
parameters) exits with status 2, and an internal verification failure
exits with status 3.  Messages quote rejected input through `quoted` and
exact values through `bounded`.
"""

from __future__ import annotations


class MalformedInputError(ValueError):
    """Serialized input (JSON sequence, rational string, CSV flag) is unparseable."""


class ConeInputError(ValueError):
    """A well-formed value violates an operation's precondition."""


class NotInConeError(ConeInputError):
    """Membership precondition failed; carries the violated constraints.

    ``violations`` is a list of ``(name, value)`` pairs where ``name`` is a
    constraint label such as ``"chi[1,2]"`` and ``value`` is the (negative
    or nonzero) exact rational it evaluated to.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)

    @classmethod
    def naming_first(cls, title: str, violations) -> "NotInConeError":
        """The error for a value outside the cone ``title``: the message
        names the first violated constraint and its `bounded` value."""
        violations = list(violations)
        if not violations:
            raise InternalInconsistencyError(f"no violated constraint of {title} to report")
        from .sequences import rational_str  # sequences imports this module
        name, value = violations[0]
        return cls(f"not in {title}: {name} = {bounded(rational_str(value))}", violations)


class InternalInconsistencyError(RuntimeError):
    """A state that should be impossible for valid inputs; signals a bug."""


def quoted(value) -> str:
    """A rejected value for an error message: its repr, cut to 40
    characters plus "..." so that hostile input keeps the message short."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def bounded(text: str) -> str:
    """An exact value for a one-line message: whole up to 40 characters,
    else its first 40, "..." and its digit count, as numerator/denominator
    counts for a fraction p/q."""
    if len(text) <= 40:
        return text
    digits = "/".join(str(sum(ch.isdigit() for ch in part)) for part in text.split("/"))
    return f"{text[:40]}... ({digits} digits)"

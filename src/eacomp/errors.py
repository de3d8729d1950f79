"""Exception hierarchy.

Everything raised on purpose derives from EacompError so callers can
catch one type at the boundary. ConsistencyError is special: it signals
that two independent internal computations of the same quantity disagree,
which means a bug, not bad input.
"""


class EacompError(Exception):
    pass


class NotAStateError(EacompError):
    """A matrix fails the structural checks for a density matrix."""


class LayoutMismatchError(EacompError):
    """Operands carry incompatible shapes or dimensions."""


class LabelError(EacompError):
    """A subsystem or item label is unknown, duplicated, or malformed."""


class IsometryError(EacompError):
    """A matrix expected to be an isometry or unitary is not one."""


class DimensionLimitError(EacompError):
    """A requested object exceeds the configured dimension caps."""


class EnsembleFormatError(EacompError):
    """An ensemble description failed validation.

    Carries the individual violations so the CLI can print one per line.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConsistencyError(EacompError):
    """Two independent computations of the same quantity disagree."""

"""Exception types shared across the package."""


class AgendaAlgebraError(ValueError):
    """Base class for all domain errors raised by this package."""


# -- partitions / preorders --------------------------------------------------

class OverlapError(AgendaAlgebraError):
    """Two blocks of a partition share an element."""


class CoverageError(AgendaAlgebraError):
    """Some index of the ground set is not covered by any block."""


class EmptyBlockError(AgendaAlgebraError):
    """A partition block is empty."""


class GroundMismatch(AgendaAlgebraError):
    """Operands live on differently sized ground sets."""


class IndexOutOfRange(AgendaAlgebraError):
    """An element index is outside the ground set."""


class TooSmall(AgendaAlgebraError):
    """The ground set is too small for the requested operation."""


class SizeCap(AgendaAlgebraError):
    """An enumeration was refused because it would be too large."""


class TransitivityWarning(UserWarning):
    """The relation induced from a degenerate base failed transitivity."""


# -- feature spaces ----------------------------------------------------------

class CapExceeded(AgendaAlgebraError):
    """A configured size cap was exceeded."""


class MalformedScale(AgendaAlgebraError):
    """A scale has no unique top/bottom, or its cover graph is cyclic."""


class UnknownParameter(AgendaAlgebraError):
    """A parameter name is not declared in the feature space."""


class NonLinearScale(AgendaAlgebraError):
    """A sum-rule operation was applied to a non-chain or unnumbered scale."""


class DegenerateThreshold(AgendaAlgebraError):
    """A threshold question whose yes- or no-cell would be empty."""


class IncompatibleRule(AgendaAlgebraError):
    """An agenda descriptor does not fit the requested winning rule."""


class WrongSpace(AgendaAlgebraError):
    """The operation is pinned to a specific fixture space."""


# -- agenda lattices ---------------------------------------------------------

class NotInLattice(AgendaAlgebraError):
    """An agenda is not an element of the generated lattice."""


class NotMaterialized(AgendaAlgebraError):
    """The operation needs the element list of a materialized lattice."""


class EmptyAgendaSet(AgendaAlgebraError):
    """A coarsening was requested for an empty parameter set."""


class NotBoolean(AgendaAlgebraError):
    """The operation is only defined on Boolean agenda lattices."""


# -- coalitions / heterogeneous structures -----------------------------------

class UnknownAgent(AgendaAlgebraError):
    """An agent name is not declared in the agent set."""


# -- terms and validity ------------------------------------------------------

class UnassignedAtom(AgendaAlgebraError):
    """A term atom has no value under the given valuation."""


class SortError(AgendaAlgebraError):
    """A term constructor was applied to arguments of the wrong sort."""


class UnsupportedCase(AgendaAlgebraError):
    """The requested frame fixture cannot be built in full."""


# -- scenarios ---------------------------------------------------------------

def shortened(text):
    """Text for a message: past 40 characters, its first 20 and its length."""
    return text if len(text) <= 40 else f"{text[:20]}...({len(text)} chars)"


class ParseError(AgendaAlgebraError):
    """The scenario document is not valid JSON."""


class ValidationError(AgendaAlgebraError):
    """The scenario document is well-formed JSON but fails validation.

    Carries the full list of problems in ``problems``.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

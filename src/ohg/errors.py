"""Exception types raised across the package.

Everything derives from :class:`OhgError` so callers (and the CLI) can catch
input and domain problems uniformly without swallowing genuine bugs.
"""


class OhgError(Exception):
    """Base class for all domain errors."""


# -- hypergraph construction -------------------------------------------------

class InvalidVertexNameError(OhgError):
    """Vertex name is empty, not a string, or contains whitespace."""


class EmptyContextError(OhgError):
    """A context has fewer than two vertices."""


class DuplicateContextError(OhgError):
    """The same context appears more than once."""


class SubsetContextError(OhgError):
    """One context is contained in another."""


# -- state enumeration and classification ------------------------------------

class RowLimitExceededError(OhgError):
    """A state table would have more rows than the row limit or budget."""


class ColumnCountMismatchError(OhgError):
    """A state table's columns do not match the hypergraph's vertices."""


class NotAGadgetPairError(OhgError):
    """Some state assigns true to both endpoints of a supposed gadget pair."""


# -- reconstruction -----------------------------------------------------------

class AllZeroColumnError(OhgError):
    """A column of the state table is identically zero, so the adjacency
    criterion degenerates (the vertex would become adjacent to everything)."""


class SizeLimitError(OhgError):
    """An exact search exceeded its configured budget."""


# -- coloring -----------------------------------------------------------------

class NotProperError(OhgError):
    """Two vertices of one context carry the same color."""


class NotDominatingError(OhgError):
    """A partition cell fails to dominate every vertex."""


class NotAStateError(OhgError):
    """A color class is not the true-set of any two-valued state."""


class DisconnectedError(OhgError):
    """The 2-section is disconnected where connectivity is required."""


# -- gadget composition -------------------------------------------------------

class UnknownFixtureError(OhgError):
    """No catalogued fixture under the requested name."""


class AdjacentTerminalsError(OhgError):
    """Head and tail of a gadget are adjacent, so composition is impossible."""


class NotATifsPairError(OhgError):
    """The declared (head, tail) pair is not a verified true-implies-false pair."""


class RankMismatchError(OhgError):
    """The binding construction needs a gadget with clique number 3."""


# -- geometry -----------------------------------------------------------------

class DimensionMismatchError(OhgError):
    """A vector's length differs from the labeling's declared dimension."""


class MissingVertexError(OhgError):
    """The labeling does not cover every vertex of the hypergraph."""


# -- file formats -------------------------------------------------------------

class ParseError(OhgError):
    """A hypergraph, matrix, or vector file is malformed."""

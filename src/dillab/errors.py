"""Exception hierarchy for dillab.

Every error raised on a violated precondition or failed certificate derives
from DillabError so callers (and the CLI) can separate contract violations
from programming bugs. DomainError, the refusal of a malformed or
out-of-range argument, is also a ValueError, so a caller that catches
ValueError still catches it; the three narrower refusals of an argument
(VertexOutOfRange, AlphaOutOfRange, GenusMismatch) are DomainErrors.
"""


class DillabError(Exception):
    pass


class NotIrreducible(DillabError):
    """Matrix/graph is not irreducible (digraph not strongly connected)."""


class NoDiagonalEntry(DillabError):
    """Matrix has no nonzero diagonal entry."""


class DegreePreconditionViolated(DillabError):
    """Subdivision requires in-multiplicity 1 and out-multiplicity 1."""


class NoSignChange(DillabError):
    """No sign change found; caller must enlarge the search interval."""


class DomainError(DillabError, ValueError):
    """Parameter outside the domain where the result is defined."""


class VertexOutOfRange(DomainError):
    """Vertex label outside 1..vertex_count."""


class AlphaOutOfRange(DomainError):
    """alpha must be an integer in [1, theta(g)]."""


class ValidationFailed(DillabError):
    """A validation contract or certified assertion failed."""


class GenusMismatch(DomainError):
    """Vectors or classes of different genus were combined."""


class NotPairwiseOrthogonal(DillabError):
    """Twist classes are not pairwise orthogonal under the symplectic form."""


class FixedPointOnCircle(DillabError):
    """The map has a fixed point on the winding square's boundary, so the
    fixed point at the origin is not isolated: det(A - I) = 0."""

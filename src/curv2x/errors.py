"""Exception types shared across the package.

Every error raised on bad input derives from CurvError so callers can catch
one base class.  Internal self-checks that fail raise VerificationFailed, so
they hold under `python -O` too.
"""

import builtins


class CurvError(Exception):
    pass


# -- Serre graphs -----------------------------------------------------------

class FixedPointInvolution(CurvError):
    """The edge involution fixes an edge (e == ebar is not allowed)."""


class NonInvolutive(CurvError):
    """The claimed involution is not self-inverse."""


class UnknownVertex(CurvError):
    pass


class UnknownEdge(CurvError):
    pass


class DomainNotCore(CurvError):
    pass


class DomainNotConnected(CurvError):
    pass


class NotCoreOrConnected(CurvError):
    pass


class InvalidMap(CurvError):
    """A vertex/edge assignment is not a graph morphism."""


# -- Origamis ---------------------------------------------------------------

class NotAnOrigami(CurvError):
    """A relation violates non-singularity, global or local consistency."""


class FoldNotEssential(CurvError):
    pass


class OrigamiNotEssential(CurvError):
    pass


class DomainMismatch(CurvError):
    """A certificate's base graph does not match the morphism's domain."""


# -- Branched 2-complexes ---------------------------------------------------

class BoundaryNotCircles(CurvError):
    pass


class AttachingNotImmersion(CurvError):
    pass


class AttachingNotImmersionAfterQuotient(CurvError):
    pass


class NegativeArea(CurvError):
    pass


class FaceAreaError(CurvError, ValueError):
    """A face is given no area, or two."""


class RelatorNotReduced(CurvError):
    pass


class EmptyRelator(CurvError):
    pass


class SquareNotCommuting(CurvError):
    """Boundary and skeleton maps disagree over the attaching maps."""


class AreaMismatch(CurvError):
    """Area(face) != multiplicity * Area(image face)."""


class BoundaryNotImmersion(CurvError):
    pass


class NotPiComplex(CurvError):
    pass


class IncompatibleOrigami(CurvError):
    pass


# -- Blocks and the cone ----------------------------------------------------

class EnumerationBudgetExceeded(CurvError):
    def __init__(self, vertex, budget):
        super().__init__(f"block enumeration at vertex {vertex!r} exceeded budget {budget}")
        self.vertex = vertex
        self.budget = budget


class GluingMismatch(CurvError):
    """A vector violates a gluing equation, so its half-edges cannot pair up."""


class VerificationFailed(CurvError):
    """A computed result failed a self-check: a realizer's re-verification,
    an LP optimum's check_solution, or an internal consistency check on
    folds, unfolds, quotients and block censuses."""


class ReconstructionFailed(CurvError):
    """Internal inconsistency while rebuilding a complex from a cone point."""


class ZeroAreaFace(CurvError):
    """Extremization needs strictly positive areas to keep the program bounded."""


# -- LP ---------------------------------------------------------------------

class LPFailure(CurvError):
    """The simplex met an unbounded objective; solve() reports
    infeasibility as a status instead."""


# -- File formats -----------------------------------------------------------

class SyntaxError(CurvError, builtins.SyntaxError):  # noqa: A001
    """Malformed input file.  Takes the builtin's arguments
    (msg, (filename, lineno, offset, text)), so `lineno` and `offset`
    are the 1-based line and column and the message reads the same."""

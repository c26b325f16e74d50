"""Exception hierarchy shared by all doctrina modules.

These are errors of use: malformed input, or an operation applied
outside its domain.  A law that fails on well-formed input is never an
exception; it is a failing clause of a ``Report``.  ``NonFunctorial`` is
the one refusal of data: the double extension is not built at all over a
substitution that is not strictly functorial.
"""


class DoctrinaError(Exception):
    """Base class for all errors raised by this package."""


class CodMismatch(DoctrinaError):
    """Composition or pullback attempted on maps with incompatible codomains."""


class DomMismatch(DoctrinaError):
    """Pushout attempted on maps with different domains."""


class ShapeMismatch(DoctrinaError):
    """Monotone maps compared or composed across different posets."""


class ObjMismatch(DoctrinaError):
    """Loose composition of spans whose boundary objects disagree."""


class ClassViolation(DoctrinaError):
    """A morphism fell outside the L/R class required for the operation."""


class BoundaryMismatch(DoctrinaError):
    """Cells or diagrams pasted along non-matching boundaries."""


class LabelClash(DoctrinaError):
    """Identified ports or junctions carry different type labels."""


class ContextMismatch(DoctrinaError):
    """A system was evaluated in a diagram with a different inner boundary."""


class NotAPullback(DoctrinaError):
    """A square handed to a Beck-Chevalley check is not a designated pullback."""


class NonFunctorial(DoctrinaError):
    """Substitution data refused at construction: not strictly functorial."""

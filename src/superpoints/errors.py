"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands live over different generator counts or incompatible formats."""


class ParityError(ValueError):
    """A value violates a parity constraint (odd where even is required, etc.)."""


class NotInvertibleError(ArithmeticError):
    """Inversion was requested for an element or matrix with singular body."""


class DomainError(ValueError):
    """A point lies outside the declared domain box of a map."""


class ReconstructionError(ValueError):
    """A point family failed the functoriality probes of reconstruction.

    Carries a witness describing the failing probe: either a stray monomial
    in a probe value or a morphism under which the family is not natural.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SchemaError(ValueError):
    """A JSON document does not have the shape its decoder expects.

    The message starts with the JSON path of the offending value, such as
    ``$.entries[0]``.
    """


class ParseError(ValueError):
    """Expression text could not be parsed; `position` is a 0-based byte offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position

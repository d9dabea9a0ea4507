"""Exception types shared across the package."""


class DomainError(Exception):
    """Base class for violated mathematical preconditions."""


class SingularMatrixError(DomainError):
    pass


class IndexOutsidePieceError(DomainError):
    pass


class NotSubPieceError(DomainError):
    pass


class ZeroDiagonalError(DomainError):
    pass


class NotCanonicalBasisError(DomainError):
    pass


class DependentInputError(DomainError):
    pass


class ZeroFunctionalError(DomainError):
    pass


class KernelMismatchError(DomainError):
    pass


class SubspaceNotPreservedError(DomainError):
    pass


class ParseError(Exception):
    """Malformed input document; `where` locates the offending field."""

    def __init__(self, message, where=""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where

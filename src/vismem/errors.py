"""Exception hierarchy shared by all vismem modules."""


class VismemError(Exception):
    """Base class for all vismem errors."""


class InvalidInputError(VismemError):
    """An argument violates a documented precondition."""


class MissingEmbeddingError(VismemError):
    """A required text/image embedding or feature grid is not available."""


class FormatError(VismemError):
    """A binary file is malformed. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset

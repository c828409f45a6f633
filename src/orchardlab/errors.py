"""The root of every error orchardlab raises on purpose.

Each module's error classes derive from `OrchardError`, so a caller (the
CLI above all) can catch the package's failures with one clause, without
importing the module that raises them.
"""


class OrchardError(Exception):
    """A documented orchardlab failure: bad input, bad parameters, or a
    computation outside its guarded range."""


class VerificationFailure(OrchardError):
    """A checked identity that should always hold was violated."""

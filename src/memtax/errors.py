"""Exception types shared across the package."""


class MemtaxError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MemtaxError):
    """Invalid input data or parameters (bad sequences, bad flags, bad trees)."""


class FormatError(MemtaxError):
    """Malformed or incompatible on-disk artifacts (index files, FASTA, newick)."""


class EmptyIntervalError(MemtaxError):
    """An operation requiring a non-empty suffix-array interval got an empty one."""

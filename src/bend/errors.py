"""Exception taxonomy shared across the package.

Every error carries an ``exit_code`` so the CLI can map failures to its
documented exit classes: 2 config, 3 io, 4 endpoint, 5 data/validation,
6 numeric degeneracy.
"""


class BendError(Exception):
    exit_code = 5


# -- configuration (exit 2) -------------------------------------------------

class ConfigError(BendError):
    exit_code = 2


class SynthSpecError(BendError):
    exit_code = 2


class EmptyQuery(BendError):
    exit_code = 2


# -- filesystem (exit 3) ----------------------------------------------------

class DatasetIOError(BendError):
    exit_code = 3


# -- endpoints (exit 4) -----------------------------------------------------

class MissingEndpoint(BendError):
    exit_code = 4


class ProviderUnavailable(BendError):
    exit_code = 4


# -- data / validation (exit 5) ---------------------------------------------

class MalformedResponse(BendError):
    pass


class DimensionMismatch(BendError):
    pass


class EmptyTable(BendError):
    pass


class UnknownLabel(BendError):
    pass


class EmptyGroup(BendError):
    pass


class SupportViolation(BendError):
    pass


class DegenerateGroup(BendError):
    pass


class EmptyRetrieval(BendError):
    pass


class ManifestError(BendError):
    pass


class SizeMismatch(BendError):
    pass


class MetadataError(BendError):
    pass


class NonUnitRow(BendError):
    """A table row with a NaN or infinite component."""


class TooSmall(BendError):
    pass


class DuplicateId(BendError):
    pass


class NonFiniteValue(BendError):
    pass


# -- numeric degeneracy (exit 6) ---------------------------------------------

class ZeroVector(BendError):
    exit_code = 6


class DegenerateSubspace(BendError):
    exit_code = 6


class QueryInsideSubspace(BendError):
    exit_code = 6


class DegenerateMeans(BendError):
    exit_code = 6


class ZeroResult(BendError):
    exit_code = 6

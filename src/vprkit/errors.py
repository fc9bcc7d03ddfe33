"""Exception types shared across vprkit modules."""


class VprkitError(Exception):
    """Base class for all vprkit errors."""


class ManifestError(VprkitError):
    """A manifest file failed to parse or validate.

    The message names the file and, when the problem is tied to a row, its line.
    """


class ZeroNormError(VprkitError):
    """A vector that must be normalized has (near-)zero norm."""


class NonFiniteNormError(VprkitError):
    """A vector that must be normalized has an infinite or NaN norm."""


class SamplerError(VprkitError):
    """The database cannot satisfy the requested batch specification."""


class DivergenceError(VprkitError):
    """Training produced a non-finite loss or gradient."""


class FeatureMapError(VprkitError, ValueError):
    """A feature map is invalid: `row` is its index in the batch checked.

    The message names the map by `where`, by default its row.
    """

    def __init__(self, row: int, reason: str, where: str | None = None):
        super().__init__(f"{where or f'map {row}'}: {reason}")
        self.row = row
        self.reason = reason


class FormatError(VprkitError):
    """A tensor, checkpoint or descriptor sidecar file is malformed."""

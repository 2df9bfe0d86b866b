"""Exception hierarchy shared by all cbquant modules.

Every error raised by the library derives from :class:`CbqError`, so callers
(and the CLI) can distinguish data/format problems from genuine bugs.
"""


class CbqError(Exception):
    """Base class for all cbquant errors."""


class EmptyInputError(CbqError):
    """Input vector has no elements."""


class NonFiniteInputError(CbqError):
    """Input contains NaN or infinity."""


class BadConfigError(CbqError):
    """Quantization configuration violates its invariants."""


class BadKError(CbqError):
    """Cluster count outside [1, 256] for the optimal-clustering oracle."""


class SplitLabelError(CbqError):
    """A label covers more than one run of the sorted values."""


class LengthMismatchError(CbqError):
    """Two sequences that must have equal length do not."""


class ShapeMismatchError(CbqError):
    """Array shapes are inconsistent with the model or tensor layout."""


class CorruptIndexError(CbqError):
    """A stored label points outside the codebook."""


class TooManyGroupsError(CbqError):
    """More groups requested than there are elements to split."""


class LabelOverflowError(CbqError):
    """A label does not fit in the requested bit width."""


class NonzeroPaddingError(CbqError):
    """Trailing pad bits of a packed index stream are not zero."""


class BadMagicError(CbqError):
    """Serialized blob does not start with the CBQ magic."""


class UnsupportedVersionError(CbqError):
    """CBQ format version not understood by this reader."""


class ManifestMismatchError(CbqError):
    """Tensor-bundle manifest disagrees with its payload."""


class IOFailureError(CbqError):
    """Filesystem-level failure while reading or writing a bundle."""

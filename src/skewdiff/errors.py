"""Exception types shared across the toolkit."""


class SkewDiffError(Exception):
    """Base class for all toolkit errors."""


# --- parameter regime ------------------------------------------------------

class ParamError(SkewDiffError):
    """A model parameter is outside the supported regime."""


class SigmaNonpositive(ParamError):
    pass


class DeltaBelowOne(ParamError):
    pass


class BNegative(ParamError):
    pass


class POutOfRange(ParamError):
    pass


# --- curves ----------------------------------------------------------------

class NegativeCurve(SkewDiffError):
    pass


class NonIntegrableDerivative(SkewDiffError):
    pass


class NotNormalizable(SkewDiffError):
    pass


# --- path simulation -------------------------------------------------------

class SchemeDiverged(SkewDiffError):
    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(message or f"scheme produced non-finite state at step {step_index}")


class WrongFrame(SkewDiffError):
    pass


class FrameMismatch(SkewDiffError):
    pass


class BZero(SkewDiffError):
    pass


# --- estimation / statistics ----------------------------------------------

class SeriesNotConverged(SkewDiffError):
    pass


class TooFewSamples(SkewDiffError):
    pass


# --- PDE solver ------------------------------------------------------------

class GridTooCoarse(SkewDiffError):
    pass


class UnstableSolve(SkewDiffError):
    pass


# --- reporting / CLI -------------------------------------------------------

class UnknownKind(SkewDiffError):
    pass


class ConfigInvalid(SkewDiffError):
    pass


class TruncationTooClose(ConfigInvalid, ValueError):
    """The barrier comes too close to the PDE grid's truncation level."""

"""Exception types shared across the package."""


class TopoAttnError(Exception):
    """Base class for all package errors."""


class InvalidInput(TopoAttnError):
    """Input data violates a precondition (non-finite entries, bad shapes)."""


class InvalidParameter(TopoAttnError):
    """A scalar parameter is outside its admissible range."""


class TrainingDiverged(TopoAttnError):
    """Temperature training produced a non-finite loss."""


class CalibrationMissing(TopoAttnError):
    """A train-only calibration required by the requested operation is absent."""


class DatasetSkipped(TopoAttnError):
    """A dataset failed its target sanity check and is excluded from runs."""

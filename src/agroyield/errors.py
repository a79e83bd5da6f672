"""Exception hierarchy shared across the pipeline."""


class AgroYieldError(Exception):
    """Base class for all package errors."""


class InvalidRecord(AgroYieldError):
    """A record violates schema invariants; carries the full violation list."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class HeaderMismatch(AgroYieldError):
    pass


class EmptyInput(AgroYieldError):
    pass


class EmptyDataset(AgroYieldError):
    pass


class TooFewRecords(AgroYieldError):
    pass


class InvalidArchitecture(AgroYieldError):
    pass


class DimensionMismatch(AgroYieldError):
    pass


class EmptyTrainingSet(AgroYieldError):
    pass


class DivergedLoss(AgroYieldError):
    pass


class EmptyTestSet(AgroYieldError):
    pass


class LengthMismatch(AgroYieldError):
    pass


class NearZeroActual(AgroYieldError):
    pass


class UnknownKind(AgroYieldError):
    pass


class MissingCropModel(AgroYieldError):
    pass


class NonFinitePrediction(AgroYieldError):
    pass


class MalformedConfig(AgroYieldError):
    pass

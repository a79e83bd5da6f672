"""The two errors the CLI tells apart, one per exit code."""


class AgroYieldError(Exception):
    """A data error: bad input, config or model file (exit 2)."""


class DivergedLoss(AgroYieldError):
    """A training failure: a loss or weight stopped being finite (exit 3)."""

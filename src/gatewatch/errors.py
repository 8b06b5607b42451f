"""Exception hierarchy shared by all gatewatch modules."""


class GatewatchError(Exception):
    """Base class for all gatewatch errors."""


# --- ingestion -------------------------------------------------------------

class MissingColumn(GatewatchError):
    pass


class MalformedHeader(GatewatchError):
    pass


class TimestampParseError(GatewatchError):
    pass


# --- time series -----------------------------------------------------------

class EmptyInput(GatewatchError):
    pass


class DegenerateSplit(GatewatchError):
    pass


class SeriesTooShort(GatewatchError):
    pass


class MissingValuesPresent(GatewatchError):
    pass


class AllMissing(GatewatchError):
    pass


class MalformedSeries(GatewatchError, ValueError):
    """A series JSON text that does not hold a series."""


# --- models ----------------------------------------------------------------

class NonFiniteLoss(GatewatchError):
    pass


class LengthMismatch(GatewatchError):
    pass


class AllTargetsZero(GatewatchError):
    pass


# --- detection -------------------------------------------------------------

class UnsupportedConfidence(GatewatchError):
    pass


# --- classification / streaming --------------------------------------------

class SchemaMismatch(GatewatchError):
    pass


class NonNumericValue(SchemaMismatch, ValueError):
    """A thermometer field holds a value that is not a number."""


class EmptyTrainingSet(GatewatchError):
    pass


class WidthMismatch(GatewatchError):
    pass


# --- simulation ------------------------------------------------------------

class InvalidScript(GatewatchError):
    pass


class TimeBaseMismatch(GatewatchError):
    pass


class MalformedLabels(GatewatchError):
    """A labels.csv row that lacks a column or has a non-integer index."""

"""Exception types shared across the package.

Every error raised by protflow derives from ProtflowError so callers can catch
one base class. Each concrete error family carries the CLI exit code it maps
to as `exit_code`: config errors -> 1, data and metric-input errors -> 2,
numerical failures (divergence, non-finite values, solver failures) -> 3,
checkpoint errors and model/layout shape disagreements -> 4.
"""


class ProtflowError(Exception):
    """Base class for all protflow errors; only its subclasses are raised."""


# --- sequence / data errors -------------------------------------------------

class DataError(ProtflowError):
    """A referenced data file is missing, unreadable, or malformed."""
    exit_code = 2


class UnknownResidue(DataError):
    def __init__(self, char, position):
        self.char = char
        self.position = position
        super().__init__(f"unknown residue {char!r} at position {position}")


class InvalidTokenId(DataError):
    def __init__(self, token):
        self.token = token
        super().__init__(f"token id {token} outside vocabulary")


class SequenceTooLong(DataError):
    def __init__(self, length, l_max):
        self.length = length
        self.l_max = l_max
        super().__init__(f"sequence length {length} exceeds L_max={l_max}")


class MalformedFasta(DataError):
    pass


class EmptyCorpus(DataError):
    pass


# --- config errors ----------------------------------------------------------

class ConfigError(ProtflowError):
    """Bad config file, unknown key, bad value, or missing required key."""
    exit_code = 1


# --- numeric errors ---------------------------------------------------------

class TooFewSamples(ProtflowError):
    exit_code = 3


class NotSymmetric(ProtflowError):
    exit_code = 3


class NotPSD(ProtflowError):
    exit_code = 3


class NonFiniteValue(ProtflowError):
    exit_code = 3


# --- latent / training errors -----------------------------------------------

class IncompatibleRatio(ProtflowError):
    """Latent width not divisible by the compression ratio."""
    exit_code = 1


class Diverged(ProtflowError):
    """Training loss became non-finite."""
    exit_code = 3


class NonFiniteLoss(ProtflowError):
    """A single objective evaluation came out non-finite."""
    exit_code = 3


class ShapeMismatch(ProtflowError):
    exit_code = 4


# --- ODE solver errors ------------------------------------------------------

class SolverFailure(ProtflowError):
    """Base class for solver failures (propagated by callers such as reflow)."""
    exit_code = 3


class NonFiniteState(SolverFailure):
    pass


class NfeBudgetExceeded(SolverFailure):
    pass


class StepUnderflow(SolverFailure):
    pass


# --- multichain errors ------------------------------------------------------

class WidthMismatch(ProtflowError):
    exit_code = 4


class LayoutMismatch(ProtflowError):
    exit_code = 4


# --- metric errors ----------------------------------------------------------

class TooFewSequences(ProtflowError):
    exit_code = 2


class EmptyInput(ProtflowError):
    exit_code = 2


class EmptySequence(ProtflowError):
    exit_code = 2


class UnequalSizes(ProtflowError):
    exit_code = 2


class BadBandwidth(ProtflowError):
    exit_code = 2


class BatchTooLarge(ProtflowError):
    exit_code = 2


class DimensionMismatch(ProtflowError):
    exit_code = 2


# --- checkpoint errors ------------------------------------------------------

class CheckpointError(ProtflowError):
    exit_code = 4


class BadMagic(CheckpointError):
    pass


class VersionUnsupported(CheckpointError):
    def __init__(self, found, supported):
        self.found = found
        self.supported = supported
        super().__init__(f"checkpoint version {found} unsupported (supported: {supported})")


class CorruptOffset(CheckpointError):
    pass


class MalformedHeader(CheckpointError):
    """The JSON header does not follow the checkpoint schema, or lacks the
    metadata its checkpoint kind needs."""


class IncompatibleCheckpoint(CheckpointError):
    """Checkpoint lacks a component the command needs."""


class NonFiniteTensor(CheckpointError):
    """A stored tensor holds NaN or infinity."""


# --- warnings ---------------------------------------------------------------

class DegeneratePropertyWarning(UserWarning):
    """A property had identical values everywhere after pooling; it was skipped."""


class BothSetsEmptyWarning(UserWarning):
    """Both k-mer sets were empty; similarity defined as 0."""

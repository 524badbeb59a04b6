"""Exception types shared across the simulator."""
from __future__ import annotations


class GossipSegError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(GossipSegError):
    """A configuration value is out of its admissible range."""


class ShapeMismatchError(GossipSegError):
    """Tensor shapes do not match the run's model geometry."""


class SerializationError(GossipSegError):
    """Canonical encoding or decoding failed."""


class IntegrityError(GossipSegError):
    """Stored or received bytes do not match their recorded digest."""


class NotFoundError(GossipSegError):
    """A content identifier has no stored blocks."""


class LedgerError(GossipSegError):
    """A ledger transaction was rejected; no state was changed."""


class SchedulingError(GossipSegError):
    """A tick lies before the scheduler's clock, or a round outside the noise schedule."""


class InfeasibleTrimError(GossipSegError):
    """Trimming would discard every value."""


class EmptyAggregationError(GossipSegError):
    """An aggregation was requested over zero inputs."""


class InvalidInputError(GossipSegError):
    """An input violates a precondition (empty, non-finite, wrong range)."""


class KeyMismatchError(GossipSegError):
    """Ciphertexts from different key pairs were mixed."""

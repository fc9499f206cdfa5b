"""Exception hierarchy for the repro package.

All exceptions raised by the package derive from :class:`ReproError`, so a
caller can catch everything library-specific with a single ``except`` clause
while still being able to distinguish the common failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CircuitError",
    "GateError",
    "PermutationError",
    "ParseError",
    "OracleError",
    "InverseUnavailableError",
    "QueryBudgetExceededError",
    "MatchingError",
    "PromiseViolationError",
    "UnsupportedEquivalenceError",
    "SynthesisError",
    "SatError",
    "QuantumError",
    "ServiceError",
    "FingerprintError",
    "DaemonError",
    "DaemonConnectionError",
    "DaemonTimeoutError",
    "FleetError",
    "LintError",
]


class ReproError(Exception):
    """Base class for every exception raised by the package."""


class CircuitError(ReproError):
    """A reversible circuit was constructed or used inconsistently."""


class GateError(CircuitError):
    """A gate definition is invalid (e.g. target overlapping a control)."""


class PermutationError(ReproError):
    """A mapping that should be a permutation is not one."""


class ParseError(ReproError):
    """A circuit or CNF file could not be parsed."""


class OracleError(ReproError):
    """Misuse of a black-box oracle."""


class InverseUnavailableError(OracleError):
    """The inverse circuit was requested but the oracle does not expose it."""


class QueryBudgetExceededError(OracleError):
    """An oracle query budget was set and the algorithm exceeded it."""


class MatchingError(ReproError):
    """A Boolean matcher failed to produce a solution."""


class PromiseViolationError(MatchingError):
    """The circuits under test violate the promised equivalence.

    Problem 1 of the paper is a *promise* problem: matchers may silently
    return garbage when the promise does not hold.  Where a matcher can
    cheaply detect the violation it raises this exception instead.
    """


class UnsupportedEquivalenceError(MatchingError):
    """No polynomial algorithm exists (or is implemented) for the request."""


class SynthesisError(ReproError):
    """Reversible-circuit synthesis failed."""


class SatError(ReproError):
    """SAT substrate failure (malformed CNF, solver misuse, ...)."""


class QuantumError(ReproError):
    """Quantum substrate failure (dimension mismatch, invalid state, ...)."""


class ServiceError(ReproError):
    """Failure in the matching service layer (corpus, store, pipeline)."""


class FingerprintError(ServiceError):
    """An oracle cannot be fingerprinted (e.g. opaque and too wide)."""


class DaemonError(ServiceError):
    """Failure in the matching daemon (protocol, transport, or job state)."""


class DaemonConnectionError(DaemonError):
    """The transport to a daemon failed (refused, reset, or hung up).

    Distinct from a server *error frame* (plain :class:`DaemonError`):
    a connection error means the daemon may not have seen the request at
    all, so it is the one failure mode a client may safely retry — the
    reconnect-with-replay path in ``DaemonClient.events`` and the fleet
    coordinator's dead-peer detection both key on this type.
    """


class DaemonTimeoutError(DaemonError):
    """No frame arrived within the client's socket timeout.

    Not a :class:`DaemonConnectionError`: the connection is still up,
    the daemon is just quiet.  The fleet coordinator uses this as its
    heartbeat signal to probe whether a worker is hung.
    """


class FleetError(ServiceError):
    """Failure in the fleet layer (no healthy peers, shard exhaustion, ...)."""


class LintError(ReproError):
    """Misuse of the lint subsystem (bad baseline or target)."""

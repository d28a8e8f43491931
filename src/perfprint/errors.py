"""Exception hierarchy shared across the toolkit.

Three broad families map onto the CLI exit codes: configuration problems
(bad flags, unknown scenarios, invalid parameters), data problems (missing
or malformed files, impossible splits), and collector problems (missing OS
interface, denied access, unsupported events).

`check_seed` is the one check of a random seed, made where a seed is
handed to numpy's generator.
"""


class PerfprintError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PerfprintError, ValueError):
    """Invalid configuration: unknown names, out-of-range parameters."""


class DataError(PerfprintError, ValueError):
    """Invalid or inconsistent data: parse failures, broken invariants."""


def check_seed(seed, name: str = "seed"):
    """A ConfigError for a negative seed, which numpy's generator refuses
    with a bare ValueError. One comparison, no allocation."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")


class CollectorError(PerfprintError, RuntimeError):
    """Base class for event-collection failures."""


class InterfaceUnavailableError(CollectorError):
    """The OS performance-monitoring interface is absent on this system."""


class PermissionDeniedError(CollectorError):
    """Collection denied by the event-access policy.

    `required_level` names the paranoid level that would permit the request.
    """

    def __init__(self, message, required_level=None):
        super().__init__(message)
        self.required_level = required_level


class UnsupportedEventError(CollectorError):
    """A requested event is not implemented by this CPU."""


class CounterSlotsExhaustedError(CollectorError):
    """More events requested than hardware counter slots available."""


class ProcessWaitTimeoutError(CollectorError):
    """No matching process appeared in time.

    `last_scan` holds the final pid -> name snapshot for diagnostics.
    """

    def __init__(self, message, last_scan=None):
        super().__init__(message)
        self.last_scan = dict(last_scan or {})

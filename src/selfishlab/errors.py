"""Exception types shared across the package."""


class SelfishLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidParam(SelfishLabError, ValueError):
    """A model parameter lies outside its documented domain."""


class InvalidConfig(SelfishLabError, ValueError):
    """A simulation configuration is inconsistent or out of domain."""


class DivergentLead(SelfishLabError):
    """The private lead drifts upward and has no stationary distribution."""

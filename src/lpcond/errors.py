"""Exception types shared across the library."""


class DegenerateHullError(RuntimeError):
    """Hull generators span a proper subspace; no interior exists."""


class InstanceTooLargeError(ValueError):
    """Brute-force subset enumeration would exceed the safety guard."""


class ConvergenceError(RuntimeError):
    """Iterative solver hit its iteration cap without a certified answer."""


class ConfigError(ValueError):
    """An experiment configuration violates a documented precondition."""

"""Exceptions that map to CLI exit codes (config -> 2, data -> 3)."""


class ConfigError(Exception):
    """Invalid configuration value or malformed config document."""


class DataError(Exception):
    """Missing, malformed, or insufficient dataset content."""


class NonFiniteError(ValueError):
    """A loss or a network output holds NaN or inf: the run has diverged."""

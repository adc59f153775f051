"""Defaults shared across subsystems.

A leaf module (no imports), so any layer — synthesis, the eval runner,
the service, the CLI — can read these without an import cycle.
"""

#: Seeds ``generate_network`` takes the best of unless told otherwise;
#: the one default behind every ``restarts`` knob (CLI, service specs,
#: evaluation setups, portfolios).
DEFAULT_RESTARTS = 8

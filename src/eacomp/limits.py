"""Dimension caps shared across the package.

Defaults are sized for desk-scale problems (an n=12 qubit block simulation
fits comfortably in memory). Each cap can be overridden by environment
variable at import time or reassigned at runtime (the CLI does the latter
for one call when the corresponding flag is given, and restores the cap
after it; flags win over the environment). A cap is a positive integer.
"""

import os


def positive_int(text: str, name: str = "a cap") -> int:
    """text as an integer >= 1; ValueError naming name otherwise."""
    if not text.strip().removeprefix("+").isdecimal() or int(text) < 1:
        raise ValueError(f"{name} must be a positive integer, got {text!r}")
    return int(text)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return positive_int(raw, name) if raw else default


# max entries of a state vector
VECTOR_CAP = _env_int("EACOMP_VECTOR_CAP", 2**16)
# max side length of a density matrix
MATRIX_CAP = _env_int("EACOMP_MATRIX_CAP", 2**13)
# max number of classical sequences enumerated exactly
SEQUENCE_CAP = _env_int("EACOMP_SEQUENCE_CAP", 200_000)
# max dimension of the n-copy source space in the block simulator
CODE_DIM_CAP = _env_int("EACOMP_CODE_DIM_CAP", 2**14)

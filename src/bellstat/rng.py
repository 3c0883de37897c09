"""Deterministic random streams shared by every sampler in the package.

Philox is a counter-based generator with a published algorithm, so a stream
is fully identified by its key.  Sub-stream ``chunk`` of master ``seed`` uses
key ``chunk * 2**64 + seed``, so chunked work is reproducible chunk by chunk:
its draws depend only on the seed and the chunk index.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

SEED_LIMIT = 2**64


def validate_seed(seed: int) -> int:
    if isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    try:
        value = operator.index(seed)
    except TypeError:
        raise ValidationError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= value < SEED_LIMIT:
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {value}")
    return value


def stream(seed: int, chunk: int = 0) -> np.random.Generator:
    """The Philox sub-stream ``chunk`` of master ``seed``."""
    import numpy as np  # here, not at import: validate_seed needs no numpy

    return np.random.Generator(np.random.Philox(key=(chunk << 64) | validate_seed(seed)))

"""Shipped experiment configurations, usable as ``--config <name>``."""

from __future__ import annotations

import json
from importlib import resources

from ..errors import ValidationError

PRESET_NAMES = ("wigner-uniform", "marble-bag", "quantum-60", "counterexample-search")


def load_preset(name: str) -> dict:
    """Load a shipped preset configuration by name."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files(__package__).joinpath(f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)

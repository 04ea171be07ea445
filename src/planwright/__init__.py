"""Seeded generator of single-storey suburban house floor plans.

The package root holds the API a caller needs: the config, ``generate`` and
the plan document with its JSON, SVG and validity check.  The pipeline's
stage functions live in their own modules (``planwright.sampling``,
``planwright.treemap``, ``planwright.corridor`` and so on).
"""

from .openings import ValidationReport, validate
from .plan import (
    FloorPlan,
    GenerationError,
    PlanParseError,
    Room,
    SvgStyle,
    from_json,
    gallery_svg,
    generate,
    to_json,
    to_svg,
)
from .sampling import ConfigError, GenConfig, RoomKind

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "FloorPlan",
    "GenConfig",
    "GenerationError",
    "PlanParseError",
    "Room",
    "RoomKind",
    "SvgStyle",
    "ValidationReport",
    "from_json",
    "gallery_svg",
    "generate",
    "to_json",
    "to_svg",
    "validate",
]

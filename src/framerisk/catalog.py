"""Built-in frame and study-variant catalog.

Frame tokens read "stories x bays" (so ``8x8`` is the reference square
frame) and map to geometries with the default 6 m bays and 3 m stories; the
seven stock frames share roughly the same tributary area.  Damage tokens
read "removed columns x damaged stories".
"""

from __future__ import annotations

from .model import DamageScenario, FrameGeometry

# stories x bays, constant-ish tributary area.
FRAME_CATALOG: dict[str, FrameGeometry] = {
    "16x4": FrameGeometry(16, 5),
    "13x5": FrameGeometry(13, 6),
    "11x6": FrameGeometry(11, 7),
    "8x8": FrameGeometry(8, 9),
    "6x11": FrameGeometry(6, 12),
    "5x13": FrameGeometry(5, 14),
    "4x16": FrameGeometry(4, 17),
}

DAMAGE_VARIANTS: tuple[DamageScenario, ...] = (
    DamageScenario(1, 1),
    DamageScenario(1, 0),
    DamageScenario(2, 1),
    DamageScenario(3, 2),
)


def parse_frame_token(token: str) -> FrameGeometry:
    """``"SxB"`` -> geometry with S stories and B bays (catalog L and H)."""
    key = token.lower().replace(" ", "")
    if key in FRAME_CATALOG:
        return FRAME_CATALOG[key]
    try:
        stories, bays = key.split("x")
        n_s, n_b = int(stories), int(bays)
    except ValueError as exc:
        raise ValueError(f"frame token must look like '8x8', got {token!r}") from exc
    if n_s < 1 or n_b < 1:
        raise ValueError(f"frame token needs positive stories and bays, got {token!r}")
    return FrameGeometry(n_s, n_b + 1)


def parse_damage_token(token: str) -> DamageScenario:
    """``"CxS"`` -> C removed columns over S stories."""
    key = token.lower().replace(" ", "")
    try:
        cols, stories = key.split("x")
        return DamageScenario(int(cols), int(stories))
    except ValueError as exc:
        raise ValueError(f"damage token must look like '1x1', got {token!r}") from exc

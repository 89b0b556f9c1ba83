"""Synthetic word-image generator.

Stands in for the unavailable handwritten corpus: 14 fixed archetypes built
from stroke primitives (line segments and ellipse arcs), rendered dark on a
white CANVAS-sized image under seeded jitter (rotation, scale, translation,
stroke thickness) and salt noise at rate SALT.  Ink that the jitter carries
past the canvas is dropped, as if the paper were cut there.  Archetypes are
abstract word shapes, not glyph renderings; the recognizer is script-agnostic,
so these exercise the whole pipeline without dragging in a text-shaping engine.

Every sample is a pure function of (seed, class id, sample index), so a
generation run is byte-reproducible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import imaging, workers
from .dataset import Manifest, write_manifest
from .labels import N_CLASSES

ROTATION_DEG = 5.0
SCALE_RANGE = (0.9, 1.1)
TRANSLATE_PX = 4.0
THICKNESS_RANGE = (2.0, 5.0)
CANVAS = (64, 192)  # (height, width), pre-resize
SALT = 0.002        # probability that a pixel is reset to white

_INK_MAX = 60.0
_PATH_STEP = 0.35  # px between consecutive samples along a stroke


@dataclass(frozen=True)
class SynthSpec:
    per_class: int
    seed: int

    def __post_init__(self) -> None:
        if self.per_class < 1:
            raise ValueError(f"per_class must be >= 1, got {self.per_class}")


# Strokes in unit coordinates (x right, y down).  ("line", x0, y0, x1, y1) or
# ("arc", cx, cy, rx, ry, deg0, deg1); a full 360-degree arc is a loop.
ARCHETYPES: dict[int, list[tuple]] = {
    1: [  # descending staircase
        ("line", 0.0, 0.0, 0.33, 0.0),
        ("line", 0.33, 0.0, 0.33, 0.5),
        ("line", 0.33, 0.5, 0.67, 0.5),
        ("line", 0.67, 0.5, 0.67, 1.0),
        ("line", 0.67, 1.0, 1.0, 1.0),
    ],
    2: [  # loop with a long tail rising at the end
        ("arc", 0.2, 0.5, 0.18, 0.42, 0.0, 360.0),
        ("line", 0.38, 0.5, 1.0, 0.5),
        ("line", 1.0, 0.5, 1.0, 0.05),
    ],
    3: [  # zigzag spanning the full width
        ("line", 0.0, 0.0, 0.2, 1.0),
        ("line", 0.2, 1.0, 0.4, 0.0),
        ("line", 0.4, 0.0, 0.6, 1.0),
        ("line", 0.6, 1.0, 0.8, 0.0),
        ("line", 0.8, 0.0, 1.0, 1.0),
    ],
    4: [  # two loops joined at the waist
        ("arc", 0.25, 0.5, 0.2, 0.42, 0.0, 360.0),
        ("arc", 0.75, 0.5, 0.2, 0.42, 0.0, 360.0),
        ("line", 0.45, 0.5, 0.55, 0.5),
    ],
    5: [  # crossed diagonals with a mid bar
        ("line", 0.0, 0.0, 1.0, 1.0),
        ("line", 0.0, 1.0, 1.0, 0.0),
        ("line", 0.2, 0.5, 0.8, 0.5),
    ],
    6: [  # three arches on a left spine
        ("line", 0.02, 0.1, 0.02, 1.0),
        ("arc", 0.19, 0.75, 0.15, 0.55, 180.0, 360.0),
        ("arc", 0.52, 0.75, 0.15, 0.55, 180.0, 360.0),
        ("arc", 0.85, 0.75, 0.15, 0.55, 180.0, 360.0),
    ],
    7: [  # four posts on a baseline
        ("line", 0.0, 0.0, 0.0, 1.0),
        ("line", 0.33, 0.0, 0.33, 1.0),
        ("line", 0.67, 0.0, 0.67, 1.0),
        ("line", 1.0, 0.0, 1.0, 1.0),
        ("line", 0.0, 1.0, 1.0, 1.0),
    ],
    8: [  # wide dome, right drop, small loop bottom-left
        ("arc", 0.5, 0.55, 0.48, 0.45, 180.0, 360.0),
        ("line", 0.98, 0.55, 0.98, 1.0),
        ("arc", 0.15, 0.85, 0.12, 0.13, 0.0, 360.0),
    ],
    9: [  # two-period wave
        ("arc", 0.125, 0.5, 0.125, 0.45, 180.0, 360.0),
        ("arc", 0.375, 0.5, 0.125, 0.45, 0.0, 180.0),
        ("arc", 0.625, 0.5, 0.125, 0.45, 180.0, 360.0),
        ("arc", 0.875, 0.5, 0.125, 0.45, 0.0, 180.0),
    ],
    10: [  # box with a center tick
        ("line", 0.0, 0.0, 1.0, 0.0),
        ("line", 1.0, 0.0, 1.0, 1.0),
        ("line", 1.0, 1.0, 0.0, 1.0),
        ("line", 0.0, 1.0, 0.0, 0.0),
        ("line", 0.5, 0.25, 0.5, 0.75),
    ],
    11: [  # small loop top-left, diagonal to a baseline
        ("arc", 0.18, 0.22, 0.16, 0.2, 0.0, 360.0),
        ("line", 0.3, 0.38, 1.0, 1.0),
        ("line", 0.0, 1.0, 1.0, 1.0),
    ],
    12: [  # left spine with two right-opening bowls
        ("line", 0.0, 0.0, 0.0, 1.0),
        ("arc", 0.45, 0.26, 0.42, 0.24, 270.0, 450.0),
        ("arc", 0.45, 0.78, 0.42, 0.2, 270.0, 450.0),
    ],
    13: [  # triangle with a center stem
        ("line", 0.5, 0.0, 1.0, 1.0),
        ("line", 1.0, 1.0, 0.0, 1.0),
        ("line", 0.0, 1.0, 0.5, 0.0),
        ("line", 0.5, 0.45, 0.5, 1.0),
    ],
    14: [  # nested loops with a rising tail
        ("arc", 0.4, 0.5, 0.35, 0.46, 0.0, 360.0),
        ("arc", 0.4, 0.5, 0.17, 0.22, 0.0, 360.0),
        ("line", 0.75, 0.5, 1.0, 0.15),
    ],
}


def _stroke_points(prim: tuple, unit_to_px: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Sample one primitive densely, returning (n, 2) pixel (x, y) points."""
    if prim[0] == "line":
        _, x0, y0, x1, y1 = prim
        p0 = unit_to_px * (x0, y0) + offset
        p1 = unit_to_px * (x1, y1) + offset
        n = max(2, int(math.ceil(np.hypot(*(p1 - p0)) / _PATH_STEP)) + 1)
        t = np.linspace(0.0, 1.0, n)[:, None]
        return p0 + t * (p1 - p0)
    _, cx, cy, rx, ry, a0, a1 = prim
    r_px = max(rx * unit_to_px[0], ry * unit_to_px[1])
    sweep = math.radians(abs(a1 - a0))
    n = max(4, int(math.ceil(sweep * r_px / _PATH_STEP)) + 1)
    theta = np.radians(np.linspace(a0, a1, n))
    xs = (cx + rx * np.cos(theta)) * unit_to_px[0] + offset[0]
    ys = (cy + ry * np.sin(theta)) * unit_to_px[1] + offset[1]
    return np.column_stack([xs, ys])


@cache
def _class_points(class_id: int) -> np.ndarray:
    """The archetype's stroke samples before any jitter, as (n, 2) (x, y) pixel
    offsets from the canvas centre: computed once per class, and read-only."""
    h, w = CANVAS
    margin_x, margin_y = 0.07 * w, 0.14 * h
    unit_to_px = np.array([w - 2 * margin_x, h - 2 * margin_y])
    offset = np.array([margin_x, margin_y])
    pts = np.vstack([_stroke_points(p, unit_to_px, offset) for p in ARCHETYPES[class_id]])
    pts -= (w / 2.0, h / 2.0)
    pts.flags.writeable = False
    return pts


def _render_mask(
    class_id: int,
    thickness: float,
    rotation_deg: float,
    scale: float,
    shift: tuple[float, float],
) -> np.ndarray:
    """Boolean ink mask for one archetype under the given affine jitter.

    Each stroke sample is rounded to a pixel and dilated by the pen disc, the
    offsets (dx, dy) with dx*dx + dy*dy <= r*r for r = thickness / 2.  Ink past
    the canvas is dropped.  The dilation runs on a canvas padded by one reach,
    without the centres off that padded canvas, whose discs miss the canvas.
    """
    if class_id not in ARCHETYPES:
        raise ValueError(f"class id {class_id} out of range [1, {N_CLASSES}]")
    h, w = CANVAS
    theta = math.radians(rotation_deg)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    pts = _class_points(class_id) @ (scale * rot).T
    xs, ys = pts.T
    xs += w / 2.0
    xs += shift[0]
    ys += h / 2.0
    ys += shift[1]

    r = thickness / 2.0
    reach = int(math.floor(r))
    height, width = h + 2 * reach, w + 2 * reach
    # each centre's pixel on the padded canvas, as an index into the flattened canvas
    np.rint(pts, out=pts)
    pts += reach
    inside = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    ink = np.zeros(height * width, dtype=bool)
    ink[(ys[inside] * width + xs[inside]).astype(np.intp)] = True

    # runs[a]: the centres dilated along their row by up to a pixels either way; a
    # flat shift past a row's end lands in the padding columns, which the crop drops
    runs = [ink]
    for a in range(1, reach + 1):
        run = runs[-1].copy()
        run[a:] |= ink[:-a]
        run[:-a] |= ink[a:]
        runs.append(run)
    # the disc's row at offset dy spans |dx| <= half; an integer is <= r*r iff it
    # is <= floor(r*r)
    limit, n = math.floor(r * r), ink.size
    disc = np.zeros_like(ink)
    for dy in range(-reach, reach + 1):
        half = min(reach, math.isqrt(limit - dy * dy))
        step = dy * width
        disc[max(step, 0):n + min(step, 0)] |= runs[half][max(-step, 0):n - max(step, 0)]
    return disc.reshape(height, width)[reach:reach + h, reach:reach + w]


def render_word(class_id: int, spec: SynthSpec, index: int) -> np.ndarray:
    """One jittered sample; deterministic in (spec.seed, class_id, index)."""
    gen = np.random.default_rng([spec.seed, class_id, index])
    rotation = gen.uniform(-ROTATION_DEG, ROTATION_DEG)
    scale = gen.uniform(*SCALE_RANGE)
    shift = tuple(gen.uniform(-TRANSLATE_PX, TRANSLATE_PX, size=2))
    thickness = gen.uniform(*THICKNESS_RANGE)
    ink_value = int(round(gen.uniform(0.0, _INK_MAX)))
    mask = _render_mask(class_id, thickness, rotation, scale, shift)
    image = np.full(CANVAS, 255, dtype=np.uint8)
    image[mask] = ink_value
    image[gen.random(CANVAS) < SALT] = 255
    return image


def synth_generate(spec: SynthSpec, out_dir: str | os.PathLike) -> Manifest:
    """Render per_class samples of each class and write images + manifest.

    Images are rendered and written by `workers.map_jobs`, `workers.BLOCK` at a time.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    images = [(class_id, index) for class_id in range(1, N_CLASSES + 1)
              for index in range(spec.per_class)]
    names = [f"c{class_id:02d}_s{index:03d}.pgm" for class_id, index in images]

    def write(block: tuple[int, int]) -> None:
        for k in range(*block):
            class_id, index = images[k]
            imaging.write_pgm(out / names[k], render_word(class_id, spec, index))

    workers.map_jobs(write, workers.blocks(len(images)))
    manifest = Manifest(records=[(name, class_id) for name, (class_id, _) in zip(names, images)],
                        root=out)
    write_manifest(manifest, out / "manifest.csv")
    return manifest

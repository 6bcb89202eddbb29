"""Deterministic SVG scatter plots of embeddings.

Fixed 800x800 canvas, radius-2 circles, a fixed 10-color palette keyed by
label, axes auto-scaled to the data bounding box with a 5% margin. Output is
plain SVG 1.1 text with fixed number formatting, so identical inputs always
produce identical bytes (golden-file testable).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .linalg import as_matrix

CANVAS = 800
POINT_RADIUS = 2.0
MARGIN = 0.05

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
DEFAULT_COLOR = PALETTE[0]


def _axis_scale(values: np.ndarray):
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    if span == 0.0:
        lo, hi = lo - 0.5, hi + 0.5
        span = 1.0
    lo -= MARGIN * span
    hi += MARGIN * span
    return lo, hi - lo


def scatter_svg(coords, labels=None, axes: tuple[int, int] = (0, 1),
                comment: str | None = None) -> str:
    """Render a 2-D scatter of the selected coordinate pair as SVG text.

    Higher-dimensional input is projected by orthographic drop of the unused
    axes. Raises InputError for fewer than 2 coordinate columns.
    """
    x = as_matrix(coords, "coords")
    if x.shape[1] < 2:
        raise InputError(f"plotting needs >= 2 coordinate columns, got {x.shape[1]}")
    i, j = axes
    if not (0 <= i < x.shape[1] and 0 <= j < x.shape[1]) or i == j:
        raise InputError(f"axes {axes} invalid for {x.shape[1]} coordinate columns")
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size != x.shape[0]:
            raise ValueError(f"{labels.size} labels for {x.shape[0]} points")

    x_lo, x_span = _axis_scale(x[:, i])
    y_lo, y_span = _axis_scale(x[:, j])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS}" height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
    ]
    if comment is not None:
        lines.append(f"<!-- {comment} -->")
    lines.append(f'<rect width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>')
    for row in range(x.shape[0]):
        cx = (x[row, i] - x_lo) / x_span * CANVAS
        cy = CANVAS - (x[row, j] - y_lo) / y_span * CANVAS
        color = DEFAULT_COLOR if labels is None else PALETTE[int(labels[row]) % 10]
        lines.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{POINT_RADIUS:g}" fill="{color}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

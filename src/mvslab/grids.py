"""The RGB image container shared by the whole pipeline, plus the
forward-difference operator the losses and the cascade rely on. Depth,
probability and consistency maps are plain (H, W) float64 arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """A grid violates its shape or value contract."""


@dataclass
class Image:
    """H x W x 3 RGB intensity grid, values in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise GridError("image data must be finite")
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise GridError(f"image must be HxWx3, got shape {arr.shape}")
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise GridError("image values must lie in [0, 1]")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise GridError("image must be at least 1x1")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def forward_diff(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along width (gx) and height (gy).

    gx(v, u) = arr(v, u+1) - arr(v, u), zero in the last column;
    gy(v, u) = arr(v+1, u) - arr(v, u), zero in the last row.
    Works on (H, W) and (H, W, C) arrays.
    """
    gx = np.zeros_like(arr)
    gy = np.zeros_like(arr)
    gx[:, :-1] = arr[:, 1:] - arr[:, :-1]
    gy[:-1, :] = arr[1:, :] - arr[:-1, :]
    return gx, gy


def to_grayscale(img: Image) -> np.ndarray:
    """Channel-mean grayscale, (H, W)."""
    return img.data.mean(axis=2)

"""Dense grid containers shared by the whole pipeline, plus the forward-difference
and bilinear-resize operators the losses and the cascade rely on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """A grid violates its shape or value contract."""


def _finite_float(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise GridError(f"{name} data must be finite")
    return arr


@dataclass
class Image:
    """H x W x C intensity grid, values in [0, 1], C in {1, 3}."""

    data: np.ndarray

    def __post_init__(self):
        arr = _finite_float(self.data, "image")
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise GridError(f"image must be HxWx1 or HxWx3, got shape {arr.shape}")
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


@dataclass
class ScalarField:
    """H x W grid of finite scalars (mm for depth, dimensionless otherwise)."""

    data: np.ndarray

    def __post_init__(self):
        arr = _finite_float(self.data, "scalar field")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise GridError(f"scalar field must be HxW, got shape {arr.shape}")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass
class BinaryMask:
    """H x W grid of {0, 1}, stored as bool."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.dtype != np.bool_:
            vals = np.unique(arr)
            if not np.all(np.isin(vals, (0, 1))):
                raise GridError("mask values must be 0 or 1")
            arr = arr.astype(bool)
        if arr.ndim != 2:
            raise GridError(f"mask must be HxW, got shape {arr.shape}")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def count(self) -> int:
        return int(self.data.sum())


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


def _corner_aligned_coords(n_src: int, n_dst: int) -> np.ndarray:
    if n_dst == 1:
        return np.zeros(1)
    return np.linspace(0.0, n_src - 1.0, n_dst)


def _resize_array(arr: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    h, w = arr.shape[:2]
    vs = _corner_aligned_coords(h, new_h)
    us = _corner_aligned_coords(w, new_w)
    v0 = np.clip(np.floor(vs).astype(int), 0, max(h - 2, 0))
    u0 = np.clip(np.floor(us).astype(int), 0, max(w - 2, 0))
    fv = (vs - v0)[:, None]
    fu = (us - u0)[None, :]
    v1 = np.minimum(v0 + 1, h - 1)
    u1 = np.minimum(u0 + 1, w - 1)
    if arr.ndim == 3:
        fv = fv[:, :, None]
        fu = fu[:, :, None]
    a00 = arr[np.ix_(v0, u0)]
    a01 = arr[np.ix_(v0, u1)]
    a10 = arr[np.ix_(v1, u0)]
    a11 = arr[np.ix_(v1, u1)]
    top = a00 * (1.0 - fu) + a01 * fu
    bot = a10 * (1.0 - fu) + a11 * fu
    return top * (1.0 - fv) + bot * fv


def resize_bilinear(field, new_h: int, new_w: int):
    """Corner-aligned bilinear resize; returns the same kind as the input."""
    if new_h < 1 or new_w < 1:
        raise GridError(f"resize target must be >= 1x1, got {new_h}x{new_w}")
    if isinstance(field, Image):
        return Image(_resize_array(field.data, new_h, new_w))
    if isinstance(field, ScalarField):
        return ScalarField(_resize_array(field.data, new_h, new_w))
    return _resize_array(np.asarray(field, dtype=np.float64), new_h, new_w)


def to_grayscale(img: Image) -> np.ndarray:
    """Channel-mean grayscale, (H, W)."""
    return img.data.mean(axis=2)

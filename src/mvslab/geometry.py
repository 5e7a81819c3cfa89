"""Pinhole camera model, per-pixel inverse warping, differentiable bilinear
sampling, and the depth derivative of the warp used by the analytic gradients.

Conventions: pixel coordinate p = (u, v) with u along width; poses are 4x4
world-to-camera rigid transforms; depth is the camera-frame z in mm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Image, ScalarField

EPS_Z = 1e-3  # mm; guard against points at/behind the source camera plane


class GeometryError(ValueError):
    pass


@dataclass
class Camera:
    """Intrinsics, world-to-camera pose, and the usable depth range."""

    k: np.ndarray
    pose: np.ndarray
    depth_min: float
    depth_max: float
    depth_interval: float | None = None
    depth_num: int = 192

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.float64)
        self.pose = np.asarray(self.pose, dtype=np.float64)
        if self.k.shape != (3, 3):
            raise GeometryError(f"intrinsics must be 3x3, got {self.k.shape}")
        if self.pose.shape != (4, 4):
            raise GeometryError(f"pose must be 4x4, got {self.pose.shape}")
        lower = np.array([self.k[1, 0], self.k[2, 0], self.k[2, 1]])
        if np.any(np.abs(lower) > 1e-9):
            raise GeometryError("intrinsic matrix must be upper-triangular")
        if self.k[0, 0] <= 0 or self.k[1, 1] <= 0:
            raise GeometryError("focal entries must be positive")
        r = self.pose[:3, :3]
        if np.linalg.norm(r.T @ r - np.eye(3)) > 1e-6:
            raise GeometryError("rotation block must be orthonormal")
        if np.any(np.abs(self.pose[3] - np.array([0.0, 0.0, 0.0, 1.0])) > 1e-9):
            raise GeometryError("pose last row must be [0, 0, 0, 1]")
        if not (0.0 < self.depth_min < self.depth_max):
            raise GeometryError("need 0 < depth_min < depth_max")
        if self.depth_interval is None:
            self.depth_interval = (self.depth_max - self.depth_min) / (self.depth_num - 1)

    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        r = self.pose[:3, :3]
        t = self.pose[:3, 3]
        return -r.T @ t

    def scaled(self, new_h: int, new_w: int, old_h: int, old_w: int) -> "Camera":
        """Intrinsics rescaled for a corner-aligned resize of the image grid."""
        sx = 1.0 if old_w == 1 else (new_w - 1.0) / (old_w - 1.0)
        sy = 1.0 if old_h == 1 else (new_h - 1.0) / (old_h - 1.0)
        k = self.k.copy()
        k[0, :] *= sx
        k[1, :] *= sy
        return Camera(k, self.pose.copy(), self.depth_min, self.depth_max,
                      self.depth_interval, self.depth_num)


@dataclass
class CameraView:
    """One calibrated viewpoint: image, camera, and (synthetic) GT depth."""

    image: Image
    camera: Camera
    gt_depth: ScalarField | None = None
    view_id: int = 0

    def __post_init__(self):
        cx, cy = self.camera.k[0, 2], self.camera.k[1, 2]
        if not (0.0 <= cx <= self.image.width - 1 and 0.0 <= cy <= self.image.height - 1):
            raise GeometryError("principal point must lie inside the image")
        if self.gt_depth is not None:
            if (self.gt_depth.height, self.gt_depth.width) != (self.image.height, self.image.width):
                raise GeometryError("gt depth shape must match the image")


def rigid_inverse(pose: np.ndarray) -> np.ndarray:
    inv = np.eye(4)
    r = pose[:3, :3]
    inv[:3, :3] = r.T
    inv[:3, 3] = -r.T @ pose[:3, 3]
    return inv


def relative_transform(ref: Camera, src: Camera) -> np.ndarray:
    """src.pose @ ref.pose^-1: maps ref-camera coordinates to src-camera ones."""
    return src.pose @ rigid_inverse(ref.pose)


_COEFF_MEMO: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


def _projection_coeffs(ref: Camera, src: Camera) -> tuple[np.ndarray, np.ndarray]:
    """q(d) = d * (B @ p~) + c per pixel; returns (B, c). Memoized by matrix
    content (the projection sits inside per-pixel finite-difference loops)."""
    key = ref.k.tobytes() + ref.pose.tobytes() + src.k.tobytes() + src.pose.tobytes()
    hit = _COEFF_MEMO.get(key)
    if hit is not None:
        return hit
    t_rel = relative_transform(ref, src)
    b = src.k @ t_rel[:3, :3] @ np.linalg.inv(ref.k)
    c = src.k @ t_rel[:3, 3]
    if len(_COEFF_MEMO) > 256:
        _COEFF_MEMO.clear()
    _COEFF_MEMO[key] = (b, c)
    return b, c


def _homogeneous(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)


def project_with_depth(p, d, ref: Camera, src: Camera, eps_z: float = EPS_Z):
    """Inverse-warp pixel(s) p at depth(s) d from ref into src.

    Unprojects with ref intrinsics, applies the relative rigid transform,
    reprojects with src intrinsics and divides by the source-frame z.

    Returns (uv, z, valid) where uv has the shape of p, z the shape of d, and
    valid flags z > eps_z. Accepts a single (2,) pixel or an (..., 2) array.
    """
    b, c = _projection_coeffs(ref, src)
    ph = _homogeneous(p)
    d = np.asarray(d, dtype=np.float64)
    q = d[..., None] * (ph @ b.T) + c
    z = q[..., 2]
    valid = z > eps_z
    safe_z = np.where(valid, z, 1.0)
    uv = q[..., :2] / safe_z[..., None]
    return uv, z, valid


def warp_depth_jacobian(p, d, ref: Camera, src: Camera, eps_z: float = EPS_Z):
    """d(uv')/dd of the projection above, in pixels per mm.

    Quotient rule on the perspective division: with q(d) = d*a + c,
    du'/dd = (a_x * c_z - c_x * a_z) / z^2 and likewise for v'.
    Returns (jac, valid); jac is zero where points fall at/behind the source
    camera plane (valid False)."""
    b, c = _projection_coeffs(ref, src)
    ph = _homogeneous(p)
    d = np.asarray(d, dtype=np.float64)
    a = ph @ b.T
    z = d * a[..., 2] + c[2]
    valid = z > eps_z
    safe_z = np.where(valid, z, 1.0)
    num_u = a[..., 0] * c[2] - c[0] * a[..., 2]
    num_v = a[..., 1] * c[2] - c[1] * a[..., 2]
    jac = np.stack([num_u, num_v], axis=-1) / (safe_z * safe_z)[..., None]
    return jac * valid[..., None], valid


def bilinear_sample(img, uv):
    """4-neighbor bilinear interpolation with an in-bounds flag.

    img may be an Image or an (H, W[, C]) array. uv is (..., 2) continuous
    pixel coordinates. Out-of-bounds points return value 0 with flag False.
    """
    arr = img.data if isinstance(img, Image) else np.asarray(img, dtype=np.float64)
    squeeze = False
    if arr.ndim == 2:
        arr = arr[:, :, None]
        squeeze = True
    h, w, c = arr.shape
    uv = np.asarray(uv, dtype=np.float64)
    u = uv[..., 0].ravel()
    v = uv[..., 1].ravel()
    inb = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    uc = np.clip(u, 0.0, w - 1.0)
    vc = np.clip(v, 0.0, h - 1.0)
    u0 = np.minimum(uc.astype(int), max(w - 2, 0))
    v0 = np.minimum(vc.astype(int), max(h - 2, 0))
    fu = (uc - u0)[:, None]
    fv = (vc - v0)[:, None]
    flat = arr.reshape(-1, c)
    base = v0 * w + u0
    du = 1 if w > 1 else 0
    dv = w if h > 1 else 0
    top = flat[base] * (1.0 - fu) + flat[base + du] * fu
    bot = flat[base + dv] * (1.0 - fu) + flat[base + dv + du] * fu
    val = (top * (1.0 - fv) + bot * fv) * inb[:, None]
    val = val.reshape(uv.shape[:-1] + (c,))
    inb = inb.reshape(uv.shape[:-1])
    if squeeze:
        val = val[..., 0]
    return val, inb


def bilinear_sample_grad(img, uv):
    """Spatial derivative of bilinear_sample w.r.t. (u, v).

    Piecewise per interpolation cell; one-sided at cell boundaries. Returns
    (..., C, 2) for (H, W, C) input, zero outside the image.
    """
    arr = img.data if isinstance(img, Image) else np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, _ = arr.shape
    uv = np.asarray(uv, dtype=np.float64)
    u, v = uv[..., 0], uv[..., 1]
    inb = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    uc = np.clip(u, 0.0, w - 1.0)
    vc = np.clip(v, 0.0, h - 1.0)
    u0 = np.clip(np.floor(uc).astype(int), 0, max(w - 2, 0))
    v0 = np.clip(np.floor(vc).astype(int), 0, max(h - 2, 0))
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (uc - u0)[..., None]
    fv = (vc - v0)[..., None]
    du = (1.0 - fv) * (arr[v0, u1] - arr[v0, u0]) + fv * (arr[v1, u1] - arr[v1, u0])
    dv = (1.0 - fu) * (arr[v1, u0] - arr[v0, u0]) + fu * (arr[v1, u1] - arr[v0, u1])
    g = np.stack([du, dv], axis=-1) * inb[..., None, None]
    return g


def pixel_grid(h: int, w: int) -> np.ndarray:
    """(H, W, 2) array of (u, v) pixel-center coordinates."""
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    return np.stack([us, vs], axis=-1)


def backproject(cam: Camera, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Pixels (..., 2) at camera-frame depths (...) -> world points (..., 3)."""
    ph = _homogeneous(pixels)
    m = ph @ np.linalg.inv(cam.k).T
    x_cam = np.asarray(depths, dtype=np.float64)[..., None] * m
    r = cam.pose[:3, :3]
    t = cam.pose[:3, 3]
    return (x_cam - t) @ r

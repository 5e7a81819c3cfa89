"""The loss stack: square-root / absolute / Euclidean norm residual machinery
with analytic gradients, photometric consistency over warped sources, SSIM,
edge-aware depth smoothness, masked branch consistency, and the weights of
the overall objective.

Every loss here returns its analytic gradient alongside the value so a
finite-difference audit can cross-check the whole chain.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .grids import forward_diff

SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
# the floor on the residuals in gradient denominators, bounding the
# square-root norm's singularity at zero residual
NORM_EPS_GRAD = 1e-4


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class NormKind:
    """Residual norm selector: exponent 0.5, 1, or 2."""

    exponent: float = 0.5

    def __post_init__(self):
        if self.exponent not in (0.5, 1.0, 2.0):
            raise LossError(f"unsupported norm exponent {self.exponent}")


def norm_value_grad(e: np.ndarray, kind: NormKind) -> tuple[float, np.ndarray]:
    """Value and per-element gradient of the selected norm on e >= 0.

    exponent 1:   sum(e),             grad 1
    exponent 2:   sqrt(sum(e^2)),     grad e / ||e||
    exponent 0.5: (sum(sqrt(e)))^2,   grad sum(sqrt(e)) / sqrt(e_i)
    """
    e = np.asarray(e, dtype=np.float64)
    if e.size and e.min() < 0:
        raise LossError("norm residuals must be non-negative")
    if kind.exponent == 1.0:
        return float(e.sum()), np.ones_like(e)
    if kind.exponent == 2.0:
        value = float(np.sqrt((e * e).sum()))
        return value, e / max(value, NORM_EPS_GRAD)
    roots = np.sqrt(e)
    s = roots.sum()
    value = float(s * s)
    grad = s / np.sqrt(np.maximum(e, NORM_EPS_GRAD))
    return value, grad


@dataclass
class PhotometricResidual:
    """One warped source against the reference: the signed residuals the
    gradient reads, and the residuals at the mask's pixels that the norms
    read."""

    mask: np.ndarray
    msum: float           # the mask's pixel count
    diff: np.ndarray      # warped - reference, (H, W, C)
    dgx: np.ndarray       # forward-difference residuals along u and v, (H, W, C)
    dgy: np.ndarray
    img_sel: np.ndarray   # channel mean of |diff|, at the mask's pixels
    grad_sel: np.ndarray  # channel mean of |dgx| and |dgy|, at the mask's pixels


def photometric_residual(rec: np.ndarray, mask: np.ndarray, ref: np.ndarray,
                         ref_diffs: tuple[np.ndarray, np.ndarray]) -> PhotometricResidual:
    """The residuals of a reconstructed (H, W, C) image against the reference;
    ref_diffs is forward_diff(ref)."""
    gxr, gyr = ref_diffs
    c = ref.shape[2]
    diff = rec - ref
    r_img = np.abs(diff).mean(axis=2)
    gxw, gyw = forward_diff(rec)
    dgx = gxw - gxr
    dgy = gyw - gyr
    r_grad = (np.abs(dgx).sum(axis=2) + np.abs(dgy).sum(axis=2)) / (2 * c)
    return PhotometricResidual(mask, float(mask.sum()), diff, dgx, dgy,
                               r_img[mask], r_grad[mask])


def photometric_consistency_arrays(residuals: Iterable[PhotometricResidual], kind: NormKind,
                                   need_grads: bool = True) -> tuple[float, list]:
    """Masked norm of the per-pixel residuals of each reconstructed (H, W, C)
    image and of its forward-difference gradient against the reference, each
    normalized by the mask area, summed over sources. residuals yields the
    photometric_residual of each source; several norms at one warp share a
    list of them.

    Returns the value and dL/d(warped_i), (H, W, C) per source, including the
    adjoint of the forward-difference operator for the gradient term.
    need_grads=False skips assembling the gradients (None per valid source),
    which roughly halves the cost of a value-only evaluation inside the
    finite-difference oracle."""
    total = 0.0
    grads = []
    any_valid = False
    for res in residuals:
        mask, msum = res.mask, res.msum
        c = res.diff.shape[2]
        if msum == 0:
            grads.append(np.zeros_like(res.diff))
            continue
        any_valid = True
        v_img, g_img = norm_value_grad(res.img_sel, kind)
        v_grad, g_grad = norm_value_grad(res.grad_sel, kind)
        total += (v_img + v_grad) / msum
        if not need_grads:
            grads.append(None)
            continue

        w_img = np.zeros(mask.shape)
        w_img[mask] = g_img / msum
        grad = w_img[:, :, None] * np.sign(res.diff) / c

        w_grad = np.zeros(mask.shape)
        w_grad[mask] = g_grad / msum
        sx = w_grad[:, :, None] * np.sign(res.dgx) / (2 * c)
        sy = w_grad[:, :, None] * np.sign(res.dgy) / (2 * c)
        # adjoint of the forward difference: gx(p) = I(p+ex) - I(p)
        grad -= sx
        grad[:, 1:] += sx[:, :-1]
        grad -= sy
        grad[1:, :] += sy[:-1, :]

        grads.append(grad)
    if not any_valid:
        raise LossError("no source, or all source masks empty; no photometric signal")
    return total, grads


def _pool(arr: np.ndarray) -> np.ndarray:
    """3x3 zero-padded uniform pooling; symmetric, hence self-adjoint."""
    return uniform_filter(arr, size=3, mode="constant", cval=0.0)


def _pool3(arr: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 pooling of an (H, W, C) array in one filter call."""
    return uniform_filter(arr, size=(3, 3, 1), mode="constant", cval=0.0)


def ssim_reference_moments(y_all: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The SSIM moments of the reference alone: pooled mean and pooled square."""
    return _pool3(y_all), _pool3(y_all * y_all)


def ssim_loss_arrays(x_all: np.ndarray, y_all: np.ndarray, m: np.ndarray,
                     y_moments: tuple[np.ndarray, np.ndarray], need_grad: bool = True
                     ) -> tuple[float, np.ndarray | None]:
    """Mean over the mask m of (1 - SSIM)/2 between the (H, W, C) arrays x_all
    (warped) and y_all (reference), with 3x3 uniform windows, computed per
    channel and averaged. y_moments is ssim_reference_moments(y_all). Returns
    the value and dL/d(x_all), or None for it when need_grad is False."""
    msum = float(m.sum())
    if msum == 0:
        raise LossError("SSIM over an empty mask")
    c = x_all.shape[2]
    value = 0.0
    grad = np.zeros_like(x_all) if need_grad else None
    dl_ds = -m.astype(np.float64) / (2.0 * c * msum)
    mu_x_all = _pool3(x_all)
    mu_y_all, yy_all = y_moments
    xx_all = _pool3(x_all * x_all)
    xy_all = _pool3(x_all * y_all)
    for ch in range(c):
        x = x_all[:, :, ch]
        y = y_all[:, :, ch]
        mu_x, mu_y = mu_x_all[:, :, ch], mu_y_all[:, :, ch]
        xx, yy, xy = xx_all[:, :, ch], yy_all[:, :, ch], xy_all[:, :, ch]
        sig_x = xx - mu_x * mu_x
        sig_y = yy - mu_y * mu_y
        sig_xy = xy - mu_x * mu_y
        n1 = 2.0 * mu_x * mu_y + SSIM_C1
        d1 = mu_x * mu_x + mu_y * mu_y + SSIM_C1
        n2 = 2.0 * sig_xy + SSIM_C2
        d2 = sig_x + sig_y + SSIM_C2
        s = (n1 * n2) / (d1 * d2)
        value += float((m * (1.0 - s) / 2.0).sum()) / (c * msum)
        if not need_grad:
            continue
        # partials w.r.t. the five pooled moments, then the pooling adjoint
        ds_dn1 = n2 / (d1 * d2)
        ds_dd1 = -s / d1
        ds_dn2 = n1 / (d1 * d2)
        ds_dd2 = -s / d2
        ds_dsigx = ds_dd2
        ds_dsigxy = 2.0 * ds_dn2
        ds_dmux = 2.0 * mu_y * ds_dn1 + 2.0 * mu_x * ds_dd1 \
            - 2.0 * mu_x * ds_dsigx - mu_y * ds_dsigxy
        g_mu = dl_ds * ds_dmux
        g_xx = dl_ds * ds_dsigx
        g_xy = dl_ds * ds_dsigxy
        grad[:, :, ch] = _pool(g_mu) + 2.0 * x * _pool(g_xx) + y * _pool(g_xy)
    return value, grad


def edge_weights(ref_diffs: tuple[np.ndarray, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The smoothness weights exp(-|image gradient|) along u and v, from
    forward_diff of the (H, W, C) reference image."""
    gx_i, gy_i = ref_diffs
    return np.exp(-np.abs(gx_i).mean(axis=2)), np.exp(-np.abs(gy_i).mean(axis=2))


def smoothness_loss(depth: np.ndarray, weights: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[float, np.ndarray]:
    """Edge-aware first-order smoothness of the mean-normalized depth, weighted
    by the reference's edge_weights. Returns the value and dL/d(depth),
    including the coupling through the normalizing mean."""
    mean_d = depth.mean()
    if mean_d <= 0:
        raise LossError("smoothness requires a positive mean depth")
    dn = depth / mean_d
    gx_d, gy_d = forward_diff(dn)
    wx, wy = weights
    n = depth.size
    value = float((np.abs(gx_d) * wx + np.abs(gy_d) * wy).mean())
    # dF/d(normalized depth) via the forward-difference adjoint
    sx = np.sign(gx_d) * wx / n
    sy = np.sign(gy_d) * wy / n
    g_dn = -sx - sy
    g_dn[:, 1:] += sx[:, :-1]
    g_dn[1:, :] += sy[:-1, :]
    # chain through dn = depth / mean(depth)
    grad = g_dn / mean_d - (g_dn * depth).sum() / (mean_d * mean_d * n)
    return value, grad


def branch_consistency(target: np.ndarray, branch: np.ndarray,
                       mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute difference between two branch depth maps under a bool
    mask, and its gradient with respect to the branch.

    The target is detached pseudo-supervision: only the branch gets a
    gradient. An empty confidence mask contributes zero, not an error.
    """
    if target.shape != branch.shape or mask.shape != branch.shape:
        raise LossError("branch consistency shapes must match")
    msum = float(mask.sum())
    if msum == 0:
        return 0.0, np.zeros_like(branch)
    diff = target - branch
    value = float((np.abs(diff) * mask).sum() / msum)
    return value, -np.sign(diff) * mask / msum


@dataclass(frozen=True)
class LossWeights:
    """Balancing weights of the overall objective; the image-consistency
    weight is scheduled (doubling every two epochs) rather than fixed."""

    photo: float = 0.8
    image_consist_base: float = 0.01
    scene_consist: float = 0.01
    ssim: float = 0.2
    smooth: float = 0.0067

    def __post_init__(self):
        for name in ("photo", "image_consist_base", "scene_consist", "ssim", "smooth"):
            if getattr(self, name) < 0:
                raise LossError(f"weight {name} must be non-negative")

"""The loss stack: square-root / absolute / Euclidean norm residual machinery
with analytic gradients, photometric consistency over warped sources, SSIM,
edge-aware depth smoothness, masked branch consistency, and the weighted
overall objective.

Every loss here returns its analytic gradient alongside the value so a
finite-difference audit can cross-check the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import uniform_filter

from .grids import BinaryMask, Image, ScalarField, forward_diff

SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class NormKind:
    """Residual norm selector: exponent 0.5, 1, or 2.

    eps_grad clamps the residuals appearing in gradient denominators, bounding
    the square-root norm's singularity at zero residual.
    """

    exponent: float = 0.5
    eps_grad: float = 1e-4

    def __post_init__(self):
        if self.exponent not in (0.5, 1.0, 2.0):
            raise LossError(f"unsupported norm exponent {self.exponent}")
        if self.eps_grad <= 0:
            raise LossError("eps_grad must be positive")


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
        return value, e / max(value, kind.eps_grad)
    roots = np.sqrt(e)
    s = roots.sum()
    value = float(s * s)
    grad = s / np.sqrt(np.maximum(e, kind.eps_grad))
    return value, grad


@dataclass
class PhotometricResult:
    value: float
    image_grads: list[np.ndarray]       # dL/d(warped image), (H, W, C) per source
    skipped_sources: list[int] = field(default_factory=list)


def photometric_consistency_arrays(warped: list[np.ndarray], masks: list[np.ndarray],
                                   ref: np.ndarray, kind: NormKind,
                                   need_grads: bool = True) -> PhotometricResult:
    """Masked norm of the per-pixel residuals of each reconstructed (H, W, C)
    image and of its forward-difference gradient against the reference, each
    normalized by the mask area, summed over sources.

    The returned image_grads hold dL/d(warped_i), including the adjoint of the
    forward-difference operator for the gradient term. need_grads=False skips
    assembling them, which roughly halves the cost of a value-only evaluation
    inside the finite-difference oracle."""
    if not warped:
        raise LossError("need at least one warped source")
    gxr, gyr = forward_diff(ref)
    c = ref.shape[2]
    total = 0.0
    grads, skipped = [], []
    any_valid = False
    for i, (rec_arr, mask) in enumerate(zip(warped, masks)):
        msum = float(mask.sum())
        if msum == 0:
            skipped.append(i)
            grads.append(np.zeros_like(ref))
            continue
        any_valid = True
        diff = rec_arr - ref
        r_img = np.abs(diff).mean(axis=2)
        gxw, gyw = forward_diff(rec_arr)
        dgx = gxw - gxr
        dgy = gyw - gyr
        r_grad = (np.abs(dgx).sum(axis=2) + np.abs(dgy).sum(axis=2)) / (2 * c)
        v_img, g_img = norm_value_grad(r_img[mask], kind)
        v_grad, g_grad = norm_value_grad(r_grad[mask], kind)
        total += (v_img + v_grad) / msum
        if not need_grads:
            grads.append(None)
            continue

        w_img = np.zeros(ref.shape[:2])
        w_img[mask] = g_img / msum
        grad = w_img[:, :, None] * np.sign(diff) / c

        w_grad = np.zeros(ref.shape[:2])
        w_grad[mask] = g_grad / msum
        sx = w_grad[:, :, None] * np.sign(dgx) / (2 * c)
        sy = w_grad[:, :, None] * np.sign(dgy) / (2 * c)
        # adjoint of the forward difference: gx(p) = I(p+ex) - I(p)
        grad -= sx
        grad[:, 1:] += sx[:, :-1]
        grad -= sy
        grad[1:, :] += sy[:-1, :]

        grads.append(grad)
    if not any_valid:
        raise LossError("all source masks are empty; no photometric signal")
    return PhotometricResult(total, grads, skipped)


def _pool(arr: np.ndarray) -> np.ndarray:
    """3x3 zero-padded uniform pooling; symmetric, hence self-adjoint."""
    return uniform_filter(arr, size=3, mode="constant", cval=0.0)


def _pool3(arr: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 pooling of an (H, W, C) array in one filter call."""
    return uniform_filter(arr, size=(3, 3, 1), mode="constant", cval=0.0)


def ssim_loss_arrays(x_all: np.ndarray, y_all: np.ndarray, m: np.ndarray,
                     need_grad: bool = True) -> tuple[float, np.ndarray | None]:
    """Mean over the mask m of (1 - SSIM)/2 between the (H, W, C) arrays x_all
    (warped) and y_all (reference), with 3x3 uniform windows, computed per
    channel and averaged. Returns the value and dL/d(x_all), or None for it
    when need_grad is False."""
    msum = float(m.sum())
    if msum == 0:
        raise LossError("SSIM over an empty mask")
    c = x_all.shape[2]
    value = 0.0
    grad = np.zeros_like(x_all) if need_grad else None
    dl_ds = -m.astype(np.float64) / (2.0 * c * msum)
    mu_x_all = _pool3(x_all)
    mu_y_all = _pool3(y_all)
    xx_all = _pool3(x_all * x_all)
    yy_all = _pool3(y_all * y_all)
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


def smoothness_loss(depth: ScalarField, reference: Image
                    ) -> tuple[float, np.ndarray]:
    """Edge-aware first-order smoothness of the mean-normalized depth, weighted
    by exp(-|image gradient|). Returns the value and dL/d(depth), including the
    coupling through the normalizing mean."""
    d = depth.data
    mean_d = d.mean()
    if mean_d <= 0:
        raise LossError("smoothness requires a positive mean depth")
    dn = d / mean_d
    gx_d, gy_d = forward_diff(dn)
    gx_i, gy_i = forward_diff(reference.data)
    wx = np.exp(-np.abs(gx_i).mean(axis=2))
    wy = np.exp(-np.abs(gy_i).mean(axis=2))
    n = d.size
    value = float((np.abs(gx_d) * wx + np.abs(gy_d) * wy).mean())
    # dF/d(normalized depth) via the forward-difference adjoint
    sx = np.sign(gx_d) * wx / n
    sy = np.sign(gy_d) * wy / n
    g_dn = -sx - sy
    g_dn[:, 1:] += sx[:, :-1]
    g_dn[1:, :] += sy[:-1, :]
    # chain through dn = d / mean(d)
    grad = g_dn / mean_d - (g_dn * d).sum() / (mean_d * mean_d * n)
    return value, grad


@dataclass
class ConsistencyResult:
    value: float
    grad_branch: np.ndarray
    grad_target: np.ndarray | None
    empty_mask: bool


def branch_consistency(target: ScalarField, branch: ScalarField, mask: BinaryMask,
                       symmetric: bool = False) -> ConsistencyResult:
    """Masked mean absolute difference between two branch depth maps.

    By default the target is treated as detached pseudo-supervision (no
    gradient); symmetric=True also returns the gradient into the target.
    An empty confidence mask is flagged and contributes zero, not an error.
    """
    if target.data.shape != branch.data.shape or mask.data.shape != branch.data.shape:
        raise LossError("branch consistency shapes must match")
    m = mask.data
    msum = float(m.sum())
    if msum == 0:
        zeros = np.zeros_like(branch.data)
        return ConsistencyResult(0.0, zeros, zeros.copy() if symmetric else None, True)
    diff = target.data - branch.data
    value = float((np.abs(diff) * m).sum() / msum)
    grad_branch = -np.sign(diff) * m / msum
    grad_target = np.sign(diff) * m / msum if symmetric else None
    return ConsistencyResult(value, grad_branch, grad_target, False)


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


COMPONENTS = ("pc", "icc", "scc", "ssim", "smooth")


@dataclass
class LossReport:
    total: float
    components: dict[str, float]
    weights: dict[str, float]


def overall_loss(parts: dict[str, float], weights: LossWeights,
                 image_consist_weight: float) -> LossReport:
    """Weighted sum of the five components; the icc weight comes from the
    curriculum schedule."""
    missing = [k for k in COMPONENTS if k not in parts]
    if missing:
        raise LossError(f"missing loss components: {missing}")
    w = {
        "pc": weights.photo,
        "icc": image_consist_weight,
        "scc": weights.scene_consist,
        "ssim": weights.ssim,
        "smooth": weights.smooth,
    }
    total = sum(w[k] * parts[k] for k in COMPONENTS)
    return LossReport(total, {k: float(parts[k]) for k in COMPONENTS}, w)

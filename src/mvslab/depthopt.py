"""Direct depth-field optimization: the three branch depth maps are treated as
free variables and the weighted objective is minimized by normalized gradient
descent with analytic gradients, cross-checked by a finite-difference oracle.

The analytic gradient chains the norm derivative through the bilinear-sampling
spatial derivative and the depth derivative of the inverse warp, plus the
SSIM, smoothness and branch-consistency contributions when enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .geometry import (Camera, CameraView, bilinear_sample, bilinear_sample_grad,
                       pixel_grid, project_with_depth, warp_depth_jacobian)
from .grids import BinaryMask, Image, ScalarField
from .losses import (LossWeights, NormKind, branch_consistency, overall_loss,
                     photometric_consistency_arrays, smoothness_loss,
                     ssim_loss_arrays)
from .planesweep import SweepConfig, cascade_infer, refresh_confidence
from .sampling import Sample, Schedule


class OptimizationDiverged(RuntimeError):
    def __init__(self, message, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot or {}


@dataclass
class BranchLossConfig:
    """Which loss terms act on a single depth field, and with what weights."""

    norm: NormKind = NormKind()
    weight_photo: float = 0.8
    weight_ssim: float = 0.2
    weight_smooth: float = 0.0067
    weight_consist: float = 0.0
    consist_target: ScalarField | None = None
    consist_mask: BinaryMask | None = None


@lru_cache(maxsize=16)
def _cached_grid(h: int, w: int) -> np.ndarray:
    grid = pixel_grid(h, w)
    grid.flags.writeable = False
    return grid


@dataclass
class WarpDetails:
    """Per-source intermediates of one warp pass, kept for the FD audit.
    Arrays, not containers: this sits inside the per-pixel FD hot loop."""

    warped: list[np.ndarray]
    masks: list[np.ndarray]
    uv: list[np.ndarray]
    jacobian: list[np.ndarray]
    chain: list[np.ndarray]  # dI_hat/dD per pixel and channel, (H, W, C)


def _warp_sources(sample: Sample, depth: np.ndarray, with_chain: bool) -> WarpDetails:
    ref_cam = sample.reference.camera
    h, w = depth.shape
    grid = _cached_grid(h, w)
    positive = depth > 0.0
    safe_d = np.where(positive, depth, 1.0)
    warped, masks, uvs, jacs, chains = [], [], [], [], []
    for view in sample.sources:
        uv, z, front = project_with_depth(grid, safe_d, ref_cam, view.camera)
        val, inb = bilinear_sample(view.image.data, uv)
        mask = inb & front & positive
        warped.append(val * mask[:, :, None])
        masks.append(mask)
        uvs.append(uv)
        if with_chain:
            jac, _ = warp_depth_jacobian(grid, safe_d, ref_cam, view.camera)
            sg = bilinear_sample_grad(view.image.data, uv)
            chain = (sg * jac[:, :, None, :]).sum(axis=-1) * mask[:, :, None]
            jacs.append(jac * mask[:, :, None])
            chains.append(chain)
    return WarpDetails(warped, masks, uvs, jacs, chains)


def _evaluate(sample: Sample, depth: ScalarField, cfg: BranchLossConfig,
              with_grad: bool):
    """Shared evaluator; with_grad=False is the cheap path the FD oracle uses."""
    d = depth.data
    needs_warp = cfg.weight_photo > 0 or cfg.weight_ssim > 0
    details = _warp_sources(sample, d, with_chain=with_grad) if needs_warp else None
    parts: dict[str, float] = {}
    grad = np.zeros_like(d) if with_grad else None

    if cfg.weight_photo > 0:
        photo = photometric_consistency_arrays(details.warped, details.masks,
                                               sample.reference.image.data,
                                               cfg.norm, need_grads=with_grad)
        parts["photo"] = photo.value
        if with_grad:
            g = np.zeros_like(d)
            for img_grad, chain in zip(photo.image_grads, details.chain):
                g += (img_grad * chain).sum(axis=2)
            grad += cfg.weight_photo * g
    else:
        parts["photo"] = 0.0

    if cfg.weight_ssim > 0:
        vals = []
        g_ssim = np.zeros_like(d) if with_grad else None
        for i, (rec, m) in enumerate(zip(details.warped, details.masks)):
            if not m.any():
                continue
            value, img_grad = ssim_loss_arrays(rec, sample.reference.image.data,
                                               m, need_grad=with_grad)
            vals.append(value)
            if with_grad:
                g_ssim += (img_grad * details.chain[i]).sum(axis=2)
        parts["ssim"] = float(np.mean(vals)) if vals else 0.0
        if with_grad and vals:
            grad += cfg.weight_ssim * g_ssim / len(vals)
    else:
        parts["ssim"] = 0.0

    if cfg.weight_smooth > 0:
        value, g_smooth = smoothness_loss(depth, sample.reference.image)
        parts["smooth"] = value
        if with_grad:
            grad += cfg.weight_smooth * g_smooth
    else:
        parts["smooth"] = 0.0

    if cfg.weight_consist > 0 and cfg.consist_target is not None:
        res = branch_consistency(cfg.consist_target, depth, cfg.consist_mask)
        parts["consist"] = res.value
        if with_grad:
            grad += cfg.weight_consist * res.grad_branch
    else:
        parts["consist"] = 0.0

    total = (cfg.weight_photo * parts["photo"] + cfg.weight_ssim * parts["ssim"]
             + cfg.weight_smooth * parts["smooth"]
             + cfg.weight_consist * parts["consist"])
    return total, grad, parts, details


def depth_loss_value(sample: Sample, depth: ScalarField, cfg: BranchLossConfig) -> float:
    total, _, _, _ = _evaluate(sample, depth, cfg, with_grad=False)
    return total


def loss_grad_wrt_depth(sample: Sample, depth: ScalarField, cfg: BranchLossConfig,
                        return_details: bool = False):
    """Analytic total loss and per-pixel d(loss)/d(depth) in 1/mm."""
    total, grad, parts, details = _evaluate(sample, depth, cfg, with_grad=True)
    if return_details:
        return total, grad, parts, details
    return total, grad


def finite_diff_grad(sample: Sample, depth: ScalarField, cfg: BranchLossConfig,
                     h: float) -> np.ndarray:
    """Central finite difference of the total loss, one pixel at a time."""
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    base = depth.data
    grad = np.zeros_like(base)
    work = base.copy()
    for v in range(base.shape[0]):
        for u in range(base.shape[1]):
            d0 = work[v, u]
            work[v, u] = d0 + h
            plus = depth_loss_value(sample, ScalarField(work), cfg)
            work[v, u] = d0 - h
            minus = depth_loss_value(sample, ScalarField(work), cfg)
            work[v, u] = d0
            grad[v, u] = (plus - minus) / (2.0 * h)
    return grad


def _multi_values(sample: Sample, depth_arr: np.ndarray,
                  cfgs: dict[str, BranchLossConfig]) -> dict[str, float]:
    """Loss values of several configs at one depth field, sharing the warp.

    Equivalent to calling depth_loss_value per config; the warp and any
    repeated sub-terms are computed once.
    """
    ref_img = sample.reference.image.data
    needs_warp = any(c.weight_photo > 0 or c.weight_ssim > 0 for c in cfgs.values())
    details = _warp_sources(sample, depth_arr, with_chain=False) if needs_warp else None
    photo_memo: dict[tuple[float, float], float] = {}
    memo: dict[str, float] = {}

    def photo_value(norm: NormKind) -> float:
        key = (norm.exponent, norm.eps_grad)
        if key not in photo_memo:
            res = photometric_consistency_arrays(details.warped, details.masks,
                                                 ref_img, norm, need_grads=False)
            photo_memo[key] = res.value
        return photo_memo[key]

    def ssim_value() -> float:
        if "ssim" not in memo:
            vals = [ssim_loss_arrays(rec, ref_img, m, need_grad=False)[0]
                    for rec, m in zip(details.warped, details.masks) if m.any()]
            memo["ssim"] = float(np.mean(vals)) if vals else 0.0
        return memo["ssim"]

    def smooth_value() -> float:
        if "smooth" not in memo:
            memo["smooth"] = smoothness_loss(ScalarField(depth_arr),
                                             sample.reference.image)[0]
        return memo["smooth"]

    out = {}
    for name, cfg in cfgs.items():
        total = 0.0
        if cfg.weight_photo > 0:
            total += cfg.weight_photo * photo_value(cfg.norm)
        if cfg.weight_ssim > 0:
            total += cfg.weight_ssim * ssim_value()
        if cfg.weight_smooth > 0:
            total += cfg.weight_smooth * smooth_value()
        if cfg.weight_consist > 0 and cfg.consist_target is not None:
            res = branch_consistency(cfg.consist_target, ScalarField(depth_arr),
                                     cfg.consist_mask)
            total += cfg.weight_consist * res.value
        out[name] = total
    return out


def finite_diff_grad_multi(sample: Sample, depth: ScalarField,
                           cfgs: dict[str, BranchLossConfig], h: float
                           ) -> dict[str, np.ndarray]:
    """Central finite differences for several configs in one pixel sweep."""
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    base = depth.data
    grads = {name: np.zeros_like(base) for name in cfgs}
    work = base.copy()
    for v in range(base.shape[0]):
        for u in range(base.shape[1]):
            d0 = work[v, u]
            work[v, u] = d0 + h
            plus = _multi_values(sample, work, cfgs)
            work[v, u] = d0 - h
            minus = _multi_values(sample, work, cfgs)
            work[v, u] = d0
            for name in cfgs:
                grads[name][v, u] = (plus[name] - minus[name]) / (2.0 * h)
    return grads


# ---------------------------------------------------------------------------
# finite-difference audit


@dataclass
class AuditReport:
    term: str
    n_checked: int
    n_passed: int
    max_rel_err: float

    @property
    def frac_passed(self) -> float:
        return self.n_passed / self.n_checked if self.n_checked else 1.0


def _shift_min(arr: np.ndarray) -> np.ndarray:
    """min(arr(q), arr(q - ex), arr(q - ey)) with +inf beyond the border."""
    big = np.full_like(arr, np.inf)
    left = big.copy()
    left[:, 1:] = arr[:, :-1]
    up = big.copy()
    up[1:, :] = arr[:-1, :]
    return np.minimum(arr, np.minimum(left, up))


def _exclusion_mask(sample: Sample, depth: ScalarField, cfg: BranchLossConfig,
                    details, h: float) -> np.ndarray:
    """Pixels where the FD oracle is not trustworthy: warped coordinates near a
    bilinear cell boundary, residuals near an absolute-value kink or inside the
    gradient clamp, and consistency ties."""
    shape = depth.data.shape
    excl = np.zeros(shape, dtype=bool)
    ref = sample.reference.image.data
    c = ref.shape[2]
    from .grids import forward_diff
    gxr, gyr = forward_diff(ref)
    for i, m in enumerate(details.masks if details is not None else []):
        jac = details.jacobian[i]
        speed = np.abs(jac).sum(axis=-1)
        margin = 1e-3 + 2.0 * h * speed
        uv = details.uv[i]
        du = np.abs(uv[..., 0] - np.round(uv[..., 0]))
        dv = np.abs(uv[..., 1] - np.round(uv[..., 1]))
        excl |= m & ((du < margin) | (dv < margin))
        if cfg.weight_photo > 0:
            rec = details.warped[i]
            slack = 6.0 * h * np.abs(details.chain[i]).max(axis=2)
            diff_img = np.abs(rec - ref).min(axis=2)
            excl |= m & (diff_img < np.maximum(slack, 10.0 * cfg.norm.eps_grad / c))
            gxw, gyw = forward_diff(rec)
            dg = np.minimum(np.abs(gxw - gxr).min(axis=2), np.abs(gyw - gyr).min(axis=2))
            involved = _shift_min(np.where(m, dg, np.inf))
            excl |= np.isfinite(involved) & (involved < np.maximum(slack, 10.0 * cfg.norm.eps_grad / c))
            r_img = np.abs(rec - ref).mean(axis=2)
            excl |= m & (r_img < 10.0 * cfg.norm.eps_grad)
    if cfg.weight_smooth > 0:
        dn = depth.data / depth.data.mean()
        gx, gy = forward_diff(dn)
        slack = 6.0 * h / depth.data.mean()
        gmin = np.minimum(_shift_min(np.abs(gx)), _shift_min(np.abs(gy)))
        excl |= gmin < slack
    if cfg.weight_consist > 0 and cfg.consist_target is not None:
        tie = np.abs(cfg.consist_target.data - depth.data) < 4.0 * h
        excl |= tie & cfg.consist_mask.data
    return excl


def _compare_grads(term: str, analytic: np.ndarray, fd: np.ndarray,
                   excl: np.ndarray, rel_tol: float, abs_floor: float) -> AuditReport:
    checked = ~excl
    a = analytic[checked]
    f = fd[checked]
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), abs_floor)
    rel = np.abs(a - f) / denom
    tiny = (np.abs(a) < abs_floor) & (np.abs(f) < abs_floor)
    passed = (rel < rel_tol) | tiny
    max_rel = float(rel[~tiny].max()) if np.any(~tiny) else 0.0
    return AuditReport(term, int(checked.sum()), int(passed.sum()), max_rel)


def audit_case(sample: Sample, depth: ScalarField,
               cfgs: dict[str, BranchLossConfig], h: float = 3e-4,
               rel_tol: float = 1e-3, abs_floor: float = 1e-9
               ) -> dict[str, AuditReport]:
    """Compare the analytic gradient of each loss term against central finite
    differences from one shared sweep, excluding pixels where the loss is
    genuinely non-smooth."""
    fds = finite_diff_grad_multi(sample, depth, cfgs, h)
    out = {}
    for term, cfg in cfgs.items():
        _, grad, _, details = loss_grad_wrt_depth(sample, depth, cfg,
                                                  return_details=True)
        excl = _exclusion_mask(sample, depth, cfg, details, h)
        out[term] = _compare_grads(term, grad, fds[term], excl, rel_tol, abs_floor)
    return out


def term_configs(norm: NormKind = NormKind(),
                 icc_target: ScalarField | None = None,
                 icc_mask: BinaryMask | None = None,
                 scc_target: ScalarField | None = None,
                 scc_mask: BinaryMask | None = None) -> dict[str, BranchLossConfig]:
    """One single-term config per auditable loss term."""
    off = dict(weight_photo=0.0, weight_ssim=0.0, weight_smooth=0.0, weight_consist=0.0)
    cfgs = {}
    for expo in (0.5, 1.0, 2.0):
        cfgs[f"photo_l{expo:g}"] = BranchLossConfig(
            norm=NormKind(expo, norm.eps_grad), **{**off, "weight_photo": 1.0})
    cfgs["ssim"] = BranchLossConfig(norm=norm, **{**off, "weight_ssim": 1.0})
    cfgs["smooth"] = BranchLossConfig(norm=norm, **{**off, "weight_smooth": 1.0})
    cfgs["image_consist"] = BranchLossConfig(
        norm=norm, **{**off, "weight_consist": 1.0},
        consist_target=icc_target, consist_mask=icc_mask)
    cfgs["scene_consist"] = BranchLossConfig(
        norm=norm, **{**off, "weight_consist": 1.0},
        consist_target=scc_target if scc_target is not None else icc_target,
        consist_mask=scc_mask if scc_mask is not None else icc_mask)
    return cfgs


@dataclass
class AuditCase:
    sample: Sample
    depth: ScalarField
    icc_target: ScalarField
    icc_mask: BinaryMask
    scc_target: ScalarField
    scc_mask: BinaryMask

    def configs(self, norm: NormKind = NormKind()) -> dict[str, BranchLossConfig]:
        return term_configs(norm, self.icc_target, self.icc_mask,
                            self.scc_target, self.scc_mask)


def random_audit_case(seed: int, h: int = 32, w: int = 40) -> AuditCase:
    """A random two-source configuration for the gradient audit: smooth random
    images, nearby cameras, a smooth in-range depth field, and random
    consistency targets and masks."""
    from scipy.ndimage import uniform_filter
    rng = np.random.default_rng([seed, 5150])

    def smooth_image():
        raw = rng.random((h, w, 3))
        for _ in range(2):
            raw = uniform_filter(raw, size=(5, 5, 1), mode="nearest")
        lo, hi = raw.min(), raw.max()
        return Image(0.05 + 0.9 * (raw - lo) / (hi - lo))

    def smooth_field(amplitude, offset):
        raw = uniform_filter(rng.random((h, w)), size=7, mode="nearest")
        return offset + amplitude * (raw - raw.mean())

    f = 1.1 * w
    k = np.array([[f, 0, (w - 1) / 2], [0, f, (h - 1) / 2], [0, 0, 1.0]])
    ref_cam = Camera(k, np.eye(4), 400.0, 900.0)
    cams = [ref_cam]
    for _ in range(2):
        angle = rng.uniform(-0.05, 0.05, size=3)
        cx, cy, cz = np.cos(angle)
        sx, sy, sz = np.sin(angle)
        rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        pose = np.eye(4)
        pose[:3, :3] = rz @ ry @ rx
        pose[:3, 3] = rng.uniform(-40.0, 40.0, size=3) * np.array([1, 1, 0.3])
        cams.append(Camera(k, pose, 400.0, 900.0))
    views = [CameraView(smooth_image(), cam, view_id=i) for i, cam in enumerate(cams)]
    sample = Sample(views[0], views[1:], kind="regular")

    depth = ScalarField(smooth_field(120.0, 600.0))
    icc_target = ScalarField(depth.data + 5.0 + smooth_field(30.0, 0.0))
    scc_target = ScalarField(depth.data - 3.0 + smooth_field(40.0, 0.0))
    icc_mask = BinaryMask(rng.random((h, w)) < 0.75)
    scc_mask = BinaryMask(rng.random((h, w)) < 0.6)
    return AuditCase(sample, depth, icc_target, icc_mask, scc_target, scc_mask)


# ---------------------------------------------------------------------------
# joint three-branch optimization


@dataclass
class OptimizerConfig:
    iterations: int = 50
    init_step_interval_scale: float = 0.5  # x final hypothesis interval, in mm
    max_halvings: int = 4
    refresh_every: int = 10
    norm: NormKind = NormKind()
    weights: LossWeights = field(default_factory=LossWeights)
    image_consist_weight: float | None = None  # None: take it from the schedule
    symmetric_consistency: bool = False


@dataclass
class OptState:
    depths: dict[str, ScalarField]
    conf_mask: BinaryMask
    prob_map: ScalarField
    step_sizes: dict[str, float]
    iteration: int
    history: list[dict]


BRANCHES = ("regular", "image_contrastive", "scene_contrastive")


def _branch_cfg(opt: OptimizerConfig, branch: str, icc_weight: float,
                target: ScalarField | None, mask: BinaryMask | None) -> BranchLossConfig:
    w = opt.weights
    base = BranchLossConfig(norm=opt.norm, weight_photo=w.photo,
                            weight_ssim=w.ssim, weight_smooth=w.smooth)
    if branch == "regular":
        return base
    weight = icc_weight if branch == "image_contrastive" else w.scene_consist
    return replace(base, weight_consist=weight, consist_target=target,
                   consist_mask=mask)


def optimize_joint(samples: dict[str, Sample], schedule: Schedule,
                   sweep_cfg: SweepConfig | None = None,
                   opt_cfg: OptimizerConfig | None = None,
                   init_depths: dict[str, ScalarField] | None = None) -> OptState:
    """Alternating per-branch normalized gradient descent on the three depth
    fields. Each iteration optionally refreshes the confidence mask by
    re-sweeping the final stage around the current regular depth, then takes
    one backtracking step per branch (regular first; the contrastive branches
    see the updated regular depth as their detached consistency target)."""
    sweep_cfg = sweep_cfg or SweepConfig()
    opt = opt_cfg or OptimizerConfig()
    for name in BRANCHES:
        if name not in samples:
            raise ValueError(f"missing sample for branch {name!r}")
    ref0 = samples["regular"].reference
    for name in BRANCHES:
        if samples[name].reference.view_id != ref0.view_id:
            raise ValueError("all branches must share the reference view")

    icc_weight = (opt.image_consist_weight if opt.image_consist_weight is not None
                  else schedule.image_consist_weight)
    cam = ref0.camera
    interval = sweep_cfg.final_interval(cam)
    init_step = opt.init_step_interval_scale * interval

    depths: dict[str, ScalarField] = {}
    conf_mask = None
    prob_map = None
    for name in BRANCHES:
        if init_depths is not None and name in init_depths:
            depths[name] = ScalarField(init_depths[name].data.copy())
            continue
        stages = cascade_infer(samples[name], sweep_cfg)
        depths[name] = stages[-1].depth
        if name == "regular":
            prob_map, conf_mask = stages[-1].prob_map, stages[-1].conf_mask
    if conf_mask is None:
        prob_map, conf_mask = refresh_confidence(samples["regular"],
                                                 depths["regular"], sweep_cfg)

    steps = {name: init_step for name in BRANCHES}
    history: list[dict] = []

    def objective(branch: str, d: ScalarField, with_grad: bool):
        cfg = _branch_cfg(opt, branch, icc_weight, depths["regular"], conf_mask)
        total, grad, parts, _ = _evaluate(samples[branch], d, cfg, with_grad)
        if opt.symmetric_consistency and branch == "regular":
            for other, weight in (("image_contrastive", icc_weight),
                                  ("scene_contrastive", opt.weights.scene_consist)):
                res = branch_consistency(d, depths[other], conf_mask, symmetric=True)
                total += weight * res.value
                if with_grad:
                    grad += weight * res.grad_target
        return total, grad, parts

    for it in range(opt.iterations):
        if opt.refresh_every > 0 and it > 0 and it % opt.refresh_every == 0:
            prob_map, conf_mask = refresh_confidence(samples["regular"],
                                                     depths["regular"], sweep_cfg)
        record = {"iteration": it}
        for branch in BRANCHES:
            cur_val, grad, parts = objective(branch, depths[branch], True)
            if not np.isfinite(cur_val):
                raise OptimizationDiverged(
                    f"non-finite loss on branch {branch} at iteration {it}",
                    {"iteration": it, "branch": branch, "loss": cur_val})
            scale = np.abs(grad).max()
            accepted = False
            attempts = 0
            if scale > 0:
                direction = grad / scale
                step = steps[branch]
                for attempt in range(opt.max_halvings + 1):
                    cand = ScalarField(np.clip(depths[branch].data - step * direction,
                                               cam.depth_min, cam.depth_max))
                    new_val, _, new_parts = objective(branch, cand, False)
                    if not np.isfinite(new_val):
                        raise OptimizationDiverged(
                            f"non-finite trial loss on branch {branch} at iteration {it}",
                            {"iteration": it, "branch": branch, "loss": new_val})
                    if new_val <= cur_val + 1e-12:
                        depths[branch] = cand
                        cur_val, parts = new_val, new_parts
                        accepted = True
                        attempts = attempt
                        break
                    step *= 0.5
                steps[branch] = min(step * 2.0, init_step) if (accepted and attempts == 0) else step
            short = {"regular": "reg", "image_contrastive": "ic",
                     "scene_contrastive": "sc"}[branch]
            record[f"loss_{short}"] = cur_val
            record[f"step_{short}"] = steps[branch]
            record[f"accepted_{short}"] = accepted
            if branch == "regular":
                record["photo_reg"] = parts["photo"]
                record["ssim_reg"] = parts["ssim"]
                record["smooth_reg"] = parts["smooth"]
            else:
                record[f"consist_{short}"] = parts["consist"]
        record["total"] = record["loss_reg"] + record["loss_ic"] + record["loss_sc"]
        record["conf_count"] = conf_mask.count()
        history.append(record)
    return OptState(depths, conf_mask, prob_map, steps, opt.iterations, history)


def eq_style_report(state: OptState, samples: dict[str, Sample],
                    opt: OptimizerConfig, icc_weight: float):
    """Assemble the five-component weighted report from the final state."""
    cfg = _branch_cfg(opt, "regular", icc_weight, None, None)
    _, _, parts, _ = _evaluate(samples["regular"], state.depths["regular"], cfg, False)
    icc = branch_consistency(state.depths["regular"],
                             state.depths["image_contrastive"], state.conf_mask)
    scc = branch_consistency(state.depths["regular"],
                             state.depths["scene_contrastive"], state.conf_mask)
    values = {"pc": parts["photo"], "icc": icc.value, "scc": scc.value,
              "ssim": parts["ssim"], "smooth": parts["smooth"]}
    return overall_loss(values, opt.weights, icc_weight)

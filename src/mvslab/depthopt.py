"""Direct depth-field optimization: the branch depth maps are treated as
free variables and the weighted objective is minimized by normalized gradient
descent with analytic gradients, cross-checked by a finite-difference oracle.

The analytic gradient chains the norm derivative through the bilinear-sampling
spatial derivative and the depth derivative of the inverse warp, plus the
SSIM, smoothness and branch-consistency contributions when enabled.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import BilinearCells, Camera, CameraView, ray_jacobian, warp_image
from .grids import Image
from .losses import (LossError, LossWeights, NormKind, PhotometricResidual,
                     branch_consistency, photometric_consistency_arrays,
                     photometric_residual, smoothness_loss, ssim_loss_arrays)
from .planesweep import SweepConfig, cascade_infer, final_interval, refresh_confidence
from .sampling import Sample, SamplingError


class OptimizerConfigError(ValueError):
    pass


class OptimizationDiverged(RuntimeError):
    pass


@dataclass
class BranchLossConfig:
    """Which loss terms act on a single depth field, and with what weights; a
    term is off unless given a positive weight, except that the consistency
    value is evaluated whenever consist_target is given, so a branch's history
    and the final report show its distance to the target even at weight 0."""

    norm: NormKind = NormKind()
    weight_photo: float = 0.0
    weight_ssim: float = 0.0
    weight_smooth: float = 0.0
    weight_consist: float = 0.0
    consist_target: np.ndarray | None = None  # (H, W) float64, mm
    consist_mask: np.ndarray | None = None  # (H, W) bool


@dataclass
class WarpDetails:
    """Per-source intermediates of one warp of a depth field: the warped
    images and masks the loss terms read, plus the depth z and bilinear cells
    the chain is built from. _descend keeps the branch's latest warp so its
    next gradient evaluation at that depth adds only the chain. Arrays,
    not containers: this sits inside the per-pixel FD hot loop."""

    warped: list[np.ndarray]
    masks: list[np.ndarray]
    z: list[np.ndarray]
    cells: list[BilinearCells]
    # dI_hat/dD per pixel and channel, (H, W, C); empty until _add_chain
    chain: list[np.ndarray] = field(default_factory=list)


def _warp_sources(sample: Sample, depth: np.ndarray) -> WarpDetails:
    warps = [warp_image(a, c, view.image.data, depth)
             for (a, c), view in zip(sample.rays, sample.sources)]
    warped, masks, z, cells = map(list, zip(*warps))  # one list per field
    return WarpDetails(warped, masks, z, cells)


def _photo_residuals(sample: Sample, details: WarpDetails) -> Iterator[PhotometricResidual]:
    """The photometric_residual of each source of the warp, one at a time, so
    a single evaluation holds one source's residuals at once."""
    ref = sample.reference.image.data
    return (photometric_residual(rec, m, ref, sample.reference_diffs)
            for rec, m in zip(details.warped, details.masks))


def _add_chain(sample: Sample, details: WarpDetails) -> None:
    """Fill details.chain, if not yet there, from the warp's own cells: the
    depth derivative of every warped image."""
    if details.chain:
        return
    for i, (a, c) in enumerate(sample.rays):
        jac = ray_jacobian(a, c, details.z[i])
        mask = details.masks[i]
        gu, gv = (g.reshape(mask.shape + (-1,)) for g in details.cells[i].grad())
        details.chain.append((gu * jac[:, :, 0:1] + gv * jac[:, :, 1:2]) * mask[:, :, None])


def _evaluate(sample: Sample, depth: np.ndarray, cfg: BranchLossConfig,
              with_grad: bool, details: WarpDetails | None = None,
              residuals: list[PhotometricResidual] | None = None):
    """The one loss evaluator; with_grad=False is the cheap path the FD oracle
    uses. Warps the sources unless a warp of this depth is given as details;
    a gradient evaluation adds the chain to the warp. residuals, the
    photometric residuals of that warp, are computed here when not given."""
    if cfg.weight_photo > 0 or cfg.weight_ssim > 0:
        if details is None:
            details = _warp_sources(sample, depth)
        if with_grad:
            _add_chain(sample, details)
    parts = dict.fromkeys(("photo", "ssim", "smooth", "consist"), 0.0)
    grad = np.zeros_like(depth) if with_grad else None

    if cfg.weight_photo > 0:
        parts["photo"], image_grads = photometric_consistency_arrays(
            residuals or _photo_residuals(sample, details), cfg.norm, need_grads=with_grad)
        if with_grad:
            g = np.zeros_like(depth)
            for img_grad, chain in zip(image_grads, details.chain):
                g += (img_grad * chain).sum(axis=2)
            grad += cfg.weight_photo * g

    if cfg.weight_ssim > 0:
        vals = []
        g_ssim = np.zeros_like(depth) if with_grad else None
        for i, (rec, m) in enumerate(zip(details.warped, details.masks)):
            if not m.any():
                continue
            value, img_grad = ssim_loss_arrays(rec, sample.reference.image.data, m,
                                               sample.reference_moments, with_grad)
            vals.append(value)
            if with_grad:
                g_ssim += (img_grad * details.chain[i]).sum(axis=2)
        parts["ssim"] = float(np.mean(vals)) if vals else 0.0
        if with_grad and vals:
            grad += cfg.weight_ssim * g_ssim / len(vals)

    if cfg.weight_smooth > 0:
        value, g_smooth = smoothness_loss(depth, sample.smoothness_weights)
        parts["smooth"] = value
        if with_grad:
            grad += cfg.weight_smooth * g_smooth

    if cfg.consist_target is not None:  # recorded even at weight 0
        parts["consist"], g_consist = branch_consistency(cfg.consist_target, depth,
                                                         cfg.consist_mask)
        if with_grad and cfg.weight_consist > 0:
            grad += cfg.weight_consist * g_consist

    total = (cfg.weight_photo * parts["photo"] + cfg.weight_ssim * parts["ssim"]
             + cfg.weight_smooth * parts["smooth"]
             + cfg.weight_consist * parts["consist"])
    return total, grad, parts, details


def loss_grad_wrt_depth(sample: Sample, depth: np.ndarray, cfg: BranchLossConfig):
    """Analytic total loss, per-pixel d(loss)/d(depth) in 1/mm, the loss parts
    and the warp: (total, grad, parts, details)."""
    return _evaluate(sample, depth, cfg, with_grad=True)


def _copy_pixel(dst: WarpDetails, src: WarpDetails, v: int, u: int) -> None:
    """Overwrite pixel (v, u) of dst.warped and dst.masks with src's."""
    for dst_w, dst_m, src_w, src_m in zip(dst.warped, dst.masks, src.warped, src.masks):
        dst_w[v, u] = src_w[v, u]
        dst_m[v, u] = src_m[v, u]


def _multi_values(sample: Sample, depth: np.ndarray,
                  cfgs: dict[str, BranchLossConfig],
                  details: WarpDetails | None) -> dict[str, float]:
    """Loss values of several configs at one depth field whose warp is details
    (None when no config reads a warp), computing the photometric residuals
    once for every norm."""
    residuals = (list(_photo_residuals(sample, details))
                 if any(c.weight_photo > 0 for c in cfgs.values()) else None)
    return {name: _evaluate(sample, depth, cfg, False, details, residuals)[0]
            for name, cfg in cfgs.items()}


def finite_diff_grad_multi(sample: Sample, depth: np.ndarray,
                           cfgs: dict[str, BranchLossConfig], h: float
                           ) -> dict[str, np.ndarray]:
    """Central finite differences of the total loss of several configs in one
    pixel sweep, equal bit for bit to a full evaluation per perturbation and
    config. The sources are warped three times, at depth, depth + h and
    depth - h. The warp is elementwise, so pixel (v, u) of the shifted warps
    is that pixel's warp when only it moves: each perturbation copies the
    moved pixel from one of them and restores it from the base warp."""
    if not (np.isfinite(h) and h > 0):
        raise LossError(f"finite difference step must be positive and finite, got {h}")
    warps = [None] * 3  # at depth, depth + h and depth - h
    warp = None
    if any(c.weight_photo > 0 or c.weight_ssim > 0 for c in cfgs.values()):
        warps = [_warp_sources(sample, d) for d in (depth, depth + h, depth - h)]
        # the patched copy carries what the value path reads
        warp = WarpDetails([w.copy() for w in warps[0].warped],
                           [m.copy() for m in warps[0].masks], [], [])
    grads = {name: np.zeros_like(depth) for name in cfgs}
    work = depth.copy()
    for v in range(depth.shape[0]):
        for u in range(depth.shape[1]):
            d0 = work[v, u]
            values = []
            for d, moved in zip((d0 + h, d0 - h), warps[1:]):
                work[v, u] = d
                if warp is not None:
                    _copy_pixel(warp, moved, v, u)
                values.append(_multi_values(sample, work, cfgs, warp))
            work[v, u] = d0
            if warp is not None:
                _copy_pixel(warp, warps[0], v, u)
            plus, minus = values
            for name in cfgs:
                grads[name][v, u] = (plus[name] - minus[name]) / (2.0 * h)
    return grads


# ---------------------------------------------------------------------------
# finite-difference audit


@dataclass
class AuditReport:
    n_checked: int
    n_passed: int
    max_rel_err: float  # over the passing pixels outside the absolute floor

    @property
    def frac_passed(self) -> float:
        return self.n_passed / self.n_checked


# an audited gradient passes within AUDIT_REL_TOL of its finite difference,
# or when both lie below AUDIT_ABS_FLOOR; a term passes the audit when at
# least AUDIT_PASS_FRAC of its pixels do
AUDIT_REL_TOL = 1e-3
AUDIT_ABS_FLOOR = 1e-9
AUDIT_PASS_FRAC = 0.99


def _compare_grads(a: np.ndarray, f: np.ndarray) -> AuditReport:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), AUDIT_ABS_FLOOR)
    rel = np.abs(a - f) / denom
    tiny = (np.abs(a) < AUDIT_ABS_FLOOR) & (np.abs(f) < AUDIT_ABS_FLOOR)
    passed = (rel < AUDIT_REL_TOL) | tiny
    max_rel = float(rel[passed & ~tiny].max(initial=0.0))
    return AuditReport(a.size, int(passed.sum()), max_rel)


def audit_case(sample: Sample, depth: np.ndarray,
               cfgs: dict[str, BranchLossConfig], h: float = 3e-4
               ) -> dict[str, AuditReport]:
    """Compare the analytic gradient of each loss term against central finite
    differences from one shared sweep, at every pixel. The few pixels where
    the loss is not smooth within ±h (a warp crossing a bilinear cell edge, a
    residual at the norm's kink, a consistency tie) fail; the pass rule
    allows for them."""
    fds = finite_diff_grad_multi(sample, depth, cfgs, h)
    return {term: _compare_grads(loss_grad_wrt_depth(sample, depth, cfg)[1], fds[term])
            for term, cfg in cfgs.items()}


@dataclass
class AuditCase:
    """A gradient-audit configuration: the depth and both targets are (H, W)
    float64 maps in mm, the masks (H, W) bool."""

    sample: Sample
    depth: np.ndarray
    icc_target: np.ndarray
    icc_mask: np.ndarray
    scc_target: np.ndarray
    scc_mask: np.ndarray

    def configs(self) -> dict[str, BranchLossConfig]:
        """One single-term config per auditable loss term."""
        cfgs = {}
        for expo in (0.5, 1.0, 2.0):
            cfgs[f"photo_l{expo:g}"] = BranchLossConfig(norm=NormKind(expo), weight_photo=1.0)
        cfgs["ssim"] = BranchLossConfig(weight_ssim=1.0)
        cfgs["smooth"] = BranchLossConfig(weight_smooth=1.0)
        for name, target, mask in (("image_consist", self.icc_target, self.icc_mask),
                                   ("scene_consist", self.scc_target, self.scc_mask)):
            cfgs[name] = BranchLossConfig(weight_consist=1.0, consist_target=target,
                                          consist_mask=mask)
        return cfgs


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
    sample = Sample(views[0], views[1:])

    depth = smooth_field(120.0, 600.0)
    icc_target = depth + 5.0 + smooth_field(30.0, 0.0)
    scc_target = depth - 3.0 + smooth_field(40.0, 0.0)
    icc_mask = rng.random((h, w)) < 0.75
    scc_mask = rng.random((h, w)) < 0.6
    return AuditCase(sample, depth, icc_target, icc_mask, scc_target, scc_mask)


# ---------------------------------------------------------------------------
# joint branch optimization


INIT_STEP_INTERVAL_SCALE = 0.5  # first step, x final hypothesis interval, in mm
MAX_HALVINGS = 4  # backtracking halvings per step before it is refused
REFRESH_EVERY = 10  # iterations between re-sweeps of the confidence mask


@dataclass
class OptimizerConfig:
    iterations: int = 50
    norm: NormKind = NormKind()
    weights: LossWeights = field(default_factory=LossWeights)
    # the curriculum's weight at the run's epoch; this default is epoch 0's
    image_consist_weight: float = LossWeights().image_consist_base

    def __post_init__(self):
        if self.iterations < 1:  # a run without iterations has nothing to report
            raise OptimizerConfigError(f"iterations must be at least 1, got {self.iterations}")


@dataclass
class OptState:
    depths: dict[str, np.ndarray]
    history: list[dict]  # one record per iteration
    # per iteration, the regular depth after its step and the confidence mask:
    # what a contrastive branch is pulled toward at that iteration
    targets: list[tuple[np.ndarray, np.ndarray]]


# branch name -> the short name of its history keys and depth files, in the
# order of the history's total
BRANCHES = {"regular": "reg", "image_contrastive": "ic", "scene_contrastive": "sc"}


def _branch_cfg(opt: OptimizerConfig, branch: str,
                target: np.ndarray | None, mask: np.ndarray | None) -> BranchLossConfig:
    w = opt.weights
    base = BranchLossConfig(norm=opt.norm, weight_photo=w.photo,
                            weight_ssim=w.ssim, weight_smooth=w.smooth)
    if branch == "regular":
        return base
    weight = (opt.image_consist_weight if branch == "image_contrastive"
              else w.scene_consist)
    return replace(base, weight_consist=weight, consist_target=target,
                   consist_mask=mask)


def _descend(sample: Sample, branch: str, depth: np.ndarray,
             cfgs: Iterable[BranchLossConfig]) -> Iterator[tuple[np.ndarray, dict]]:
    """Normalized gradient descent on one branch's depth, one backtracking step
    per config: yields the depth after each step and the step's history keys."""
    if depth.shape != sample.reference.image.data.shape[:2]:
        raise SamplingError(f"start depth is {depth.shape}, the reference image is "
                            f"{sample.reference.image.data.shape[:2]}")
    cam = sample.reference.camera
    init_step = step = INIT_STEP_INTERVAL_SCALE * final_interval(cam)
    short = BRANCHES[branch]
    warp = None  # the warp of depth: the accepted trial's, else the last gradient point's
    for it, cfg in enumerate(cfgs):
        cur_val, grad, parts, warp = _evaluate(sample, depth, cfg, True, warp)
        if not np.isfinite(cur_val):
            raise OptimizationDiverged(
                f"non-finite loss {cur_val} on branch {branch} at iteration {it}")
        scale = np.abs(grad).max()
        accepted = False
        if scale > 0:
            direction = grad / scale
            trial = step
            for attempt in range(MAX_HALVINGS + 1):
                cand = np.clip(depth - trial * direction, cam.depth_min, cam.depth_max)
                new_val, _, new_parts, new_warp = _evaluate(sample, cand, cfg, False)
                if not np.isfinite(new_val):
                    raise OptimizationDiverged(
                        f"non-finite trial loss {new_val} on branch {branch} at iteration {it}")
                if new_val <= cur_val + 1e-12:
                    depth, warp, cur_val, parts = cand, new_warp, new_val, new_parts
                    accepted = True
                    step = min(trial * 2.0, init_step) if attempt == 0 else trial
                    break
                trial *= 0.5
            else:
                step = trial
        keys = {f"loss_{short}": cur_val, f"step_{short}": step, f"accepted_{short}": accepted}
        if branch == "regular":
            keys.update(photo_reg=parts["photo"], ssim_reg=parts["ssim"],
                        smooth_reg=parts["smooth"])
        else:
            keys[f"consist_{short}"] = parts["consist"]
        yield depth, keys


def optimize_regular(sample: Sample, depth: np.ndarray,
                     opt_cfg: OptimizerConfig | None = None) -> list[tuple[np.ndarray, dict]]:
    """Descent on the regular branch from depth, opt_cfg.iterations steps: the depth
    after each step and its history keys. It reads no confidence mask; nothing is swept."""
    opt = opt_cfg or OptimizerConfig()
    return list(_descend(sample, "regular", depth,
                         [_branch_cfg(opt, "regular", None, None)] * opt.iterations))


def optimize_contrastive(sample: Sample, branch: str, regular: OptState,
                         depth: np.ndarray, opt_cfg: OptimizerConfig | None = None
                         ) -> tuple[np.ndarray, list[dict]]:
    """Descent on one contrastive branch from depth, one step per target of
    the regular run; opt_cfg.iterations is not read. At each iteration the
    branch is pulled toward the regular depth after that iteration's step, a
    detached target, under that iteration's confidence mask. Returns the
    branch's final depth and its history keys per iteration."""
    if branch not in BRANCHES or branch == "regular":
        raise SamplingError(f"{branch!r} is not a contrastive branch")
    opt = opt_cfg or OptimizerConfig()
    records = []
    for depth, keys in _descend(sample, branch, depth, (
            _branch_cfg(opt, branch, target, mask) for target, mask in regular.targets)):
        records.append(keys)
    return depth, records


def optimize_joint(samples: dict[str, Sample],
                   sweep_cfg: SweepConfig | None = None,
                   opt_cfg: OptimizerConfig | None = None) -> OptState:
    """Per-branch normalized gradient descent on the depth field of each
    branch in samples: "regular", plus any of "image_contrastive" and
    "scene_contrastive", each from its cascade depth. optimize_regular runs
    first. Its targets carry the cascade's confidence mask, re-swept around
    the regular depth after the previous step every REFRESH_EVERY iterations;
    each contrastive branch then runs optimize_contrastive against them.
    History records carry keys for the branches run only."""
    sweep_cfg = sweep_cfg or SweepConfig()
    opt = opt_cfg or OptimizerConfig()
    if "regular" not in samples:
        raise SamplingError("missing sample for branch 'regular'")
    unknown = sorted(set(samples) - set(BRANCHES))
    if unknown:
        raise SamplingError(f"unknown branch(es) {unknown}; known: {list(BRANCHES)}")
    names = [name for name in BRANCHES if name in samples]
    regular = samples["regular"]
    if any(samples[name].reference.view_id != regular.reference.view_id for name in names):
        raise SamplingError("all branches must share the reference view")

    final = cascade_infer(regular, sweep_cfg)
    steps = optimize_regular(regular, final.depth, opt)
    conf_mask = final.conf_mask
    targets = []
    for it, (depth, _) in enumerate(steps):
        if it > 0 and it % REFRESH_EVERY == 0:
            _, conf_mask = refresh_confidence(regular, steps[it - 1][0], sweep_cfg)
        targets.append((depth, conf_mask))
    state = OptState({"regular": depth}, [keys for _, keys in steps], targets)
    for name in names[1:]:
        start = cascade_infer(samples[name], sweep_cfg).depth
        state.depths[name], records = optimize_contrastive(samples[name], name, state,
                                                           start, opt)
        for record, keys in zip(state.history, records):
            record.update(keys)
    for it, (record, (_, mask)) in enumerate(zip(state.history, targets)):
        record.update(iteration=it, conf_count=int(mask.sum()),
                      total=sum(record[f"loss_{BRANCHES[name]}"] for name in names))
    return state


def final_report(state: OptState, opt: OptimizerConfig) -> dict[str, float]:
    """The weighted five-component objective at the run's last iteration, read
    from its history record: {"total", "component_pc", "component_icc",
    "component_scc", "component_ssim", "component_smooth"}. Raises LossError
    when there is no record, or it lacks a component because a branch was not
    run."""
    if not state.history:
        raise LossError("no iteration to report: the loss history is empty")
    last = state.history[-1]
    w = opt.weights
    # component -> (history key, weight), in the order of the sum
    terms = {"pc": ("photo_reg", w.photo), "icc": ("consist_ic", opt.image_consist_weight),
             "scc": ("consist_sc", w.scene_consist), "ssim": ("ssim_reg", w.ssim),
             "smooth": ("smooth_reg", w.smooth)}
    missing = [key for key, _ in terms.values() if key not in last]
    if missing:
        raise LossError(f"the last history record lacks loss components {missing}")
    return {"total": sum(weight * last[key] for key, weight in terms.values()),
            **{f"component_{name}": last[key] for name, (key, _) in terms.items()}}

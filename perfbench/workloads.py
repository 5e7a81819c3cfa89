"""The three benchmark workloads, driven through `mvslab.cli.main`.

A workload builds a round's untimed inputs (`prepare`), names the CLI
commands that make up the timed round (`commands`), and checks the round's
outputs against computations made apart from the program (`check`).
"""

from __future__ import annotations

import inspect
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# Every fused point of the pipeline and every optimized pixel is judged
# against one final hypothesis interval: the depth range over the final
# interval count, (935 - 425) / 191 mm for the presets used here.
DEPTH_MIN_MM, DEPTH_MAX_MM, FINAL_INTERVALS = 425.0, 935.0, 191
INTERVAL_MM = (DEPTH_MAX_MM - DEPTH_MIN_MM) / FINAL_INTERVALS

# A GT point of the pipeline counts as covered when a fused point lies within
# two intervals, 5.3 mm: about one pixel's footprint at the cube's distance
# (f = 128 px at ~650 mm at 64x80). One interval is far below the spacing of
# the fused points, so the covered share would mostly measure their density.
COVER_MM = 2.0 * INTERVAL_MM

# Share of fused points that must lie within one interval of the cube
# preset's surface. The 30 round seeds of seeds 0-9 give 0.879-0.927.
SURFACE_FLOOR = 0.80

# Share of the audited case's pixels each term must keep after the audit's
# exclusions: 800 of the 32 x 40 = 1280 pixels of the command's cases. The 42
# case seeds 0-13002 of seeds 0-13 keep at least 953.
AUDIT_CHECKED_SHARE = 800 / 1280

AUDIT_TERMS = {"photo_l0.5", "photo_l1", "photo_l2", "ssim", "smooth",
               "image_consist", "scene_consist"}

OPTIMIZE_EPOCH = 15


@dataclass
class RoundResult:
    """What one checked round yields besides its wall time."""

    work: float                    # views, iterations or checked pixel-terms
    accurate_frac: float           # share of outputs within their tolerance
    figures: dict[str, float]      # the workload's own named figures
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counts


class Workload:
    name = ""
    work_unit = ""  # what work_per_kernel counts
    rate_name = ""  # the name of the raw work per second on this workload
    accurate = ""   # what accurate_frac is the share of

    def __init__(self, program):
        self.program = program

    def prepare(self, root: Path, seed: int) -> dict:
        root.mkdir(parents=True)
        return {"root": root, "seed": seed}

    def commands(self, inp: dict) -> list[list[str]]:
        raise NotImplementedError

    def check(self, inp: dict, stdouts: list[str]) -> RoundResult:
        raise NotImplementedError


class Pipeline(Workload):
    """gen-synth (cube) -> infer every view -> fuse -> eval --cloud."""

    name = "pipeline"
    work_unit = "views"
    rate_name = "views_per_s"
    accurate = ("fused points within one interval of the analytic surface, times "
                "GT points within two intervals of a fused point")

    def __init__(self, program, size=(64, 80), n_views=7):
        super().__init__(program)
        self.size, self.n_views = size, n_views

    def commands(self, inp):
        root, seed = inp["root"], str(inp["seed"])
        scene, depths = str(root / "scene"), str(root / "depths")
        ply = str(root / "fused.ply")
        h, w = self.size
        return [
            ["--seed", seed, "gen-synth", "--preset", "cube", "--size", f"{h}x{w}",
             "--n-views", str(self.n_views), "--out", scene],
            ["--seed", seed, "infer", "--scene", scene, "--out", depths],
            ["--seed", seed, "fuse", "--scene", scene, "--depths", depths, "--out", ply],
            ["eval", "--scene", scene, "--depths", depths, "--cloud", ply,
             "--out", str(root / "eval")],
        ]

    def check(self, inp, stdouts):
        root = inp["root"]
        pred = checks.read_ply(root / "fused.ply")
        fuse_rec = checks.read_jsonl(root / "fused.jsonl")[0]
        on_surface = checks.check_fused_cloud(pred, fuse_rec, INTERVAL_MM, SURFACE_FLOOR)
        gt_cloud, errors = [], []
        for vid in range(self.n_views):
            k, pose, _, _ = checks.read_cam(root / "scene" / "cams" / f"{vid:08d}_cam.txt")
            gt = checks.read_pfm(root / "scene" / "depths_gt" / f"{vid:08d}.pfm")
            gt_cloud.append(checks.backproject(k, pose, gt, stride=2))
            depth = checks.read_pfm(root / "depths" / f"{vid:08d}_depth.pfm")
            errors.append(np.abs(depth - gt).ravel())
        to_gt, to_pred = checks.check_cloud_against_eval(pred, np.concatenate(gt_cloud),
                                                         stdouts[3])
        covered = float((to_pred <= COVER_MM).mean())
        survivors = sum(v for k, v in fuse_rec.items() if k.startswith("survivors_view_"))
        return RoundResult(
            work=self.n_views, accurate_frac=on_surface * covered,
            figures={"depth_err_mm": float(np.median(np.concatenate(errors))),
                     "cloud_overall_mm": checks.acc_comp(to_gt, to_pred)[2],
                     "on_surface_frac": on_surface, "covered_frac": covered,
                     "fused_points": len(pred)},
            counts={"fusion.points": len(pred), "fusion.survivors": survivors})


class Optimize(Workload):
    """`mvslab optimize` on reference 0 of a checker_plane scene, at epoch 15."""

    name = "optimize"
    work_unit = "iterations"
    rate_name = "opt_iters_per_s"
    accurate = "of regular-branch pixels within one interval of GT depth"

    def __init__(self, program, size=(64, 80), n_views=7, iterations=None):
        super().__init__(program)
        self.size, self.n_views, self.iterations = size, n_views, iterations

    def prepare(self, root, seed):
        inp = super().prepare(root, seed)
        config = {"epoch": OPTIMIZE_EPOCH}
        if self.iterations is not None:
            config["iterations"] = self.iterations
        (root / "run.json").write_text(json.dumps(config))
        h, w = self.size
        self.program.run(["--seed", str(seed), "gen-synth", "--preset", "checker_plane",
                          "--size", f"{h}x{w}", "--n-views", str(self.n_views),
                          "--out", str(root / "scene")])
        return inp

    def commands(self, inp):
        root = inp["root"]
        return [["--config", str(root / "run.json"), "--seed", str(inp["seed"]),
                 "optimize", "--scene", str(root / "scene"), "--ref", "0",
                 "--out", str(root / "opt")]]

    def loss_weights(self) -> dict[str, float]:
        """Weights of the five report components at OPTIMIZE_EPOCH: the
        configured LossWeights, with the image-consistency weight doubled every
        two epochs from its base."""
        w = self.program.LossWeights()
        return {"pc": w.photo, "icc": w.image_consist_base * 2.0 ** (OPTIMIZE_EPOCH // 2),
                "scc": w.scene_consist, "ssim": w.ssim, "smooth": w.smooth}

    def check(self, inp, stdouts):
        root, opt = inp["root"], inp["root"] / "opt"
        history = checks.read_jsonl(opt / "loss_history.jsonl")
        checks.check_loss_history(history)
        _, _, dmin, dmax = checks.read_cam(root / "scene" / "cams" / "00000000_cam.txt")
        depths = {}
        for short in ("reg", "ic", "sc"):
            depths[short] = checks.read_pfm(opt / f"depth_{short}.pfm")
            checks.check_depth_range(depths[short], dmin, dmax, f"depth_{short}")
        checks.check_final_report(checks.read_jsonl(opt / "final_report.jsonl")[0],
                                  self.loss_weights())
        err = np.abs(depths["reg"] - checks.read_pfm(root / "scene" / "depths_gt"
                                                     / "00000000.pfm"))
        return RoundResult(
            work=len(history), accurate_frac=float((err <= INTERVAL_MM).mean()),
            figures={"depth_err_mm": float(np.median(err)),
                     "final_loss_reg": history[-1]["loss_reg"]})


class GradAudit(Workload):
    """`mvslab grad-check` on one of the gradient-audit case generator's
    32x40 cases, auditing every loss term."""

    name = "grad_audit"
    work_unit = "checked pixel-terms"
    rate_name = "audit_px_per_s"
    accurate = "of checked pixel-terms that match finite differences"

    def case_pixels(self) -> int:
        """Pixels of each case that `grad-check` audits: the size its case
        generator makes by default."""
        params = inspect.signature(self.program.modules["depthopt"].random_audit_case).parameters
        return params["h"].default * params["w"].default

    def commands(self, inp):
        return [["--seed", str(inp["seed"]), "grad-check", "--cases", "1",
                 "--out", str(inp["root"] / "audit")]]

    def check(self, inp, stdouts):
        records = checks.read_jsonl(inp["root"] / "audit" / "grad_check.jsonl")
        case_pixels = self.case_pixels()
        checks.check_audit_records(records, AUDIT_TERMS, AUDIT_CHECKED_SHARE * case_pixels)
        checked = sum(r["checked"] for r in records)
        passed = sum(r["passed"] for r in records)
        frac = checked / (len(records) * case_pixels)
        return RoundResult(
            work=checked, accurate_frac=passed / checked,
            figures={"checked_frac": frac,
                     "min_term_checked": min(r["checked"] for r in records)},
            counts={"depthopt.audit.checked": checked,
                    "depthopt.audit.checked_frac": frac})


WORKLOADS = {w.name: w for w in (Pipeline, Optimize, GradAudit)}


def median_figures(results: list[RoundResult]) -> dict[str, float]:
    keys = results[0].figures
    return {k: statistics.median(r.figures[k] for r in results) for k in keys}

"""Command-line workbench: scene generation, plane-sweep inference, joint
three-branch depth optimization, gradient audits, fusion, evaluation and A/B
trials of the paper's claims.

Every pipeline is a pure function of (inputs, config, seed); repeated runs
produce byte-identical output trees.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import claims, depthopt, fileio, fusion, planesweep, sampling, synth
from .config import RunConfig, load_config
from .sampling import N_VIEWS

EVAL_CAVEAT = ("note: published benchmark tables for this method come from "
               "networks trained on full-scale DTU; this desk-scale synthetic "
               "run reproduces the metric definitions and directional claims, "
               "not those scores.")

PRESETS = {
    "checker_plane": dict(geometry="textured_plane", texture="checker"),
    "noise_plane": dict(geometry="textured_plane", texture="noise"),
    "uniform_plane": dict(geometry="textured_plane", texture="uniform"),
    "cube": dict(geometry="cube", texture="checker"),
    "sphere": dict(geometry="sphere", texture="noise"),
    "occluder": dict(geometry="plane_with_occluder", texture="checker"),
}


def cmd_gen_synth(args, cfg: RunConfig) -> int:
    overrides = dict(PRESETS[args.preset])
    overrides["seed"] = args.seed
    if args.n_views is not None:
        overrides["n_views"] = args.n_views
    if args.size:
        overrides.update(height=args.size[0], width=args.size[1])
    spec = synth.SceneSpec(**overrides)
    scene = synth.gen_scene(spec)
    synth.save_scene(scene, args.out)
    print(f"wrote scene with {spec.n_views} views to {args.out}")
    return 0


def cmd_infer(args, cfg: RunConfig) -> int:
    scene = synth.load_scene(args.scene)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    refs = [args.ref] if args.ref is not None else list(range(len(scene.views)))
    records = []
    for ref_id in refs:
        sample = synth.regular_sample(scene, ref_id, N_VIEWS)
        final = planesweep.cascade_infer(sample)
        fileio.write_pfm(out / f"{ref_id:08d}_depth.pfm", final.depth)
        fileio.write_pfm(out / f"{ref_id:08d}_prob.pfm", final.prob_map)
        fileio.write_pfm(out / f"{ref_id:08d}_conf.pfm", final.conf_mask.astype(np.float64))
        rec = {"view": ref_id, "sources": sample.source_ids(),
               "conf_fraction": final.conf_mask.mean()}
        gt = scene.views[ref_id].gt_depth
        rec["median_abs_err_mm"] = float(np.median(np.abs(final.depth - gt)))
        rec["frac_within_2mm"] = fusion.depth_metrics(final.depth, gt)[2.0]
        records.append(rec)
    fileio.write_records(out / "records.jsonl", records)
    print(f"inferred {len(refs)} view(s) into {args.out}")
    return 0


def cmd_optimize(args, cfg: RunConfig) -> int:
    schedule = sampling.curriculum(cfg.epoch)
    opt_cfg = depthopt.OptimizerConfig(iterations=cfg.iterations,
                                       image_consist_weight=schedule.image_consist_weight)
    scene = synth.load_scene(args.scene)
    samples = synth.build_branch_samples(scene, args.ref, N_VIEWS,
                                         schedule.occlusion_rate, args.seed)
    state = depthopt.optimize_joint(samples, opt_cfg=opt_cfg)
    report = depthopt.final_report(state, opt_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_records(out / "loss_history.jsonl", state.history)
    for name, short in depthopt.BRANCHES.items():
        fileio.write_pfm(out / f"depth_{short}.pfm", state.depths[name])
    fileio.write_pfm(out / "conf_mask.pfm", state.targets[-1][1].astype(np.float64))
    fileio.write_records(out / "final_report.jsonl", [report])
    print(f"optimized 3 branches for view {args.ref}; total={report['total']:.6f}")
    return 0


def cmd_grad_check(args, cfg: RunConfig) -> int:
    records = []
    worst = {}  # term -> (lowest pass fraction, most failing pixels, largest max rel err)
    for case_idx in range(args.cases):
        case = depthopt.random_audit_case(args.seed + case_idx)
        reports = depthopt.audit_case(case.sample, case.depth, case.configs(), h=args.h)
        for term, rep in reports.items():
            records.append({"case": case_idx, "term": term, "checked": rep.n_checked,
                            "passed": rep.n_passed, "frac": rep.frac_passed,
                            "max_rel_err": rep.max_rel_err})
            low, most, top = worst.get(term, (1.0, 0, 0.0))
            worst[term] = (min(low, rep.frac_passed), max(most, rep.n_checked - rep.n_passed),
                           max(top, rep.max_rel_err))
    ok = True
    for term, (frac, failing, max_rel) in sorted(worst.items()):
        status = "ok" if frac >= depthopt.AUDIT_PASS_FRAC else "FAIL"
        ok &= frac >= depthopt.AUDIT_PASS_FRAC
        print(f"grad-check {term}: worst pass fraction {frac:.4f}, most failing pixels "
              f"{failing}, worst max rel err of passing pixels {max_rel:.2e} [{status}]")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        fileio.write_records(Path(args.out) / "grad_check.jsonl", records)
    return 0 if ok else 2


def _load_depth_views(scene, depths_dir) -> list[fusion.DepthView]:
    views = []
    for view in scene.views:
        vid = view.view_id
        depth = fileio.read_pfm(Path(depths_dir) / f"{vid:08d}_depth.pfm")
        prob = fileio.read_pfm(Path(depths_dir) / f"{vid:08d}_prob.pfm")
        views.append(fusion.DepthView(depth, prob, view.camera, view.image, vid))
    return views


def cmd_fuse(args, cfg: RunConfig) -> int:
    scene = synth.load_scene(args.scene)
    views = _load_depth_views(scene, args.depths)
    cloud, masks = fusion.fuse_point_cloud(views, fusion.FusionConfig())
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_ply(out, cloud.points, cloud.colors)
    survivors = {f"survivors_view_{i}": int(m.sum()) for i, m in enumerate(masks)}
    fileio.write_records(out.with_suffix(".jsonl"),
                         [{"points": len(cloud), **survivors}])
    print(f"fused {len(cloud)} points into {args.out}")
    return 0


def _gt_cloud(scene, stride: int = 2) -> np.ndarray:
    from .geometry import backproject, pixel_grid
    pts = []
    for view in scene.views:
        gt = view.gt_depth
        grid = pixel_grid(*gt.shape)[::stride, ::stride]
        pts.append(backproject(view.camera, grid, gt[::stride, ::stride]).reshape(-1, 3))
    return np.concatenate(pts)


def cmd_eval(args, cfg: RunConfig) -> int:
    scene = synth.load_scene(args.scene)
    records = []
    thresholds = fusion.DEPTH_THRESHOLDS_MM
    print(f"{'view':>4}" + "".join(f" {f'<={t:g}mm':>8}" for t in thresholds))
    for view in scene.views:
        vid = view.view_id
        path = Path(args.depths) / f"{vid:08d}_depth.pfm"
        if not path.exists():
            continue
        depth = fileio.read_pfm(path)
        try:
            fr = fusion.depth_metrics(depth, view.gt_depth)
        except fusion.FusionError as exc:
            raise fusion.FusionError(f"view {vid}, {path}: {exc}") from exc
        print(f"{vid:>4}" + "".join(f" {fr[t]:>8.3f}" for t in thresholds))
        records.append({"view": vid, **{f"frac_{t:g}mm": fr[t] for t in thresholds}})
    if not records:
        raise fileio.FileFormatError(f"{args.depths} holds no <view>_depth.pfm "
                                     f"of the scene's views")
    if args.cloud:
        pts, _ = fileio.read_ply(args.cloud)
        if len(pts) == 0:  # nothing survived fusion: no distance to measure
            print("cloud: 0 points")
            records.append({"cloud_points": 0})
        else:
            acc, comp, overall = fusion.cloud_metrics(pts, _gt_cloud(scene))
            print(f"cloud: acc={acc:.3f}mm comp={comp:.3f}mm overall={overall:.3f}mm")
            records.append({"cloud_acc_mm": acc, "cloud_comp_mm": comp,
                            "cloud_overall_mm": overall})
    print(EVAL_CAVEAT)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        fileio.write_records(Path(args.out) / "eval.jsonl", records)
    return 0


def cmd_ablate(args, cfg: RunConfig) -> int:
    trial = claims.TRIALS[args.claim]
    seeds = args.seeds or claims.CLAIM_SEEDS[args.claim]
    records = []
    for seed in seeds:
        rec = trial(seed)
        if rec is None:
            print(f"{args.claim} seed {seed}: skipped, the scene does not qualify")
            continue
        arms = "  ".join(f"{arm} {value:.4f}" for arm, value in rec["arms"].items())
        print(f"{args.claim} seed {seed}: {rec['metric']}  {arms}  "
              f"margin {rec['margin']:+.4f} [{'win' if rec['win'] else 'loss'}]")
        records.append(rec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_records(out / f"ablate_{args.claim}.jsonl", records)
    if records:
        print(f"{args.claim}: {sum(r['win'] for r in records)}/{len(records)} wins, "
              f"mean margin {np.mean([r['margin'] for r in records]):+.4f}")
    return 0


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _size(text: str) -> tuple[int, int]:
    try:
        h, w = (int(t) for t in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be HxW, e.g. 64x80, got {text!r}") from None
    if min(h, w) < 1:
        raise argparse.ArgumentTypeError(f"both sides must be at least 1, got {text!r}")
    return h, w


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvslab",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON run-config file: epoch, iterations")
    parser.add_argument("--seed", type=_int_at_least(0), default=0, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="render a synthetic scene")
    p.add_argument("--preset", choices=sorted(PRESETS), default="checker_plane")
    p.add_argument("--n-views", type=int, default=None)
    p.add_argument("--size", type=_size, help="HxW, e.g. 64x80")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("infer", help="plane-sweep depth inference")
    p.add_argument("--scene", required=True)
    p.add_argument("--ref", type=int, default=None, help="single reference view")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("optimize", help="three-branch joint depth optimization")
    p.add_argument("--scene", required=True)
    p.add_argument("--ref", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--cases", type=_int_at_least(1), default=4)
    p.add_argument("--h", type=_positive_finite, default=3e-4, help="FD step in mm")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("fuse", help="filter depth maps and fuse a point cloud")
    p.add_argument("--scene", required=True)
    p.add_argument("--depths", required=True, help="directory written by infer")
    p.add_argument("--out", required=True, help="output PLY path")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("eval", help="depth and point-cloud metrics")
    p.add_argument("--scene", required=True)
    p.add_argument("--depths", required=True)
    p.add_argument("--cloud", default=None, help="fused PLY to score")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="A/B trials of the paper's three claims")
    p.add_argument("--claim", required=True, choices=sorted(claims.TRIALS))
    p.add_argument("--seeds", type=_int_at_least(0), nargs="+", default=None,
                   help="scene seeds (default: those of the acceptance criteria)")
    p.add_argument("--out", required=True, help="directory for ablate_<claim>.jsonl")
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        return args.fn(args, cfg)
    except Exception as exc:  # surface a diagnostic, not a traceback
        # the package's own errors and OSErrors say what failed; name any other class
        typed = isinstance(exc, OSError) or type(exc).__module__.startswith("mvslab.")
        print(f"error: {exc}" if typed else f"error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

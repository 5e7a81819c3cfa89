"""End-to-end desk-scale demo: render a cube scene, infer depth for every
view, filter + fuse a point cloud, and print depth/cloud metrics.

Usage: python scripts/run_pipeline_demo.py [--seed 9] [--out /tmp/demo]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvslab import fileio, fusion, sampling, synth
from mvslab.grids import BinaryMask
from mvslab.planesweep import cascade_infer


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--out", default=None, help="optional PLY output path")
    args = parser.parse_args()

    scene = synth.gen_scene(synth.SceneSpec(geometry="cube", texture="checker",
                                            n_views=7, seed=args.seed))
    views = []
    for ref in scene.views:
        candidates = [v for v in scene.views if v.view_id != ref.view_id]
        sample = sampling.select_regular_views(ref, candidates,
                                               scene.pair_scores[ref.view_id], 5)
        stages = cascade_infer(sample)
        final = stages[-1]
        err = np.abs(final.depth.data - ref.gt_depth.data)
        fr = fusion.depth_metrics(final.depth, ref.gt_depth,
                                  BinaryMask(np.ones(err.shape, dtype=bool)))
        print(f"view {ref.view_id}: median err {np.median(err):6.3f}mm  "
              f"<=2mm {fr[2.0]:.3f}  <=4mm {fr[4.0]:.3f}  <=8mm {fr[8.0]:.3f}  "
              f"conf {final.conf_mask.data.mean():.2f}")
        views.append(fusion.DepthView(final.depth, final.prob_map, ref.camera,
                                      ref.image, ref.view_id))

    cfg = fusion.FusionConfig(reproj_px=0.5, rel_depth=0.005, min_consistent_views=4)
    cloud, masks = fusion.fuse_point_cloud(views, cfg)
    print(f"fused {len(cloud)} points "
          f"(survivors per view: {[int(m.data.sum()) for m in masks]})")
    if args.out:
        fileio.write_ply(args.out, cloud.points, cloud.colors)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

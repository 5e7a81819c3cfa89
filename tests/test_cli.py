import dataclasses
import hashlib
import json
import platform
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import read_records
from mvslab import claims, depthopt, fileio, fusion, losses
from mvslab.cli import EVAL_CAVEAT, N_VIEWS, build_parser, main
from mvslab.config import RunConfig, load_config
from mvslab.fileio import FileFormatError
from mvslab.fusion import FusionConfig, FusionError
from mvslab.losses import LossWeights, NormKind
from mvslab.planesweep import SweepConfig


def run_cli(*argv):
    return main(list(argv))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


GOLDEN = Path(__file__).parent / "golden" / "digests.json"


def assert_golden(name: str, root: Path) -> None:
    """SHA-256 of every file under root against the digests recorded as name
    in golden/digests.json. Float output is only reproducible on the Python,
    numpy and scipy versions the digests were made with, so another version
    fails rather than skips."""
    golden = json.loads(GOLDEN.read_text())
    here = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}
    assert golden["versions"] == here, \
        f"golden digests were made with {golden['versions']}, this run has {here}"
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in tree_bytes(root).items()}
    assert digests == golden["digests"].get(name), \
        _golden_diff(golden["digests"].get(name) or {}, digests) \
        + "new digests:\n" + json.dumps({name: digests}, indent=2)


def _golden_diff(want: dict[str, str], got: dict[str, str]) -> str:
    """The files whose digest changed, then those added and removed."""
    lines = ["seeded outputs changed"]
    for label, names in (("changed", [k for k in got if k in want and got[k] != want[k]]),
                         ("added", [k for k in got if k not in want]),
                         ("removed", [k for k in want if k not in got])):
        lines += [f"{label}: {k}" for k in sorted(names)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """gen-synth + infer once for the CLI tests that consume them."""
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene"
    depths = root / "depths"
    assert run_cli("--seed", "3", "gen-synth", "--preset", "checker_plane",
                   "--size", "32x40", "--n-views", "5", "--out", str(scene)) == 0
    assert run_cli("infer", "--scene", str(scene), "--out", str(depths)) == 0
    return root, scene, depths


def test_gen_synth_writes_expected_layout(pipeline_dirs):
    _, scene, _ = pipeline_dirs
    assert (scene / "pair.txt").exists()
    assert (scene / "scene.json").exists()
    assert len(list((scene / "images").glob("*.npy"))) == 5
    assert len(list((scene / "cams").glob("*_cam.txt"))) == 5
    assert len(list((scene / "depths_gt").glob("*.pfm"))) == 5


def test_infer_outputs_and_metrics(pipeline_dirs):
    _, _, depths = pipeline_dirs
    records = read_records(depths / "records.jsonl")
    assert len(records) == 5
    assert all("frac_within_2mm" in r for r in records)
    assert all(r["frac_within_2mm"] > 0.5 for r in records)
    assert (depths / "00000000_depth.pfm").exists()
    assert (depths / "00000000_prob.pfm").exists()
    assert (depths / "00000000_conf.pfm").exists()


def test_eval_prints_table_and_caveat(pipeline_dirs, capsys):
    _, scene, depths = pipeline_dirs
    assert run_cli("eval", "--scene", str(scene), "--depths", str(depths)) == 0
    out = capsys.readouterr().out
    assert EVAL_CAVEAT in out
    assert "<=2mm" in out


def run_eval_command(scene, depths):
    """cmd_eval on parsed arguments, so a failure shows its exception type."""
    args = build_parser().parse_args(["eval", "--scene", str(scene), "--depths", str(depths)])
    return args.fn(args, RunConfig())


def test_eval_without_depth_maps_names_the_directory(pipeline_dirs, tmp_path, capsys):
    _, scene, _ = pipeline_dirs
    for depths in (tmp_path, tmp_path / "missing"):
        with pytest.raises(FileFormatError, match=re.escape(str(depths))):
            run_eval_command(scene, depths)
        assert run_cli("eval", "--scene", str(scene), "--depths", str(depths)) == 1
        assert str(depths) in capsys.readouterr().err


def test_eval_shape_mismatch_names_view_and_file(pipeline_dirs, tmp_path):
    _, scene, depths = pipeline_dirs
    bad = tmp_path / "depths"
    shutil.copytree(depths, bad)
    path = bad / "00000002_depth.pfm"
    fileio.write_pfm(path, np.full((8, 10), 500.0))
    with pytest.raises(FusionError, match=rf"view 2, {re.escape(str(path))}: .*\(8, 10\)"):
        run_eval_command(scene, bad)


def test_fuse_and_eval_cloud(pipeline_dirs, capsys):
    root, scene, depths = pipeline_dirs
    ply = root / "fused.ply"
    assert run_cli("fuse", "--scene", str(scene), "--depths", str(depths),
                   "--out", str(ply)) == 0
    pts, cols = fileio.read_ply(ply)
    assert len(pts) > 50
    assert run_cli("eval", "--scene", str(scene), "--depths", str(depths),
                   "--cloud", str(ply), "--out", str(root / "eval")) == 0
    out = capsys.readouterr().out
    assert "cloud:" in out and EVAL_CAVEAT in out
    recs = read_records(root / "eval" / "eval.jsonl")
    assert any("cloud_overall_mm" in r for r in recs)
    assert_golden("fuse_and_eval", root)


def test_eval_records_an_empty_cloud(pipeline_dirs, tmp_path, capsys):
    # what fuse writes when no pixel survives, as on a textureless plane
    _, scene, depths = pipeline_dirs
    ply = tmp_path / "fused.ply"
    fileio.write_ply(ply, np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8))
    assert run_cli("eval", "--scene", str(scene), "--depths", str(depths),
                   "--cloud", str(ply), "--out", str(tmp_path / "eval")) == 0
    assert "cloud: 0 points" in capsys.readouterr().out
    recs = read_records(tmp_path / "eval" / "eval.jsonl")
    assert recs[-1] == {"cloud_points": 0}
    assert all("frac_2mm" in r for r in recs[:-1])


def test_eval_rejects_a_cloud_with_a_non_finite_point(pipeline_dirs, tmp_path, capsys):
    _, scene, depths = pipeline_dirs
    ply = tmp_path / "fused.ply"
    vertices = np.zeros(2, dtype=fileio.PLY_VERTEX)
    vertices["xyz"] = [[0.0, 0.0, 500.0], [np.nan, 0.0, 500.0]]
    ply.write_bytes(fileio.PLY_HEADER.format(n=2).encode("ascii") + vertices.tobytes())
    assert run_cli("eval", "--scene", str(scene), "--depths", str(depths),
                   "--cloud", str(ply)) == 1
    assert "error: PLY vertex coordinates must be finite" in capsys.readouterr().err


def test_optimize_emits_history_and_depths(tmp_path):
    scene = tmp_path / "scene"
    out = tmp_path / "opt"
    assert run_cli("--seed", "4", "gen-synth", "--preset", "checker_plane",
                   "--size", "32x40", "--n-views", "6", "--out", str(scene)) == 0
    cfg = {"iterations": 5, "epoch": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("--config", str(cfg_path), "--seed", "4", "optimize",
                   "--scene", str(scene), "--ref", "0", "--out", str(out)) == 0
    history = read_records(out / "loss_history.jsonl")
    assert len(history) == 5
    assert {"loss_reg", "loss_ic", "loss_sc", "total"} <= set(history[0])
    for name in ("depth_reg.pfm", "depth_ic.pfm", "depth_sc.pfm", "conf_mask.pfm"):
        assert (out / name).exists()
    report = read_records(out / "final_report.jsonl")[0]
    assert "total" in report and "component_pc" in report
    assert_golden("optimize", tmp_path)


def test_optimize_without_iterations_fails_and_writes_no_report(tmp_path, capsys):
    scene = tmp_path / "scene"
    out = tmp_path / "opt"
    assert run_cli("--seed", "4", "gen-synth", "--preset", "checker_plane",
                   "--size", "16x20", "--n-views", "5", "--out", str(scene)) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"iterations": 0}))
    assert run_cli("--config", str(cfg_path), "optimize", "--scene", str(scene),
                   "--out", str(out)) == 1
    assert "iterations must be at least 1" in capsys.readouterr().err
    assert not (out / "final_report.jsonl").exists()
    assert not out.exists()


def test_gen_synth_rejects_zero_views(tmp_path, capsys):
    out = tmp_path / "scene"
    assert run_cli("gen-synth", "--n-views", "0", "--out", str(out)) == 1
    assert "at least 2 views" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size", ["16x20x3", "ax20", "16", "0x20", "16x-1"])
def test_gen_synth_rejects_a_malformed_size(tmp_path, capsys, size):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("gen-synth", "--size", size, "--out", str(tmp_path / "scene"))
    assert excinfo.value.code == 2
    assert "--size" in capsys.readouterr().err


@pytest.mark.parametrize("cases", ["0", "-2"])
def test_grad_check_rejects_fewer_than_one_case(capsys, cases):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("grad-check", "--cases", cases)
    assert excinfo.value.code == 2
    assert "--cases" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["0", "-0.5", "nan", "inf"])
def test_grad_check_rejects_a_step_that_is_not_positive_and_finite(capsys, h):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("grad-check", "--h", h)
    assert excinfo.value.code == 2
    assert "--h" in capsys.readouterr().err


def test_grad_check_passes_quickly(tmp_path, capsys):
    assert run_cli("grad-check", "--cases", "1",
                   "--out", str(tmp_path / "audit")) == 0
    out = capsys.readouterr().out
    assert "photo_l0.5" in out and "[ok]" in out and "FAIL" not in out
    recs = read_records(tmp_path / "audit" / "grad_check.jsonl")
    assert len(recs) == 7
    assert all(r["frac"] >= 0.99 for r in recs)
    assert all(r["checked"] == 32 * 40 for r in recs)
    assert_golden("grad_check", tmp_path)


def test_grad_check_prints_the_worst_over_cases(tmp_path, capsys, monkeypatch):
    # per case, (passed of 1280, max rel err of the passing pixels) for each
    # term; a term's lowest pass fraction and its largest error come from
    # different cases
    cases = [{"photo_l0.5": (1280, 3e-4), "smooth": (1275, 1e-4)},
             {"photo_l0.5": (1275, 1e-4), "smooth": (1280, 2e-5)},
             {"photo_l0.5": (1279, 9e-4), "smooth": (1276, 7e-4)}]
    reports = iter([{term: depthopt.AuditReport(1280, passed, err)
                     for term, (passed, err) in case.items()} for case in cases])
    monkeypatch.setattr(depthopt, "audit_case", lambda *args, **kwargs: next(reports))
    assert run_cli("grad-check", "--cases", "3", "--out", str(tmp_path)) == 0
    printed = re.findall(r"grad-check (\S+): worst pass fraction (\S+), most failing pixels "
                         r"(\d+), worst max rel err of passing pixels (\S+) \[ok\]",
                         capsys.readouterr().out)
    recs = read_records(tmp_path / "grad_check.jsonl")
    assert len(printed) == 2 and len(recs) == 6
    for term, frac, failing, max_rel in printed:
        mine = [r for r in recs if r["term"] == term]
        assert frac == f"{min(r['frac'] for r in mine):.4f}", term
        assert int(failing) == max(r["checked"] - r["passed"] for r in mine) == 5, term
        assert max_rel == f"{max(r['max_rel_err'] for r in mine):.2e}", term


@pytest.mark.parametrize("argv", [
    ["--seed", "-1", "grad-check", "--cases", "1"],
    ["--seed", "-1", "gen-synth", "--out", "scene"],
    ["ablate", "--claim", "scc", "--seeds", "2", "-1", "--out", "ablate"],
])
def test_a_negative_seed_names_its_flag(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 0" in err
    assert ("--seeds" if "ablate" in argv else "--seed") in err


def test_seeded_pipeline_is_byte_identical(tmp_path):
    trees = []
    for name in ("a", "b"):
        scene = tmp_path / name / "scene"
        depths = tmp_path / name / "depths"
        assert run_cli("--seed", "7", "gen-synth", "--preset", "occluder",
                       "--size", "24x32", "--n-views", "5", "--out", str(scene)) == 0
        assert run_cli("infer", "--scene", str(scene), "--out", str(depths)) == 0
        trees.append(tree_bytes(tmp_path / name))
    assert trees[0].keys() == trees[1].keys()
    for key in trees[0]:
        assert trees[0][key] == trees[1][key], key
    assert_golden("seeded_pipeline", tmp_path / "a")


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("infer", "--bogus", "x")
    assert excinfo.value.code != 0


def fake_trial(seed):
    # stands in for a 60-iteration trial; odd seeds do not qualify
    if seed % 2:
        return None
    return claims._record("scc", seed, "median_abs_err_affected_mm",
                          {"consistency": 1.0, "no_consistency": 1.0 + seed}, float(seed))


@pytest.mark.parametrize("argv", [
    ["gen-synth"], ["infer", "--scene", "s"], ["optimize", "--scene", "s"],
    ["fuse", "--scene", "s", "--depths", "d"], ["ablate", "--claim", "icc"]],
    ids=lambda argv: argv[0])
def test_missing_out_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_missing_input_exits_nonzero(capsys):
    assert run_cli("infer", "--scene", "/nonexistent/scene", "--out", "/tmp/x") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("exc,printed", [
    (IndexError("index 3 is out of bounds"), "error: IndexError: index 3 is out of bounds"),
    (losses.LossError("no photometric signal"), "error: no photometric signal"),
    (FileNotFoundError("no such file: scene.json"), "error: no such file: scene.json"),
], ids=["untyped", "package_error", "os_error"])
def test_an_untyped_failure_names_its_class(tmp_path, capsys, monkeypatch, exc, printed):
    def failing_trial(seed):
        raise exc
    monkeypatch.setitem(claims.TRIALS, "norm", failing_trial)
    assert run_cli("ablate", "--claim", "norm", "--seeds", "1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == printed + "\n"


@pytest.mark.parametrize("shape", [(32, 40), (32, 40, 1)], ids=["grayscale", "one_channel"])
def test_infer_rejects_a_view_that_is_not_rgb(pipeline_dirs, tmp_path, capsys, shape):
    scene = tmp_path / "scene"
    shutil.copytree(pipeline_dirs[1], scene)
    np.save(scene / "images" / "00000002.npy", np.full(shape, 0.5))
    assert run_cli("infer", "--scene", str(scene), "--out", str(tmp_path / "depths")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "images/00000002.npy" in err
    assert "HxWx3" in err


def test_config_round_trip(tmp_path):
    assert RunConfig() == RunConfig(epoch=0, iterations=50)
    # the fixed settings a config file no longer sets: the library defaults
    assert LossWeights() == LossWeights(photo=0.8, image_consist_base=0.01,
                                        scene_consist=0.01, ssim=0.2, smooth=0.0067)
    assert NormKind() == NormKind(0.5) and losses.NORM_EPS_GRAD == 1e-4
    assert depthopt.REFRESH_EVERY == 10
    assert SweepConfig().softmax_sharpness == 50.0
    assert FusionConfig() == FusionConfig(0.95, 1.0, 0.01, 3)
    assert fusion.DEPTH_THRESHOLDS_MM == (2.0, 4.0, 8.0) and fusion.OUTLIER_CAP_MM == 20.0
    assert N_VIEWS == 5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epoch": 15, "iterations": 7}))
    assert load_config(path) == RunConfig(epoch=15, iterations=7)
    path.write_text("{}")
    assert load_config(path) == RunConfig()
    with pytest.raises(FileFormatError):
        path.write_text(json.dumps({"bogus": 1}))
        load_config(path)


# Every key a config file may set. A new knob has to be added here.
CONFIG_KEYS = ["epoch", "iterations"]


def test_config_keys_are_listed(tmp_path):
    keys = {f.name: getattr(RunConfig(), f.name) for f in dataclasses.fields(RunConfig)}
    assert list(keys) == CONFIG_KEYS
    path = tmp_path / "cfg.json"
    for key in CONFIG_KEYS:  # each loads alone, at its default
        path.write_text(json.dumps({key: keys[key]}))
        assert load_config(path) == RunConfig(), key


# The sweep settings that became planesweep constants, at their old defaults;
# each is rejected under the name of the sweep table, which is gone too.
REMOVED_SWEEP_SETTINGS = {
    "stage_counts": [48, 32, 8], "stage_scales": [4, 2, 1],
    "refine_interval_scales": [4.0, 1.0], "final_intervals": 191,
    "n_channels": 8, "n_groups": 4, "smoothing_passes": 2, "conf_threshold": 0.95,
}


@pytest.mark.parametrize("key", list(REMOVED_SWEEP_SETTINGS))
def test_removed_sweep_settings_are_unknown_keys(tmp_path, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {key: REMOVED_SWEEP_SETTINGS[key]}}))
    with pytest.raises(FileFormatError, match="unknown config key 'sweep'"):
        load_config(path)


# The settings that became library defaults, at their old defaults; those of
# a table are rejected under the table's name.
REMOVED_SETTINGS = {
    "n_views": 5, "norm_exponent": 0.5, "eps_grad": 1e-4, "total_epochs": 16, "seed": 0,
    "weights.photo": 0.8, "weights.image_consist_base": 0.01,
    "weights.scene_consist": 0.01, "weights.ssim": 0.2, "weights.smooth": 0.0067,
    "sweep.softmax_sharpness": 50.0,
    "fusion.conf_threshold": 0.95, "fusion.reproj_px": 1.0, "fusion.rel_depth": 0.01,
    "fusion.min_consistent_views": 3,
}


def test_removed_settings_are_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    for key, value in REMOVED_SETTINGS.items():
        table, _, leaf = key.partition(".")
        path.write_text(json.dumps({table: {leaf: value}} if leaf else {key: value}))
        with pytest.raises(FileFormatError, match=f"unknown config key '{table}'"):
            load_config(path)


@pytest.mark.parametrize("text", ["[1]", "{not json", '{"n_views": {"a": 1}}',
                                  '{"sweep": {"bogus": 1}}', '{"n_views": "x"}',
                                  '{"iterations": -3}', '{"epoch": -1}',
                                  '{"total_epochs": -16}', '{"n_views": -5}',
                                  '{"n_views": true}', '{"iterations": 50.0}',
                                  '{"seed": null}', '{"eps_grad": [0.1]}',
                                  '{"weights": {"photo": "0.8"}}', '{"weights": 3}',
                                  '{"sweep": {"n_groups": 4.0}}',
                                  '{"sweep": {"stage_counts": [48, "32", 8]}}',
                                  '{"sweep": {"stage_counts": 48}}',
                                  '{"fusion": {"min_consistent_views": false}}',
                                  '{"eps_grad": NaN}', '{"weights": {"ssim": Infinity}}',
                                  '{"eps_grad": -Infinity}', '{"eps_grad": 1e400}',
                                  '{"norm_exponent": 0.7}', '{"eps_grad": 0.0}',
                                  '{"weights": {"photo": -1}}',
                                  '{"sweep": {"n_groups": 0}}', '{"sweep": {"n_channels": 12}}',
                                  '{"sweep": {"stage_counts": [48, 1, 8]}}',
                                  '{"sweep": {"stage_scales": [4, 0, 1]}}',
                                  '{"sweep": {"final_intervals": 0}}',
                                  '{"sweep": {"softmax_sharpness": 0}}',
                                  '{"fusion": {"min_consistent_views": 0}}',
                                  '{"epoch": 16}', '{"iterations": 0}', '{"epoch": true}',
                                  pytest.param('{"eps_grad": 1' + '0' * 400 + '}',
                                               id="eps_grad-10**400")])
def test_bad_config_raises_file_format_error(tmp_path, capsys, monkeypatch,
                                            pipeline_dirs, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(FileFormatError):
        load_config(path)
    _, scene, depths = pipeline_dirs
    monkeypatch.setitem(claims.TRIALS, "norm", fake_trial)
    for argv in (["infer", "--scene", str(tmp_path), "--out", str(tmp_path / "out")],
                 ["eval", "--scene", str(scene), "--depths", str(depths)],
                 ["ablate", "--claim", "norm", "--out", str(tmp_path / "ablate")]):
        assert run_cli("--config", str(path), *argv) == 1, argv[0]
        assert "error:" in capsys.readouterr().err


def test_ablate_writes_one_record_per_qualifying_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(claims.TRIALS, "scc", fake_trial)
    assert run_cli("ablate", "--claim", "scc", "--seeds", "2", "3", "4",
                   "--out", str(tmp_path)) == 0
    records = read_records(tmp_path / "ablate_scc.jsonl")
    assert [r["seed"] for r in records] == [2, 4]
    assert all(set(r["arms"]) == {"consistency", "no_consistency"} for r in records)
    assert all(r["win"] for r in records)
    out = capsys.readouterr().out
    assert "scc seed 3: skipped" in out
    assert "2/2 wins" in out


def test_ablate_defaults_to_the_criteria_seeds(tmp_path, monkeypatch):
    monkeypatch.setitem(claims.TRIALS, "norm", fake_trial)
    assert run_cli("ablate", "--claim", "norm", "--out", str(tmp_path)) == 0
    records = read_records(tmp_path / "ablate_norm.jsonl")
    assert [r["seed"] for r in records] == [300, 302, 304]


def test_ablate_rejects_unknown_claim(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("ablate", "--claim", "bogus", "--out", str(tmp_path))
    assert excinfo.value.code == 2

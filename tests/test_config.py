import math

import numpy as np
import pytest

from bevlab import harness
from bevlab.config import DEFAULTS, ConfigError, RunConfig
from bevlab.geometry import BevGrid
from bevlab.mapeval import EvalConfig


def test_defaults_round_trip_through_dump_and_parse():
    cfg = RunConfig()
    again = RunConfig.parse(cfg.dump())
    for name, _, _, _ in DEFAULTS:
        assert getattr(again, name) == getattr(cfg, name), name
    assert again.config_hash() == cfg.config_hash()


def test_parse_overrides_types_and_comments():
    text = "steps 12\nlambda_bev 0.5  # tuned down\n\nseeds 4 5 6\n"
    cfg = RunConfig.parse(text)
    assert cfg.steps == 12 and isinstance(cfg.steps, int)
    assert cfg.lambda_bev == 0.5
    assert cfg.seeds == (4, 5, 6)


def test_parse_rejects_unknown_duplicate_and_malformed_keys():
    with pytest.raises(ConfigError, match="unknown"):
        RunConfig.parse("not_a_key 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        RunConfig.parse("steps 5\nsteps 6\n")
    # fixed-arity keys take exactly as many values as their default
    with pytest.raises(ConfigError, match="expected 3 values"):
        RunConfig.parse("teacher_widths 12 16\n")
    # seeds is a list of any length, but not empty and without repeats
    assert RunConfig.parse("seeds 1 2\n").seeds == (1, 2)
    assert RunConfig.parse("seeds 1\n").seeds == (1,)
    assert RunConfig.parse("seeds 4 5 6\n").seeds == (4, 5, 6)
    with pytest.raises(ConfigError, match="expected at least one value"):
        RunConfig.parse("seeds\n")
    with pytest.raises(ConfigError, match="seeds: repeated values 1"):
        RunConfig.parse("seeds 1 1\n")
    with pytest.raises(ConfigError, match="lambda_factors: repeated values 1.0"):
        RunConfig({"lambda_factors": (0.0, 1.0, 1.0)})
    with pytest.raises(ConfigError, match="lambda_factors: expected at least one value"):
        RunConfig({"lambda_factors": ()})
    # a value of the wrong type names its key instead of escaping as ValueError
    with pytest.raises(ConfigError, match="steps: expected int, got '1.5'"):
        RunConfig.parse("steps 1.5\n")
    with pytest.raises(ConfigError, match="seeds: expected int"):
        RunConfig.parse("seeds 1 x\n")
    with pytest.raises(ConfigError, match="lambda_bev: expected float"):
        RunConfig.parse("lambda_bev high\n")


def test_parse_value_errors_name_their_line():
    with pytest.raises(ConfigError, match=r"^line 3: steps: expected int, got 'x'$"):
        RunConfig.parse("n_train 4\n# a comment\nsteps x\n")
    with pytest.raises(ConfigError, match=r"^line 1: teacher_widths: expected 3 values, got 2$"):
        RunConfig.parse("teacher_widths 12 16\n")


def test_parse_splits_key_and_value_on_any_whitespace():
    cfg = RunConfig.parse("steps\t10\nseeds \t 4\t5\nlambda_bev\t\t0.5  \n")
    assert cfg.steps == 10 and cfg.seeds == (4, 5) and cfg.lambda_bev == 0.5
    # dump writes single spaces whatever was read, so no cache hash moves
    assert RunConfig.parse(cfg.dump().replace(" ", "\t")).dump() == cfg.dump()


def test_validation_rejects_bad_fields():
    for overrides in ({"variant": "nope"}, {"roi": "huge"},
                      {"n_train": 0}, {"steps": 0}, {"lambda_bev": -1.0},
                      {"image_width": 97}):
        with pytest.raises(ConfigError):
            RunConfig(overrides)


def test_validation_rejects_settings_that_crash_later():
    cases = [({"downsample": 3}, "downsample must be 2 or 4"),
             ({"grid_rows": 20}, "multiples of 8"),
             ({"grid_cols": 44}, "multiples of 8"),
             ({"grid_rows": 0}, "multiples of 8"),
             ({"road_count": (2, 1)}, "road_count: range 2 1"),
             ({"lane_count": (4, 2)}, "lane_count: range 4 2"),
             ({"occluder_count": (5, 2)}, "occluder_count: range 5 2"),
             ({"road_count": (0, 2)}, "road_count"),
             ({"occluder_count": (-1, 2)}, "occluder_count"),
             ({"occluder_size": (3.0, 1.0)}, "occluder_size: range 3.0 1.0"),
             # both edges of a road this wide never fit in the extended RoI
             ({"lane_count": (30, 40)}, "lane_count: 40 lanes of 3.2 m reach the extended "
                                        "RoI's 111.8 m diagonal"),
             ({"lane_count": (2, 35)}, "lane_count: 35 lanes"),
             # each of these trained a teacher or rendered a corpus first
             ({"lambda_bev": math.nan}, "lambda_bev must be finite, got nan"),
             ({"base_lr": math.nan}, "base_lr must be finite, got nan"),
             ({"cam_pitch": math.inf}, "cam_pitch must be finite, got inf"),
             ({"lambda_factors": (0.0, math.nan)}, "lambda_factors must be finite"),
             ({"cameras": 0}, "cameras must be positive, got 0"),
             ({"crossing_probability": 2.0}, r"crossing_probability must be within \[0, 1\]"),
             ({"crossing_probability": -0.5}, "crossing_probability must be within"),
             ({"min_lr": -1e-5}, "min_lr must be nonnegative, got -1e-05"),
             ({"weight_decay": -1.0}, "weight_decay must be nonnegative"),
             ({"reg_weight": -0.05}, "reg_weight must be nonnegative"),
             ({"curvature": -0.1}, "curvature must be nonnegative"),
             ({"n_queries": 0}, "n_queries must be positive, got 0"),
             ({"n_points": 1}, "n_points must be at least 2, got 1"),
             ({"base_lr": 0.0}, "base_lr must be positive"),
             ({"teacher_widths": (12, 0, 24)}, "teacher_widths must be positive, got 12 0 24"),
             ({"image_height": 0}, "image_height must be positive")]
    for overrides, message in cases:
        with pytest.raises(ConfigError, match=message):
            RunConfig(overrides)
    with pytest.raises(ConfigError, match="lambda_bev must be finite, got nan"):
        RunConfig.parse("lambda_bev nan\n")
    # the accepted values at the edges of each rule still validate
    for overrides in ({"downsample": 4}, {"grid_rows": 8, "grid_cols": 16},
                      {"road_count": (2, 2)}, {"occluder_count": (0, 0)},
                      {"lane_count": (1, 34)},
                      {"crossing_probability": 0.0}, {"crossing_probability": 1.0},
                      {"min_lr": 0.0, "weight_decay": 0.0, "reg_weight": 0.0},
                      {"n_points": 2, "n_queries": 1, "cameras": 1}):
        RunConfig(overrides)


def test_validation_rejects_negative_seeds():
    # numpy would refuse them only once the run reaches default_rng, after
    # the corpus is rendered or the teacher trained
    cases = [({"seed": -1}, "seed must be nonnegative, got -1"),
             ({"teacher_seed": -2}, "teacher_seed must be nonnegative, got -2"),
             ({"seeds": (-3,)}, "seeds must be nonnegative, got -3"),
             ({"seeds": (1, -1)}, "seeds must be nonnegative, got 1 -1")]
    for overrides, message in cases:
        with pytest.raises(ConfigError, match=message):
            RunConfig(overrides)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        RunConfig.parse("teacher_seed -1\n")
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        RunConfig().with_overrides(seed=-5)
    cfg = RunConfig({"seed": 0, "teacher_seed": 0, "seeds": (0, 2 ** 40)})
    assert (cfg.seed, cfg.teacher_seed, cfg.seeds) == (0, 0, (0, 2 ** 40))


def test_with_overrides_keeps_original_untouched():
    cfg = RunConfig()
    other = cfg.with_overrides(variant="raw", seed=7)
    assert other.variant == "raw" and other.seed == 7
    assert cfg.variant == "norm_adapter" and cfg.seed == 1
    assert other.config_hash() != cfg.config_hash()


def test_hashes_scope_their_fields():
    cfg = RunConfig()
    lam = cfg.with_overrides(lambda_bev=0.25)
    # supervision weight touches neither the dataset nor the teacher
    assert lam.dataset_hash() == cfg.dataset_hash()
    assert lam.teacher_hash() == cfg.teacher_hash()
    assert lam.config_hash() != cfg.config_hash()
    deeper = cfg.with_overrides(teacher_steps=50)
    assert deeper.teacher_hash() != cfg.teacher_hash()
    assert deeper.dataset_hash() == cfg.dataset_hash()
    wider = cfg.with_overrides(image_width=48)
    assert wider.dataset_hash() != cfg.dataset_hash()
    # a run reads every field but the study's, which only choose the runs
    for study in (cfg.with_overrides(seeds=(1,)), cfg.with_overrides(lambda_factors=(0.0, 3.0))):
        assert study.run_hash() == cfg.run_hash()
        assert study.config_hash() != cfg.config_hash()
    for run in (cfg.with_overrides(steps=3), cfg.with_overrides(seed=2), deeper, lam):
        assert run.run_hash() != cfg.run_hash()


def test_default_cache_hashes_are_pinned():
    # cached corpora, teachers and runs are found by these hashes: a field moved,
    # added to or dropped from a cache scope would orphan all of them
    cfg = RunConfig()
    assert cfg.teacher_hash() == "a81dcdab843acf43"
    assert cfg.dataset_hash() == "58f8531bac3b6457"
    assert cfg.config_hash() == "1b82820f9ca5c40c"
    assert cfg.run_hash() == "5697385281e5390a"


def test_derived_objects_match_fields():
    cfg = RunConfig({"roi": "standard", "cameras": 3, "cam_focal": 40.0})
    grid = cfg.grid()
    assert isinstance(grid, BevGrid)
    assert (grid.x_min, grid.x_max, grid.y_min, grid.y_max) == (-30.0, 30.0, -15.0, 15.0)
    rig = cfg.rig()
    assert len(rig) == 3
    assert {cam.focal for cam in rig} == {40.0}
    yaws = sorted(cam.yaw for cam in rig)
    assert np.allclose(np.diff(yaws), 2.0 * np.pi / 3)


def test_eval_and_run_grids_share_each_rois_extents():
    # the teacher's val score clips with EvalConfig's default-size grid
    # while the models run on cfg.grid(); clipping reads only the extents
    def extents(g):
        return g.x_min, g.x_max, g.y_min, g.y_max

    for roi in ("standard", "extended"):
        run_grid = RunConfig({"roi": roi, "grid_rows": 16, "grid_cols": 32}).grid()
        assert (run_grid.rows, run_grid.cols) == (16, 32)
        assert extents(EvalConfig(roi).grid) == extents(run_grid), roi
    # perfbench and every eval file go by this order
    assert tuple(harness.ROIS) == ("standard", "extended")

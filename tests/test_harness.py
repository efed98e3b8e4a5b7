"""Harness caches, the frozen teacher and what its directory records, and the CLI."""

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import os
import pkgutil
import re
import shutil
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import bevlab
from bevlab import analysis as A
from bevlab import cli
from bevlab import encoders as E
from bevlab import harness as H
from bevlab import scenegen as S
from bevlab import supervision as SV
from bevlab import tensors as T
from bevlab.analysis import write_similarity_file
from bevlab.config import ConfigError, RunConfig
from bevlab.encoders import decode_map, student_forward
from bevlab.mapeval import EvalConfig, evaluate, write_eval_file


def tiny_config():
    return RunConfig({"n_train": 2, "n_val": 1, "teacher_steps": 2, "batch": 2})


def test_corpus_cached_with_meta_txt_loads_and_is_reused(tmp_path, monkeypatch):
    # older code wrote each scene's description to meta.txt beside gt.txt
    cfg = tiny_config()
    out = str(tmp_path)
    path = H.ensure_dataset(cfg, out)
    fresh = H.load_splits(cfg, out)
    for sid, _, seed in S.read_manifest(path):
        with open(os.path.join(path, sid, "meta.txt"), "w") as f:
            f.write(f"seed {seed}\ntexture_seed 1\nego_pose 0.0 0.0 0.0\n")

    def must_not_render(*args, **kwargs):
        raise AssertionError("the cached corpus was rendered again")

    monkeypatch.setattr(H, "export_dataset", must_not_render)
    assert H.ensure_dataset(cfg, out) == path
    for old, new in zip(fresh, H.load_splits(cfg, out)):
        assert len(old) == len(new)
        for a, b in zip(old, new):
            assert (a.scene_id, a.split, a.seed) == (b.scene_id, b.split, b.seed)
            assert np.array_equal(a.overhead, b.overhead)
            assert all(np.array_equal(x, y) for x, y in zip(a.cams, b.cams))
            assert len(a.gt) == len(b.gt)
            assert all((ca, sa) == (cb, sb) and np.array_equal(pa, pb)
                       for (ca, sa, pa), (cb, sb, pb) in zip(a.gt, b.gt))


def test_ensure_teacher_writes_loss_log_before_manifest(tmp_path, monkeypatch):
    cfg = tiny_config()
    out = str(tmp_path)
    tdir = os.path.join(out, "teacher", cfg.teacher_hash())
    plain_save = H.save_checkpoint
    seen = []

    def save_after_log(path, params, meta=None):
        seen.append(os.path.exists(os.path.join(tdir, "log.txt")))
        plain_save(path, params, meta)

    monkeypatch.setattr(H, "save_checkpoint", save_after_log)
    _, val_map = H.ensure_teacher(cfg, out)
    assert seen == [True]
    with open(os.path.join(tdir, "log.txt")) as f:
        rows = [line.split() for line in f]
    # run-log format: step lr l_cls l_reg l_bev l_total
    assert [r[0] for r in rows] == ["0", "1"]
    for r in rows:
        assert len(r) == 6 and r[4] == "0.0"
        assert float(r[5]) == float(r[2]) + float(r[3])
    # a cache hit trains nothing and leaves the log as it was
    before = os.path.getmtime(os.path.join(tdir, "log.txt"))
    _, again = H.ensure_teacher(cfg, out)
    assert again == val_map and seen == [True]
    assert os.path.getmtime(os.path.join(tdir, "log.txt")) == before


@pytest.mark.parametrize("roi", H.ROIS)
def test_cold_teacher_cache_scores_the_decoder_pretraining_returns(tmp_path, monkeypatch, roi):
    # pretraining only trains; the harness decodes the frozen teacher's val
    # maps with the decoder it returns and scores them in the config's RoI
    cfg = tiny_config().with_overrides(roi=roi, n_val=2, steps=2)
    out = str(tmp_path)
    decoders = []
    plain = H.pretrain_teacher

    def kept(*args, **kwargs):
        teacher, decoder = plain(*args, **kwargs)
        decoders.append(decoder)
        return teacher, decoder

    monkeypatch.setattr(H, "pretrain_teacher", kept)
    rec = H.train_run(cfg, out, "raw", 0)
    (decoder,) = decoders
    teacher, _ = H.load_teacher(cfg, out)
    _, val = H.load_splits(cfg, out)
    preds = {s.scene_id: decode_map(decoder, E.teacher_forward(teacher, s.overhead, cfg.grid()))
             for s in val}
    want = evaluate(preds, {s.scene_id: s.gt for s in val}, EvalConfig(roi)).map
    _, meta = E.load_checkpoint(os.path.join(out, "teacher", cfg.teacher_hash()))
    assert meta["val_map"] == repr(float(want)) == rec["teacher_val_map"]


def teacher_log(cfg, out):
    with open(os.path.join(out, "teacher", cfg.teacher_hash(), "log.txt")) as f:
        return [line.split() for line in f]


def test_teacher_trains_with_the_configured_reg_weight(tmp_path):
    out = str(tmp_path)
    cfgs = [tiny_config().with_overrides(teacher_steps=3, reg_weight=w)
            for w in (0.05, 0.5)]
    sums = [E.params_checksum(H.ensure_teacher(cfg, out)[0].params) for cfg in cfgs]
    assert sums[0] != sums[1]
    # same weights and batch at step 0: the regression term alone scales
    (_, _, cls_a, reg_a, *_), (_, _, cls_b, reg_b, *_) = (
        teacher_log(cfg, out)[0] for cfg in cfgs)
    assert cls_a == cls_b
    assert float(reg_b) == pytest.approx(10.0 * float(reg_a), rel=1e-12)


def test_each_step_draws_one_batch_and_takes_one_adamw_step(tmp_path, monkeypatch):
    # perfbench's step marks time a step from one batch_stream draw to the
    # next, the teacher's in encoders and the student's in supervision
    cfg = tiny_config().with_overrides(teacher_steps=3, steps=2)
    out = str(tmp_path)
    counts = {"teacher": 0, "student": 0, "adamw": 0}

    def counting(key, plain):
        def stream(*args, **kwargs):
            for idx in plain(*args, **kwargs):
                counts[key] += 1
                yield idx
        return stream

    monkeypatch.setattr(E, "batch_stream", counting("teacher", E.batch_stream))
    monkeypatch.setattr(SV, "batch_stream", counting("student", SV.batch_stream))
    plain_step = T.adamw_step

    def counted_step(opt):
        counts["adamw"] += 1
        return plain_step(opt)

    for module in (T, E, SV, H):
        if getattr(module, "adamw_step", None) is plain_step:
            monkeypatch.setattr(module, "adamw_step", counted_step)
    H.ensure_teacher(cfg, out)
    assert counts == {"teacher": cfg.teacher_steps, "student": 0,
                      "adamw": cfg.teacher_steps}
    H.train_run(cfg, out, "raw", 0)
    assert counts == {"teacher": cfg.teacher_steps, "student": cfg.steps,
                      "adamw": cfg.teacher_steps + cfg.steps}


@pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value",
                            "ignore:overflow")
def test_diverging_teacher_leaves_its_loss_log(tmp_path):
    cfg = tiny_config().with_overrides(teacher_steps=6, base_lr=1e8)
    out = str(tmp_path)
    with pytest.raises(E.EncoderError, match=r"step \d+") as info:
        H.ensure_teacher(cfg, out)
    failed = int(re.search(r"step (\d+)", str(info.value)).group(1))
    assert failed >= 1
    # one line per step taken before the failure, and no finished cache
    assert [r[0] for r in teacher_log(cfg, out)] == [str(i) for i in range(failed)]
    tdir = os.path.join(out, "teacher", cfg.teacher_hash())
    assert not os.path.exists(os.path.join(tdir, "manifest.txt"))


def test_train_run_counts_teacher_maps_and_scores_each_roi(tmp_path):
    cfg = tiny_config().with_overrides(steps=2)
    out = str(tmp_path)
    with pytest.raises(ConfigError, match="unknown variant 'normadapter'"):
        H.train_run(cfg, out, "normadapter", 0)
    assert os.listdir(out) == []  # refused before any work
    recs = {v: H.train_run(cfg, out, v, 0) for v in ("baseline", "raw")}
    assert "teacher_calls" not in recs["baseline"]
    assert recs["raw"]["teacher_calls"] == str(cfg.n_train)
    # each eval file is its own RoI's score of the one decode pass
    teacher, _ = H.ensure_teacher(cfg, out)
    _, val = H.load_splits(cfg, out)
    rdir = recs["raw"]["run_dir"]
    student, decoder, _ = H.load_student(cfg, rdir, teacher)
    preds = {s.scene_id: decode_map(decoder, student_forward(student, s.cams, cfg.rig(),
                                                             cfg.grid()))
             for s in val}
    for roi in H.ROIS:
        result = evaluate(preds, {s.scene_id: s.gt for s in val}, EvalConfig(roi))
        write_eval_file(os.path.join(out, "want.txt"), result)
        with open(os.path.join(out, "want.txt")) as f, \
                open(os.path.join(rdir, f"eval_{roi}.txt")) as g:
            assert f.read() == g.read(), roi


def test_non_default_sizes_reach_every_construction_path(tmp_path):
    cfg = tiny_config().with_overrides(
        c_feat=8, teacher_widths=(4, 6, 8), student_width=5, downsample=4, n_queries=6,
        n_points=4, decoder_hidden=4, teacher_steps=1, steps=2)
    out = str(tmp_path)

    def shapes(model):
        return {name: p.data.shape for name, p in model.params.items()}

    rng = np.random.default_rng(0)
    want = {role: shapes(build(rng)) for role, build in (
        ("teacher", cfg.teacher), ("student", cfg.student), ("decoder", cfg.decoder))}
    want["adapter"] = shapes(cfg.adapter())
    default = RunConfig()
    for role, build in (("teacher", default.teacher), ("student", default.student),
                        ("decoder", default.decoder)):
        assert shapes(build(rng)) != want[role], role
    assert shapes(default.adapter()) != want["adapter"]

    cold, _ = H.ensure_teacher(cfg, out)
    rec = H.train_run(cfg, out, "norm_adapter", 0)
    cached, _ = H.ensure_teacher(cfg, out)
    assert shapes(cold) == shapes(cached) == want["teacher"]
    assert cold.frozen and cached.frozen
    student, decoder, adapter = H.load_student(cfg, rec["run_dir"], cached)
    assert shapes(student) == want["student"]
    assert shapes(decoder) == want["decoder"]
    assert shapes(adapter) == want["adapter"]
    with pytest.raises(H.HarnessError, match="8-channel student"):
        H.load_student(cfg, rec["run_dir"], default.teacher(rng))

    # any arm's checkpoint loads under any variant, as perfbench's infer
    # pass and the report's maps load them: the checkpoint says whether
    # there is an adapter, not the config
    base = H.train_run(cfg, out, "baseline", 0)
    assert cfg.variant == "norm_adapter"
    *_, none = H.load_student(cfg, base["run_dir"], cached)
    assert none is None
    *_, back = H.load_student(cfg.with_overrides(variant="baseline"), rec["run_dir"], cached)
    assert np.array_equal(back.params["w"].data, adapter.params["w"].data)
    assert not np.array_equal(back.params["w"].data, np.eye(cfg.c_feat))  # it trained
    # a norm_adapter checkpoint whose adapter is not the channel mix, as
    # older code saved it, is refused rather than loaded without one
    old = os.path.join(out, "old_run")
    shutil.copytree(rec["run_dir"], old)
    ckpt = os.path.join(old, "checkpoint")
    os.rename(os.path.join(ckpt, "adapter.w.ten"), os.path.join(ckpt, "adapter.gamma.ten"))
    with open(os.path.join(ckpt, "manifest.txt")) as f:
        manifest = f.read()
    with open(os.path.join(ckpt, "manifest.txt"), "w") as f:
        f.write(manifest.replace("param adapter.w ", "param adapter.gamma "))
    with pytest.raises(E.EncoderError, match="checkpoint missing parameter adapter.w"):
        H.load_student(cfg, old, cached)


def failing_writes(marker):
    """An open() that dies a few bytes into writing any file named after marker."""
    def fake_open(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        if "w" not in mode or not os.path.basename(path).startswith(marker):
            return f

        class Dying:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                f.close()

            def write(self, text):
                f.write(text[:5])
                f.flush()
                raise OSError(f"killed while writing {path}")

            def writelines(self, lines):
                self.write("".join(lines))

        return Dying()
    return fake_open


def test_markers_killed_mid_write_leave_the_cache_cold(tmp_path, monkeypatch):
    from bevlab import encoders as E
    cfg = tiny_config().with_overrides(steps=2)
    out = str(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(E, "open", failing_writes("manifest.txt"), raising=False)
        with pytest.raises(OSError, match="killed"):
            H.ensure_teacher(cfg, out)
    # the half-written teacher is not taken for a finished one
    trained = []
    plain_pretrain = H.pretrain_teacher
    monkeypatch.setattr(H, "pretrain_teacher",
                        lambda *a, **k: trained.append(1) or plain_pretrain(*a, **k))
    _, val_map = H.ensure_teacher(cfg, out)
    assert trained == [1]
    assert H.ensure_teacher(cfg, out)[1] == val_map and trained == [1]

    with monkeypatch.context() as m:
        m.setattr(H, "open", failing_writes("record.txt"), raising=False)
        with pytest.raises(OSError, match="killed"):
            H.train_run(cfg, out, "raw", 0)
    runs = []
    plain_train = H.train_student
    monkeypatch.setattr(H, "train_student",
                        lambda *a, **k: runs.append(1) or plain_train(*a, **k))
    rec = H.train_run(cfg, out, "raw", 0)
    assert runs == [1]
    assert rec["checksum"] and rec["map_extended"] and rec["wall_clock"]
    assert H.train_run(cfg, out, "raw", 0)["checksum"] == rec["checksum"]
    assert runs == [1]


def test_retrain_killed_midway_leaves_the_run_unfinished(tmp_path, monkeypatch):
    cfg = tiny_config().with_overrides(steps=2)
    out = str(tmp_path)
    H.train_run(cfg, out, "raw", 0)
    longer = cfg.with_overrides(steps=3)

    def killed(*args, **kwargs):
        raise KeyboardInterrupt("killed")

    with monkeypatch.context() as m:
        m.setattr(H, "train_student", killed)
        with pytest.raises(KeyboardInterrupt):
            H.train_run(longer, out, "raw", 0)
    # the steps-2 record is not taken for the steps-3 run
    rec = H.train_run(longer, out, "raw", 0)
    assert rec["steps"] == "3"
    # and a retrain starts from an empty directory: a parameter file that
    # an older checkpoint held, and its manifest no longer lists, is gone
    ckpt = os.path.join(rec["run_dir"], "checkpoint")
    stray = os.path.join(ckpt, "adapter.gamma.ten")
    shutil.copy(os.path.join(ckpt, "decoder.cls.w.ten"), stray)
    H.train_run(cfg, out, "raw", 0)
    assert not os.path.exists(stray)


def package_error_classes():
    """Every exception class a module of src/bevlab defines."""
    found = []
    for info in pkgutil.iter_modules(bevlab.__path__):
        module = importlib.import_module(f"bevlab.{info.name}")
        found += [obj for _, obj in inspect.getmembers(module, inspect.isclass)
                  if issubclass(obj, Exception) and obj.__module__ == module.__name__]
    return found


def test_cli_maps_every_package_error_to_exit_1(tmp_path, monkeypatch, capsys):
    errors = package_error_classes()
    assert {"ConfigError", "HarnessError", "TensorError"} <= {e.__name__ for e in errors}
    for err in errors:
        assert err in cli.PACKAGE_ERRORS, f"{err.__name__} would leave the CLI as a traceback"

        def fail(cfg, out, err=err):
            raise err(f"{err.__name__} raised")
        monkeypatch.setattr(H, "ensure_dataset", fail)
        assert cli.main(["--out", str(tmp_path), "gen"]) == 1, err.__name__
        captured = capsys.readouterr()
        assert captured.err == f"error: {err.__name__} raised\n"
        assert captured.out == ""


def test_gen_prints_the_corpus_its_counts_and_its_hash(tmp_path, capsys):
    cfg_path = tmp_path / "gen.cfg"
    cfg_path.write_text("n_train 2\nn_val 1\n")
    out = str(tmp_path / "out")
    assert cli.main(["--config", str(cfg_path), "--out", out, "gen"]) == 0
    cfg = RunConfig.load(str(cfg_path))
    path = os.path.join(out, "dataset")
    assert capsys.readouterr().out == \
        f"{path}: 2 train + 1 val scenes (dataset hash {cfg.dataset_hash()})\n"
    assert H.find_dataset(cfg, out) == path


def test_cli_refuses_a_config_file_that_is_not_utf8(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(b"steps \xff\xfe 3\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "gen"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg_path}: not UTF-8 text (byte 6)\n"
    assert captured.out == "" and not out.exists()


def test_cli_names_the_config_file_and_line_of_a_bad_value(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("steps x\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "gen"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg_path}: line 1: steps: expected int, got 'x'\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--jobs", "0", "ablation"], "error: --jobs must be at least 1, got 0\n"),
    (["--jobs", "-2", "sweep-lambda"], "error: --jobs must be at least 1, got -2\n"),
    (["--seed", "-1", "train"], "error: seed must be nonnegative, got -1\n"),
    # every verb but train would ignore the seed, running the config's seeds or none
    (["--seed", "7", "ablation"], "error: --seed applies to train only, not ablation\n"),
    (["--seed", "7", "sweep-lambda"], "error: --seed applies to train only, not sweep-lambda\n"),
    (["--seed", "7", "gen"], "error: --seed applies to train only, not gen\n"),
    (["--seed", "7", "report"], "error: --seed applies to train only, not report\n"),
    # only ablation and sweep-lambda run training processes in parallel
    (["--jobs", "3", "gen"], "error: --jobs applies to ablation and sweep-lambda only, not gen\n"),
    (["--jobs", "3", "train"],
     "error: --jobs applies to ablation and sweep-lambda only, not train\n"),
    (["--jobs", "1", "report"],
     "error: --jobs applies to ablation and sweep-lambda only, not report\n")])
def test_cli_rejects_bad_jobs_and_seeds_before_any_work(tmp_path, monkeypatch, capsys,
                                                        argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the verb ran")
    for verb in ("ensure_dataset", "train_run", "cmd_ablation", "cmd_sweep_lambda",
                 "cmd_report"):
        monkeypatch.setattr(H, verb, no_work)
    out = str(tmp_path / "out")
    assert cli.main(["--out", out] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""
    assert not os.path.exists(out)


def test_cli_rejects_a_lane_count_no_road_can_hold_before_any_work(tmp_path, capsys):
    # at parse time, before any scene renders: no road that wide fits the RoI
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text("n_train 1\nn_val 1\nlane_count 30 40\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "gen"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg_path}: lane_count: 40 lanes")
    assert captured.out == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# study verbs through the CLI
# ---------------------------------------------------------------------------

TINY_STUDY = ("n_train 4\nn_val 2\nsteps 2\nteacher_steps 2\nbatch 2\nseeds 1\n"
              "lambda_factors 0.0 1.0\n")
STUDY_VERBS = ("ablation", "sweep-lambda", "report")
ABLATION_TABLES = ("ablation.txt", "similarity.txt")
STUDY_TABLES = ABLATION_TABLES + ("sweep_lambda.txt",)


def run_verb(out, verb, jobs=None, config=TINY_STUDY):
    cfg_path = os.path.join(os.path.dirname(out), "study.cfg")
    with open(cfg_path, "w") as f:
        f.write(config)
    flags = [] if jobs is None else ["--jobs", str(jobs)]
    return cli.main(["--config", cfg_path, "--out", out] + flags + [verb])


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def run_records(out):
    """record.txt of every run, without the wall clock line."""
    recs = {}
    for name in sorted(os.listdir(os.path.join(out, "runs"))):
        with open(os.path.join(out, "runs", name, "record.txt")) as f:
            recs[name] = [l for l in f if not l.startswith("wall_clock ")]
    return recs


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A tiny study through every verb, run once without --jobs (one process)."""
    out = str(tmp_path_factory.mktemp("study") / "out")
    codes = [run_verb(out, verb) for verb in STUDY_VERBS]
    return out, codes


def copy_study(study, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(study[0], out)
    return out


def test_study_verbs_exit_0_and_write_their_tables(study):
    out, codes = study
    assert codes == [0] * len(STUDY_VERBS)
    for name in STUDY_TABLES:
        with open(os.path.join(out, name)) as f:
            text = f.read()
        assert "# failed" not in text and len(text.splitlines()) > 1, name
    report = read_bytes(os.path.join(out, "report.md")).decode()
    assert "missing" not in report and "skipped" not in report


def test_second_ablation_trains_nothing(study, tmp_path, monkeypatch):
    # nor does it read a scene or run a student: both tables come from the
    # run files, byte for byte
    out = copy_study(study, tmp_path)
    for name in ABLATION_TABLES:
        os.remove(os.path.join(out, name))
    trained = []

    def must_not_run(*args, **kwargs):
        trained.append(args)
        raise AssertionError("a cached study trained again")

    for name in ("export_dataset", "pretrain_teacher", "train_student", "load_splits",
                 "load_student", "student_forward"):
        monkeypatch.setattr(H, name, must_not_run)
    assert run_verb(out, "ablation") == 0
    assert trained == []
    for name in ABLATION_TABLES:
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(study[0], name))


def test_ablation_over_finished_runs_rebuilds_no_cache(study, tmp_path, monkeypatch):
    # no run trains, so neither the corpus nor the teacher is rebuilt
    out = copy_study(study, tmp_path)
    for cache in ("teacher", "dataset"):
        shutil.rmtree(os.path.join(out, cache))

    def must_not_run(*args, **kwargs):
        raise AssertionError("a cache was rebuilt for finished runs")

    for name in ("export_dataset", "pretrain_teacher"):
        monkeypatch.setattr(H, name, must_not_run)
    assert run_verb(out, "ablation") == 0
    assert not os.path.exists(os.path.join(out, "teacher"))
    assert not os.path.exists(os.path.join(out, "dataset"))
    for name in ABLATION_TABLES:
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(study[0], name))


def trained_runs(monkeypatch):
    """The names of the runs that train_student trains from now on."""
    names = []
    plain = H.train_student

    def counted(cfg, *args, **kwargs):
        names.append(f"{cfg.variant}_seed{cfg.seed}")
        return plain(cfg, *args, **kwargs)
    monkeypatch.setattr(H, "train_student", counted)
    return names


def test_a_study_extended_by_a_seed_or_a_factor_trains_only_new_runs(tmp_path, monkeypatch):
    # seeds and lambda_factors only choose which runs a study asks for, so
    # no run that finished under the other fields trains again
    out = str(tmp_path / "out")
    trained = trained_runs(monkeypatch)
    one_seed = TINY_STUDY
    two_seeds = one_seed.replace("\nseeds 1\n", "\nseeds 1 2\n")
    other_factors = two_seeds.replace("lambda_factors 0.0 1.0", "lambda_factors 0.0 0.5 1.0")
    assert one_seed != two_seeds != other_factors
    counts = []
    for config in (one_seed, two_seeds, other_factors):
        assert run_verb(out, "ablation", config=config) == 0
        counts.append(len(trained) - sum(counts))
    assert counts == [4, 4, 0]
    assert sorted(trained[4:]) == sorted(f"{v}_seed2" for v in SV.VARIANTS)


@pytest.mark.parametrize("change", ["steps 3", "teacher_steps 3"])
def test_report_under_another_config_skips_its_runs_and_trains_nothing(
        study, tmp_path, monkeypatch, capsys, change):
    # the study's runs finished under steps 2 and teacher_steps 2: under
    # any other run config they are not this report's runs, and the report
    # neither reads them, nor the .txt tables they made, nor trains a
    # teacher or a student for its maps, nor loads the corpus
    out = copy_study(study, tmp_path)
    for name in ("pretrain_teacher", "train_student", "load_splits"):
        monkeypatch.setattr(H, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    config = TINY_STUDY.replace(f"\n{change[:-1]}2\n", f"\n{change}\n")
    assert config != TINY_STUDY
    capsys.readouterr()
    assert run_verb(out, "report", config=config) == 0
    report = read_bytes(os.path.join(out, "report.md")).decode()
    for note in ("(standard RoI table skipped", "(extended RoI table skipped",
                 "(ablation table missing", "(sweep table missing",
                 "(similarity table missing", "(feature maps missing"):
        assert note in report, note
    err = capsys.readouterr().err
    for item in ("detection/standard", "detection/extended", "ablation", "sweep_lambda",
                 "similarity", "viz"):
        assert f"missing: {item}: baseline_seed1 did not finish under this config\n" in err
    # under the study's own config the same files make the whole report again
    assert run_verb(out, "report") == 0
    assert read_bytes(os.path.join(out, "report.md")) == \
        read_bytes(os.path.join(study[0], "report.md"))


def report_files(out):
    """The plots and maps in ``out``, and the ones its report.md links."""
    on_disk = sorted(n for n in os.listdir(out) if n.startswith("sweep_") and n.endswith(".svg"))
    if os.path.isdir(os.path.join(out, "viz")):
        on_disk += sorted(os.path.join("viz", n) for n in os.listdir(os.path.join(out, "viz")))
    report = read_bytes(os.path.join(out, "report.md")).decode()
    linked = re.findall(r"\]\((sweep_\w+\.svg)\)", report) + re.findall(r"`(viz/[^`]+)`", report)
    return on_disk, sorted(linked)


def test_report_leaves_no_file_of_a_section_it_skips(study, tmp_path):
    # the study's report drew both sweep plots and three maps; a report
    # under another config skips both sections and must take their files
    # with it, and the study's own config brings them back
    out = copy_study(study, tmp_path)
    on_disk, linked = report_files(out)
    assert len(on_disk) == 5 and on_disk == linked
    assert run_verb(out, "report", config=TINY_STUDY.replace("\nsteps 2\n", "\nsteps 3\n")) == 0
    assert report_files(out) == ([], [])
    assert run_verb(out, "report") == 0
    assert report_files(out) == (on_disk, linked)
    for name in on_disk:
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(study[0], name))


def test_a_failed_train_verb_leaves_its_traceback(study, tmp_path, monkeypatch, capsys):
    out = copy_study(study, tmp_path)
    cfg_path = os.path.join(tmp_path, "study.cfg")
    with open(cfg_path, "w") as f:
        f.write(TINY_STUDY)
    argv = ["--config", cfg_path, "--out", out, "--seed", "2", "train", "--variant", "raw"]
    plain = H.train_student

    def fail(*args, **kwargs):
        raise H.HarnessError("forced failure")
    monkeypatch.setattr(H, "train_student", fail)
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "FAILED raw_seed2: HarnessError: forced failure\n"
    error_path = os.path.join(out, "runs", "raw_seed2", "error.txt")
    with open(error_path) as f:
        trace = f.read()
    assert trace.startswith("Traceback") and "HarnessError: forced failure" in trace
    # a later success clears it and prints the record line
    monkeypatch.setattr(H, "train_student", plain)
    assert cli.main(argv) == 0
    assert not os.path.exists(error_path)
    assert capsys.readouterr().out.startswith(os.path.join(out, "runs", "raw_seed2") + ": mAP")


def test_report_rerun_is_byte_identical(study, tmp_path):
    # also without the .txt tables the verbs write: the report recomputes
    # its tables from the run records
    out = copy_study(study, tmp_path)
    first = read_bytes(os.path.join(out, "report.md"))
    for removed in ((), STUDY_TABLES):
        for name in removed:
            os.remove(os.path.join(out, name))
        assert run_verb(out, "report") == 0
        assert read_bytes(os.path.join(out, "report.md")) == first, removed


def test_report_without_its_teacher_cache_trains_nothing(study, tmp_path, monkeypatch, capsys):
    # the runs finished under the study's config, but the teacher they
    # trained against is gone: the report marks its maps missing instead
    out = copy_study(study, tmp_path)
    shutil.rmtree(os.path.join(out, "teacher"))
    for name in ("pretrain_teacher", "train_student", "load_splits", "export_dataset"):
        monkeypatch.setattr(H, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    capsys.readouterr()
    assert run_verb(out, "report") == 0
    assert "(feature maps missing" in read_bytes(os.path.join(out, "report.md")).decode()
    tdir = os.path.join(out, "teacher", RunConfig.parse(TINY_STUDY).teacher_hash())
    assert capsys.readouterr().err == f"missing: viz: no teacher cached in {tdir}\n"


def test_report_over_another_corpus_writes_none(study, tmp_path, monkeypatch, capsys):
    # out/dataset now holds another config's corpus: the report marks its
    # maps missing instead of exporting the study's corpus again
    out = copy_study(study, tmp_path)
    cfg = RunConfig.parse(TINY_STUDY)
    H.ensure_dataset(cfg.with_overrides(curvature=0.02), out)
    monkeypatch.setattr(H, "export_dataset", lambda *a, **k: pytest.fail("export_dataset ran"))
    capsys.readouterr()
    assert run_verb(out, "report") == 0
    assert "(feature maps missing" in read_bytes(os.path.join(out, "report.md")).decode()
    assert capsys.readouterr().err == (f"missing: viz: no corpus of dataset hash "
                                       f"{cfg.dataset_hash()} in {os.path.join(out, 'dataset')}\n")


def test_report_reads_only_the_val_scene_it_maps(study, tmp_path, monkeypatch):
    out = copy_study(study, tmp_path)
    reads = []
    plain = S.read_ten
    monkeypatch.setattr(S, "read_ten", lambda path, *a: reads.append(path) or plain(path, *a))
    assert run_verb(out, "report") == 0
    assert [os.path.basename(p) for p in reads] == ["overhead.ten"]
    assert read_bytes(os.path.join(out, "report.md")) == \
        read_bytes(os.path.join(study[0], "report.md"))


def test_report_plots_the_sweep_rows_it_shows(study, tmp_path, capsys):
    # a sweep over three factors, then a report over two of them: the plots
    # hold the report's two points, not the sweep's three
    out = copy_study(study, tmp_path)
    wider = TINY_STUDY.replace("lambda_factors 0.0 1.0", "lambda_factors 0.0 0.5 1.0")
    assert wider != TINY_STUDY
    assert run_verb(out, "sweep-lambda", config=wider) == 0
    capsys.readouterr()
    assert run_verb(out, "report") == 0
    assert "missing: sweep_" not in capsys.readouterr().err
    for name in ("report.md",) + tuple(f"sweep_{roi}.svg" for roi in H.ROIS):
        got = read_bytes(os.path.join(out, name))
        assert got == read_bytes(os.path.join(study[0], name)), name
        assert name == "report.md" or got.decode().count("<circle") == 2, name


def test_report_on_a_fresh_directory_notes_every_missing_artifact(tmp_path, capsys):
    out = str(tmp_path / "fresh")
    assert cli.main(["--out", out, "report"]) == 0
    report = read_bytes(os.path.join(out, "report.md")).decode()
    for note in ("(standard RoI table skipped", "(extended RoI table skipped",
                 "(ablation table missing", "(sweep table missing",
                 "(similarity table missing", "(feature maps missing"):
        assert note in report, note
    err = capsys.readouterr().err
    assert err.count("missing: ") == 6


def test_a_checkpoint_write_cut_short_leaves_no_manifest_and_no_viz(study, tmp_path,
                                                                    monkeypatch):
    # a retrain killed while it rewrites the parameter files must not leave
    # the old manifest over new files: report marks the viz missing instead
    out = copy_study(study, tmp_path)
    ckpt = os.path.join(out, "runs", "baseline_seed1", "checkpoint")
    params, meta = E.load_checkpoint(ckpt)
    plain_write = E.write_ten
    written = []

    def write_then_die(path, arr):
        if len(written) == 2:
            raise OSError("killed mid-checkpoint")
        written.append(path)
        return plain_write(path, arr)

    with monkeypatch.context() as m:
        m.setattr(E, "write_ten", write_then_die)
        with pytest.raises(OSError, match="killed"):
            E.save_checkpoint(ckpt, {k: T.Tensor(p.data * 2.0) for k, p in params.items()},
                              meta)
    assert len(written) == 2
    with pytest.raises(E.EncoderError, match="no manifest.txt"):
        E.load_checkpoint(ckpt)
    assert run_verb(out, "report") == 0
    assert "(feature maps missing" in read_bytes(os.path.join(out, "report.md")).decode()


def verb_table(out, verb):
    """The table file a study verb is named after, without its failed runs."""
    with open(os.path.join(out, verb.replace("-", "_") + ".txt")) as f:
        return "".join(l for l in f if not l.startswith("# failed"))


@pytest.mark.parametrize("verb, table, failing", [
    ("ablation", "ablation.txt", "raw_seed1"),
    ("sweep-lambda", "sweep_lambda.txt", "norm_adapter_seed1"),
    ("ablation", "similarity.txt", "raw_seed1"),
    # every run fails, so no sweep row pools a run
    ("sweep-lambda", "sweep_lambda.txt", "baseline_seed1 norm_adapter_seed1"),
    ("ablation", "ablation.txt", " ".join(f"{v}_seed1" for v in SV.VARIANTS))])
def test_failed_run_makes_the_verb_exit_2(study, tmp_path, monkeypatch, capsys,
                                          verb, table, failing):
    out = copy_study(study, tmp_path)
    plain_run = H.train_run
    failing = failing.split()
    for name in failing:  # a run that fails has no record
        shutil.rmtree(os.path.join(out, "runs", name))

    def fail_some(cfg, out, variant, seed, lam=None):
        if f"{variant}_seed{seed}" in failing:
            raise H.HarnessError("forced failure")
        return plain_run(cfg, out, variant, seed, lam)

    monkeypatch.setattr(H, "train_run", fail_some)
    capsys.readouterr()
    assert run_verb(out, verb) == 2
    with open(os.path.join(out, table)) as f:
        failed = [l for l in f if l.startswith("# failed")]
    assert failed == [f"# failed {name}: HarnessError: forced failure\n" for name in failing]
    captured = capsys.readouterr()
    # the verb prints its own table, without the failed runs
    assert captured.out == verb_table(out, verb)
    err = captured.err.splitlines()
    assert [l for l in err if l.startswith("FAILED ")] == \
        [f"FAILED {name}: HarnessError: forced failure" for name in failing]
    for name in failing:
        with open(os.path.join(out, "runs", name, "error.txt")) as f:
            trace = f.read()
        assert trace.startswith("Traceback") and "HarnessError: forced failure" in trace
    # a later success of the same specs clears them
    monkeypatch.setattr(H, "train_run", plain_run)
    assert run_verb(out, verb) == 0
    assert capsys.readouterr().out == verb_table(out, verb)
    for name in failing:
        assert not os.path.exists(os.path.join(out, "runs", name, "error.txt"))


def test_jobs_2_writes_the_same_records_as_jobs_1(study, tmp_path):
    out = str(tmp_path / "out")
    assert run_verb(out, "ablation", jobs=2) == 0
    assert run_records(out) == run_records(study[0])
    for name in ABLATION_TABLES:
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(study[0], name))


def checkpoint_rows(cfg, out, rdir):
    """similarity_rows of a run's reloaded checkpoint, against a teacher of
    its own, so every teacher map is computed afresh."""
    teacher, _ = H.ensure_teacher(cfg, out)
    student, _, _ = H.load_student(cfg, rdir, teacher)
    _, val = H.load_splits(cfg, out)
    return H.similarity_rows(cfg, teacher, student, val, cfg.grid(), cfg.rig())


def test_load_student_returns_its_models_off_the_tape(study):
    # forward-only use records no tape, and decodes the bits that the same
    # checkpoint decodes with its parameters on the tape
    cfg = RunConfig.parse(TINY_STUDY)
    out = study[0]
    teacher, _ = H.load_teacher(cfg, out)
    _, val = H.load_splits(cfg, out)
    rdir, _ = H.run_dir(cfg, out, "norm_adapter", 1)
    loaded = H.load_student(cfg, rdir, teacher)
    taped = H.load_student(cfg, rdir, teacher)
    assert loaded[2] is not None
    for model, on in zip(loaded, taped):
        assert not any(p.requires_grad for p in model.params.values())
        for p in on.params.values():
            p.requires_grad = True
    for s in val:
        maps = [student_forward(student, s.cams, cfg.rig(), cfg.grid())
                for student in (loaded[0], taped[0])]
        assert [m.tensor.requires_grad for m in maps] == [False, True]
        assert np.array_equal(maps[0].tensor.data, maps[1].tensor.data)
        heads = [decoder.forward(m) for decoder, m in zip((loaded[1], taped[1]), maps)]
        assert not any(t.requires_grad for t in heads[0])
        assert all(np.array_equal(a.data, b.data) for a, b in zip(*heads))
        decoded = [decode_map(decoder, m) for decoder, m in zip((loaded[1], taped[1]), maps)]
        assert len(decoded[0]) == len(decoded[1])
        for (ca, sa, pa), (cb, sb, pb) in zip(*decoded):
            assert (ca, sa) == (cb, sb) and np.array_equal(pa, pb)


def test_similarity_runs_the_teacher_once_per_val_scene(study, tmp_path, monkeypatch):
    out = copy_study(study, tmp_path)
    cfg = RunConfig.parse(TINY_STUDY)
    runs = sorted(os.path.join(out, "runs", name) for name in os.listdir(os.path.join(out, "runs")))
    assert len(runs) == len(SV.VARIANTS)
    # each run's rows, from its val pass, are those of its checkpoint
    for rdir in runs:
        write_similarity_file(os.path.join(tmp_path, "want.txt"), checkpoint_rows(cfg, out, rdir))
        assert read_bytes(os.path.join(rdir, "similarity.txt")) == \
            read_bytes(os.path.join(tmp_path, "want.txt")), rdir
    # the baseline trains without the teacher, so its val pass is all it runs
    rdir = os.path.join(out, "runs", "baseline_seed1")
    fresh = read_bytes(os.path.join(rdir, "similarity.txt"))
    os.remove(os.path.join(rdir, "record.txt"))
    passes = []
    plain = E.TeacherEncoder.forward
    monkeypatch.setattr(E.TeacherEncoder, "forward",
                        lambda self, *a, **k: passes.append(1) or plain(self, *a, **k))
    H.train_run(cfg, out, "baseline", 1)
    assert len(passes) == cfg.n_val
    assert read_bytes(os.path.join(rdir, "similarity.txt")) == fresh


def test_similarity_killed_mid_write_is_recomputed(study, tmp_path, monkeypatch):
    out = copy_study(study, tmp_path)
    rdir = os.path.join(out, "runs", "raw_seed1")
    fresh = read_bytes(os.path.join(rdir, "similarity.txt"))
    shutil.rmtree(rdir)
    with monkeypatch.context() as m:
        m.setattr(A, "open", failing_writes("similarity"), raising=False)
        assert run_verb(out, "ablation") == 2
    # the cut rows leave the run unfinished, and it trains again
    assert not os.path.exists(os.path.join(rdir, "record.txt"))
    assert not os.path.exists(os.path.join(rdir, "similarity.txt"))
    trained = []
    plain_train = H.train_student
    monkeypatch.setattr(H, "train_student",
                        lambda *a, **k: trained.append(1) or plain_train(*a, **k))
    assert run_verb(out, "ablation") == 0
    assert trained == [1]
    assert read_bytes(os.path.join(rdir, "similarity.txt")) == fresh
    for name in ABLATION_TABLES:
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(study[0], name))


def test_ablation_pools_the_rows_of_retrained_runs(study, tmp_path):
    out = copy_study(study, tmp_path)
    before = read_bytes(os.path.join(out, "similarity.txt"))
    longer = TINY_STUDY.replace("\nsteps 2\n", "\nsteps 3\n")
    assert longer != TINY_STUDY
    assert run_verb(out, "ablation", config=longer) == 0
    cfg = RunConfig.parse(longer)
    want = ["variant n cka_median cka_iqr cka_centered_median cka_centered_iqr r2_median r2_iqr"]
    for variant in SV.VARIANTS:
        rows = checkpoint_rows(cfg, out, H.run_dir(cfg, out, variant, 1)[0])
        stats = [x for col in (1, 2, 3) for x in A.summarize([r[col] for r in rows])]
        want.append(f"{variant} {len(rows)} " + " ".join(f"{x:.6f}" for x in stats))
    got = read_bytes(os.path.join(out, "similarity.txt"))
    assert got.decode().splitlines() == want
    assert got != before


def test_sweep_of_the_baseline_variant_fails_before_any_run(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_verb(out, "sweep-lambda", config=TINY_STUDY + "variant baseline\n") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the sweep varies the alignment weight")
    assert captured.out == "" and not os.path.exists(out)


def test_sweep_at_lambda_zero_fails_before_any_run(tmp_path, capsys):
    # every factor of a zero weight is the baseline: one run would be queued
    # once per factor, and parallel workers would train it at once
    out = str(tmp_path / "out")
    assert run_verb(out, "sweep-lambda", config=TINY_STUDY + "lambda_bev 0.0\n") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the sweep scales lambda_bev, which is 0")
    assert captured.out == "" and not os.path.exists(out)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update({var: preset for var in BLAS_VARS if preset})
    env["PYTHONPATH"] = SRC
    # the package itself must not load numpy before the CLI pins the threads
    code = ("import os, sys, bevlab; assert 'numpy' not in sys.modules; import bevlab.cli; "
            "print(*(os.environ[v] for v in %r))" % (BLAS_VARS,))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [want, want]


@pytest.mark.parametrize("cpus, jobs, want", [(2, 2, [1, 1]), (2, 1, [2, 2]), (4, 2, [2, 2]),
                                              (2, 3, [1, 1]), (4, 4, [2, 2])])
def test_run_many_splits_the_cpus_between_its_processes(tmp_path, monkeypatch, cpus, jobs,
                                                        want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for name in ("ensure_dataset", "ensure_teacher"):
        monkeypatch.setattr(H, name, lambda *args: None)
    # forked workers inherit the fake; each reports the threads fit would take
    monkeypatch.setattr(H, "train_run", lambda cfg, out, *spec: {
        "threads": SV.fit_threads(), "pid": os.getpid()})
    specs = [("raw", 1, None), ("baseline", 1, None)]
    finished, failures = H.run_many(tiny_config(), str(tmp_path), specs, jobs)
    assert failures == [] and [spec for spec, _ in finished] == specs
    assert [rec["threads"] for _, rec in finished] == want
    assert (os.getpid() in {rec["pid"] for _, rec in finished}) == (jobs == 1)
    assert SV.fit_threads() == cpus  # the parent keeps every CPU


# ablation at --jobs 2, where the worker of raw_seed1 dies by SIGKILL, as
# by the OOM killer, and every other run returns a stub record at once
KILLED_WORKER_PROBE = """
import os, signal, sys
from bevlab import cli, harness as H
H.ensure_dataset = H.ensure_teacher = lambda *args: None

def train_run(cfg, out, variant, seed, lam=None):
    if variant == "raw":
        os.kill(os.getpid(), signal.SIGKILL)
    return {}

H.train_run = train_run
sys.exit(cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "--jobs", "2", "ablation"]))
"""


def test_a_killed_worker_fails_its_runs_instead_of_hanging_the_study(tmp_path):
    cfg_path, out = tmp_path / "study.cfg", tmp_path / "out"
    cfg_path.write_text(TINY_STUDY)
    # its own process group, so a hung probe goes down with its workers
    probe = subprocess.Popen([sys.executable, "-c", KILLED_WORKER_PROBE, str(cfg_path), str(out)],
                             env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = probe.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(probe.pid, signal.SIGKILL)
        probe.communicate()
        pytest.fail("the study hung on a killed worker")
    with pytest.raises(ProcessLookupError):
        os.killpg(probe.pid, 0)  # no worker is left running
    assert probe.returncode == 2, err
    line = ("BrokenProcessPool: A process in the process pool was terminated abruptly "
            "while the future was running or pending.")
    failed = [l for l in (out / "ablation.txt").read_text().splitlines() if l.startswith("# ")]
    assert f"# failed raw_seed1: {line}" in failed
    for entry in failed:  # a run the dying pool took down with it fails the same way
        name, _, err_line = entry[len("# failed "):].partition(": ")
        assert err_line == line
        assert (out / "runs" / name / "error.txt").read_text() == line + "\n"


# Every pin below holds for one BLAS kernel only: each OpenBLAS kernel sums
# a matmul in its own order, and training carries the difference into the
# trained bits. The pins are therefore keyed by the fingerprint of the
# kernel that runs, in a process with one BLAS thread as the CLI sets it:
# sha256 of three seeded float64 matmuls at the shapes of the student's
# convs as column products. One row is OpenBLAS's AVX-512 kernel
# (SkylakeX), the other its AVX2 kernel (Haswell, which Zen matches),
# recorded with OPENBLAS_CORETYPE=Haswell set for the test process.
BLAS_FINGERPRINT = """
import hashlib, numpy as np
rng, h = np.random.default_rng(0), hashlib.sha256()
for m, k, n in ((12, 27, 1152), (16, 108, 288), (96, 864, 288)):
    h.update((rng.standard_normal((m, k)) @ rng.standard_normal((k, n))).tobytes())
print(h.hexdigest())
"""
SKYLAKEX = "1c40a301b9f42e99002af3e1bb96fbfe06fde549cf44441e585a58950c0ac341"
HASWELL = "b2d93c109d9f6808f1a09603376a610720ef67fb270c611fe8bf9b6db73a1b9f"


@functools.lru_cache(maxsize=None)
def blas_fingerprint():
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}}
    done = subprocess.run([sys.executable, "-c", BLAS_FINGERPRINT], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip()


def blas_lines():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        np.show_config()
    return [line for line in buf.getvalue().splitlines() if "blas" in line.lower()]


def pinned_row(table):
    """This kernel's row of a pin table; a kernel with no row fails the pin."""
    fingerprint = blas_fingerprint()
    assert fingerprint in table, "\n".join(
        [f"no pinned row for BLAS fingerprint {fingerprint}; pin this kernel's values "
         "under it", "BLAS:"] + blas_lines())
    return table[fingerprint]


# the fixed short run: its config, eval files, log and checksum, pinned. A
# change that moves results on purpose updates both rows and says so.
FIXED_SHORT_RUN = "n_train 8\nn_val 4\nsteps 20\nteacher_steps 20\n"
FIXED_SHORT_RUN_FILES = {
    "config.txt": "5f0c848f33f1fd01da686b45fb1262be92862c8f15f7842202a13e34af3b7592",
    "eval_extended.txt": "eaf7a38030a7db2bd848fc22b72658576d31b09dd8a94bf942d98b4415baed70",
    "eval_standard.txt": "3becac828dc15c9340b3e2097891b3d7bc337ee982e4f7fd520351a8c27812ac",
}
PINNED = {
    SKYLAKEX: {
        **FIXED_SHORT_RUN_FILES,
        "log.txt": "1f1853a6a5d7903e21fda073b14d6ff25d657037d025e50d4eabc2099beed136",
        "checksum": "1eb050319c8cd6233002c3bfad61cb914ae095b67e23929b4c5c5892a2befe74",
    },
    HASWELL: {
        **FIXED_SHORT_RUN_FILES,
        "log.txt": "a4dd28aa1d12cfebbda010be48b31829759c64833af52808cfae4505613f36bb",
        "checksum": "946be3df47895b484f3074d10402ee4f12678ae131d817b13d84420f3760d36a",
    },
}


def test_fixed_short_run_keeps_its_pinned_digests(tmp_path):
    # through the CLI, which pins BLAS to one thread before numpy loads;
    # in this process numpy has loaded already with whatever it found, and
    # the summation order, so every digest, depends on the thread count
    pinned = pinned_row(PINNED)
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(FIXED_SHORT_RUN)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "bevlab.cli", "--config", str(cfg_path),
                           "--out", str(out), "train", "--variant", "norm_adapter"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rdir = out / "runs" / "norm_adapter_seed1"
    got = {name: hashlib.sha256((rdir / name).read_bytes()).hexdigest()
           for name in pinned if name != "checksum"}
    got["checksum"] = H.read_record(str(rdir))["checksum"]
    moved = [f"{name}: {got[name]} != pinned {want}" for name, want in pinned.items()
             if got[name] != want]
    assert not moved, "\n".join(["moved:"] + moved + ["BLAS:"] + blas_lines())


def test_every_parameter_each_arm_trains_gets_a_gradient(tmp_path, monkeypatch):
    # one teacher step and one 2-sample student step per variant on the
    # fixed short corpus: every parameter in the optimizer's dict must get
    # a gradient, so no arm holds one its loss cannot reach (a bias that a
    # softmax cancels, an adapter the arm never calls)
    cfg = RunConfig.parse(FIXED_SHORT_RUN).with_overrides(teacher_steps=1, steps=1, batch=2)
    train, _ = H.load_splits(cfg, str(tmp_path))
    plain = SV.adamw_step
    steps = []

    def recorded(opt):
        steps.append({name: 0.0 if p.grad is None else float(np.abs(p.grad).max())
                      for name, p in opt.params.items()})
        return plain(opt)

    monkeypatch.setattr(SV, "adamw_step", recorded)
    teacher, _ = E.pretrain_teacher(cfg, train)
    for variant in SV.VARIANTS:
        SV.train_student(cfg.with_overrides(variant=variant), train, teacher)
    assert len(steps) == 1 + len(SV.VARIANTS)
    assert "adapter.w" in steps[-1] and not any("adapter.w" in s for s in steps[:-1])
    for arm, grads in zip(("teacher",) + SV.VARIANTS, steps):
        dead = [f"{name}: {g:.3g}" for name, g in grads.items() if not g > 1e-10]
        assert not dead, f"{arm}: parameters its loss does not reach: {dead}"


def test_teacher_reads_no_camera_file_and_the_student_each_once_on_fits_thread(
        tmp_path, camera_reads):
    cfg = RunConfig.parse(FIXED_SHORT_RUN)
    out = str(tmp_path)
    teacher, _ = H.ensure_teacher(cfg, out)  # cold: exports the corpus and trains
    assert camera_reads == []
    train, _ = H.load_splits(cfg, out)
    SV.train_student(cfg.with_overrides(steps=3), train, teacher)
    paths = [p for p, _ in camera_reads]
    assert paths and len(paths) % 4 == 0 and len(set(paths)) == len(paths)
    assert {thread for _, thread in camera_reads} == {threading.current_thread()}


def test_a_corpus_exported_again_under_loaded_samples_is_not_read_as_theirs(tmp_path):
    cfg = tiny_config()
    out = str(tmp_path)
    train, val = H.load_splits(cfg, out)
    H.ensure_dataset(cfg.with_overrides(curvature=0.02), out)  # same scene ids
    for sample in train + val:
        with pytest.raises(S.SceneGenError, match=f"{sample.scene_id}: .*cam_0.ten"):
            sample.cams


# the fixed short corpus at 10 steps and one seed, through the CLI: the
# ablation with two worker processes, then the report
SHORT_STUDY = "n_train 8\nn_val 4\nsteps 10\nteacher_steps 20\nseeds 1\n"
# both kernels print these files alike: the tables round to 6 decimals
STUDY_FILES = {
    "ablation.txt": "80475dfe2b98301a1881665c1fcb1b3f4816e9b7b08bd1b70a2f26a8a84d4526",
    "similarity.txt": "18e2177fb7f6bbcb2fd0099973055b3676c53326d4e7609bab376291bfdedb91",
    "report.md": "4ff703d459843ba0721f4ce7b85c0782f3af485f28aafd0c199cd24b279d06ea",
}
STUDY_PINNED = {SKYLAKEX: STUDY_FILES, HASWELL: STUDY_FILES}
# each run's checkpoint checksum from its record.txt: at 10 steps every
# mAP prints as 0.000000, so the files above cannot see a change to the
# trained bits, and these do
STUDY_RUN_CHECKSUMS = {
    SKYLAKEX: {
        "baseline_seed1": "4d8e41809bfa2ba1b09925abf420cd4c4c05fc8236f222129d928b1460614f3a",
        "norm_adapter_seed1": "ee0dba8f0bd296ab717e0400b18b8d38d64678e8e55a06e63d1a643b7ab37953",
        "norm_only_seed1": "2da907ad370d666b48c225bf4fe3eb34ba463829cd8b4ed83645c1a17b7867b4",
        "raw_seed1": "e18f7659ad5b0ca6663fe171368e0ce98cc2914fecbad61322ad63e07c95af24",
    },
    HASWELL: {
        "baseline_seed1": "30690b967acbc1ec6f396f4b3c0a356a0fd5004f2ed26a05bdf176a2e7e122dc",
        "norm_adapter_seed1": "90d368b6344ec6ff75ded015f0aba9431a4693a391dff8226bdeabbaf6bd107f",
        "norm_only_seed1": "35673bc89b8b96edb511a5bc32f3ac6b30a2d825b223b34db971dc9b3ac0d117",
        "raw_seed1": "21c965d5b5106c0008b4bb2fc71e636b17557af64b15b38933b54066adb0aa34",
    },
}


def test_ablation_and_report_keep_their_pinned_digests(tmp_path):
    files, checksums = pinned_row(STUDY_PINNED), pinned_row(STUDY_RUN_CHECKSUMS)
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(SHORT_STUDY)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC
    out = tmp_path / "out"
    for verb in (["--jobs", "2", "ablation"], ["report"]):
        done = subprocess.run([sys.executable, "-m", "bevlab.cli", "--config", str(cfg_path),
                               "--out", str(out)] + verb,
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}
    got.update({run: H.read_record(str(out / "runs" / run))["checksum"] for run in checksums})
    pinned = {**files, **checksums}
    moved = [f"{name}: {got[name]} != pinned {want}" for name, want in pinned.items()
             if got[name] != want]
    assert not moved, "\n".join(["moved:"] + moved + ["BLAS:"] + blas_lines())

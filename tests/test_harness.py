"""Harness caches, the frozen teacher and what its directory records, and the CLI."""

import os
import re
import shutil

import pytest

from bevlab import cli
from bevlab import encoders as E
from bevlab import harness as H
from bevlab import supervision as SV
from bevlab import tensors as T
from bevlab.config import RunConfig
from bevlab.encoders import evaluate_model, student_forward
from bevlab.mapeval import EvalConfig, write_eval_file


def tiny_config():
    return RunConfig({"n_train": 2, "n_val": 1, "teacher_steps": 2, "batch": 2})


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
    recs = {v: H.train_run(cfg, out, v, 0) for v in ("baseline", "raw")}
    assert "teacher_calls" not in recs["baseline"]
    assert recs["raw"]["teacher_calls"] == str(cfg.n_train)
    # each eval file is its own RoI's score of the one decode pass
    teacher, _ = H.ensure_teacher(cfg, out)
    _, val = H.load_splits(cfg, out)
    rdir = recs["raw"]["run_dir"]
    student, decoder, _ = H.load_student(cfg, rdir, teacher)
    for roi in H.ROIS:
        result, = evaluate_model(
            lambda s: student_forward(student, s.cams, cfg.rig(), cfg.grid()),
            decoder, val, [EvalConfig(roi)])
        write_eval_file(os.path.join(out, "want.txt"), result)
        with open(os.path.join(out, "want.txt")) as f, \
                open(os.path.join(rdir, f"eval_{roi}.txt")) as g:
            assert f.read() == g.read(), roi


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


def test_cli_maps_every_package_error_to_exit_1(tmp_path, monkeypatch, capsys):
    from bevlab import cli
    from bevlab.analysis import AnalysisError
    from bevlab.encoders import EncoderError
    from bevlab.geometry import GeometryError
    from bevlab.mapeval import EvalError
    from bevlab.plots import PlotError
    from bevlab.scenegen import SceneGenError
    from bevlab.supervision import SupervisionError
    from bevlab.tensors import TensorError
    for err in (TensorError, EncoderError, SupervisionError, SceneGenError,
                EvalError, GeometryError, AnalysisError, PlotError):
        def fail(cfg, out, err=err):
            raise err(f"{err.__name__} raised")
        monkeypatch.setattr(H, "cmd_gen", fail)
        assert cli.main(["--out", str(tmp_path), "gen"]) == 1, err.__name__
        captured = capsys.readouterr()
        assert captured.err == f"error: {err.__name__} raised\n"
        assert captured.out == ""


# ---------------------------------------------------------------------------
# study verbs through the CLI
# ---------------------------------------------------------------------------

TINY_STUDY = ("n_train 4\nn_val 2\nsteps 2\nteacher_steps 2\nbatch 2\nseeds 1\n"
              "lambda_factors 0.0 1.0\n")
STUDY_VERBS = ("ablation", "sweep-lambda", "similarity", "report")
STUDY_TABLES = ("ablation.txt", "sweep_lambda.txt", "similarity.txt")


def run_verb(out, verb, jobs=1):
    cfg_path = os.path.join(os.path.dirname(out), "study.cfg")
    with open(cfg_path, "w") as f:
        f.write(TINY_STUDY)
    return cli.main(["--config", cfg_path, "--out", out, "--jobs", str(jobs), verb])


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
    """A tiny study through every verb, run once with --jobs 1."""
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
    out = copy_study(study, tmp_path)
    before = read_bytes(os.path.join(out, "ablation.txt"))
    trained = []

    def must_not_run(*args, **kwargs):
        trained.append(args)
        raise AssertionError("a cached study trained again")

    for name in ("export_dataset", "pretrain_teacher", "train_student"):
        monkeypatch.setattr(H, name, must_not_run)
    assert run_verb(out, "ablation") == 0
    assert trained == []
    assert read_bytes(os.path.join(out, "ablation.txt")) == before


def test_report_rerun_is_byte_identical(study, tmp_path):
    out = copy_study(study, tmp_path)
    first = read_bytes(os.path.join(out, "report.md"))
    assert run_verb(out, "report") == 0
    assert read_bytes(os.path.join(out, "report.md")) == first


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


@pytest.mark.parametrize("verb, table, failing", [
    ("ablation", "ablation.txt", "raw_seed1"),
    ("sweep-lambda", "sweep_lambda.txt", "norm_adapter_seed1"),
    ("similarity", "similarity.txt", "raw_seed1")])
def test_failed_run_makes_the_verb_exit_2(study, tmp_path, monkeypatch, capsys,
                                          verb, table, failing):
    out = copy_study(study, tmp_path)
    plain_run = H.train_run

    def fail_one(cfg, out, variant, seed, lam=None, force=False):
        if f"{variant}_seed{seed}" == failing:
            raise H.HarnessError("forced failure")
        return plain_run(cfg, out, variant, seed, lam, force)

    monkeypatch.setattr(H, "train_run", fail_one)
    capsys.readouterr()
    assert run_verb(out, verb) == 2
    with open(os.path.join(out, table)) as f:
        failed = [l for l in f if l.startswith("# failed")]
    assert failed == [f"# failed {failing}: HarnessError: forced failure\n"]
    assert f"FAILED {failing}: HarnessError: forced failure" in capsys.readouterr().err


def test_jobs_2_writes_the_same_records_as_jobs_1(study, tmp_path):
    out = str(tmp_path / "out")
    assert run_verb(out, "ablation", jobs=2) == 0
    assert run_records(out) == run_records(study[0])
    assert read_bytes(os.path.join(out, "ablation.txt")) == \
        read_bytes(os.path.join(study[0], "ablation.txt"))

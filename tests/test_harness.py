"""Harness caches, the frozen teacher and what its directory records, and the CLI."""

import os

from bevlab import harness as H
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


def test_selftest_verb_passes_every_check(tmp_path, capsys):
    from bevlab import cli
    assert cli.main(["--out", str(tmp_path), "selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["pass"] * 5, lines


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

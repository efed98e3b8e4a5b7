"""Experiment orchestration over the rest of the package.

Datasets, cached frozen teachers, training runs, the normalization ablation
with its feature-similarity study, the alignment-weight sweep, and a
consolidated report. Every command takes a RunConfig plus an output directory
and leaves plain-text artifacts behind; ``run_many`` splits runs into finished
and failed. The trainers take the config whole and only train; the harness
scores and saves their models, built and reloaded through the config's builders
only. A run directory stores the exact config it ran with, so repeating a
(config, seed) pair rewrites its eval files byte for byte. The caches key on
the config fields they read, not on code, so a change that moves results needs
a fresh --out. Each table pools the records of its ``study_specs`` runs in
``study_table``: the verbs write the .txt tables from it, and the report its
tables and sweep plots. The report trains nothing and writes no cache.

Layout under the output directory:

    dataset/                    rendered corpus (cached by dataset hash)
    teacher/<hash>/             frozen teacher checkpoint (cached) and log.txt,
                                written step by step as the teacher trains
    runs/<name>/                one training run: config.txt, log.txt,
                                checkpoint/, eval_*.txt, similarity.txt (the
                                per-scene teacher-student rows, exact floats),
                                record.txt, and error.txt with the traceback
                                if it failed
    ablation.txt  similarity.txt  sweep_lambda.txt   written by the verbs
    report.md  sweep_<roi>.svg  written by the report
    viz/                        channel-mean maps of the report's first val
                                scene (teacher, baseline, configured variant)
"""

import multiprocessing
import os
import pathlib
import shutil
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analysis import (channel_mean_viz, feature_matrix, linear_cka,
                       r_squared, read_similarity_file, summarize, write_pgm,
                       write_similarity_file)
from .config import RunConfig
from .encoders import (adopt_params, decode_map, load_checkpoint, named_params,
                       params_checksum, pretrain_teacher, save_checkpoint,
                       student_forward, teacher_forward)
from .mapeval import (CLASS_NAMES, N_CLASSES, ROIS, EvalConfig, evaluate, read_eval_file,
                      write_eval_file)
from .plots import line_plot
from .scenegen import export_dataset, load_dataset, load_sample, read_manifest
from .supervision import VARIANTS, fit_threads, share_cpus, train_student


class HarnessError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# dataset and teacher caches
# ---------------------------------------------------------------------------

def find_dataset(cfg: RunConfig, out):
    """The corpus directory of this config. Reads only; raises HarnessError
    naming the dataset hash unless it holds a manifest and the hash tag last."""
    path = os.path.join(out, "dataset")
    tag = os.path.join(path, "dataset_hash.txt")
    want = cfg.dataset_hash()
    if os.path.exists(tag) and os.path.exists(os.path.join(path, "manifest.txt")):
        with open(tag) as f:
            if f.read().strip() == want:
                return path
    raise HarnessError(f"no corpus of dataset hash {want} in {path}")


def ensure_dataset(cfg: RunConfig, out):
    """``find_dataset``, after generating the corpus in place of any other."""
    try:
        return find_dataset(cfg, out)
    except HarnessError:
        path = os.path.join(out, "dataset")
    if os.path.exists(path):
        shutil.rmtree(path)
    export_dataset(path, cfg)
    with open(os.path.join(path, "dataset_hash.txt"), "w") as f:
        f.write(cfg.dataset_hash() + "\n")
    return path


def load_splits(cfg: RunConfig, out):
    """(train samples, val samples) from the cached dataset. Their camera
    images are read from disk the first time a student uses them (see
    ``scenegen.Sample``); the overhead rasters and gt are read here."""
    path = ensure_dataset(cfg, out)
    samples = list(load_dataset(path))
    train = [s for s in samples if s.split == "train"]
    val = [s for s in samples if s.split == "val"]
    return train, val


def load_teacher(cfg: RunConfig, out):
    """(teacher, val_map) of the frozen teacher cached for this config.
    Reads only; raises HarnessError naming the cache directory when it holds
    no manifest, which the training path writes last."""
    tdir = os.path.join(out, "teacher", cfg.teacher_hash())
    if not os.path.exists(os.path.join(tdir, "manifest.txt")):
        raise HarnessError(f"no teacher cached in {tdir}")
    params, meta = load_checkpoint(tdir)
    teacher = cfg.teacher(np.random.default_rng(0))
    adopt_params(teacher, params, prefix="teacher.")
    teacher.freeze()
    return teacher, float(meta["val_map"])


def ensure_teacher(cfg: RunConfig, out):
    """``load_teacher``, after ``pretrain_teacher`` fills a cold cache from ``load_splits``:
    its frozen teacher's val maps, decoded by the decoder it returns, score val_map in
    ``cfg.roi``. Returns (teacher, val_map); no camera image is read here."""
    try:
        return load_teacher(cfg, out)
    except HarnessError:  # cold: log.txt fills in as it trains, the manifest comes last
        train, val = load_splits(cfg, out)
    tdir = os.path.join(out, "teacher", cfg.teacher_hash())
    os.makedirs(tdir, exist_ok=True)
    teacher, decoder = pretrain_teacher(cfg, train, os.path.join(tdir, "log.txt"))
    preds = {s.scene_id: decode_map(decoder, teacher_forward(teacher, s.overhead, cfg.grid()))
             for s in val}
    val_map = float(evaluate(preds, {s.scene_id: s.gt for s in val}, EvalConfig(cfg.roi)).map)
    save_checkpoint(tdir, named_params({"teacher": teacher}),
                    meta={"val_map": repr(val_map), "teacher_hash": cfg.teacher_hash()})
    return teacher, val_map


# ---------------------------------------------------------------------------
# single training run
# ---------------------------------------------------------------------------

def run_name(variant, seed, lam, tuned):
    """Directory name for one run; the tuned weight keeps the short name
    so ablation and sweep share cached runs."""
    if variant == "baseline" or lam == tuned:
        return f"{variant}_seed{seed}"
    return f"{variant}_lam{lam!r}_seed{seed}"


def _write_record(path, items):
    # record.txt marks the run done, so it appears whole or not at all
    with open(path + ".tmp", "w") as f:
        for key, val in items:
            f.write(f"{key} {val}\n")
    os.replace(path + ".tmp", path)


def read_record(rdir):
    """record.txt -> dict of strings."""
    rec = {}
    with open(os.path.join(rdir, "record.txt")) as f:
        for line in f:
            key, _, val = line.rstrip("\n").partition(" ")
            rec[key] = val
    rec["run_dir"] = rdir
    return rec


def run_dir(cfg: RunConfig, out, variant, seed, lam=None):
    """(directory, validated config) of one (variant, seed, lambda) run;
    lam None means the tuned weight, and the baseline's weight is 0."""
    lam = 0.0 if variant == "baseline" else (cfg.lambda_bev if lam is None else float(lam))
    return (os.path.join(out, "runs", run_name(variant, seed, lam, cfg.lambda_bev)),
            cfg.with_overrides(variant=variant, seed=seed, lambda_bev=lam))


def finished_record(rdir, run_cfg: RunConfig):
    """The record of the run in ``rdir`` if it finished under ``run_cfg``,
    else None: ``train_run`` writes record.txt last, with its ``run_hash``."""
    rec = read_record(rdir) if os.path.exists(os.path.join(rdir, "record.txt")) else {}
    return rec if rec.get("run_hash") == run_cfg.run_hash() else None


def _similarity_row(teacher, sample, fmap, grid):
    """(id, cka, centered cka, r2) between the teacher's map of one scene
    and a student map of it."""
    tm = feature_matrix(teacher_forward(teacher, sample.overhead, grid).tensor.data)
    sm = feature_matrix(fmap.tensor.data)
    return (sample.scene_id, linear_cka(tm, sm), linear_cka(tm, sm, center=True),
            r_squared(tm, sm))


def similarity_rows(cfg: RunConfig, teacher, student, val, grid, rig):
    """Per-scene (id, cka, centered cka, r2) between teacher and student
    features on the validation split."""
    return [_similarity_row(teacher, s, student_forward(student, s.cams, rig, grid), grid)
            for s in val]


def train_run(cfg: RunConfig, out, variant, seed, lam=None):
    """Train one (variant, seed, lambda) student and evaluate both RoIs.

    The val pass is one loop over the val scenes: the student runs once
    per scene, and its map is decoded for the eval files and compared with
    the frozen teacher's map of the scene for similarity.txt, whose (id,
    cka, centered cka, r2) rows hold exact floats; ``evaluate`` then scores
    the decoded maps once per RoI. Returns the record dict: as it is, if
    ``finished_record`` finds it, else from a run in an emptied directory.
    """
    rdir, run_cfg = run_dir(cfg, out, variant, seed, lam)
    if rec := finished_record(rdir, run_cfg):
        return rec
    teacher, teacher_map = ensure_teacher(cfg, out)
    train, val = load_splits(cfg, out)
    if os.path.exists(rdir):
        shutil.rmtree(rdir)
    os.makedirs(rdir)
    with open(os.path.join(rdir, "config.txt"), "w") as f:
        f.write(run_cfg.dump())
    grid, rig = run_cfg.grid(), run_cfg.rig()
    stored = len(teacher.maps)
    t0 = time.time()
    models, _ = train_student(run_cfg, train, teacher, os.path.join(rdir, "log.txt"))
    wall = time.time() - t0
    calls = len(teacher.maps) - stored  # U-Net passes the train split took
    rows, preds = [], {}
    for s in val:
        fmap = student_forward(models["student"], s.cams, rig, grid)
        preds[s.scene_id] = decode_map(models["decoder"], fmap)
        rows.append(_similarity_row(teacher, s, fmap, grid))
    gts = {s.scene_id: s.gt for s in val}
    maps = {}
    for roi in ROIS:
        result = evaluate(preds, gts, EvalConfig(roi))
        write_eval_file(os.path.join(rdir, f"eval_{roi}.txt"), result)
        maps[roi] = result.map
    write_similarity_file(os.path.join(rdir, "similarity.txt"), rows)
    params = named_params(models)
    save_checkpoint(os.path.join(rdir, "checkpoint"), params)
    if variant == "baseline" and calls:
        raise HarnessError(f"baseline run touched the teacher {calls} times")
    items = [
        ("variant", variant),
        ("seed", seed),
        ("lambda_bev", repr(run_cfg.lambda_bev)),
        ("steps", run_cfg.steps),
        ("run_hash", run_cfg.run_hash()),
        ("teacher_hash", run_cfg.teacher_hash()),
        ("dataset_hash", run_cfg.dataset_hash()),
        ("teacher_val_map", repr(teacher_map)),
    ]
    # the baseline never trains against the teacher, so its record carries
    # no invocation count at all
    if variant != "baseline":
        items.append(("teacher_calls", calls))
    items += [
        ("checksum", params_checksum(params)),
        *((f"map_{roi}", f"{maps[roi]:.6f}") for roi in ROIS),
        ("wall_clock", f"{wall:.1f}"),
    ]
    _write_record(os.path.join(rdir, "record.txt"), items)
    return read_record(rdir)


def _failed(cfg, out, spec, e, detail=None):
    """(spec, False, the error line of ``e``), with ``detail``, or else that
    line, left in the run's error.txt; a later success of the spec removes it."""
    line = f"{type(e).__name__}: {e}"
    rdir = run_dir(cfg, out, *spec)[0]
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, "error.txt"), "w") as f:
        f.write(detail or line + "\n")
    return spec, False, line


def _job(payload):
    """One run of a batch: (spec, True, record), or ``_failed`` with the
    full traceback."""
    cfg_text, out, spec = payload
    cfg = RunConfig.parse(cfg_text)
    try:
        rec = train_run(cfg, out, *spec)
    except Exception as e:  # partial failures are reported, not fatal
        return _failed(cfg, out, spec, e, traceback.format_exc())
    pathlib.Path(run_dir(cfg, out, *spec)[0], "error.txt").unlink(missing_ok=True)
    return spec, True, rec


def run_many(cfg: RunConfig, out, specs, jobs=1):
    """Run (variant, seed, lam) specs, possibly in parallel processes.

    Returns (finished, failures) in spec order: [(spec, record)] and
    [(run directory name, error line)]. Unless every spec has its
    ``finished_record``, the dataset and teacher caches are warmed first so
    workers never race on them; a cold teacher thus trains and is scored
    here, on every CPU. When ``min(jobs, len(specs))`` is above 1, that
    many worker processes start and each trains on ``max(1, cpus //
    workers)`` threads, so they share the CPUs without oversubscribing
    them. Those threads join every backward walk of two or more samples,
    and the records do not depend on them. A worker that dies fails every
    run the pool had not returned, as ``BrokenProcessPool``.
    """
    if not all(finished_record(*run_dir(cfg, out, *spec)) for spec in specs):
        ensure_dataset(cfg, out)
        ensure_teacher(cfg, out)
    payloads = [(cfg.dump(), out, spec) for spec in specs]
    workers = min(jobs, len(specs))
    if workers <= 1:
        results = [_job(payload) for payload in payloads]
    else:
        # fit's threads end with each fit, so none is running when the workers fork
        ctx = multiprocessing.get_context("fork")
        threads = max(1, fit_threads() // workers)
        with ProcessPoolExecutor(workers, ctx, initializer=share_cpus,
                                 initargs=(threads,)) as pool:
            futures = [pool.submit(_job, payload) for payload in payloads]
        # a future whose worker died (say, by the OOM killer) holds BrokenProcessPool
        results = [_failed(cfg, out, spec, f.exception()) if f.exception() else f.result()
                   for spec, f in zip(specs, futures)]
    return ([(spec, rec) for spec, ok, rec in results if ok],
            [(os.path.basename(run_dir(cfg, out, *spec)[0]), err)
             for spec, ok, err in results if not ok])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# name: (cell formats, .txt header, report header); the verbs write the
# first three to <name>.txt, and the report shows all of them
TABLES = {
    "ablation": (("{}", "{}", "{:.6f}", "{:.6f}", "{:+.6f}"),
                 "variant n map_extended_mean spread delta_vs_baseline",
                 ("variant", "n", "mAP mean", "spread", "delta")),
    "sweep_lambda": (("{!r}", "{}", "{:.6f}", "{:.6f}"),
                     "lambda n map_standard_mean map_extended_mean",
                     ("lambda", "n", "mAP standard", "mAP extended")),
    "similarity": (("{}", "{}") + ("{:.6f}",) * 6, "variant n cka_median cka_iqr "
                   "cka_centered_median cka_centered_iqr r2_median r2_iqr",
                   ("variant", "n", "CKA median", "IQR", "centered CKA median", "IQR",
                    "R2 median", "IQR")),
    **{f"detection/{roi}": (("{}",) + ("{:.6f}",) * (N_CLASSES + 1), None,
                            ("model",) + CLASS_NAMES + ("mAP",)) for roi in ROIS},
}


def _mean(values):
    return float(np.mean(values)) if values else float("nan")


def study_specs(cfg: RunConfig, name):
    """The (variant, seed, lam) runs of table ``name``, each once: ``sweep_specs``
    for sweep_lambda, else the baseline and ``cfg.variant`` for detection/<roi>
    and every variant for ablation and similarity, each x ``seeds``."""
    if name == "sweep_lambda":
        return sweep_specs(cfg)
    variants = ("baseline", cfg.variant) if name.startswith("detection/") else VARIANTS
    return list(dict.fromkeys((v, s, None) for v in variants for s in cfg.seeds))


def study_table(cfg: RunConfig, out, name):
    """(rows, unfinished) of table ``name`` over its ``study_specs``: rows
    pool the runs ``finished_record`` accepts under ``cfg``, one per lambda
    for the sweep and per variant otherwise, nan where none is; unfinished
    names the first it rejects, or is None. Rows: ablation (variant, n,
    mean, spread, delta vs baseline) of the extended mAP; similarity
    (variant, n, median and IQR of cka, centered cka, r2) of the runs'
    similarity.txt rows; sweep_lambda (lambda, n, mAP per RoI);
    detection/<roi> (model, class means, mAP), then the delta row."""
    specs = study_specs(cfg, name)
    key = 2 if name == "sweep_lambda" else 0
    groups, unfinished = {spec[key]: [] for spec in specs}, None
    for spec in specs:
        rdir, run_cfg = run_dir(cfg, out, *spec)
        if rec := finished_record(rdir, run_cfg):
            groups[spec[key]].append(rec)
        else:
            unfinished = unfinished or os.path.basename(rdir)
    if name == "sweep_lambda":
        return [(lam, len(recs), *(_mean([float(r[f"map_{roi}"]) for r in recs]) for roi in ROIS))
                for lam, recs in groups.items()], unfinished
    if name == "ablation":
        maps = {v: [float(r["map_extended"]) for r in recs] for v, recs in groups.items()}
        base = _mean(maps["baseline"])
        return [(v, len(m), _mean(m), float(max(m) - min(m)) if m else float("nan"),
                 _mean(m) - base) for v, m in maps.items()], unfinished
    if name == "similarity":
        pooled = {v: [row for r in recs for row in read_similarity_file(
                      os.path.join(r["run_dir"], "similarity.txt"))] for v, recs in groups.items()}
        stats = {v: [x for col in (1, 2, 3) for x in summarize([s[col] for s in sims])]
                 if sims else [float("nan")] * 6 for v, sims in pooled.items()}
        return [(v, len(pooled[v]), *stats[v]) for v in pooled], unfinished
    evals = {v: [read_eval_file(os.path.join(r["run_dir"], f"eval_{name.split('/')[1]}.txt"))[1:]
                 for r in recs] for v, recs in groups.items()}
    base, other = ((v, *(_mean([cls[c] for cls, _ in evals[v]]) for c in CLASS_NAMES),
                    _mean([m for _, m in evals[v]])) for v in ("baseline", cfg.variant))
    return [base, other, ("delta", *(o - b for o, b in zip(other[1:], base[1:])))], unfinished


def _cells(name, row):
    """One row of table ``name``, each cell formatted once; a delta row's are signed."""
    fmts = TABLES[name][0]
    if row[0] == "delta":
        fmts = [f.replace("{:.", "{:+.") for f in fmts]
    return [f.format(x) for f, x in zip(fmts, row)]


def _write_tables(cfg: RunConfig, out, names, jobs):
    """Trains the runs of tables ``names``, which all share them, then writes
    each <name>.txt: header, ``study_table`` rows, failed runs. Returns (the
    lines of the last table but its failed runs, failures)."""
    _, failures = run_many(cfg, out, study_specs(cfg, names[0]), jobs)
    for name in names:
        rows, _ = study_table(cfg, out, name)
        lines = [TABLES[name][1]] + [" ".join(_cells(name, row)) for row in rows]
        with open(os.path.join(out, f"{name}.txt"), "w") as f:
            f.write("\n".join(lines + [f"# failed {run}: {err}" for run, err in failures])
                    + "\n")
    return lines, failures


def cmd_ablation(cfg: RunConfig, out, seeds=None, jobs=1):
    """All four variants x ``seeds`` (the config's unless given); writes
    similarity.txt, then ablation.txt, whose lines ``_write_tables`` returns."""
    if seeds is not None:
        cfg = cfg.with_overrides(seeds=tuple(seeds))
    return _write_tables(cfg, out, ("similarity", "ablation"), jobs)


def sweep_specs(cfg: RunConfig):
    """One spec per (lambda, seed) over ``lambda_factors`` of the tuned weight
    and ``seeds``. lambda = 0 maps to the baseline variant (supervision off
    is exactly the baseline trajectory); the tuned factor reuses main runs."""
    if cfg.variant == "baseline":
        raise HarnessError("the sweep varies the alignment weight, which the baseline "
                           "variant does not use; set variant to an aligned one")
    if cfg.lambda_bev == 0.0:
        raise HarnessError("the sweep scales lambda_bev, which is 0, so every run would be "
                           "the baseline; set lambda_bev above 0")
    if 0.0 not in cfg.lambda_factors:
        raise HarnessError("the sweep needs the lambda = 0 reference point")
    lams = [f * cfg.lambda_bev for f in cfg.lambda_factors]
    return [("baseline" if lam == 0.0 else cfg.variant, s, lam) for lam in lams for s in cfg.seeds]


def cmd_sweep_lambda(cfg: RunConfig, out, jobs=1):
    """Trains the ``sweep_specs`` runs and writes sweep_lambda.txt (``_write_tables``)."""
    return _write_tables(cfg, out, ("sweep_lambda",), jobs)


def load_student(cfg: RunConfig, rdir, teacher):
    """Rebuild a trained (student, decoder, adapter) from a run checkpoint at
    ``cfg``'s sizes, refusing a ``teacher`` the student's features cannot match.
    Any arm loads under any variant: the adapter is None unless the checkpoint
    holds ``adapter.*``, as norm_adapter's does, and then needs ``adapter.w``.
    Every parameter comes back off the tape, as ``load_teacher``'s do: a loaded
    model only runs forward, so it records no tape that nothing walks."""
    if teacher.c_feat != cfg.c_feat:
        raise HarnessError(f"{cfg.c_feat}-channel student, {teacher.c_feat}-channel teacher")
    params, _ = load_checkpoint(os.path.join(rdir, "checkpoint"))
    rng = np.random.default_rng(0)
    models = {"student": cfg.student(rng), "decoder": cfg.decoder(rng)}
    if any(name.startswith("adapter.") for name in params):
        models["adapter"] = cfg.adapter()
    for name, model in models.items():
        adopt_params(model, params, prefix=name + ".")
        for p in model.params.values():
            p.requires_grad = False
    return models["student"], models["decoder"], models.get("adapter")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _report_table(cfg: RunConfig, out, name, missing):
    """(rows, markdown lines) of table ``name``, or ([], []) and why in ``missing``."""
    try:
        rows, unfinished = study_table(cfg, out, name)
        if unfinished:
            raise HarnessError(f"{unfinished} did not finish under this config")
    except (HarnessError, OSError) as e:
        missing.append(f"{name}: {e}")
        return [], []
    header = TABLES[name][2]
    return rows, (["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
                  + ["| " + " | ".join(_cells(name, row)) + " |" for row in rows] + [""])


def cmd_report(cfg: RunConfig, out):
    """Consolidated markdown report of the runs that finished under ``cfg``;
    returns (path, missing). Each table is ``study_table``'s rows, never read
    from a .txt table, and the sweep plots draw the sweep rows it shows. A
    table with a run that did not finish under ``cfg`` gives way to a note,
    and ``missing`` names the run; a skipped plot or map leaves no older
    file. Nothing trains, and no cache is written."""
    missing = []
    lines = ["# Cross-view supervision study", "", f"Config hash `{cfg.config_hash()}`, corpus "
              f"{cfg.n_train}+{cfg.n_val} scenes, variants trained for "
              f"{cfg.steps} steps, seeds {', '.join(str(s) for s in cfg.seeds)}.", ""]

    # Table 1 shape: baseline vs the adapter variant, both RoIs
    lines += ["## Detection comparison", ""]
    for roi in ROIS:
        _, table = _report_table(cfg, out, f"detection/{roi}", missing)
        lines += ([f"### {roi} RoI", ""] + table if table
                  else [f"({roi} RoI table skipped: missing run artifacts)", ""])

    # Table 2 shape: the normalization ablation
    lines += ["## Normalization ablation (extended RoI)", ""]
    lines += (_report_table(cfg, out, "ablation", missing)[1]
              or ["(ablation table missing; run the ablation command)", ""])

    # lambda sweep, one line plot per RoI
    lines += ["## Alignment weight sensitivity", ""]
    rows, sweep = _report_table(cfg, out, "sweep_lambda", missing)
    lines += sweep or ["(sweep table missing; run the sweep-lambda command)", ""]
    for roi in ROIS:  # an older report's plots; drawn again below when there are rows
        pathlib.Path(out, f"sweep_{roi}.svg").unlink(missing_ok=True)
    if rows:
        for i, roi in enumerate(ROIS):
            line_plot(os.path.join(out, f"sweep_{roi}.svg"), [r[0] for r in rows],
                      [r[2 + i] for r in rows], title="Alignment weight sweep",
                      x_label="lambda", y_label=f"val mAP ({roi} RoI)")
            lines.append(f"![lambda sweep, {roi} RoI](sweep_{roi}.svg)")
        lines.append("")

    # similarity study
    lines += ["## Feature similarity (validation split)", ""]
    lines += (_report_table(cfg, out, "similarity", missing)[1]
              or ["(similarity table missing; run the ablation command)", ""])

    # feature visualizations, shared gray scale
    lines += ["## Channel-mean features, first validation scene", ""]
    shutil.rmtree(os.path.join(out, "viz"), ignore_errors=True)
    try:
        viz = _write_viz(cfg, out, cfg.seeds[0])
    except HarnessError as e:
        missing.append(f"viz: {e}")
        lines += ["(feature maps missing; train baseline and adapter runs)", ""]
    else:
        lines += ["Shared affine gray scale across all three maps.", "",
                  "| source | file |", "|---|---|"]
        lines += [f"| {label} | `{rel}` |" for label, rel in viz] + [""]

    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "report.md")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path, missing


def _write_viz(cfg, out, seed):
    """Teacher/baseline/adapter channel-mean maps of the manifest's first val
    scene, on one shared scale; returns [(label, relative path)]. Reads only:
    raises HarnessError naming a run that did not finish under ``cfg`` or
    lacks its checkpoint, or a teacher or corpus cache this config lacks."""
    runs = {v: run_dir(cfg, out, v, seed) for v in ("baseline", cfg.variant)}
    for rdir, run_cfg in runs.values():
        if not finished_record(rdir, run_cfg):
            raise HarnessError(f"{os.path.basename(rdir)} did not finish under this config")
        if not os.path.exists(os.path.join(rdir, "checkpoint", "manifest.txt")):
            raise HarnessError(f"{os.path.basename(rdir)} has no checkpoint manifest")
    teacher, _ = load_teacher(cfg, out)
    grid, rig = cfg.grid(), cfg.rig()
    path = find_dataset(cfg, out)
    scene = load_sample(path, *next(row for row in read_manifest(path) if row[1] == "val"))
    maps = {"teacher": teacher_forward(teacher, scene.overhead, grid).tensor.data}
    for variant, (rdir, _) in runs.items():
        student, _, _ = load_student(cfg, rdir, teacher)
        maps[variant] = student_forward(student, scene.cams, rig, grid).tensor.data
    means = [m.mean(axis=0) for m in maps.values()]
    scale = (min(float(m.min()) for m in means), max(float(m.max()) for m in means))
    os.makedirs(os.path.join(out, "viz"), exist_ok=True)
    rels = {label: os.path.join("viz", f"{label}_{scene.scene_id}.pgm") for label in maps}
    for label, m in maps.items():
        write_pgm(os.path.join(out, rels[label]), channel_mean_viz(m, scale))
    return list(rels.items())

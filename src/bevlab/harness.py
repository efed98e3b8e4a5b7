"""Experiment orchestration over the rest of the package.

Datasets, cached frozen teachers, training runs, the normalization
ablation with its feature-similarity study, the alignment-weight sweep,
and a consolidated report. Every command takes a RunConfig plus an output
directory and leaves plain-text artifacts behind. The trainers take the
config whole, and models are built and reloaded through its builders
only; a run directory stores the exact config it ran with, so repeating a
(config, seed) pair rewrites its eval files byte for byte. The caches
key on config text, not on code, so a change that moves results needs a
fresh --out.

Layout under the output directory:

    dataset/                    rendered corpus (cached by dataset hash)
    teacher/<hash>/             frozen teacher checkpoint (cached) and log.txt,
                                written step by step as the teacher trains
    runs/<name>/                one training run: config.txt, log.txt,
                                checkpoint/, eval_*.txt, similarity.txt (the
                                per-scene teacher-student rows, exact floats),
                                record.txt, and error.txt with the traceback
                                if it failed
    ablation.txt  similarity.txt  sweep_lambda.txt  sweep_<roi>.svg  report.md
    viz/                        channel-mean maps of the report's first val
                                scene (teacher, baseline, configured variant)
"""

import multiprocessing
import os
import shutil
import time
import traceback

import numpy as np

from .analysis import (channel_mean_viz, feature_matrix, linear_cka,
                       r_squared, read_similarity_file, summarize, write_pgm,
                       write_similarity_file)
from .config import RunConfig
from .encoders import (adopt_params, evaluate_model, load_checkpoint, named_params,
                       params_checksum, pretrain_teacher, save_checkpoint,
                       student_forward, teacher_forward)
from .mapeval import CLASS_NAMES, N_CLASSES, ROIS, EvalConfig, read_eval_file, write_eval_file
from .plots import line_plot
from .scenegen import export_dataset, load_dataset, read_manifest
from .supervision import VARIANTS, fit_threads, share_cpus, train_student


class HarnessError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# dataset and teacher caches
# ---------------------------------------------------------------------------

def ensure_dataset(cfg: RunConfig, out):
    """Generate the corpus unless a matching one is already on disk."""
    path = os.path.join(out, "dataset")
    tag = os.path.join(path, "dataset_hash.txt")
    want = cfg.dataset_hash()
    if os.path.exists(tag) and os.path.exists(os.path.join(path, "manifest.txt")):
        with open(tag) as f:
            if f.read().strip() == want:
                return path
    if os.path.exists(path):
        shutil.rmtree(path)
    export_dataset(path, cfg)
    with open(tag, "w") as f:
        f.write(want + "\n")
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


def ensure_teacher(cfg: RunConfig, out, train=None, val=None):
    """Load the cached frozen teacher for this config, training it once
    if the cache is cold. Returns (teacher, val_map). The teacher sees
    only overhead rasters, so no camera image is read here."""
    tdir = os.path.join(out, "teacher", cfg.teacher_hash())
    if os.path.exists(os.path.join(tdir, "manifest.txt")):
        params, meta = load_checkpoint(tdir)
        teacher = cfg.teacher(np.random.default_rng(0))
        adopt_params(teacher, params, prefix="teacher.")
        teacher.freeze()
        return teacher, float(meta["val_map"])
    if train is None:
        train, val = load_splits(cfg, out)
    # log.txt fills in as the teacher trains; the manifest marks the cache done
    os.makedirs(tdir, exist_ok=True)
    teacher, _, val_map = pretrain_teacher(cfg, train, val, os.path.join(tdir, "log.txt"))
    save_checkpoint(tdir, named_params({"teacher": teacher}),
                    meta={"val_map": repr(val_map),
                          "teacher_hash": cfg.teacher_hash()})
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
    """(directory, alignment weight) of one (variant, seed, lambda) run;
    lam None means the tuned weight, and the baseline's weight is 0."""
    lam = 0.0 if variant == "baseline" else (cfg.lambda_bev if lam is None else float(lam))
    return os.path.join(out, "runs", run_name(variant, seed, lam, cfg.lambda_bev)), lam


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

    The val pass runs the student once per scene: its map is decoded for
    the eval files and compared with the frozen teacher's map of the scene
    for similarity.txt, whose (id, cka, centered cka, r2) rows hold exact
    floats. Cached: if the run directory already holds this exact config
    plus its record, eval and similarity files, it is returned as is.
    Returns the record dict.
    """
    rdir, lam = run_dir(cfg, out, variant, seed, lam)
    run_cfg = cfg.with_overrides(variant=variant, seed=seed, lambda_bev=lam)  # validates them
    cfg_path = os.path.join(rdir, "config.txt")
    done = all(os.path.exists(os.path.join(rdir, fn))
               for fn in ("config.txt", "record.txt", "similarity.txt",
                          *(f"eval_{roi}.txt" for roi in ROIS)))
    if done:
        with open(cfg_path) as f:
            if f.read() == run_cfg.dump():
                return read_record(rdir)
    train, val = load_splits(cfg, out)
    teacher, teacher_map = ensure_teacher(cfg, out, train, val)
    os.makedirs(rdir, exist_ok=True)
    # a retrain killed midway must not leave the old record marking it done
    record = os.path.join(rdir, "record.txt")
    if os.path.exists(record):
        os.remove(record)
    with open(cfg_path, "w") as f:
        f.write(run_cfg.dump())
    grid, rig = run_cfg.grid(), run_cfg.rig()
    stored = len(teacher.maps)
    t0 = time.time()
    models, _ = train_student(run_cfg, train, teacher, os.path.join(rdir, "log.txt"))
    wall = time.time() - t0
    calls = len(teacher.maps) - stored  # U-Net passes the train split took
    rows = []

    def features(s):
        # the caller drops the map, and with it its tape, after decoding it
        fmap = student_forward(models["student"], s.cams, rig, grid)
        rows.append(_similarity_row(teacher, s, fmap, grid))
        return fmap

    results = evaluate_model(features, models["decoder"], val, [EvalConfig(r) for r in ROIS])
    maps = {}
    for roi, result in zip(ROIS, results):
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
        ("lambda_bev", repr(lam)),
        ("steps", run_cfg.steps),
        ("config_hash", run_cfg.config_hash()),
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
    _write_record(record, items)
    return read_record(rdir)


def _job(payload):
    """One run of a batch: (spec, True, record), or (spec, False, error
    line) with the full traceback left in the run's error.txt, which a
    later success of the same spec removes."""
    cfg_text, out, spec = payload
    cfg = RunConfig.parse(cfg_text)
    error_path = os.path.join(run_dir(cfg, out, *spec)[0], "error.txt")
    try:
        rec = train_run(cfg, out, *spec)
    except Exception as e:  # partial failures are reported, not fatal
        os.makedirs(os.path.dirname(error_path), exist_ok=True)
        with open(error_path, "w") as f:
            f.write(traceback.format_exc())
        return spec, False, f"{type(e).__name__}: {e}"
    if os.path.exists(error_path):
        os.remove(error_path)
    return spec, True, rec


def run_many(cfg: RunConfig, out, specs, jobs=1):
    """Run (variant, seed, lam) specs, possibly in parallel processes.

    Returns [(spec, ok, record-or-error)] in spec order. The dataset and
    teacher caches are warmed first so workers never race on them; a cold
    teacher thus trains here, on every CPU. With ``jobs`` > 1 each worker
    process trains on ``max(1, cpus // jobs)`` threads, so the processes
    do not oversubscribe the CPUs; the records do not depend on it.
    """
    ensure_dataset(cfg, out)
    ensure_teacher(cfg, out)
    if jobs <= 1:
        return [_job((cfg.dump(), out, spec)) for spec in specs]
    # fit's threads end with each fit, so none is running when the workers fork
    ctx = multiprocessing.get_context("fork")
    threads = max(1, fit_threads() // jobs)
    with ctx.Pool(min(jobs, len(specs)), initializer=share_cpus, initargs=(threads,)) as pool:
        return pool.map(_job, [(cfg.dump(), out, spec) for spec in specs])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: RunConfig, out):
    """Render the corpus; returns (path, n_train, n_val)."""
    path = ensure_dataset(cfg, out)
    splits = [split for _, split, _ in read_manifest(path)]
    return path, splits.count("train"), splits.count("val")


def cmd_train(cfg: RunConfig, out):
    return train_run(cfg, out, cfg.variant, cfg.seed)


def _finished_runs(cfg: RunConfig, out, specs, jobs):
    """run_many, split into [(spec, record)] of the finished runs and
    [(run directory name, error)] of the failed ones, in spec order."""
    results = run_many(cfg, out, specs, jobs)
    return ([(spec, rec) for spec, ok, rec in results if ok],
            [(os.path.basename(run_dir(cfg, out, *spec)[0]), err)
             for spec, ok, err in results if not ok])


def _write_table(path, header, rows, failures):
    """A study table: the header, one line per row, one per failed run."""
    lines = [header] + rows + [f"# failed {name}: {err}" for name, err in failures]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def cmd_ablation(cfg: RunConfig, out, seeds=None, jobs=1):
    """All four variants x seeds; writes the extended-RoI comparison table
    ablation.txt and the teacher-student similarity table similarity.txt.

    The similarity table pools, per variant, the rows each run's
    similarity.txt holds as exact floats, and gives the median and IQR of
    cka, centered cka and r2. Returns (rows, failures): rows are (variant,
    n, mean, spread, delta) with delta relative to the baseline mean;
    failed runs are dropped from both tables and listed in failures.
    """
    seeds = list(cfg.seeds if seeds is None else seeds)
    done, failures = _finished_runs(cfg, out, [(v, s, None) for v in VARIANTS for s in seeds],
                                    jobs)
    by_variant = {v: [float(rec["map_extended"]) for (var, _, _), rec in done if var == v]
                  for v in VARIANTS}
    base_mean = np.mean(by_variant["baseline"]) if by_variant["baseline"] else float("nan")
    rows = []
    for variant, vals in by_variant.items():
        mean, spread = ((float(np.mean(vals)), float(max(vals) - min(vals))) if vals
                        else (float("nan"), float("nan")))
        rows.append((variant, len(vals), mean, spread, mean - base_mean))
    _write_table(os.path.join(out, "ablation.txt"),
                 "variant n map_extended_mean spread delta_vs_baseline",
                 [f"{v} {n} {mean:.6f} {spread:.6f} {delta:+.6f}"
                  for v, n, mean, spread, delta in rows], failures)
    pooled = {v: [] for v in VARIANTS}
    for (variant, _, _), rec in done:
        pooled[variant] += read_similarity_file(os.path.join(rec["run_dir"], "similarity.txt"))
    lines = []
    for variant, sims in pooled.items():
        stats = ([x for col in (1, 2, 3) for x in summarize([r[col] for r in sims])]
                 if sims else [float("nan")] * 6)
        lines.append(f"{variant} {len(sims)} " + " ".join(f"{x:.6f}" for x in stats))
    _write_table(os.path.join(out, "similarity.txt"),
                 "variant n cka_median cka_iqr cka_centered_median cka_centered_iqr "
                 "r2_median r2_iqr", lines, failures)
    return rows, failures


def cmd_sweep_lambda(cfg: RunConfig, out, jobs=1):
    """One run per (lambda, seed) over the config's ``lambda_factors`` of
    the tuned weight and its ``seeds``.

    lambda = 0 maps to the baseline variant (supervision off is exactly
    the baseline trajectory) and the tuned factor reuses the main runs.
    Writes sweep_lambda.txt plus one line plot per RoI. Returns (rows,
    failures); rows are (lam, n, mean_standard, mean_extended).
    """
    if cfg.variant == "baseline":
        raise HarnessError("the sweep varies the alignment weight, which the baseline "
                           "variant does not use; set variant to an aligned one")
    if cfg.lambda_bev == 0.0:
        raise HarnessError("the sweep scales lambda_bev, which is 0, so every run would be "
                           "the baseline; set lambda_bev above 0")
    if 0.0 not in cfg.lambda_factors:
        raise HarnessError("the sweep needs the lambda = 0 reference point")
    values = [f * cfg.lambda_bev for f in cfg.lambda_factors]
    specs = []
    for lam in values:
        variant = "baseline" if lam == 0.0 else cfg.variant
        specs.extend((variant, s, lam) for s in cfg.seeds)
    done, failures = _finished_runs(cfg, out, specs, jobs)
    rows = []
    for lam in values:
        recs = [rec for (_, _, at), rec in done if at == lam]
        rows.append((lam, len(recs)) + tuple(
            float(np.mean([float(r[f"map_{roi}"]) for r in recs])) if recs else float("nan")
            for roi in ROIS))
    _write_table(os.path.join(out, "sweep_lambda.txt"),
                 "lambda n map_standard_mean map_extended_mean",
                 [f"{lam!r} {n} {ms:.6f} {me:.6f}" for lam, n, ms, me in rows], failures)
    good = [r for r in rows if r[1]]
    for i, roi in enumerate(ROIS):
        line_plot(os.path.join(out, f"sweep_{roi}.svg"), [r[0] for r in good],
                  [r[2 + i] for r in good], title="Alignment weight sweep",
                  x_label="lambda", y_label=f"val mAP ({roi} RoI)")
    return rows, failures


def load_student(cfg: RunConfig, rdir, teacher):
    """Rebuild a trained (student, decoder, adapter) from a run checkpoint at
    ``cfg``'s sizes, refusing a ``teacher`` the student's features cannot match.
    Any arm loads under any variant: the adapter is None unless the checkpoint
    holds ``adapter.*``, as norm_adapter's does, and then needs ``adapter.w``."""
    if teacher.c_feat != cfg.c_feat:
        raise HarnessError(f"{cfg.c_feat}-channel student, {teacher.c_feat}-channel teacher")
    params, _ = load_checkpoint(os.path.join(rdir, "checkpoint"))
    rng = np.random.default_rng(0)
    models = {"student": cfg.student(rng), "decoder": cfg.decoder(rng)}
    if any(name.startswith("adapter.") for name in params):
        models["adapter"] = cfg.adapter()
    for name, model in models.items():
        adopt_params(model, params, prefix=name + ".")
    return models["student"], models["decoder"], models.get("adapter")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _runs_for(cfg, out, variant, seeds):
    return [run_dir(cfg, out, variant, seed)[0] for seed in seeds]


def _mean_eval(run_dirs, roi):
    """Averages eval_<roi>.txt over runs; returns (class_means, map).
    Raises FileNotFoundError naming the first missing file."""
    acc_cls, acc_map = None, []
    for rdir in run_dirs:
        _, class_means, map_value = read_eval_file(os.path.join(rdir, f"eval_{roi}.txt"))
        if acc_cls is None:
            acc_cls = {k: [] for k in class_means}
        for k, v in class_means.items():
            acc_cls[k].append(v)
        acc_map.append(map_value)
    return {k: float(np.mean(v)) for k, v in acc_cls.items()}, float(np.mean(acc_map))


def _table_section(lines, missing, path, what, verb, header):
    """Append a whitespace table file as a markdown table, or a note that it
    is missing; returns whether the file was there."""
    if not os.path.exists(path):
        missing.append(os.path.basename(path))
        lines += [f"({what} table missing; run the {verb} command)", ""]
        return False
    with open(path) as f:
        rows = [l.split() for l in f if l.strip() and not l.startswith("#")]
    lines += ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows[1:]]
    lines.append("")
    return True


def cmd_report(cfg: RunConfig, out):
    """Consolidated markdown report from whatever artifacts exist.

    Returns (path, missing): artifacts that could not be found are listed
    in `missing` and the report marks the affected sections. Every table
    number is read back from the raw result files, never recomputed, so
    the report regenerates byte-identically and each cell has an on-disk
    source.
    """
    seeds = list(cfg.seeds)
    missing = []
    lines = ["# Cross-view supervision study", ""]
    lines += [f"Config hash `{cfg.config_hash()}`, corpus "
              f"{cfg.n_train}+{cfg.n_val} scenes, variants trained for "
              f"{cfg.steps} steps, seeds {', '.join(str(s) for s in seeds)}.", ""]

    # Table 1 shape: baseline vs the adapter variant, both RoIs
    lines += ["## Detection comparison", ""]
    for roi in ROIS:
        try:
            base = _mean_eval(_runs_for(cfg, out, "baseline", seeds), roi)
            cvs = _mean_eval(_runs_for(cfg, out, cfg.variant, seeds), roi)
        except (FileNotFoundError, OSError) as e:
            missing.append(f"detection/{roi}: {e}")
            lines += [f"({roi} RoI table skipped: missing run artifacts)", ""]
            continue
        lines += [f"### {roi} RoI", ""]
        header = "| model | " + " | ".join(CLASS_NAMES) + " | mAP |"
        lines += [header, "|" + "---|" * (N_CLASSES + 2)]
        for label, (cls_means, map_value) in (("baseline", base), (cfg.variant, cvs)):
            row = [label] + [f"{cls_means[c]:.6f}" for c in CLASS_NAMES]
            row.append(f"{map_value:.6f}")
            lines.append("| " + " | ".join(row) + " |")
        delta = [f"{cvs[0][c] - base[0][c]:+.6f}" for c in CLASS_NAMES]
        lines.append("| delta | " + " | ".join(delta)
                     + f" | {cvs[1] - base[1]:+.6f} |")
        lines.append("")

    # Table 2 shape: the normalization ablation
    lines += ["## Normalization ablation (extended RoI)", ""]
    _table_section(lines, missing, os.path.join(out, "ablation.txt"), "ablation",
                   "ablation", ("variant", "n", "mAP mean", "spread", "delta"))

    # lambda sweep
    lines += ["## Alignment weight sensitivity", ""]
    if _table_section(lines, missing, os.path.join(out, "sweep_lambda.txt"), "sweep",
                      "sweep-lambda", ("lambda", "n", "mAP standard", "mAP extended")):
        for roi in ROIS:
            svg = f"sweep_{roi}.svg"
            if os.path.exists(os.path.join(out, svg)):
                lines.append(f"![lambda sweep, {roi} RoI]({svg})")
            else:
                missing.append(svg)
        lines.append("")

    # similarity study
    lines += ["## Feature similarity (validation split)", ""]
    _table_section(lines, missing, os.path.join(out, "similarity.txt"), "similarity",
                   "ablation", ("variant", "n", "CKA median", "IQR", "centered CKA median",
                                "IQR", "R2 median", "IQR"))

    # feature visualizations, shared gray scale
    lines += ["## Channel-mean features, first validation scene", ""]
    viz = _write_viz(cfg, out, seeds[0])
    if viz:
        lines += ["Shared affine gray scale across all three maps.", ""]
        lines += ["| source | file |", "|---|---|"]
        for label, rel in viz:
            lines.append(f"| {label} | `{rel}` |")
        lines.append("")
    else:
        missing.append("viz (needs baseline and adapter runs)")
        lines += ["(feature maps missing; train baseline and adapter runs)", ""]

    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "report.md")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path, missing


def _write_viz(cfg, out, seed):
    """Teacher/baseline/adapter channel-mean maps for one val scene under
    one shared scale; returns [(label, relative path)] or None."""
    runs = {v: run_dir(cfg, out, v, seed)[0] for v in ("baseline", cfg.variant)}
    for rdir in runs.values():
        if not os.path.exists(os.path.join(rdir, "checkpoint", "manifest.txt")):
            return None
    teacher, _ = ensure_teacher(cfg, out)
    grid, rig = cfg.grid(), cfg.rig()
    scene = next(load_dataset(ensure_dataset(cfg, out), split="val"))
    maps = {"teacher": teacher_forward(teacher, scene.overhead, grid).tensor.data}
    for variant, rdir in runs.items():
        student, _, _ = load_student(cfg, rdir, teacher)
        maps[variant] = student_forward(student, scene.cams, rig, grid).tensor.data
    means = [m.mean(axis=0) for m in maps.values()]
    lo = min(float(m.min()) for m in means)
    hi = max(float(m.max()) for m in means)
    vdir = os.path.join(out, "viz")
    os.makedirs(vdir, exist_ok=True)
    entries = []
    for label, m in maps.items():
        rel = os.path.join("viz", f"{label}_{scene.scene_id}.pgm")
        write_pgm(os.path.join(out, rel), channel_mean_viz(m, (lo, hi)))
        entries.append((label, rel))
    return entries

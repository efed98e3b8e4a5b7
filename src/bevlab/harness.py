"""Experiment orchestration over the rest of the package.

Datasets, cached frozen teachers, training runs, the normalization
ablation, the alignment-weight sweep, the feature-similarity study, and
a consolidated report. Every command takes a RunConfig plus an output
directory and leaves plain-text artifacts behind; a run directory stores
the exact config it ran with, so repeating a (config, seed) pair rewrites
its eval files byte for byte.

Layout under the output directory:

    dataset/                    rendered corpus (cached by dataset hash)
    teacher/<hash>/             frozen teacher checkpoint (cached) and log.txt,
                                written step by step as the teacher trains
    runs/<name>/                one training run: config.txt, log.txt,
                                checkpoint/, eval_*.txt, record.txt
    ablation.txt  sweep_lambda.txt  similarity.txt  report.md
"""

import multiprocessing
import os
import shutil
import time

import numpy as np

from .analysis import (channel_mean_viz, feature_matrix, linear_cka,
                       r_squared, read_similarity_file, summarize, write_pgm,
                       write_similarity_file)
from .config import RunConfig
from .encoders import (MapDecoder, StudentEncoder, TeacherEncoder,
                       adopt_params, evaluate_model, load_checkpoint,
                       named_params, params_checksum, pretrain_teacher,
                       save_checkpoint, student_forward, teacher_forward)
from .mapeval import CLASS_NAMES, N_CLASSES, EvalConfig, read_eval_file, write_eval_file
from .plots import line_plot
from .scenegen import export_dataset, load_dataset
from .supervision import VARIANTS, AffineAdapter, train_student


class HarnessError(RuntimeError):
    pass


ROIS = ("standard", "extended")


# ---------------------------------------------------------------------------
# dataset and teacher caches
# ---------------------------------------------------------------------------

def ensure_dataset(cfg: RunConfig, out):
    """Generate the corpus unless a matching one is already on disk."""
    path = os.path.join(out, "dataset")
    tag = os.path.join(path, "dataset_hash.txt")
    want = cfg.dataset_hash()
    if (os.path.exists(tag) and os.path.exists(os.path.join(path, "manifest.txt"))
            and open(tag).read().strip() == want):
        return path
    if os.path.exists(path):
        shutil.rmtree(path)
    export_dataset(path, n_train=cfg.n_train, n_val=cfg.n_val,
                   base_params=cfg.scene_params(), rig=cfg.rig(),
                   grid=cfg.grid())
    with open(tag, "w") as f:
        f.write(want + "\n")
    return path


def load_splits(cfg: RunConfig, out):
    """(train samples, val samples) from the cached dataset."""
    path = ensure_dataset(cfg, out)
    samples = list(load_dataset(path))
    train = [s for s in samples if s.split == "train"]
    val = [s for s in samples if s.split == "val"]
    return train, val


def _teacher_models(cfg: RunConfig):
    def make(rng, grid):
        teacher = TeacherEncoder(rng, c_feat=cfg.c_feat,
                                 widths=cfg.teacher_widths,
                                 feature_layer=cfg.teacher_feature_layer)
        decoder = MapDecoder(rng, grid, c_in=cfg.c_feat,
                             n_queries=cfg.n_queries, n_points=cfg.n_points,
                             hidden=cfg.decoder_hidden)
        return teacher, decoder
    return make


def _student_models(cfg: RunConfig):
    def make(rng, grid, teacher):
        student = StudentEncoder(rng, c_feat=teacher.c_feat,
                                 width=cfg.student_width,
                                 downsample=cfg.downsample)
        decoder = MapDecoder(rng, grid, c_in=teacher.c_feat,
                             n_queries=cfg.n_queries, n_points=cfg.n_points,
                             hidden=cfg.decoder_hidden)
        adapter = AffineAdapter(teacher.c_feat)
        return student, decoder, adapter
    return make


def ensure_teacher(cfg: RunConfig, out, train=None, val=None):
    """Load the cached frozen teacher for this config, training it once
    if the cache is cold. Returns (teacher, val_map)."""
    tdir = os.path.join(out, "teacher", cfg.teacher_hash())
    grid = cfg.grid()
    if os.path.exists(os.path.join(tdir, "manifest.txt")):
        params, meta = load_checkpoint(tdir)
        teacher, _ = _teacher_models(cfg)(np.random.default_rng(0), grid)
        adopt_params(teacher, params, prefix="teacher.")
        teacher.freeze()
        return teacher, float(meta["val_map"])
    if train is None:
        train, val = load_splits(cfg, out)
    # log.txt fills in as the teacher trains; the manifest marks the cache done
    os.makedirs(tdir, exist_ok=True)
    teacher, _, val_map = pretrain_teacher(
        train, val, grid, EvalConfig(cfg.roi, grid=grid),
        seed=cfg.teacher_seed, steps=cfg.teacher_steps, batch=cfg.batch,
        base_lr=cfg.base_lr, weight_decay=cfg.weight_decay, min_lr=cfg.min_lr,
        reg_weight=cfg.reg_weight, log_path=os.path.join(tdir, "log.txt"),
        make_models=_teacher_models(cfg))
    save_checkpoint(tdir, named_params({"teacher": teacher}),
                    meta={"val_map": repr(val_map),
                          "teacher_hash": cfg.teacher_hash()})
    return teacher, val_map


# ---------------------------------------------------------------------------
# single training run
# ---------------------------------------------------------------------------

def run_name(variant, seed, lam, tuned):
    """Directory name for one run; the tuned weight keeps the short name
    so ablation, sweep and similarity share cached runs."""
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


def train_run(cfg: RunConfig, out, variant, seed, lam=None, force=False):
    """Train one (variant, seed, lambda) student and evaluate both RoIs.

    Cached: if the run directory already holds this exact config plus its
    record and eval files, it is returned as is. Returns the record dict.
    """
    if variant not in VARIANTS:
        raise HarnessError(f"unknown variant {variant!r}")
    lam = 0.0 if variant == "baseline" else (cfg.lambda_bev if lam is None else float(lam))
    name = run_name(variant, seed, lam, cfg.lambda_bev)
    rdir = os.path.join(out, "runs", name)
    run_cfg = cfg.with_overrides(variant=variant, seed=seed, lambda_bev=lam)
    cfg_path = os.path.join(rdir, "config.txt")
    done = all(os.path.exists(os.path.join(rdir, fn))
               for fn in ("config.txt", "record.txt",
                          "eval_standard.txt", "eval_extended.txt"))
    if done and not force and open(cfg_path).read() == run_cfg.dump():
        return read_record(rdir)
    train, val = load_splits(cfg, out)
    teacher, teacher_map = ensure_teacher(cfg, out, train, val)
    os.makedirs(rdir, exist_ok=True)
    with open(cfg_path, "w") as f:
        f.write(run_cfg.dump())
    grid = cfg.grid()
    rig = cfg.rig()
    counts = {}
    t0 = time.time()
    student, decoder, adapter, breakdowns = train_student(
        train, teacher, run_cfg.supervision(variant, lam), seed, grid,
        rig=rig, steps=cfg.steps, batch=cfg.batch, base_lr=cfg.base_lr,
        weight_decay=cfg.weight_decay, min_lr=cfg.min_lr,
        reg_weight=cfg.reg_weight,
        log_path=os.path.join(rdir, "log.txt"),
        make_models=_student_models(cfg), counts=counts)
    wall = time.time() - t0
    calls = counts["teacher_calls"]
    results = evaluate_model(
        lambda s: student_forward(student, s.cams, rig, grid),
        decoder, val, [EvalConfig(roi) for roi in ROIS])
    maps = {}
    for roi, result in zip(ROIS, results):
        write_eval_file(os.path.join(rdir, f"eval_{roi}.txt"), result)
        maps[roi] = result.map
    params = named_params({"student": student, "decoder": decoder,
                           "adapter": adapter})
    save_checkpoint(os.path.join(rdir, "checkpoint"), params)
    if variant == "baseline" and calls:
        raise HarnessError(f"baseline run touched the teacher {calls} times")
    items = [
        ("variant", variant),
        ("seed", seed),
        ("lambda_bev", repr(lam)),
        ("steps", cfg.steps),
        ("config_hash", run_cfg.config_hash()),
        ("teacher_hash", cfg.teacher_hash()),
        ("dataset_hash", cfg.dataset_hash()),
        ("teacher_val_map", repr(teacher_map)),
    ]
    # the baseline never consults the teacher, so its record carries no
    # invocation count at all
    if variant != "baseline":
        items.append(("teacher_calls", calls))
    items += [
        ("checksum", params_checksum(params)),
        ("map_standard", f"{maps['standard']:.6f}"),
        ("map_extended", f"{maps['extended']:.6f}"),
        ("wall_clock", f"{wall:.1f}"),
    ]
    _write_record(os.path.join(rdir, "record.txt"), items)
    return read_record(rdir)


def _job(payload):
    cfg_text, out, spec = payload
    cfg = RunConfig.parse(cfg_text)
    try:
        return spec, True, train_run(cfg, out, *spec)
    except Exception as e:  # partial failures are reported, not fatal
        return spec, False, f"{type(e).__name__}: {e}"


def run_many(cfg: RunConfig, out, specs, jobs=1):
    """Run (variant, seed, lam) specs, possibly in parallel processes.

    Returns [(spec, ok, record-or-error)] in spec order. The dataset and
    teacher caches are warmed first so workers never race on them.
    """
    ensure_dataset(cfg, out)
    ensure_teacher(cfg, out)
    if jobs <= 1:
        return [_job((cfg.dump(), out, spec)) for spec in specs]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(jobs, len(specs))) as pool:
        return pool.map(_job, [(cfg.dump(), out, spec) for spec in specs])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(cfg: RunConfig, out):
    """Render the corpus; returns (path, n_train, n_val)."""
    path = ensure_dataset(cfg, out)
    with open(os.path.join(path, "manifest.txt")) as f:
        rows = [line.split() for line in f if line.strip()]
    n_train = sum(1 for r in rows if r[1] == "train")
    n_val = sum(1 for r in rows if r[1] == "val")
    return path, n_train, n_val


def cmd_train(cfg: RunConfig, out, variant=None, seed=None):
    return train_run(cfg, out, variant or cfg.variant,
                     cfg.seed if seed is None else seed)


def _mean_spread(values):
    return float(np.mean(values)), float(max(values) - min(values))


def cmd_ablation(cfg: RunConfig, out, seeds=None, jobs=1):
    """All four variants x seeds; writes the extended-RoI comparison table.

    Returns (rows, failures): rows are (variant, n, mean, spread, delta)
    with delta relative to the baseline mean; failed runs are dropped from
    the stats and listed in failures.
    """
    seeds = list(cfg.seeds if seeds is None else seeds)
    specs = [(v, s, None) for v in VARIANTS for s in seeds]
    results = run_many(cfg, out, specs, jobs)
    by_variant = {v: [] for v in VARIANTS}
    failures = []
    for (variant, seed, _), ok, payload in results:
        if ok:
            by_variant[variant].append(float(payload["map_extended"]))
        else:
            failures.append((f"{variant}_seed{seed}", payload))
    rows = []
    base_mean = np.mean(by_variant["baseline"]) if by_variant["baseline"] else float("nan")
    for variant in VARIANTS:
        vals = by_variant[variant]
        if vals:
            mean, spread = _mean_spread(vals)
            rows.append((variant, len(vals), mean, spread, mean - base_mean))
        else:
            rows.append((variant, 0, float("nan"), float("nan"), float("nan")))
    with open(os.path.join(out, "ablation.txt"), "w") as f:
        f.write("variant n map_extended_mean spread delta_vs_baseline\n")
        for variant, n, mean, spread, delta in rows:
            f.write(f"{variant} {n} {mean:.6f} {spread:.6f} {delta:+.6f}\n")
        for name, err in failures:
            f.write(f"# failed {name}: {err}\n")
    return rows, failures


def cmd_sweep_lambda(cfg: RunConfig, out, factors=None, seeds=None, jobs=1):
    """One run per (lambda, seed) over factors of the tuned weight.

    lambda = 0 maps to the baseline variant (supervision off is exactly
    the baseline trajectory) and the tuned factor reuses the main runs.
    Writes sweep_lambda.txt plus one line plot per RoI. Returns (rows,
    failures); rows are (lam, n, mean_standard, mean_extended).
    """
    factors = list(cfg.lambda_factors if factors is None else factors)
    if 0.0 not in factors:
        raise HarnessError("the sweep needs the lambda = 0 reference point")
    seeds = list(cfg.seeds if seeds is None else seeds)
    values = [f * cfg.lambda_bev for f in factors]
    specs = []
    for lam in values:
        variant = "baseline" if lam == 0.0 else cfg.variant
        specs.extend((variant, s, lam) for s in seeds)
    results = run_many(cfg, out, specs, jobs)
    by_lam = {lam: {"standard": [], "extended": []} for lam in values}
    failures = []
    for (variant, seed, lam), ok, payload in results:
        if ok:
            by_lam[lam]["standard"].append(float(payload["map_standard"]))
            by_lam[lam]["extended"].append(float(payload["map_extended"]))
        else:
            failures.append((run_name(variant, seed, lam, cfg.lambda_bev), payload))
    rows = []
    for lam in values:
        n = len(by_lam[lam]["standard"])
        ms = float(np.mean(by_lam[lam]["standard"])) if n else float("nan")
        me = float(np.mean(by_lam[lam]["extended"])) if n else float("nan")
        rows.append((lam, n, ms, me))
    with open(os.path.join(out, "sweep_lambda.txt"), "w") as f:
        f.write("lambda n map_standard_mean map_extended_mean\n")
        for lam, n, ms, me in rows:
            f.write(f"{lam!r} {n} {ms:.6f} {me:.6f}\n")
        for name, err in failures:
            f.write(f"# failed {name}: {err}\n")
    good = [r for r in rows if r[1]]
    for i, roi in enumerate(ROIS):
        line_plot(os.path.join(out, f"sweep_{roi}.svg"),
                  [(f"val mAP ({roi} RoI)", [r[0] for r in good],
                    [r[2 + i] for r in good])],
                  title="Alignment weight sweep",
                  x_label="lambda", y_label="val mAP")
    return rows, failures


def similarity_rows(cfg: RunConfig, teacher, student, val, grid, rig):
    """Per-scene (id, cka, centered cka, r2) between teacher and student
    features on the validation split."""
    rows = []
    for s in val:
        tm = feature_matrix(teacher_forward(teacher, s.overhead, grid).tensor.data)
        sm = feature_matrix(student_forward(student, s.cams, rig, grid).tensor.data)
        rows.append((s.scene_id, linear_cka(tm, sm),
                     linear_cka(tm, sm, center=True), r_squared(tm, sm)))
    return rows


def load_student(cfg: RunConfig, rdir, teacher):
    """Rebuild a trained (student, decoder, adapter) from a run checkpoint."""
    params, _ = load_checkpoint(os.path.join(rdir, "checkpoint"))
    student, decoder, adapter = _student_models(cfg)(
        np.random.default_rng(0), cfg.grid(), teacher)
    adopt_params(student, params, prefix="student.")
    adopt_params(decoder, params, prefix="decoder.")
    adopt_params(adapter, params, prefix="adapter.")
    return student, decoder, adapter


def cmd_similarity(cfg: RunConfig, out, seeds=None, jobs=1):
    """Teacher-student feature similarity for every variant and seed.

    Ensures the runs exist, writes similarity_<variant>.txt per run plus
    a pooled summary table. Returns (summary rows, failures); summary rows
    are (variant, n, cka_med, cka_iqr, ckac_med, ckac_iqr, r2_med, r2_iqr).
    """
    seeds = list(cfg.seeds if seeds is None else seeds)
    specs = [(v, s, None) for v in VARIANTS for s in seeds]
    results = run_many(cfg, out, specs, jobs)
    train, val = load_splits(cfg, out)
    teacher, _ = ensure_teacher(cfg, out, train, val)
    grid = cfg.grid()
    rig = cfg.rig()
    pooled = {v: [] for v in VARIANTS}
    failures = []
    for (variant, seed, _), ok, payload in results:
        if not ok:
            failures.append((f"{variant}_seed{seed}", payload))
            continue
        rdir = payload["run_dir"]
        fpath = os.path.join(rdir, f"similarity_{variant}.txt")
        if os.path.exists(fpath):
            rows = read_similarity_file(fpath)
        else:
            student, _, _ = load_student(cfg, rdir, teacher)
            rows = similarity_rows(cfg, teacher, student, val, grid, rig)
            write_similarity_file(fpath, rows)
        pooled[variant].extend(rows)
    summary = []
    for variant in VARIANTS:
        rows = pooled[variant]
        if not rows:
            summary.append((variant, 0) + (float("nan"),) * 6)
            continue
        stats = []
        for col in (1, 2, 3):
            med, iqr = summarize([r[col] for r in rows])
            stats.extend((med, iqr))
        summary.append((variant, len(rows)) + tuple(stats))
    with open(os.path.join(out, "similarity.txt"), "w") as f:
        f.write("variant n cka_median cka_iqr cka_centered_median "
                "cka_centered_iqr r2_median r2_iqr\n")
        for row in summary:
            f.write(row[0] + " " + str(row[1]) + " "
                    + " ".join(f"{v:.6f}" for v in row[2:]) + "\n")
        for name, err in failures:
            f.write(f"# failed {name}: {err}\n")
    return summary, failures


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _runs_for(cfg, out, variant, seeds):
    return [os.path.join(out, "runs",
                         run_name(variant, seed, cfg.lambda_bev, cfg.lambda_bev))
            for seed in seeds]


def _mean_eval(run_dirs, roi):
    """Averages eval_<roi>.txt cells over runs; returns (cells, class_means,
    map). Raises FileNotFoundError naming the first missing file."""
    acc_cells, acc_cls, acc_map = None, None, []
    for rdir in run_dirs:
        cells, class_means, map_value = read_eval_file(
            os.path.join(rdir, f"eval_{roi}.txt"))
        if acc_cells is None:
            acc_cells = {k: [] for k in cells}
            acc_cls = {k: [] for k in class_means}
        for k, v in cells.items():
            acc_cells[k].append(v)
        for k, v in class_means.items():
            acc_cls[k].append(v)
        acc_map.append(map_value)
    return ({k: float(np.mean(v)) for k, v in acc_cells.items()},
            {k: float(np.mean(v)) for k, v in acc_cls.items()},
            float(np.mean(acc_map)))


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
        for label, (cells, cls_means, map_value) in (("baseline", base),
                                                     (cfg.variant, cvs)):
            row = [label] + [f"{cls_means[c]:.6f}" for c in CLASS_NAMES]
            row.append(f"{map_value:.6f}")
            lines.append("| " + " | ".join(row) + " |")
        delta = [f"{cvs[1][c] - base[1][c]:+.6f}" for c in CLASS_NAMES]
        lines.append("| delta | " + " | ".join(delta)
                     + f" | {cvs[2] - base[2]:+.6f} |")
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
                   "similarity", ("variant", "n", "CKA median", "IQR", "centered CKA median",
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
    runs = {"baseline": os.path.join(out, "runs", f"baseline_seed{seed}"),
            cfg.variant: os.path.join(out, "runs",
                                      run_name(cfg.variant, seed,
                                               cfg.lambda_bev, cfg.lambda_bev))}
    for rdir in runs.values():
        if not os.path.exists(os.path.join(rdir, "checkpoint", "manifest.txt")):
            return None
    train, val = load_splits(cfg, out)
    teacher, _ = ensure_teacher(cfg, out, train, val)
    grid, rig = cfg.grid(), cfg.rig()
    scene = val[0]
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

"""The bevlab benchmark: one command for the train, eval and infer workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` a run sets the workload up several times (setup_s is
the median), repeats its timed pass until ``--seconds`` are spent, checks
the outputs and prints the end-to-end metrics, scaled to a reference
machine speed by the probes of ``clock.py``. With ``--trace 1`` it sets
up once with the span tracer installed, then alternates traced passes
with untraced ones (every wrapped name restored before each untraced
pass) and prints the per-layer metrics with the tracing overhead.
``--workload all`` runs every workload both ways in child processes and
prints the study-named metrics of each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(environment, config, named metrics, checksums, digests, failed checks)
goes to ``.perfbench_results/`` and the spans of a traced run next to it.
"""

import os

# pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results")
NAMES = ("train", "eval", "infer")
SETUP_REPEATS = 3


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else math.nan


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(cfg):
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": git_sha(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "python": sys.version.split()[0], "config": cfg.dump()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(wl, state, seconds, ctx):
    """Passes until ``seconds`` have gone by, at least one, each between
    two probes; sets each pass's speed from the probes around it."""
    passes = []
    t0 = ctx.clock.now()
    while not passes or ctx.clock.now() - t0 < seconds:
        ctx.clock.probe()
        passes.append(wl.run_pass(state, ctx))
    ctx.clock.probe()
    for p in passes:
        p.speed = ctx.clock.speed(p.start, p.end)
    return passes


def check_same(checks, what, values):
    checks.expect(len(set(values)) <= 1, f"{what} differ between passes or set-ups")


def scaled_items(passes, key=None):
    """Item times of all passes (or the ``key`` list of their extras), each
    scaled by the speed of its pass."""
    return [v * p.speed for p in passes
            for v in (p.items_ms if key is None else p.extra[key])]


def named_metrics(name, setup_s, passes, peak):
    """The metrics in the vocabulary of the study, for one workload."""
    m = {"setup_s": (setup_s, "s")}
    items = scaled_items(passes)
    walls = [p.wall_s * p.speed for p in passes]
    if name == "train":
        teacher = scaled_items(passes, "teacher_step_ms")
        m["train_wall_s"] = (statistics.median(walls), "s")
        m["student_step_ms.p50"] = (_percentile(items, 50), "ms")
        m["student_step_ms.p90"] = (_percentile(items, 90), "ms")
        m["teacher_step_ms.p50"] = (_percentile(teacher, 50), "ms")
        m["teacher_step_ms.p90"] = (_percentile(teacher, 90), "ms")
        m["loss_end"] = (statistics.median(p.extra["loss_end"] for p in passes), "loss")
    elif name == "eval":
        scenes = sum(p.attempted - p.failed for p in passes)
        m["eval_scenes_per_s"] = (scenes / sum(walls), "1/s")
    else:
        m["infer_scene_ms.p50"] = (_percentile(items, 50), "ms")
        m["infer_scene_ms.p90"] = (_percentile(items, 90), "ms")
        m["similarity_scenes_per_s"] = (statistics.median(
            p.attempted / (p.extra["similarity_s"] * p.speed) for p in passes), "1/s")
    attempted = sum(p.attempted for p in passes)
    m["peak_rss_mb"] = (peak, "MB")
    m["error_rate"] = (sum(p.failed for p in passes) / attempted, "ratio")
    return m


def measure(wl, args, ctx, work, record):
    """The untraced run: end-to-end metrics, scaled to the reference speed."""
    clock, checks = ctx.clock, ctx.checks
    setup_raw, setup_s, sums = [], [], []
    clock.probe()
    for k in range(SETUP_REPEATS):
        t0 = clock.now()
        state = wl.setup(os.path.join(work, f"setup{k}"))
        t1 = clock.now()
        clock.probe()
        setup_raw.append(t1 - t0)
        setup_s.append((t1 - t0) * clock.speed(t0, t1))
        sums.append("\n".join(wl.inspect_setup(state, checks)))
    check_same(checks, "set-up checksums", sums)
    passes = timed_passes(wl, state, args.seconds, ctx)
    wl.final_checks(state, checks)
    check_same(checks, "pass digests", [p.digest for p in passes])
    items = scaled_items(passes)
    peak = peak_rss_mb()
    metrics = {"setup_s": (statistics.median(setup_s), "s"),
               "wall_s": (statistics.median(p.wall_s * p.speed for p in passes), "s"),
               "item_ms.p50": (_percentile(items, 50), "ms"),
               "item_ms.p90": (_percentile(items, 90), "ms"),
               "peak_rss_mb": (peak, "MB")}
    record["named"] = {k: {"value": v, "unit": u} for k, (v, u) in
                       named_metrics(wl.name, metrics["setup_s"][0], passes, peak).items()}
    probes = [d for _, d in clock.readings]
    record["raw"] = {"setup_s": setup_raw, "pass_walls_s": [p.wall_s for p in passes],
                     "item_ms.p50": _percentile([v for p in passes for v in p.items_ms], 50)}
    record["speed"] = {"passes": [p.speed for p in passes], "probes": len(probes),
                       "probe_median_s": statistics.median(probes)}
    record["items"] = len(items)
    record["checksums"] = sums[-1].splitlines() + passes[0].extra.get("checksums", [])
    record["digest"] = passes[0].digest
    return passes, metrics


def trace(wl, args, ctx, work, record):
    """The traced run: per-layer metrics and the tracing overhead, in raw
    time; the clock does not probe here, so spans hold no probe time."""
    from layers import UNITS, per_layer
    from tracer import Tracer
    from workloads import implied_conv_calls

    checks = ctx.checks
    tracer = Tracer()
    with tracer.installed():
        state = wl.setup(os.path.join(work, "setup0"))
    tracer.phase = "pass"
    # traced and untraced passes alternate, so drift in machine speed
    # does not land on one side of the overhead
    traced, untraced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        with tracer.installed():
            ctx.tracer = tracer
            traced.append(wl.run_pass(state, ctx))
        ctx.tracer = None
        untraced.append(wl.run_pass(state, ctx))
    check_same(checks, "pass digests (traced and untraced)",
               [p.digest for p in traced + untraced])
    for name in tracer.missing:
        print(f"missing: {name} no longer exists; its metrics are left out",
              file=sys.stderr)
    record["missing"] = list(tracer.missing)

    steps = {phase: tracer.steps[(phase, "teacher")] + tracer.steps[(phase, "student")]
             for phase in ("setup", "pass")}
    for phase, want in (("setup", wl.steps_per_setup()),
                        ("pass", len(traced) * wl.steps_per_pass())):
        checks.expect(steps[phase] == want,
                      f"step marks in the traced {phase} {steps[phase]} != steps {want}")
    per_step = dict(zip(("teacher", "student"), implied_conv_calls(wl.cfg)))
    in_steps = sum(1 for n, g in zip(tracer.name, tracer.group)
                   if n == "tensors.conv2d" and isinstance(g, int))
    implied = sum(n * per_step[trainer] for (_, trainer), n in tracer.steps.items())
    checks.expect(in_steps == implied,
                  f"conv2d calls in steps {in_steps} != {implied} implied by the models")
    for layer in wl.BYPASSES:
        calls = sum(1 for n, p in zip(tracer.name, tracer.phase_of)
                    if n == layer and p == "pass")
        checks.expect(calls == 0, f"{layer} ran {calls} times in the timed part of {wl.name}")

    traced_s = statistics.median(p.wall_s for p in traced)
    plain_s = statistics.median(p.wall_s for p in untraced)
    metrics = per_layer(tracer, len(traced), 1e3 * (traced_s - plain_s),
                        100.0 * (traced_s - plain_s) / plain_s)
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-spans.csv")
    tracer.write_csv(spans)
    record["spans"] = os.path.relpath(spans, ROOT)
    record["traced_passes"] = len(traced)
    record["untraced_passes"] = len(untraced)
    record["spans_recorded"] = len(tracer.name)
    return traced + untraced, {k: (v, UNITS[k]) for k, v in metrics.items()}


def run_one(args):
    src = os.path.join(ROOT, "src")
    if not os.path.exists(os.path.join(src, "bevlab", "__init__.py")):
        print(f"error: no bevlab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from clock import Clock
    from tracer import StepMarks
    from workloads import WORKLOADS, Checks, Context

    wl = WORKLOADS[args.workload](args.seed, args.size)
    checks = Checks()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": environment(wl.cfg)}
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    clock = Clock(probing=not args.trace)
    marks = StepMarks(clock)
    marks.install()
    t0 = time.perf_counter()
    try:
        step = trace if args.trace else measure
        passes, metrics = step(wl, args, Context(clock, marks, checks), work, record)
    finally:
        marks.restore()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update(passes=len(passes), run_s=time.perf_counter() - t0,
                  checks_made=checks.made, failed_checks=checks.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed, {checks.made} checks "
          f"in {record['run_s']:.1f} s")
    for k, (v, u) in metrics.items():
        print(f"  {k:44s} {v:14.6g} {u}")
    for k, d in record.get("named", {}).items():
        print(f"  named {k:38s} {d['value']:14.6g} {d['unit']}")
    for line in record.get("checksums", []):
        print(f"  checksum {line}")
    if "digest" in record:
        print(f"  digest {record['digest']}")
    for msg in checks.failures:
        print(f"  FAILED CHECK {msg}")
    print(f"  record {os.path.relpath(path, ROOT)}")
    correct = not checks.failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process;
    exits 1 unless every run completed and was correct."""
    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode or not lines:
                print(f"{name} trace {traced}: exit code {proc.returncode}")
                code = 1
                continue
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            code |= not result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{traced}.json")
            with open(path) as f:
                record = json.load(f)
            for k, d in (record.get("named") or record["metrics"]).items():
                summary["metrics"][f"{name}.{k}"] = d
    print(json.dumps(summary))
    return code


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="bevlab benchmark")
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test only")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

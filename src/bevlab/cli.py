"""Command-line entry point.

Verbs: gen, train, ablation (with the similarity study), sweep-lambda, report.
Global flags: --config <path>, --seed <n> (train only), --out <dir>,
--jobs <n> (ablation and sweep-lambda only). A flag given with a verb that
would ignore it is an error.
Exit codes: 0 success, 1 hard failure or failed train, 2 failed sweep/ablation runs.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
says otherwise: the summation order, and with it every checksum, depends
on the BLAS thread count. The default is set before numpy is first
imported, so the forked --jobs workers inherit it. Training walks the
backward passes of each step's samples on threads of its own instead,
one per CPU the process may use, all of them in every step of two or
more samples; the --jobs processes split the CPUs between them.
Results do not depend on those threads or on --jobs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import sys  # noqa: E402

from . import harness  # noqa: E402
from .analysis import AnalysisError  # noqa: E402
from .config import ConfigError, RunConfig  # noqa: E402
from .encoders import EncoderError  # noqa: E402
from .geometry import GeometryError  # noqa: E402
from .mapeval import EvalError  # noqa: E402
from .plots import PlotError  # noqa: E402
from .scenegen import SceneGenError  # noqa: E402
from .supervision import SupervisionError  # noqa: E402
from .tensors import TensorError  # noqa: E402

# every error the package raises on bad input or a failed run; anything else
# is a bug and keeps its traceback
PACKAGE_ERRORS = (ConfigError, harness.HarnessError, OSError, TensorError, EncoderError,
                  SupervisionError, SceneGenError, EvalError, GeometryError,
                  AnalysisError, PlotError)


def build_parser():
    p = argparse.ArgumentParser(
        prog="bevlab",
        description="Cross-view supervision laboratory for BEV map construction.")
    p.add_argument("--config", metavar="PATH",
                   help="key-value config file (defaults apply when omitted)")
    p.add_argument("--seed", type=int, metavar="N",
                   help="override the run seed (train only)")
    p.add_argument("--out", default="out", metavar="DIR",
                   help="output directory (default: ./out)")
    p.add_argument("--jobs", type=int, metavar="N",
                   help="parallel training processes, sharing the CPUs (ablation "
                        "and sweep-lambda only); results do not depend on it "
                        "(default: 1)")
    sub = p.add_subparsers(dest="verb", required=True)
    sub.add_parser("gen", help="render the scene corpus")
    tr = sub.add_parser("train", help="train and evaluate one student run")
    tr.add_argument("--variant", choices=sorted(harness.VARIANTS),
                    help="override the config variant")
    sub.add_parser("ablation", help="all variants x seeds comparison and "
                                    "teacher-student similarity tables")
    sub.add_parser("sweep-lambda", help="alignment-weight sweep")
    sub.add_parser("report", help="consolidated markdown report")
    return p


def _print_failures(failures):
    for name, err in failures:
        print(f"FAILED {name}: {err}", file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.jobs is not None and args.jobs < 1:
            raise harness.HarnessError(f"--jobs must be at least 1, got {args.jobs}")
        if args.jobs is not None and args.verb not in ("ablation", "sweep-lambda"):
            raise harness.HarnessError(
                f"--jobs applies to ablation and sweep-lambda only, not {args.verb}")
        if args.seed is not None and args.verb != "train":
            raise harness.HarnessError(f"--seed applies to train only, not {args.verb}")
        jobs = args.jobs or 1
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = cfg.with_overrides(seed=args.seed)
        if getattr(args, "variant", None):
            cfg = cfg.with_overrides(variant=args.variant)
        out = args.out

        if args.verb == "gen":
            path = harness.ensure_dataset(cfg, out)
            print(f"{path}: {cfg.n_train} train + {cfg.n_val} val scenes "
                  f"(dataset hash {cfg.dataset_hash()})")
            return 0

        if args.verb == "train":
            finished, failures = harness.run_many(cfg, out, [(cfg.variant, cfg.seed, None)])
            _print_failures(failures)
            if failures:
                return 1
            (_, rec), = finished
            calls = rec.get("teacher_calls", "none (baseline)")
            print(f"{rec['run_dir']}: mAP standard {rec['map_standard']} "
                  f"extended {rec['map_extended']} "
                  f"({rec['wall_clock']}s, teacher calls {calls})")
            return 0

        if args.verb in ("ablation", "sweep-lambda"):
            lines, failures = (harness.cmd_ablation(cfg, out, jobs=jobs) if args.verb == "ablation"
                               else harness.cmd_sweep_lambda(cfg, out, jobs=jobs))
            print("\n".join(lines))
            _print_failures(failures)
            return 2 if failures else 0

        # report, the last verb the parser admits
        path, missing = harness.cmd_report(cfg, out)
        print(path)
        for item in missing:
            print(f"missing: {item}", file=sys.stderr)
        return 0
    except PACKAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

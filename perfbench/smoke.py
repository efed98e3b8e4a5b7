"""Smoke test of the benchmark itself; not part of the tier-1 suite.

    python3 perfbench/smoke.py

Runs every workload once at tiny size, untraced and traced, and fails
unless each run exits 0, passes every check, and emits every metric that
BENCHMARK.json names with the unit it names. It also checks that the
tracer reports a vanished entry point as a missing metric rather than
crashing, and that the benchmark refuses to run without the program.
The file name keeps pytest from collecting it.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMED = {"setup_s", "train_wall_s", "student_step_ms.p50", "student_step_ms.p90",
         "teacher_step_ms.p50", "teacher_step_ms.p90", "loss_end",
         "eval_scenes_per_s", "infer_scene_ms.p50", "infer_scene_ms.p90",
         "similarity_scenes_per_s", "peak_rss_mb", "error_rate"}
ALWAYS = {"setup_s", "peak_rss_mb", "error_rate"}


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def check_workloads(spec):
    named = set()
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(name, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"], proc.stdout
            assert result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: d["unit"] for k, d in result["metrics"].items()}
            assert got == want, (name, trace, set(want) ^ set(got))
            for k, d in result["metrics"].items():
                assert isinstance(d["value"], (int, float)), (k, d)
            path = os.path.join(ROOT, ".perfbench_results", f"{name}-seed3-trace{trace}.json")
            with open(path) as f:
                record = json.load(f)
            assert not record["failed_checks"]
            if not trace:
                named |= set(record["named"])
                assert ALWAYS <= set(record["named"])
            print(f"ok {name} trace {trace}: {len(got)} metrics, "
                  f"{record['checks_made']} checks")
    assert named == NAMED, named ^ NAMED


def check_missing_name_is_reported():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from bevlab import analysis, harness
    from layers import per_layer
    from tracer import Tracer

    original = analysis.r_squared
    del analysis.r_squared
    tracer = Tracer()
    try:
        with tracer.installed():
            pass
    finally:
        analysis.r_squared = original
    assert tracer.missing == ["analysis.r_squared"], tracer.missing
    assert harness.r_squared is original, "a name was left wrapped"
    metrics = per_layer(tracer, 1, 0.0, 0.0)
    assert "analysis.r_squared.ms" not in metrics and "analysis.linear_cka.ms" in metrics
    print("ok a vanished entry point is a missing metric")


def check_refuses_without_program():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run("train", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    print("ok refuses to run without the program")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_missing_name_is_reported()
    check_refuses_without_program()
    check_workloads(spec)
    print("smoke test passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark (see ftbench/README.md).

Run from the root of a checkout:

    python3 ftbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ftbench/run.py --self-test

The first form builds ftbench/ (with the simulator sources under src/)
into $CARGO_TARGET_DIR or .bench_build/, prints provenance, then runs the
benchmark binary; its last stdout line is the JSON result and its exit
code is ours. Other flags (--write-golden FILE, --perturb) pass through
to the binary. --self-test checks the benchmark against BENCHMARK.json
and checks that a perturbed result fails the correctness gate.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden" / "seed1.txt"
# A benchmark run must end within 180 s; stop well before that.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"ftbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "ftbench"


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    # Compiler temporaries stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "ftbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as err:
            fail(f"cannot run {cmd[0]}: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "ftbench"


def provenance():
    commit = ""
    # Only this tree's own repository counts, never an enclosing one.
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() if done.returncode == 0 else ""
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cpp", ".hpp") and path.is_file():
            with open(path, "rb") as f:
                lines += sum(1 for _ in f)
    print(f"# provenance git_commit = {commit or 'none (not a git checkout)'}")
    print(f"# provenance src_lines = {lines}")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Run the binary to completion (killed at the timeout)."""
    try:
        return subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {timeout} s", code=3)


def with_defaults(args):
    args = list(args)
    if "--golden" not in args:
        args += ["--golden", str(GOLDEN)]
    if "--trace-out" not in args and "1" in _flag(args, "--trace"):
        workload = "".join(_flag(args, "--workload")) or "unknown"
        seed = "".join(_flag(args, "--seed")) or "1"
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    return args


def _flag(args, name):
    return [args[i + 1] for i, a in enumerate(args[:-1]) if a == name]


def main(argv):
    if argv == ["--self-test"]:
        return self_test(build())
    binary = build()
    provenance()
    sys.stdout.flush()
    done = run_binary(binary, with_defaults(argv))
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    return done.returncode


# --- self-test ------------------------------------------------------------

def check(ok, message, problems):
    if not ok:
        problems.append(message)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text())
    problems = []
    names = [w["name"] for w in manifest["workloads"]]
    metric_units = {m["name"]: m["unit"]
                    for m in manifest["end_to_end"] + manifest["per_layer"]}

    for name in names:
        entry = predictions.get(name)
        check(entry is not None, f"predictions.json lacks {name}", problems)
        for key in ("moves", "still"):
            for metric in (entry or {}).get(key, {}):
                check(metric in metric_units,
                      f"predictions.json: {name} names unknown metric "
                      f"{metric}", problems)

    for name in names:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            args = with_defaults(["--workload", name, "--seed", "1",
                                  "--seconds", "0.1", "--trace", trace])
            done = run_binary(binary, args)
            where = f"{name} --trace {trace}"
            check(done.returncode == 0, f"{where}: exit {done.returncode}",
                  problems)
            try:
                result = last_json(done.stdout)
            except json.JSONDecodeError:
                result = None
            check(isinstance(result, dict), f"{where}: no JSON result",
                  problems)
            if not isinstance(result, dict):
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  f"{where}: result keys {sorted(result)}", problems)
            check(result.get("correct") is True, f"{where}: not correct",
                  problems)
            expected = {m["name"]: m["unit"] for m in manifest[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == expected, f"{where}: metrics {got} != {expected}",
                  problems)
            for metric, unit in expected.items():
                line = re.compile(rf"^metric {re.escape(metric)} = \S+ "
                                  rf"{re.escape(unit)}\b", re.M)
                check(line.search(done.stdout) is not None,
                      f"{where}: no printed line for {metric} [{unit}]",
                      problems)

    args = with_defaults(["--workload", "saturation_16x16", "--seed", "1",
                          "--seconds", "0.1", "--trace", "0", "--perturb"])
    done = run_binary(binary, args)
    try:
        result = last_json(done.stdout)
    except json.JSONDecodeError:
        result = None
    check(done.returncode != 0, "perturbed run exited 0", problems)
    check(isinstance(result, dict) and result.get("correct") is False
          and result.get("failed", 0) > 0,
          "perturbed run passed the correctness gate", problems)

    for p in problems:
        print(f"FAIL {p}")
    print("self-test:", "ok" if not problems else f"{len(problems)} failures")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

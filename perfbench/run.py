#!/usr/bin/env python3
"""Repository benchmark: builds the simulator, generates seeded inputs, runs
one workload (or all of them) and prints every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from anywhere inside a source tree that holds src/ and perfbench/.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". Everything the benchmark
builds or writes stays inside the tree: .bench_build/ (or $CARGO_TARGET_DIR),
.bench_inputs/ and .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Input generation, and a run's set-up and reference measurements on top of
# its --seconds of passes, finish well within this many seconds.
MARGIN_S = 150


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the Release binaries; returns their dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}; run from a "
             "complete source tree")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return out


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git(*args):
    r = subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def fingerprint():
    """A hash of every source file the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def commit():
    """The git commit when the tree is a clean repository, the commit plus
    '-dirty' and the source fingerprint when it has uncommitted changes, and
    the fingerprint alone outside a repository."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = git("rev-parse", "HEAD")
        if head is not None:
            if git("status", "--porcelain") == "":
                return head
            return f"{head}-dirty-{fingerprint()}"
    return fingerprint()


def inputs(bins, seed, small):
    """Generates (or reuses) the inputs for `seed`, keyed by the generator
    binary so a rebuilt generator never reads stale inputs."""
    gen = bins / "perfbench_gen"
    key = sha256_file(gen)[:16]
    d = ROOT / ".bench_inputs" / key / (f"seed-{seed}" + ("-small" if small else ""))
    if (d / "truth.json").is_file():
        return d
    tmp = d.with_name(d.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [str(gen), "--seed", str(seed), "--out", str(tmp)] + (["--small"] if small else [])
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=MARGIN_S)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.stderr.write(r.stderr)
        fail("input generation failed", 1)
    sys.stderr.write(r.stdout)
    if d.exists():  # another run finished first
        shutil.rmtree(tmp, ignore_errors=True)
    else:
        tmp.rename(d)
    return d


def run_workload(bins, workload, seed, seconds, trace, small=False, echo=True):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    d = inputs(bins, seed, small)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(bins / "perfbench_run"), "--workload", workload,
           "--inputs", str(d), "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit(),
           "--spans", str(out_dir / f"spans-{workload}-seed{seed}.json")]
    timeout = seconds + MARGIN_S
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout} s", 1)
    lines = r.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None and r.returncode == 0:
        fail(f"{workload} printed no result", 1)
    return r.returncode, lines, result


def run_all(bins, seed, seconds, trace):
    """Every workload in turn; one combined result, metrics named
    <workload>/<metric>."""
    code, attempted, failed, metrics = 0, 0, 0, {}
    for w in spec()["workloads"]:
        print(f"== {w['name']}: {w['why']}")
        rc, _, res = run_workload(bins, w["name"], seed, seconds, trace)
        code = code or rc
        if res is None:
            code = code or 1
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            metrics[f"{w['name']}/{k}"] = v
    print(json.dumps({"correct": code == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return code


def digest(lines):
    for line in lines:
        if line.startswith("digest "):
            return json.loads(line[len("digest "):])
    return None


# Per-layer counts that are simulated, not timed: they must repeat exactly.
DETERMINISTIC = ["sim.events_per_msg", "fullsys.l2_requests",
                 "fullsys.mc_queue_wait_cycles", "enoc.flit_hops", "enoc.sa_grants",
                 "trace.deps_per_msg", "tracestore.bytes_per_msg", "core.iterations",
                 "core.residual", "core.naive_runtime_err_pct", "onoc.arb_wait_cycles",
                 "onoc.transmissions", "analytic.est_err_pct"]


def selftest(bins):
    """Reduced-size check of the benchmark itself: every metric is emitted
    with its declared unit, output checks pass, and simulated values and
    accuracies repeat exactly across runs and between traced and untraced
    runs."""
    s = spec()
    problems = []
    for w in s["workloads"]:
        name = w["name"]
        runs = {}
        for trace in (0, 1):
            for rep in (0, 1):
                rc, lines, res = run_workload(bins, name, 1, 1, trace, small=True,
                                              echo=False)
                if rc != 0 or res is None or not res["correct"]:
                    problems.append(f"{name} trace={trace}: exit {rc}, result {res}")
                    continue
                runs[(trace, rep)] = (res, digest(lines))
        if len(runs) != 4:
            continue
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[key]}
            for rep in (0, 1):
                got = {k: v["unit"] for k, v in runs[(trace, rep)][0]["metrics"].items()}
                if got != want:
                    problems.append(f"{name} trace={trace}: metrics/units {got} != {want}")
        digests = [runs[k][1] for k in sorted(runs)]
        if any(d != digests[0] for d in digests):
            problems.append(f"{name}: simulated values differ across runs: {digests}")
        for acc in ("runtime_acc", "latency_acc", "pick_acc"):
            a, b = (runs[(0, r)][0]["metrics"][acc]["value"] for r in (0, 1))
            if a != b:
                problems.append(f"{name}: {acc} {a} != {b}")
        for m in DETERMINISTIC:
            a, b = (runs[(1, r)][0]["metrics"][m]["value"] for r in (0, 1))
            if a != b:
                problems.append(f"{name}: {m} {a} != {b}")
        print(f"selftest {name}: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"selftest problem: {p}")
    ok = not problems
    print(json.dumps({"correct": ok, "attempted": 4 * len(s["workloads"]),
                      "failed": len(problems), "metrics": {}}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        fail(f"{ROOT} is not a complete source tree (needs src/ and BENCHMARK.json)")
    bins = build()
    if a.selftest:
        return selftest(bins)
    if not a.workload:
        ap.error("--workload is required")
    seconds = a.seconds if a.seconds is not None else spec()["run_seconds"]
    if a.workload == "all":
        return run_all(bins, a.seed, seconds, a.trace)
    names = [w["name"] for w in spec()["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload '{a.workload}' (known: {', '.join(names)})")
    rc, lines, _ = run_workload(bins, a.workload, a.seed, seconds, a.trace)
    if lines:
        print(lines[-1])
    return rc


if __name__ == "__main__":
    sys.exit(main())

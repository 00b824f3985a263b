"""koszulator benchmark: drives the CLI the way a user does.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all        # every workload, untraced and traced

Run it from the root of a koszulator source tree.  Each command of the
workload is one fresh Python process that runs `koszulator.cli.main`, as the
`koszulator` script does (through bench/launch.py, which records the
process's peak resident set), one at a time, with PYTHONPATH=src and
KOSZULATOR_THREADS unset.  A pass runs every command
once; whole passes repeat until --seconds of commands have been timed.
Outputs are checked after each pass, outside the timed region.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics (medians over passes).  With --trace 1 each command runs
twice back to back, once plainly and once under bench/tracer.py, and the
JSON holds the per-layer metrics and the tracing overhead (traced wall time
minus untraced wall time).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# set-up probes per ring, run half before and half after the passes: the
# machine's speed drifts, and numpy's import is fast or slow depending on
# whether OpenBLAS finds a second CPU free to start its threads on
SETUP_REPEATS = 6
DEADLINE_S = 170.0  # a command still running this long after the run began is killed
# wall_s is recorded and printed but is not an end-to-end metric: steal time on
# a shared VM spreads it as widely as the largest bound allowed (README, Spread)
END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
PROBE = (
    "import sys\n"
    "import koszulator.cli\n"
    "from koszulator.koszul import build_koszul, cycles_from_generators\n"
    "from koszulator.polyring import load_ring_file\n"
    "cycles_from_generators(build_koszul(load_ring_file(sys.argv[1])))\n"
)


def per_layer_units():
    units = {}
    for name in [*tracer.METRICS, "trace.wall_s", "trace.overhead_s"]:
        if name.endswith(("_s", ".s")):
            units[name] = "s"
        elif name.endswith("_cells"):
            units[name] = "cells"
        elif name.endswith("bytes"):
            units[name] = "B"
        else:
            units[name] = "count"
    return units


class Runner:
    """Starts the program's processes and measures each one."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("KOSZULATOR_THREADS", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env

    def spawn(self, argv, tag: str):
        """Run argv to completion; returns (exit code, wall s, cpu s, stdout)."""
        out_path = os.path.join(self.work, tag + ".out")
        err_path = os.path.join(self.work, tag + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, stdout

    def setup_times(self, rings, times, repeats: int) -> None:
        """Append to times[ring] the wall times of `repeats` fresh processes per
        ring that import koszulator, load the ring, build K and extract and
        validate the cycles."""
        for _ in range(repeats):
            for r in rings:
                rc, wall, *_ = self.spawn([sys.executable, "-c", PROBE, r], "setup")
                if rc != 0:
                    raise checks.CheckError(f"set-up probe failed on {r} with exit {rc}")
                times[r].append(wall)


def run_round(runner: Runner, cmds, rings, trace: bool):
    """Run every command once, or with `trace` once untraced and once traced,
    back to back, alternating which goes first.  Returns a pass record per
    mode ({False: untraced, True: traced}) and the failures."""
    modes = (False, True) if trace else (False,)
    recs = {m: {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mib": 0.0, "layers": {}} for m in modes}
    zeta_hom = {m: [] for m in modes}
    failures = []
    for idx, cmd in enumerate(cmds):
        for traced in (modes if idx % 2 == 0 else modes[::-1]):
            rec = recs[traced]
            if cmd.out_dir:
                shutil.rmtree(cmd.out_dir, ignore_errors=True)
            spans = os.path.join(runner.work, cmd.name + ".spans.json")
            peak = os.path.join(runner.work, cmd.name + ".peak")
            launcher = [os.path.join(HERE, "tracer.py"), spans] if traced else [
                os.path.join(HERE, "launch.py"), peak]
            rc, wall, cpu, stdout = runner.spawn([sys.executable, *launcher, *cmd.argv()],
                                                 cmd.name)
            rec["wall_s"] += wall
            rec["cpu_s"] += cpu
            try:
                checks.check_command(cmd, rc, stdout, rings[cmd.ring])
                if cmd.kind == "zeta-hom":
                    zeta_hom[traced].append((rings[cmd.ring].codepth, stdout))
                if traced:
                    with open(spans, encoding="utf-8") as fh:
                        data = json.load(fh)
                    for k, v in data["metrics"].items():
                        rec["layers"][k] = rec["layers"].get(k, 0) + v
                    if data["missing"]:
                        print(f"warning: {cmd.name}: functions not found, their metrics "
                              f"read 0: {data['missing']}", file=sys.stderr)
                else:
                    with open(peak, encoding="ascii") as fh:
                        rss = int(fh.read()) / 1024.0
                    rec["peak_rss_mib"] = max(rec["peak_rss_mib"], rss)
            except (checks.CheckError, ValueError, KeyError, OSError) as exc:
                failures.append(f"{cmd.name}{' (traced)' if traced else ''}: {exc}")
    for outputs in zeta_hom.values():
        if outputs:
            try:
                checks.check_ring_independent(outputs)
            except checks.CheckError as exc:
                failures.append(f"zeta --homology-level: {exc}")
    return recs, failures


def source_commit(root: str) -> str:
    """HEAD of the source tree's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns the result object and the median untraced
    pass wall time."""
    work = os.path.join(root, ".bench_build", "koszulator", f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work, time.monotonic() + DEADLINE_S)
    cmds = workloads.build(name, work, seed)
    paths = sorted({c.ring for c in cmds})
    rings = {p: checks.Ring(p) for p in paths}

    setup = {r: [] for r in paths}
    if not trace:
        runner.setup_times(paths, setup, SETUP_REPEATS // 2)
    plain, traced, failures = [], [], []
    attempted = 0
    timed = 0.0
    while True:
        recs, bad = run_round(runner, cmds, rings, trace)
        plain.append(recs[False])
        if trace:
            traced.append(recs[True])
        attempted += len(cmds) * len(recs)
        failures += bad
        timed += sum(r["wall_s"] for r in recs.values())
        if timed >= seconds:
            break
    if not trace:
        runner.setup_times(paths, setup, SETUP_REPEATS - SETUP_REPEATS // 2)

    if trace:
        units = per_layer_units()
        values = {k: statistics.median(r["layers"].get(k, 0) for r in traced)
                  for k in tracer.METRICS}
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            r["wall_s"] for r in plain)
    else:
        units = END_TO_END
        values = {k: statistics.median(r[k] for r in plain) for k in ("cpu_s", "peak_rss_mib")}
        values["setup_s"] = sum(statistics.median(t) for t in setup.values())
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": source_commit(root), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "nproc": os.cpu_count(),
        "commands": [["koszulator"] + c.argv() for c in cmds],
        "setup_samples": setup, "passes": plain, "traced_passes": traced,
        "failures": failures, "result": result,
    }
    with open(os.path.join(work, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    return result, statistics.median(r["wall_s"] for r in plain)


def print_metrics(name: str, result: dict, wall: float) -> None:
    print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    for k, m in result["metrics"].items():
        print(f"  {k:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'wall_s of an untraced pass':32s} {wall:14.6g} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "koszulator", "cli.py")):
        print("bench/run.py: no src/koszulator/cli.py here; run it from the root "
              "of a koszulator source tree", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, wall = run_workload(root, args.workload, args.seed, args.seconds,
                                    bool(args.trace))
        print_metrics(args.workload, result, wall)
        print(json.dumps(result))
        return 0
    every = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, wall = run_workload(root, name, args.seed, args.seconds, trace)
            print_metrics(f"{name} (trace {int(trace)})", result, wall)
            every[f"{name}/trace{int(trace)}"] = result
    print(json.dumps(every))
    return 0 if all(r["correct"] for r in every.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

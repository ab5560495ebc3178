"""beamcap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45   # table of every workload

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json for ``--trace 0`` and its per-layer metrics for
``--trace 1``.  The full record (provenance, every command's stdout sha256,
tail percentile, per-layer self times) goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``; spans of a
traced run go next to the run's configs under ``.perfbench/runs/``.

Stdlib only: the workload itself runs in a child process (``driver.py``), so
this process's start-up and memory stay out of the figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
DRIVER_TIMEOUT_S = 150


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def setup_seconds(configs: list[str]) -> float:
    """Fresh interpreter to ready: process start until the probe has imported and loaded."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "setup_probe.py"), *configs],
                          cwd=ROOT, env=_env(), stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def importtime() -> dict:
    """Cumulative import time of beamcap and of scipy within it, from -X importtime [s]."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import beamcap.cli"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
                          check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    beamcap_us = scipy_us = 0
    for i, (depth, name, cum) in enumerate(entries):
        # -X importtime lists children before their parent, one indent deeper
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), None)
        if depth == 0 and name.split(".")[0] == "beamcap":
            beamcap_us += cum
        if name.split(".")[0] == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
            scipy_us += cum
    return {"startup.import_s": beamcap_us / 1e6, "startup.scipy_import_s": scipy_us / 1e6}


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured even outside git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "beamcap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_one(args, spec) -> int:
    workdir = os.path.join(OUT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), None),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(), "git_commit": git_commit(),
        "source_sha256": source_digest(), "started_unix": time.time(),
    }
    log_path = os.path.join(workdir, "driver.log")
    with open(log_path, "w") as log:
        # own session, so a timeout also reaches the driver's pool workers
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "driver.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir],
            cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-3000:])
        print(f"perfbench: driver exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(workdir, "driver.json")) as fh:
        driver = json.load(fh)
    provenance["versions"] = driver["versions"]

    values = dict(driver["metrics"])
    if args.trace:
        runs = [importtime() for _ in range(IMPORTTIME_PROBES)]
        for key in runs[0]:
            values[key] = statistics.median(r[key] for r in runs)
        wanted = spec["per_layer"]
    else:
        setups = [setup_seconds(driver["configs"]) for _ in range(SETUP_PROBES)]
        values["setup_s"] = min(setups)             # best of N, as for the timed pass
        values["peak_rss_mb"] = driver["peak_rss_mb"]
        driver["extra"]["setup_samples_s"] = setups
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {m['name']} not measured ({value})", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    failures = driver["failures"]
    attempted, failed = driver["attempted"], driver["failed"]
    result = {"correct": failed == 0 and not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, fail_frac=failed / attempted, failures=failures, provenance=provenance,
                  peak_rss_mb=driver["peak_rss_mb"], extra=driver["extra"],
                  commands=driver["commands"])
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record_path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {driver['versions']['python']}  nproc {provenance['nproc']}  "
          f"load {provenance['loadavg_at_start'][0]:.2f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    extra = driver["extra"]
    if "passes" in extra:
        print(f"  best of {extra['passes']} passes of {extra['commands_per_pass']} commands")
    if "arrivals_per_s" in extra:
        print(f"  {'arrivals_per_s':40s} {extra['arrivals_per_s']:14.6g} 1/s")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    for f in failures[:20]:
        print(f"  FAIL {f}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, spec) -> int:
    """Every workload in turn (a child run each), then one table of every end-to-end metric."""
    names = [m["name"] for m in spec["end_to_end"]] + ["arrivals_per_s", "fail_frac"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"arrivals_per_s": "1/s",
                                                                  "fail_frac": "ratio"}
    table, status = {}, 0
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        with open(os.path.join(OUT, "results", f"{w}-seed{args.seed}-trace{args.trace}.json")) as fh:
            rec = json.load(fh)
        status |= not rec["correct"]
        row = {k: v["value"] for k, v in rec["metrics"].items()}
        row["fail_frac"] = rec["fail_frac"]
        if "arrivals_per_s" in rec["extra"]:
            row["arrivals_per_s"] = rec["extra"]["arrivals_per_s"]
        table[w] = row
    if not args.trace:
        print()
        print(f"{'metric':16s} {'unit':6s}" + "".join(f"{w:>14s}" for w in table))
        for name in names:
            cells = "".join(f"{table[w][name]:14.6g}" if name in table[w] else f"{'n/a':>14s}"
                            for w in table)
            print(f"{name:16s} {units[name]:6s}{cells}")
    return status


def main() -> int:
    p = argparse.ArgumentParser(description="beamcap benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "beamcap", "cli.py")):
        print(f"perfbench: no beamcap sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = _spec()
    return (run_all if args.workload == "all" else run_one)(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""fracflow benchmark: end-to-end runs of the CLI and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --record-reference        # rewrite reference.json

Run from anywhere inside a checkout; the package is taken from ``src/``.

``--trace 0`` (end to end).  Set-up is timed first: one warm-up and then
SETUP_REPEATS fresh processes that import fracflow, load the workload's
config and build its operator context.  Then a closed loop with one client
runs ``python -m fracflow <scenario>`` one process at a time, each starting
after the last exits, until S seconds have passed.  Wall time, CPU time and
peak RSS come from ``os.wait4`` on each process.  Medians are reported.

``--trace 1`` (per layer).  In this process: untraced runs of the scenario
through ``fracflow.cli.main`` for S seconds, then one run with every layer
wrapped (see tracer.py).  The spans go to ``.perfbench-out/``.

Every run is checked (exit status, verdicts, reference scalars).  The last
line of output is one JSON object: correct, attempted, failed, metrics.
Scratch files live in a temporary directory in the checkout, removed on exit.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

import workloads as wl
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_REPEATS = 5
RUN_TIMEOUT_S = 150

SETUP_SNIPPET = """\
import sys
import fracflow
from fracflow.config import build_domain, build_field, build_grid_from, load_config
cfg = load_config(sys.argv[1])
domain = build_domain(cfg)
fracflow.build_context(
    build_grid_from(cfg, domain),
    build_field(cfg, domain),
    sample_resolution=cfg.validation.resolution,
)
"""


@dataclass
class Sample:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env():
    env = dict(os.environ)
    env.pop("FRACFLOW_OUT", None)  # it would override --out
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, log_path, cwd):
    """Run one process to exit; wall from launch to reaping, rusage of it."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=cwd, env=child_env())
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
    )


def scenario_argv(workload, seed, cfg_path, out_dir):
    return [sys.executable, "-m", "fracflow"] + wl.program_args(workload, seed, cfg_path, out_dir)


def write_config(workload, seed, work):
    path = os.path.join(work, "%s-%d.cfg" % (workload.name, seed))
    with open(path, "w") as fh:
        fh.write(wl.config_text(workload, seed))
    return path


def read(path):
    with open(path) as fh:
        return fh.read()


def report_problems(label, problems):
    for p in problems:
        print("FAILED %s: %s" % (label, p), file=sys.stderr)


# --- end to end -----------------------------------------------------------------


def end_to_end(workload, seed, seconds, work, reference):
    cfg_path = write_config(workload, seed, work)
    attempted = failed = 0
    setup = []
    for k in range(1 + SETUP_REPEATS):  # the first fills bytecode and file caches
        s = spawn([sys.executable, "-c", SETUP_SNIPPET, cfg_path], os.path.join(work, "setup.log"), work)
        attempted += 1
        if s.exit_code != 0:
            failed += 1
            report_problems("setup %d" % k, [read(os.path.join(work, "setup.log"))])
        if k:
            setup.append(s.wall_s)
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        out_dir = os.path.join(work, "run-%d" % len(runs))
        log = out_dir + ".log"
        s = spawn(scenario_argv(workload, seed, cfg_path, out_dir), log, work)
        problems = wl.check_run(workload, seed, s.exit_code, read(log), out_dir, reference)
        attempted += 1
        if problems:
            failed += 1
            report_problems("run %d" % len(runs), problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        runs.append(s)
        if time.perf_counter() >= deadline:
            break
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setup),
    }
    counts = {"wall_s": len(runs), "cpu_s": len(runs), "peak_rss_mb": len(runs), "setup_s": len(setup)}
    return attempted, failed, metrics, counts


# --- traced -----------------------------------------------------------------------


def import_fracflow():
    sys.path.insert(0, SRC)
    import fracflow
    import fracflow.cli

    if not os.path.abspath(fracflow.__file__).startswith(SRC + os.sep):
        raise SystemExit("fracflow was imported from %s, not %s" % (fracflow.__file__, SRC))
    return fracflow.cli


def traced(workload, seed, seconds, work, reference):
    cli = import_fracflow()
    cfg_path = write_config(workload, seed, work)
    attempted = failed = 0

    def once(k):
        nonlocal attempted, failed
        out_dir = os.path.join(work, "run-%d" % k)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(wl.program_args(workload, seed, cfg_path, out_dir))
        except Exception:  # a crash is a failed run, reported with its traceback
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        problems = wl.check_run(workload, seed, code, buf.getvalue(), out_dir, reference)
        attempted += 1
        if problems:
            failed += 1
            report_problems("run %d" % k, problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall

    untraced = []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        untraced.append(once(len(untraced)))
    tracer = Tracer()
    with tracer.installed():
        wall = once(len(untraced))
    metrics = tracer.layer_metrics(overhead_s=wall - statistics.median(untraced))
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json" % (workload.name, seed))
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "environment": environment(),
                "traced_wall_s": wall,
                "untraced_wall_s": untraced,
                "metrics": metrics,
                "spans": tracer.spans,
            },
            fh,
        )
    print("trace written to %s (%d spans)" % (os.path.relpath(path, ROOT), len(tracer.spans)))
    return attempted, failed, metrics, {}


# --- environment and output ----------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = "%s %s" % (info.get("name"), info.get("version"))
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def environment():
    blas, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": threads,
    }


def result(units, attempted, failed, values, counts):
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit("benchmark produced no value for %s" % ", ".join(missing))
    for name, unit in units.items():
        n = counts.get(name)
        print("%-48s %-22r %s%s" % (name, values[name], unit, "  (median of %d)" % n if n else ""))
    print("failed_frac %r (%d of %d runs)" % (failed / attempted, failed, attempted))
    print("env %s" % json.dumps(environment(), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_workload(workload, seed, seconds, trace, spec, reference):
    work = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        if trace:
            out = traced(workload, seed, seconds, work, reference)
        else:
            out = end_to_end(workload, seed, seconds, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    print("== %s seed=%d seconds=%d trace=%d" % (workload.name, seed, seconds, trace))
    return result(units, *out)


def record_reference():
    """Run every workload variant once and store its key scalars."""
    reference = {}
    work = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        for workload in wl.WORKLOADS.values():
            reference[workload.name] = {}
            for v in range(wl.VARIANTS):
                cfg_path = write_config(workload, v, work)
                out_dir = os.path.join(work, "ref")
                s = spawn(scenario_argv(workload, v, cfg_path, out_dir), out_dir + ".log", work)
                text = read(out_dir + ".log")
                if s.exit_code != 0:
                    raise SystemExit("%s variant %d failed:\n%s" % (workload.name, v, text))
                reference[workload.name][str(v)] = wl.key_scalars(workload, text, out_dir)
                print(workload.name, v, reference[workload.name][str(v)], flush=True)
                shutil.rmtree(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracflow", "__init__.py")):
        print("no fracflow package under %s" % SRC, file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    reference = wl.load_reference()
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(wl.WORKLOADS[name], args.seed, args.seconds, args.trace, spec, reference)
        print(json.dumps(results[name]), flush=True)
    if len(names) > 1:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {
                        "%s.%s" % (name, k): v for name, r in results.items() for k, v in r["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""glmdopt benchmark: one workload, one serial closed-loop client.

    python3 bench/run.py --workload factorial_lift --seed 12 --seconds 10 --trace 0

The package is imported from the checkout's ``src`` directory, never from
an installed copy.  ``--trace 0`` reports the end-to-end metrics of an
untraced run; ``--trace 1`` spends half of ``--seconds`` untraced and half
traced and reports the per-layer metrics plus the tracing overhead, and
writes its spans to ``bench/.out/``.  Every metric is printed as
"name value unit"; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
WORKLOAD_NAMES = ("cli_paper", "factorial_lift", "exact_paper", "prior_mc")


@dataclass
class OpError:
    message: str


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problems and one set-up probe, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_time(cmd, ready=None):
    """Wall seconds from spawn until ``ready`` is printed (or until exit)."""
    from workloads import cli_env

    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=cli_env(), text=True)
    line = proc.stdout.readline() if ready else ""
    mark = time.perf_counter()
    _, err = proc.communicate(timeout=120)
    elapsed = (mark if ready else time.perf_counter()) - start
    if proc.returncode != 0 or (ready and line.strip() != ready):
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed, err


def host_info(args):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit or "unknown (not a git checkout)",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# -- passes and checks -----------------------------------------------------


def run_passes(ops, seconds, tracer=None, first=0):
    """Run the operation list until ``seconds`` have passed (at least once)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        number = first + len(passes)
        ctx = {"importtime": tracer is not None}
        start = time.perf_counter()
        for op in ops:
            ctx[op.name] = run_op(op, ctx, tracer, number)
        elapsed = time.perf_counter() - start
        passes.append((elapsed, ctx, tracer.end_pass() if tracer else None))
        if time.perf_counter() >= deadline:
            return passes


def run_op(op, ctx, tracer, number):
    call = op.run
    if tracer is not None:
        tracer.op = f"{number}:{op.name}"
        call = tracer.span(f"op:{op.kind}", op.run)
    try:
        return call(ctx)
    except Exception as exc:  # a failing operation is counted, and the run goes on
        return OpError(f"{type(exc).__name__}: {exc}")


def digest(obj, h):
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(obj.tobytes())
    elif is_dataclass(obj):
        for f in fields(obj):
            if f.name not in ("wall_s", "maxrss_kb", "stderr"):  # CLI timing and import trace
                digest(getattr(obj, f.name), h)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            digest(item, h)
    else:
        h.update(repr(obj).encode())
    return h


def check_passes(ops, passes):
    """Check the first pass against the references and every later pass
    (same seed) for bit-identical outputs."""
    from reference import CheckFailed

    first = passes[0][1]
    failures, quality = [], {"efficiency_lb": [], "exact_efficiency": []}
    total = hashlib.sha256()
    for op in ops:
        out = first[op.name]
        fingerprint = digest(out, hashlib.sha256()).hexdigest()
        total.update(fingerprint.encode())
        found = {}
        try:
            if isinstance(out, OpError):
                raise CheckFailed(out.message)
            op.check(out, first, found)
            reason = None
        except CheckFailed as exc:
            reason = str(exc)
        except Exception as exc:  # a check that cannot run is a failed operation
            reason = f"check raised {type(exc).__name__}: {exc}"
        for key, value in found.items():
            quality[key].append(value)
        for number, (_, ctx, _) in enumerate(passes):
            if number and digest(ctx[op.name], hashlib.sha256()).hexdigest() != fingerprint:
                failures.append({"pass": number, "op": op.name, "known_defect": "",
                                 "reason": "output differs from pass 0 with the same seed"})
            elif reason:
                failures.append({"pass": number, "op": op.name, "known_defect": op.known_defect,
                                 "reason": reason})
    return failures, quality, total.hexdigest()


def percentile_tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None, None
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# -- probes ------------------------------------------------------------------


def setup_times(args, count):
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    return [child_time(cmd, ready="ready")[0] for _ in range(count)]


def cli_layer_metrics(count, traced_calls):
    from tracing import import_times

    interpreter = [child_time([sys.executable, "-c", "pass"])[0] for _ in range(count)]
    imports = [import_times(child_time([sys.executable, "-X", "importtime", "-c",
                                        "import glmdopt.cli"])[1]) for _ in range(count)]
    imports += [import_times(res.stderr) for res in traced_calls]
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        **{f"cli.import_{pkg}_s": statistics.median(t[pkg] for t in imports)
           for pkg in ("glmdopt", "scipy", "numpy")},
    }


# -- main --------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "glmdopt" / "__init__.py").is_file():
        print(f"error: no glmdopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    spec = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = spec["default_seed"]
    if not Path(workloads.g.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: glmdopt imported from {workloads.g.__file__}", file=sys.stderr)
        return 2
    host = host_info(args)
    # one untimed call compiles the bytecode, as an installed package has it
    child_time([sys.executable, "-m", "glmdopt", "--help"])

    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        ops = spec["build"](args.seed, args.smoke, work_dir)
        if args.trace:
            metrics, passes = traced_run(args, ops, host)
        else:
            setup = setup_times(args, 1 if args.smoke else SETUP_PROBES)
            metrics, passes = plain_run(args, ops, setup)
        failures, quality, output_digest = check_passes(ops, passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(ops) * len(passes)
    failed = len(failures)
    detail = {
        "failed_ratio": (failed / attempted, "ratio", f"{failed} of {attempted} operations"),
        "passes": (len(passes), "count", ""),
    }
    if quality["exact_efficiency"]:
        detail["exact_efficiency_min"] = (min(quality["exact_efficiency"]), "ratio", "")
    if not args.trace:
        metrics["efficiency_lb_min"] = (min(quality["efficiency_lb"]), "ratio")
        if args.workload == "cli_paper":
            calls = [ctx[op.name].wall_s for _, ctx, _ in passes for op in ops
                     if isinstance(ctx[op.name], workloads.CliResult)]
            tail, pct = percentile_tail(calls)
            detail["cli_call_s_p50"] = (statistics.median(calls), "s", f"{len(calls)} calls")
            detail["cli_call_s_tail"] = (tail, "s", f"p{pct:.0f} of {len(calls)} calls" if tail
                                         else f"undefined below 11 calls ({len(calls)})")

    print(f"# host {json.dumps(host, sort_keys=True)}")
    print(f"# output digest {output_digest}")
    for failure in failures:
        tag = " [known defect]" if failure["known_defect"] else ""
        print(f"# failed pass {failure['pass']} {failure['op']}{tag}: {failure['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for name, (value, unit, note) in detail.items():
        print(f"{name} {value!r} {unit}" + (f"  # {note}" if note else ""))
    print(json.dumps({
        "correct": all(f["known_defect"] for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def setup_probe(args):
    """Import the package and build the workload's inputs, then report ready."""
    import workloads

    seed = workloads.WORKLOADS[args.workload]["default_seed"] if args.seed is None else args.seed
    work_dir = OUT / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[args.workload]["build"](seed, args.smoke, work_dir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def plain_run(args, ops, setup):
    import workloads

    passes = run_passes(ops, args.seconds)
    if args.workload == "cli_paper":
        rss_kb = max(ctx[op.name].maxrss_kb for _, ctx, _ in passes for op in ops
                     if isinstance(ctx[op.name], workloads.CliResult))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (statistics.median(p[0] for p in passes), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }, passes


def traced_run(args, ops, host):
    import workloads
    from tracing import Tracer

    plain = run_passes(ops, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(ops, args.seconds / 2, tracer, first=len(plain))
    finally:
        tracer.uninstall()
    layers = {name: statistics.median_low(p[2][name] for p in traced) for name in traced[0][2]}
    calls = [out for _, ctx, _ in traced for out in ctx.values()
             if isinstance(out, workloads.CliResult)]
    layers.update(cli_layer_metrics(1 if args.smoke else IMPORT_PROBES, calls))
    layers["trace.overhead_s"] = (statistics.median(p[0] for p in traced)
                                  - statistics.median(p[0] for p in plain))
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "host": host,
        "metrics": layers,
        "spans": tracer.dump(),
    }))
    return metrics, plain + traced


def unit_of(name):
    if name.endswith(".calls") or name in ("liftone.rounds", "liftone.polish_steps"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


if __name__ == "__main__":
    sys.exit(main())

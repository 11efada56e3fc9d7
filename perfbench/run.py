"""texcodec benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload codec-cif --seed 1 --seconds 36 --trace 0

Makes the workload's inputs from --seed (set-up, timed in short bursts
before the first operation and after each one), then runs one operation at
a time until the next one would end past --seconds, checking every
operation's outputs.  With --trace 0 it runs the program (src/texcodec) and
a frozen copy of texcodec (perfbench/refcodec) side by side in two worker
processes that take turns on the CPU in short slices (paired.py), and
reports each timing as the program's time over the copy's, times the
copy's time on the reference machine: on a host whose speed swings within
seconds, both sides then run at the same speeds.  With --trace 1 it
alternates untraced and traced program operations in this process and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  Human-readable lines go to standard output first, the
full record (machine, samples, hashes, spans) to
.perfbench_out/<workload>-seed<n>-trace<t>.json, and the last line of
standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_BURST_SECONDS = 0.1
SLOTS = ("main_rel_ms", "frame_rel_ms")
UNITS = {"main_rel_ms": "ms", "frame_rel_ms": "ms/frame"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_blas_threads():
    """One BLAS thread: on a 2-core machine the CNN trains as fast with one
    as with two, and its timings spread less.  Must run before numpy is
    imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_info():
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    if threads is None:
        threads = f"env OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    return name, threads


def git_commit():
    """HEAD of the checkout when it is a git work tree; read from the files
    so no process is started."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "texcodec").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info(args):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas, threads = blas_info()
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def high_percentile(samples):
    """Largest of p99, p95 and p90 with at least ten samples above it, or
    the maximum when there are fewer than 100 samples: never a percentile
    below p90."""
    n = len(samples)
    for p in (99, 95, 90):
        if n * (100 - p) >= 1000:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return f"p{p}", cuts[p - 1]
    return "max", max(samples)


class Stage:
    """Clock interval of one timed stage."""
    start = end = 0.0

    @property
    def seconds(self):
        return self.end - self.start


class Runner:
    """Runs one workload's ops in this process, one at a time, until the
    next would end past the deadline."""

    def __init__(self, workload, deadline, tracer=None, instrumentation=None,
                 sync=None):
        self.workload = workload
        self.deadline = deadline
        self.sync = sync  # called before each op: keeps two runners in step
        self.tracer = tracer
        self.instrumentation = instrumentation
        self.traced = False
        self.op_index = 0
        self.setups = []  # clock interval of every set-up
        self.setup_digests = set()
        self._stage_index = 0

    @contextmanager
    def stage(self):
        """Times one stage of an op; in a traced op, also installs the
        wrappers and opens the stage's root span."""
        s = Stage()
        if not self.traced:
            s.start = time.perf_counter()
            try:
                yield s
            finally:
                s.end = time.perf_counter()
            return
        self.instrumentation.install()
        try:
            with self.tracer.op(f"{self.op_index}.{self._stage_index}", s):
                s.start = time.perf_counter()
                try:
                    yield s
                finally:
                    s.end = time.perf_counter()
                    self._stage_index += 1
        finally:
            self.instrumentation.uninstall()

    def setup(self):
        """One burst of set-ups: at least one, and at least
        SETUP_BURST_SECONDS of them.  Every set-up must make the same
        inputs; the last one's are returned."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            inp = self.workload.setup()
            self.setups.append((t0, time.perf_counter()))
            self.setup_digests.add(self.workload.digest(inp))
            if time.perf_counter() - start >= SETUP_BURST_SECONDS:
                return inp

    def run(self, inp):
        """Closed loop until the next op would end past the deadline.  With
        a tracer, ops alternate untraced / traced, starting untraced.
        Gives the timings of untraced and traced ops, and the failures."""
        samples = {False: [], True: []}  # traced? -> list of op timings
        walls = {False: [], True: []}
        failed = 0
        min_ops = 2 if self.tracer else 1
        while True:
            if self.sync:
                self.sync()
            traced = self.tracer is not None and self.op_index % 2 == 1
            est = walls[traced] or walls[not traced]
            if self.op_index >= min_ops and \
                    time.perf_counter() + (est[-1] if est else 0.0) > self.deadline:
                break
            t0 = time.perf_counter()
            self.traced, self._stage_index = traced, 0
            try:
                samples[traced].append(self.workload.op(inp, self.stage))
            except Exception:  # any failure of one op is counted, not fatal
                failed += 1
                print(f"op {self.op_index} ({self.workload.lib.name}) failed:",
                      file=sys.stderr)
                traceback.print_exc()
            self.traced = False
            self.setup()  # spreads set-up samples over the run
            # Collect the op's garbage now, outside any timing, rather than
            # inside a timed stage of the next op.
            gc.collect()
            walls[traced].append(time.perf_counter() - t0)
            self.op_index += 1
        return samples, failed


def run_side(args, package, deadline, finish, sync):
    """One side of a run: set-up, ops until the deadline and, if `finish`,
    the workload's cross-op checks.  Gives a JSON-ready dict."""
    import resource

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load(package))
    runner = Runner(wl, deadline, sync=sync)
    inp = runner.setup()
    samples, failed = runner.run(inp)
    problems = []
    if len(runner.setup_digests) != 1:
        problems.append(f"repeated {package} set-ups made different inputs")
    quality, info = {}, {}
    if finish:
        try:
            quality, info = wl.finish(inp)
        except Exception as exc:  # a failed cross-op check is reported
            traceback.print_exc()
            problems.append(f"final check failed: {exc}")
    return {"attempted": runner.op_index, "failed": failed,
            "problems": problems, "samples": samples[False],
            "setups": runner.setups, "quality": quality, "info": info,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def print_header(args, machine):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()
                                 if k not in ("workload", "seed", "seconds", "trace")))


def print_outputs(side):
    for name, (value, unit) in side["quality"].items():
        print(f"  {name:<26} {value:.6g} {unit}")
    for name, value in side["info"].items():
        if name.endswith("sha256"):
            print(f"  {name:<26} {value}")


def end_to_end(args, cls, machine):
    """--trace 0: the program and the frozen copy, time-sliced; the
    end-to-end metrics of the program, relative to the copy."""
    import paired

    deadline = time.perf_counter() + args.seconds
    sides, slices, problems = paired.run(
        {"program": lambda sync: run_side(args, "texcodec", deadline, True, sync),
         "reference": lambda sync: run_side(args, "refcodec", deadline, False,
                                            sync)})
    if None in sides.values():
        print_header(args, machine)
        return ({"machine": machine, "problems": problems, "slices": slices},
                {}, problems, 1, 0, False)
    prog, ref = sides["program"], sides["reference"]
    for side in sides.values():
        problems.extend(side["problems"])
    attempted, failed = prog["attempted"], prog["failed"]
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    if ref["failed"]:
        problems.append(f"{ref['failed']} ops of the frozen copy failed")

    def active_ms(name, key):
        """Per op of side `name`: ms the side was on the CPU during the
        stage in slot `key`, per unit of work."""
        return [1e3 * paired.active(slices[name], s[key][0], s[key][1])
                / s[key][2] for s in sides[name]["samples"]]

    def active_setups(name):
        return [paired.active(slices[name], a, b) for a, b in sides[name]["setups"]]

    print_header(args, machine)
    metrics_out, timings = {}, {}
    for key in SLOTS:
        name, unit, scale = cls.TIMINGS[key]
        p_ms, r_ms = active_ms("program", key), active_ms("reference", key)
        if not p_ms or not r_ms:
            metrics_out[key] = {"value": 0.0, "unit": UNITS[key]}
            problems.append(f"no completed ops for {key}")
            continue
        factor = cls.REFERENCE[key] / statistics.median(r_ms)
        rel = [v * factor for v in p_ms]
        metrics_out[key] = {"value": statistics.median(rel), "unit": UNITS[key]}
        vals = [v * scale for v in rel]
        label, hi = high_percentile(vals)
        p_med, r_med = statistics.median(p_ms), statistics.median(r_ms)
        timings[name] = {"median": statistics.median(vals), label: hi,
                         "n": len(vals), "unit": unit, "slot": key,
                         "program_cpu_ms": p_med, "reference_cpu_ms": r_med,
                         "reference_n": len(r_ms)}
        print(f"  {name:<26} median {statistics.median(vals):.6g} {unit}  "
              f"{label} {hi:.6g}  n={len(vals)}  ({key}; on-CPU medians: "
              f"program {p_med * scale:.6g}, copy {r_med * scale:.6g} "
              f"{unit}, n={len(r_ms)})")
    p_set, r_set = active_setups("program"), active_setups("reference")
    setup_s = (cls.REFERENCE["setup_s"] * statistics.median(p_set)
               / statistics.median(r_set))
    metrics_out["setup_s"] = {"value": setup_s, "unit": "s"}
    print(f"  {'setup_s':<26} median {setup_s:.6g} s  n={len(p_set)}  "
          f"(on-CPU medians: program {statistics.median(p_set):.6g} s, "
          f"copy {statistics.median(r_set):.6g} s, n={len(r_set)})")
    metrics_out["peak_rss_mb"] = {"value": prog["peak_rss_mb"], "unit": "MB"}
    print(f"  {'peak_rss_mb':<26} {prog['peak_rss_mb']:.6g} MB "
          f"(the program's worker process)")
    print(f"  {'failed_ops':<26} {failed / attempted if attempted else 0:.6g} "
          f"share ({failed} of {attempted})")
    print(f"  time slices: {len(slices['program'])} program, "
          f"{len(slices['reference'])} copy, "
          f"{paired.SLICE_SECONDS * 1e3:g} ms each")
    print_outputs(prog)
    record = {"machine": machine, "attempted": attempted, "failed": failed,
              "problems": problems, "timings": timings,
              "program": prog, "reference": ref, "slices": slices}
    return record, metrics_out, problems, attempted, failed, bool(prog["samples"])


def per_layer(args, cls, machine):
    """--trace 1: program ops only, in this process, alternating untraced
    and traced; the per-layer metrics of the traced ones."""
    import resource

    import tracing
    import workloads

    wl = cls(args.seed, workloads.load("texcodec"))
    tracer = tracing.Tracer()
    runner = Runner(wl, time.perf_counter() + args.seconds, tracer,
                    tracing.Instrumentation(tracer))
    inp = runner.setup()
    samples, failed = runner.run(inp)
    attempted = runner.op_index
    problems = []
    if len(runner.setup_digests) != 1:
        problems.append("repeated set-ups made different inputs")
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    quality, info = {}, {}
    try:
        quality, info = wl.finish(inp)
    except Exception as exc:  # a failed cross-op check is reported, not fatal
        traceback.print_exc()
        problems.append(f"final check failed: {exc}")
    untraced, traced = samples[False], samples[True]

    def wall(group):
        key = "main_rel_ms"
        return statistics.median(1e3 * (s[key][1] - s[key][0]) / s[key][2]
                                 for s in group)

    print_header(args, machine)
    print(f"  {'peak_rss_mb':<26} "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.6g} MB")
    print(f"  {'failed_ops':<26} {failed / attempted if attempted else 0:.6g} "
          f"share ({failed} of {attempted})")
    print_outputs({"quality": quality, "info": info})
    overhead = wall(traced) / wall(untraced) if traced and untraced else 0.0
    problems.extend(tracer.check())
    layers = tracing.layer_metrics(tracer, len(traced))
    layers["trace.overhead_ratio"] = (overhead, "ratio")
    layers["trace.ops"] = (float(len(traced)), "count")
    name, unit, scale = cls.TIMINGS["main_rel_ms"]
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            print(f"  {name} {label}: wall median {wall(group) * scale:.6g} "
                  f"{unit}  n={len(group)}")
    print("  per-layer (traced ops only):")
    for name, (value, unit) in layers.items():
        print(f"    {name:<40} {value:.6g} {unit}")
    shares = tracer.self_shares()
    print("  self time as a share of traced stage time:")
    for name, share in shares.items():
        if share >= 0.001:
            print(f"    {name:<40} {share:.3f}")
    checks = tracer.op_checks
    print(f"  span checks: {len(checks)} stage spans; worst "
          f"|span - sum of self times| "
          f"{max((abs(c[1] - c[2]) for c in checks), default=0.0):.3g} s; "
          f"worst span - runner's stage timing "
          f"{max((c[1] - c[3] for c in checks), default=0.0):.3g} s")
    metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    record = {"machine": machine, "attempted": attempted, "failed": failed,
              "problems": problems, "samples": untraced,
              "traced_samples": traced, "setups": runner.setups,
              "quality": quality, "info": info, "per_layer": metrics_out,
              "self_shares": shares, "op_checks": checks, "spans": tracer.spans}
    return record, metrics_out, problems, attempted, failed, bool(untraced)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "texcodec" / "__init__.py").is_file():
        print(f"perfbench: no texcodec sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    machine = machine_info(args)
    cls = workloads.WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    record, metrics_out, problems, attempted, failed, ran = measure(
        args, cls, machine)
    for p in problems:
        print(f"  PROBLEM: {p}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(f"  record: {out.relative_to(ROOT)}")

    result = {"correct": not problems and ran, "attempted": attempted,
              "failed": failed, "metrics": metrics_out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

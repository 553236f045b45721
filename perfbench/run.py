"""hanlesim benchmark: four seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

``--workload`` is one of presets, ladder, spectra, oracle, or ``all`` (each
workload in its own process, then a summary table).  With ``--trace 0`` the
last stdout line is a JSON object whose metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones.

An *op* is one user-level request of the workload (see workloads.py) and a
*pass* is the workload's fixed list of ops, drawn from the seed
(inputs.py).  A run first spawns SETUP_PROBES fresh interpreters running
probe.py (``setup_s`` is the median time from spawn until hanlesim.cli is
imported and the inputs are generated; this process has already imported
both, so the bytecode cache is written), then runs one untimed warm-up pass,
then whole passes for ``--seconds`` of wall time.  Each op's output is
checked outside its timed region.

Each op of the pass thus runs once per pass on the same input.  The timing
metrics are taken over every timed op duration of the run: ``op_s.p50`` is
their median, ``op_s.tail`` a fixed percentile (TAIL_LEVEL) and
``ops_per_s`` the number of ops run per second of their summed durations.

The host lends the benchmark a share of a machine whose speed moves by
10-20% over seconds to minutes, and moves all ops together, though not by
equal amounts.  So after every timed op the run times ``calibrate``, a fixed
mix of interpreter loops, small numpy calls and LAPACK/BLAS work that runs
no program code, and each op duration is scaled by CAL_REF_S over the median
calibration time of the CAL_WINDOW ops around it: the timing metrics are
seconds at the host speed at which ``calibrate`` takes CAL_REF_S.  A program
change leaves the calibration's work unchanged, so it moves the scaled times
as it moves the raw ones.  A change that slows the whole process rather than
its own calls (a thread left spinning, say) would slow the calibration too;
the unscaled figures, printed on their own line, show it, and the result
file keeps every op's raw time and every calibration time.

The traced run alternates untraced and traced passes until the untraced ones
have taken half of ``--seconds``.  Per-layer counts and self times are the
median over the traced passes, and the tracing overhead is the difference
of the two halves' summed op durations, per pass.

BLAS runs single-threaded: the thread variables below are set in this
process's own environment before numpy is imported, and children inherit them.
Results, spans and scratch outputs go under .bench_build/perfbench/.
"""

from __future__ import annotations

import os
import sys
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("presets", "ladder", "spectra", "oracle")
#: percentile of all op durations reported as op_s.tail, fixed per workload so
#: runs stay comparable; each sits inside the slowest op's share of a pass
#: (fig6e: 1/10, 3->4: 1/3, fig7b: 1/4), not on a boundary between ops, and
#: leaves at least 10 durations beyond it in a 24 s run
TAIL_LEVEL = {"presets": 94.0, "ladder": 80.0, "spectra": 80.0, "oracle": 85.0}
SETUP_PROBES = 5
#: calibration time that defines the reference host speed; close to the
#: median time of ``calibrate`` on the 2-vCPU x86-64 VM of the baseline
CAL_REF_S = 0.025
#: ops (centred on an op's own) whose median calibration time scales its duration
CAL_WINDOW = 3

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}
#: traced functions reported per layer as <name>.calls and <name>.self_s
LAYER_FUNCS = (
    "cli.main",
    "traceio.render_trace", "traceio.render_fit", "traceio.render_sweep",
    "traceio.render_table", "traceio.load_trace",
    "fit.fit",
    "dynamics.switched_transient", "dynamics.propagate_modal",
    "dynamics.steady_state", "dynamics.propagate_integrated",
    "spectral.sweep_modes", "spectral.eigenmodes", "spectral.observability",
    "liouvillian.build_liouvillian",
    "angular.q_matrix",
    "linalg.eig", "linalg.solve", "linalg.svd",
)
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in LAYER_FUNCS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "fit.fit.iterations": "count",
    "fit.fit.converged_frac": "1",
    "traceio.render.bytes": "bytes",
    "dynamics.propagate_integrated.steps": "count",
    "linalg.eig.n3": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import hanlesim from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import hanlesim.cli  # noqa: F401

    location = Path(sys.modules["hanlesim"].__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"hanlesim was imported from {location}, not from {SRC}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to run the workload."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)  # the clock probe.py prints
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter loops, small numpy calls and LAPACK/BLAS.

    The mix follows what the program's ops spend their time on; it calls no
    program code.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((64, 128)).view(complex)
    block = rng.standard_normal((8, 16)).view(complex)
    start = time.perf_counter()
    total = 0.0
    for i in range(35_000):
        total += i * 0.5
    np.linalg.eig(matrix)
    x = matrix
    for _ in range(50):
        x = matrix @ x * 0.01
    for _ in range(200):
        np.kron(block, block.conj()).T.copy()
    return time.perf_counter() - start


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (or git is missing).

    The ceiling keeps git from taking the commit of a repository that merely
    contains the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "hanlesim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs passes of ops, times them, checks their outputs and keeps the tallies."""

    def __init__(self, workload, ops, tracer=None):
        self.workload = workload
        self.ops = ops
        self.tracer = tracer
        self.passes_run = 0
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.max_dev_share = 0.0
        self.errors = {}  # message -> count

    def _note(self, message):
        if message not in self.errors:
            print(f"# op failed: {message}", file=sys.stderr)
        self.errors[message] = self.errors.get(message, 0) + 1

    def run_op(self, op, op_id, traced) -> float:
        from workloads import CheckFailed

        ctx = self.workload.prepare(op)
        if traced:
            self.tracer.op = op_id
            self.tracer.active = True
        error = None
        start = time.perf_counter()
        try:
            out = self.workload.run(op, ctx)
        except Exception as exc:  # a failing op is counted and the run goes on
            error = exc
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.active = False
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self._note(f"{op}: {type(error).__name__}: {error}")
            return elapsed
        try:
            self.max_dev_share = max(self.max_dev_share, self.workload.check(op, ctx, out))
        except Exception as exc:  # any check that cannot confirm the output fails the op
            self.failed += 1
            self.incorrect += 1
            detail = "" if isinstance(exc, CheckFailed) else traceback.format_exc(limit=2)
            self._note(f"{op}: incorrect output: {type(exc).__name__}: {exc}{detail}")
        return elapsed

    def run_passes(self, n_passes=None, seconds=None, traced=False, cal_s=None) -> list[list[float]]:
        """Durations per op of the pass, over ``n_passes`` passes or for ``seconds`` of wall time.

        Given a list ``cal_s``, times ``calibrate()`` after every op and appends it
        there, so that ``cal_s`` follows the ops in the order they ran.
        """
        times = [[] for _ in self.ops]
        passes = 0
        deadline = time.perf_counter() + (seconds or 0.0)
        while (passes < n_passes) if n_passes is not None else (not passes or time.perf_counter() < deadline):
            for k, op in enumerate(self.ops):
                times[k].append(self.run_op(op, (self.passes_run, k), traced))
                if cal_s is not None:
                    cal_s.append(calibrate())
            self.passes_run += 1
            passes += 1
        return times


def end_to_end(workload, runner, times, cal_s, setup) -> tuple[dict, dict]:
    import numpy as np

    half = CAL_WINDOW // 2
    local_cal = np.array([np.median(cal_s[max(0, j - half):j + half + 1]) for j in range(len(cal_s))])
    raw = np.asarray(times).T.ravel()  # in the order the ops ran, as cal_s
    scaled = raw * (CAL_REF_S / local_cal)
    level = TAIL_LEVEL[workload]
    values = {
        "setup_s": statistics.median(setup),
        "op_s.p50": float(np.median(scaled)),
        "op_s.tail": float(np.percentile(scaled, level)),
        "ops_per_s": scaled.size / float(scaled.sum()),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "ops": int(scaled.size), "passes": len(times[0]), "tail_level": level,
        "beyond_tail": int(np.sum(scaled > values["op_s.tail"])),
        "fail_frac": runner.failed / runner.attempted,
        "cal_s.p50": float(np.median(cal_s)),
        "raw_op_s.p50": float(np.median(raw)),
        "raw_op_s.tail": float(np.percentile(raw, level)),
        "raw_ops_per_s": raw.size / float(raw.sum()),
        "op_s.p50_by_op": [float(np.median(repeats)) for repeats in times],
        "setup_samples_s": setup,
        "cal_s_runs": cal_s,
        "op_s_runs": times,
    }
    return values, info


def per_layer(tracer, untraced, traced) -> tuple[dict, dict]:
    """Per-pass layer metrics: the median calls and self time over the traced passes."""
    by_pass = list(tracer.per_layer().values())
    passes = len(traced[0])
    values = {}
    for name in LAYER_FUNCS:
        entries = [layers.get(name, {"calls": 0, "self_s": 0.0}) for layers in by_pass]
        values[f"{name}.calls"] = statistics.median(e["calls"] for e in entries)
        values[f"{name}.self_s"] = statistics.median(e["self_s"] for e in entries)
    counters = tracer.counters
    fit_calls = sum(layers.get("fit.fit", {"calls": 0})["calls"] for layers in by_pass)
    values["fit.fit.iterations"] = counters["fit.fit.iterations"] / passes
    values["fit.fit.converged_frac"] = counters["fit.fit.converged"] / fit_calls if fit_calls else 0.0
    for name in ("traceio.render.bytes", "dynamics.propagate_integrated.steps", "linalg.eig.n3"):
        values[name] = counters[name] / passes
    traced_s, untraced_s = sum(map(sum, traced)), sum(map(sum, untraced))
    values["trace.overhead_s"] = (traced_s - untraced_s) / passes
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    calls = [{name: e["calls"] for name, e in layers.items()} for layers in by_pass]
    names = sorted({name for layers in by_pass for name in layers})
    info = {
        "passes": passes,
        "counts_repeat": all(c == calls[0] for c in calls),
        "all_layers": {name: {
            "calls_per_pass": statistics.median(layers.get(name, {"calls": 0})["calls"] for layers in by_pass),
            "self_s_per_pass": statistics.median(layers.get(name, {"self_s": 0.0})["self_s"]
                                                 for layers in by_pass),
        } for name in names},
    }
    return values, info


def run_workload(args) -> int:
    import tracer as tracing
    import workloads
    from inputs import make_inputs

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    ops = make_inputs(args.workload, args.seed)
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workloads.WORKLOADS[args.workload](out_dir), ops, tracer)
    try:
        runner.run_passes(n_passes=1, cal_s=[])  # warm-up: caches, lazy set-up, check references
        if not args.trace:
            cal_s = []
            times = runner.run_passes(seconds=args.seconds, cal_s=cal_s)
            values, info = end_to_end(args.workload, runner, times, cal_s, setup)
            units = END_TO_END
        else:
            # untraced and traced passes alternate, so both halves see the same machine
            untraced, traced = [[] for _ in ops], [[] for _ in ops]
            while sum(map(sum, untraced)) < args.seconds / 2:
                for k, repeats in enumerate(runner.run_passes(n_passes=1)):
                    untraced[k] += repeats
                tracer.install()
                try:
                    for k, repeats in enumerate(runner.run_passes(n_passes=1, traced=True)):
                        traced[k] += repeats
                finally:
                    tracer.uninstall()
            values, info = per_layer(tracer, untraced, traced)
            units = PER_LAYER
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                         "spans": tracer.spans}))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    env = environment(args)
    info.update(max_dev_share=runner.max_dev_share, errors=runner.errors)
    result = {
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "info": info, **result}, indent=1))

    print("# env " + json.dumps(env))
    print("# info " + json.dumps({k: v for k, v in info.items()
                                  if k not in ("all_layers", "op_s_runs", "cal_s_runs")}))
    if args.trace:
        for name, entry in info["all_layers"].items():
            print(f"# layer {name:40s} calls/pass {entry['calls_per_pass']:10.1f}"
                  f"  self_s/pass {entry['self_s_per_pass']:.6f}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} fail_frac {info['fail_frac']:.6g} 1")
        print(f"{args.workload} op_s.tail level p{info['tail_level']:g} over {info['ops']} ops,"
              f" {info['beyond_tail']} beyond it")
        print(f"{args.workload} unscaled: op_s.p50 {info['raw_op_s.p50']:.6g} s,"
              f" op_s.tail {info['raw_op_s.tail']:.6g} s, ops_per_s {info['raw_ops_per_s']:.6g} 1/s;"
              f" calibrate median {info['cal_s.p50']:.6g} s (reference {CAL_REF_S:g} s)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    results, status = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"# {workload} exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in results))
    for name, unit in units.items():
        cells = " ".join(f"{r['metrics'][name]['value']:12.6g}" for r in results.values())
        print(f"{name:44s} {unit:6s} {cells}")
    fails = " ".join(f"{w}={r['failed']}/{r['attempted']}" for w, r in results.items())
    print(f"{'fail_frac':44s} {'1':6s} {fails}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hanlesim" / "__init__.py").is_file():
        print(f"perfbench: no hanlesim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    _import_program()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""cdglab benchmark: one workload, one closed loop, one result line.

    python3 perfbench/run.py --workload {sweep,per_step,diagnose} --seed N \\
        --seconds S --trace {0,1} [--corrupt-every K]

Run from anywhere inside a cdglab checkout; cdglab is imported from the
checkout's `src/`. Each run is one process with one caller and no threads:
the next entry-point call starts only when the previous one has returned.
Inputs come from `--seed` alone (see inputs.py).

--trace 0 measures the end-to-end metrics. --trace 1 runs the same closed
loop for a third of the time, replays its inputs once untraced and once
with every layer's entry points wrapped in spans (spans.py), and reports
the per-layer metrics from the traced replay. `--corrupt-every K` spoils
the output of every K-th call before its check, to show that the checks
count it as failed.

Every output check, the reference comparison for the default seed and the
reduction-identity spot checks run on every run, outside the timed calls.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Run records and spans are written under `.perfbench_out/` in the checkout.
"""

import os

# One caller, no threads: pin the BLAS pools before numpy loads, here and
# in the set-up probes, which inherit the environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
CALIBRATION_REPEATS = 5
PROBE_TIMEOUT_S = 60
MAX_LOGGED_FAILURES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0, metavar="K")
    return parser.parse_args(argv)


def probe_setup(name: str, config_path: Path) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until its set-up is done,
    and the calibration kernel time the probe measured right after."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(config_path),
         str(CALIBRATION_REPEATS)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        kernel = proc.stdout.readline().strip()
        rc = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or rc != 0 or not kernel:
        raise SystemExit(f"error: set-up probe failed (exit {rc}, said {line!r})")
    return elapsed, float(kernel)


def measure_setup(name: str, config_path: Path) -> tuple[list[float], list[float]]:
    """Raw and calibrated set-up times of SETUP_PROBES fresh interpreters."""
    probes = [probe_setup(name, config_path) for _ in range(SETUP_PROBES)]
    return ([s for s, _ in probes],
            [s * calibrate.REFERENCE_S / k for s, k in probes])


class Loop:
    """Closed-loop calls of one workload: per-call time, items and failures.

    The calibration kernel is timed before the first call and after every
    call, so each call has a kernel time on either side.
    """

    def __init__(self, workload, corrupt_every: int):
        self.workload = workload
        self.corrupt_every = corrupt_every
        self.peak_rss_mb = 0.0
        self.inputs: list = []
        self.seconds: list[float] = []
        self.kernels: list[float] = []
        self.items = 0
        self.failures: list[str] = []

    def call(self, inp) -> None:
        wl = self.workload
        if not self.kernels:
            self.kernels.append(calibrate.kernel_seconds(wl.calibration_repeats))
        self.inputs.append(inp)
        t0 = time.perf_counter()
        try:
            raw = wl.call(inp)
            error = None
        except Exception as exc:  # a failed call is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        self.seconds.append(time.perf_counter() - t0)
        self.kernels.append(calibrate.kernel_seconds(wl.calibration_repeats))
        if len(self.inputs) <= wl.rss_calls:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if error is not None:
            self.failures.append(f"call {len(self.inputs)}: {error}")
            return
        try:
            output = wl.output(inp, raw)
            if self.corrupt_every and len(self.inputs) % self.corrupt_every == 0:
                wl.corrupt(output)
            problems = wl.check(output)
        except Exception as exc:  # an unreadable output fails its check
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"call {len(self.inputs)}: " + "; ".join(problems[:3]))
        else:
            self.items += wl.items(output)

    @property
    def calibrated(self) -> list[float]:
        return calibrate.calibrated(self.seconds, self.kernels)

    def run_for(self, seconds: float) -> "Loop":
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.call(self.workload.next_input())
        return self

    def replay(self, inputs_: list) -> "Loop":
        for inp in inputs_:
            self.call(inp)
        return self


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest of p99, p95, p90, ... with at least ten samples beyond it."""
    n = len(values)
    p = next((p for p in [99] + list(range(95, 0, -5)) if n * (100 - p) / 100 >= 10), 0)
    return p, float(np.percentile(values, p))


def environment(args) -> dict:
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        top, sha = git.stdout.split()
        sha = sha if git.returncode == 0 and Path(top).resolve() == ROOT else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        sha = None
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "not installed"
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def guarded(label: str, check) -> list[str]:
    """Problems a check reports, or the error that stopped it."""
    try:
        return check()
    except Exception as exc:  # a broken program fails the check, not the run
        return [f"{label}: {type(exc).__name__}: {exc}"]


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads.import_cdglab(ROOT)
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    wl = workloads.WORKLOADS[args.workload](out_dir, args.seed)
    config_path = inputs.write_config(out_dir / "setup_config.json", wl.setup_config())

    setup_raw, setup_s = measure_setup(args.workload, config_path)
    wl.setup(config_path)
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    problems = guarded("reference", lambda: workloads.compare(
        reference, workloads.reference_summary(wl.name, out_dir, config_path), "reference"
    ))
    problems += guarded("spot checks", lambda: workloads.spot_checks(wl, args.seed))

    record = {"environment": environment(args)}
    if args.trace:
        # The first pass picks the inputs and grows the heap; the untraced
        # and traced replays then run the same inputs from the same state,
        # each on fresh encoder caches, so their difference is the tracing.
        first = Loop(wl, args.corrupt_every).run_for(args.seconds / 3)
        wl.setup(config_path)
        untraced = Loop(wl, args.corrupt_every).replay(first.inputs)
        wl.setup(config_path)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = Loop(wl, args.corrupt_every).replay(first.inputs)
        finally:
            tracer.restore()
        loops = (first, untraced, traced)
        values, layer_self = spans.layer_metrics(
            tracer, len(traced.inputs), sum(untraced.calibrated), sum(traced.calibrated),
            speed=calibrate.REFERENCE_S / statistics.median(traced.kernels),
        )
        units = spans.PER_LAYER
        kind = "per_layer"
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        record["untraced_layers"] = tracer.untraced_layers()
        record["untraced_targets"] = tracer.missing
        record["layer_self_ms_per_call"] = layer_self
        wall = statistics.mean(traced.calibrated) * 1e3
        record["layer_share_of_call"] = {k: v / wall for k, v in layer_self.items()}
    else:
        loop = Loop(wl, args.corrupt_every).run_for(args.seconds)
        loops = (loop,)
        call_ms = [s * 1e3 for s in loop.calibrated]
        p, tail_ms = tail_percentile(call_ms)
        values = {
            "setup_s": statistics.median(setup_s),
            "items_per_s": loop.items / sum(loop.calibrated),
            "call_ms_p50": statistics.median(call_ms),
            "call_ms_tail": tail_ms,
            "peak_rss_mb": loop.peak_rss_mb,
        }
        raw_ms = [s * 1e3 for s in loop.seconds]
        record["uncalibrated"] = {
            "setup_s": statistics.median(setup_raw),
            "items_per_s": loop.items / sum(loop.seconds),
            "call_ms_p50": statistics.median(raw_ms),
            "call_ms_tail": float(np.percentile(raw_ms, p)),
        }
        units = END_TO_END_UNITS
        kind = "end_to_end"
        record["call_ms_tail_percentile"] = p
        record["setup_s_samples"] = setup_s
        record["call_ms"] = call_ms
        record["kernel_ms"] = [k * 1e3 for k in loop.kernels]

    if declared(kind) != units:
        raise SystemExit(f"error: {kind} metrics {units} do not match BENCHMARK.json")
    attempted = sum(len(lp.inputs) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    for msg in (problems + failures)[:MAX_LOGGED_FAILURES]:
        print(f"check failed: {msg}", file=sys.stderr)

    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    record.update(problems=problems, failures=failures, metrics=metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    env = record["environment"]
    print(f"cdglab benchmark  workload={wl.name}  seed={args.seed}  trace={args.trace}  "
          f"unit={wl.unit}  git={env['git_sha']}  python={env['python']}  "
          f"numpy={env['numpy']}  scipy={env['scipy']}  nproc={env['nproc']}  "
          f"blas_threads={env['blas_threads']['OPENBLAS_NUM_THREADS']}")
    uncalibrated = record.get("uncalibrated", {})
    for name, m in metrics.items():
        note = ""
        if name in uncalibrated:
            note = f"  (uncalibrated {uncalibrated[name]:.6g})"
        if name == "call_ms_tail":
            note += f"  (p{record['call_ms_tail_percentile']} of {attempted} calls)"
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'failed_ratio':32s} {len(failures) / max(attempted, 1):14.6g} "
          f"({len(failures)} of {attempted} calls)")
    if args.trace:
        print(f"  untraced layers: {', '.join(record['untraced_layers']) or 'none'}")
        for layer, share in sorted(record["layer_share_of_call"].items(), key=lambda kv: -kv[1]):
            print(f"  layer {layer:12s} self {layer_self[layer]:10.4g} ms/call  {share:7.1%}")
    print(json.dumps({
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

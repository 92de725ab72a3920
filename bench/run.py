"""Benchmark of the bayesgof command line, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  Inputs come from the seed, each CLI call goes through
``bayesgof.cli.main(argv)``, and every output is checked.  The last line of
standard output is the result: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics from a traced call.
The lines before it name the workload's metrics and record the machine,
the exit codes and the sha256 of every output.
"""

from __future__ import annotations

import os

# one compute thread per worker, so --workers 2 means two threads in all
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import signal  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 2  # extra fresh processes that only set up; with this one, 3 samples
MIN_CALLS = 3
# End-to-end times are in reference seconds: wall seconds scaled by REF_S
# over the time the reference kernel took next to them.  The kernel takes
# about REF_S on the 2-vCPU Xeon microVM the bounds were set on, whose speed
# drifts by up to 40 % from one run to the next as the host's load changes;
# the scaling cancels most of that drift, which wall times alone keep.
REF_S = 0.030
PROBE_TIMEOUT_S = 150

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_bayesgof():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import bayesgof
        import bayesgof.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import bayesgof from {SRC}: {exc}")
    if Path(bayesgof.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: bayesgof was imported from {bayesgof.__file__}, not {SRC}")
    return bayesgof


class Session:
    """Runs CLI calls, checks their outputs and counts attempts and failures."""

    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        # the robustness probe is tallied apart: it is known to fail at present,
        # and the result line's attempted and failed count measured calls only
        self.probes_attempted = 0
        self.probes_failed = 0
        self.problems: list[str] = []
        self.exit_codes: dict[str, list[int]] = {}
        self.digests: dict[str, dict[str, str]] = {}

    def outdir(self, op) -> Path:
        return self.workdir / op.name

    def run(self, op, *, probe: bool = False) -> tuple[float, bool]:
        """One call of op: (wall seconds, whether it exited and checked as expected)."""
        from workloads import CheckError, digests

        out = self.outdir(op)
        if probe:
            self.probes_attempted += 1
        else:
            self.attempted += 1
        start = time.perf_counter()
        code = self.cli.main(op.argv + ["--outdir", str(out)])  # looked up per call, so tracing applies
        elapsed = time.perf_counter() - start
        codes = self.exit_codes.setdefault(op.name, [])
        if code not in codes:
            codes.append(code)
        try:
            if code not in op.ok_codes:
                raise CheckError(f"exit code {code}")
            op.check(out, code)
            got = digests(out)
            if self.digests.setdefault(op.name, got) != got:
                raise CheckError("outputs differ from the first call with the same seed")
        except CheckError as exc:
            if probe:
                self.probes_failed += 1
            else:
                self.failed += 1
                self.problems.append(f"{op.name}: {exc}")
            return elapsed, False
        return elapsed, True


def setup(workload: str, seed: int, workdir: Path):
    """Import, input generation and one untimed warm-up call.

    Returns their wall time and the reference kernel's time right after them.
    """
    start = time.perf_counter()
    import workloads

    bayesgof = import_bayesgof()
    if workload not in workloads.PLANS:
        sys.exit(f"bench: no plan for workload {workload!r}")
    plan = workloads.PLANS[workload](seed, workdir)
    session = Session(bayesgof.cli, workdir)
    session.run(plan.warmup)
    elapsed = time.perf_counter() - start
    reference_kernel()  # its first run pays one-time costs
    return (elapsed, reference_kernel()), bayesgof, plan, session


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: set-up probe took over {PROBE_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"bench: set-up probe exited {done.returncode}")
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["setup_s"], sample["ref_s"]


def _kernel_once() -> float:
    import csv
    import io

    import numpy as np
    from scipy import special

    edges = np.linspace(0.0, 1.0, 6)
    u = np.linspace(0.01, 0.99, 50)
    z = np.linspace(-3.0, 3.0, 500 * 50).reshape(500, 50)
    q = np.linspace(0.001, 0.999, 500)
    acc = 0.0
    # interpreter-bound work on 50-element arrays, as per draw or replicate
    for i in range(400):
        idx = np.searchsorted(edges, special.erfc(u - 0.5), side="left")
        counts = np.bincount(np.maximum(idx, 1) - 1, minlength=5)
        acc += float(((counts - 10.0) ** 2 / 10.0).sum())
        acc += sum(j * 0.5 for j in range(60))
    # vectorized work on draws x observations arrays
    for i in range(8):
        cdf = 0.5 * special.erfc(-(z + 0.01 * i) / 1.4142135623730951)
        idx = np.searchsorted(edges, cdf, side="left").ravel()
        acc += float(np.bincount(idx, minlength=6).sum())
        acc += float(special.gammainccinv(24.5, q).sum())
    # text: parse draw lines and write one CSV row per draw
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for i in range(1500):
        line = f"{0.001 * i!r} {1.0 + 0.002 * i!r}"
        mu, sigma = (float(t) for t in line.split())
        writer.writerow([i, format(mu / sigma, ".17g"), "true", "false", format(acc, ".17g")])
    return acc + len(out.getvalue())


def reference_kernel(threads: int = 1) -> float:
    """Wall seconds for a fixed mix of the kinds of work the program does,
    run once in each of ``threads`` threads at the same time."""
    start = time.perf_counter()
    if threads == 1:
        _kernel_once()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(_kernel_once) for _ in range(threads)]:
                future.result()
    return time.perf_counter() - start


def measure(session: Session, op, seconds: float, reserve: float = 0.0):
    """Wall times of repeated calls of op, for about ``seconds - reserve`` seconds,
    and the reference kernel's time before the first and after every call."""
    times: list[float] = []
    refs = [reference_kernel(op.threads)]
    start = time.perf_counter()
    while len(times) < MIN_CALLS or (
        time.perf_counter() - start + reserve * statistics.median(times) < seconds
    ):
        times.append(session.run(op)[0])
        refs.append(reference_kernel(op.threads))
    return times, refs


def monitor_latency(bayesgof, plan) -> list[float]:
    """Seconds from each draw being pulled off the stream to its record being yielded."""
    from workloads import K, CheckError

    y, _ = bayesgof.cli.read_dataset(str(plan.latency_data))
    scheme = bayesgof.binning.equiprobable(K)
    pulled: list[float] = []

    def stream():
        for theta in plan.latency_draws:
            pulled.append(time.perf_counter())
            yield theta

    latencies = []
    records = bayesgof.harness.stream_monitor(stream(), y, bayesgof.models.NormalModel(), scheme)
    for rec in records:
        latencies.append(time.perf_counter() - pulled[rec.index])
        if not rec.valid:
            raise CheckError(f"stream_monitor: draw {rec.index} rejected")
    if len(latencies) != len(plan.latency_draws):
        raise CheckError(f"stream_monitor: {len(latencies)} records for "
                         f"{len(plan.latency_draws)} draws")
    return latencies


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def written(outdir: Path) -> tuple[int, int]:
    """(CSV data rows, bytes) of the files in outdir."""
    rows = size = 0
    if not outdir.is_dir():  # a call rejected before it made its output directory
        return rows, size
    for p in outdir.iterdir():
        data = p.read_bytes()
        size += len(data)
        if p.suffix == ".csv":
            rows += max(0, data.count(b"\n") - 1)
    return rows, size


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "os": f"{os.uname().sysname} {os.uname().release}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def traced_metrics(bayesgof, session: Session, plan, detail: dict) -> dict:
    """Run the timed call once under tracing, check its seams, then the probe."""
    import tracer as tracing

    tracer = tracing.Tracer([bayesgof.probkit, bayesgof.binning, bayesgof.gof,
                             bayesgof.models, bayesgof.harness, bayesgof.cli])
    tracing.install(tracer, bayesgof)
    ops = [plan.timed] + ([plan.probe] if plan.probe else [])
    failures = 0
    try:
        elapsed, ok = session.run(plan.timed)
        failures += not ok
        snapshot = observe(tracer, session, [plan.timed], failures)
        if plan.probe:
            failures += not session.run(plan.probe, probe=True)[1]
    finally:
        tracer.restore()

    # a binding the wrappers missed reads 0 here instead of the count the call implies
    for key, want in plan.timed.expect.items():
        got = snapshot.get(key, 0)
        if got != want:
            session.problems.append(f"seam check: {key} = {got}, expected {want}")
    detail["traced_op_s"] = elapsed
    detail["bindings"] = dict(tracer.bindings)

    return observe(tracer, session, ops, failures)


def observe(tracer, session: Session, ops, failures: int) -> dict[str, float]:
    flat = tracer.flat()
    rows = size = 0
    for op in ops:
        r, s = written(session.outdir(op))
        rows += r
        size += s
    malformed = 0
    manifest = session.outdir(ops[0]) / "manifest.json"
    if ops[0].argv[0] == "monitor" and manifest.exists():
        malformed = json.loads(manifest.read_text())["derived"]["malformed_lines"]
    chain_s = flat.get("models.run_chain.total_s", 0.0)
    flat.update({
        "probkit.streams_opened": flat.get("probkit.stream_open.calls", 0),
        "probkit.stream_open_s": flat.get("probkit.stream_open.self_s", 0.0),
        "gof.evaluation_failures": flat.get("gof.posterior_chisq.failures", 0),
        "models.run_chain.sweeps_per_s":
            flat.get("models.run_chain.iterations", 0) / chain_s if chain_s else 0.0,
        "harness.replicates": sum(
            flat.get(f"harness.{entry}.replicates", 0)
            for entry in ("null_calibration", "null_auc_distribution", "power_study")),
        "cli.main.failures": failures,
        "cli.rows_written": rows,
        "cli.bytes_written": size,
        "cli.monitor.malformed_lines": malformed,
    })
    return flat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once in this process, print its time and exit")
    args = ap.parse_args()

    # on SIGTERM, unwind so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    if args.seed < 0:
        sys.exit("bench: --seed must be non-negative")

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {"latency_p50_ms": 0.0, "latency_p99_ms": 0.0, "latency_samples": 0}
    return {"latency_p50_ms": 1e3 * percentile(latencies, 50),
            "latency_p99_ms": 1e3 * percentile(latencies, 99),
            "latency_samples": len(latencies)}


def end_to_end(spec, plan, session, setup_samples, times, refs, latencies) -> dict:
    """The end-to-end metrics in reference seconds; prints them and the wall-clock ones."""
    # each call is scaled by the kernel runs just before and after it
    scales = [REF_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    values = {
        "items_per_s": statistics.median(
            plan.timed.items / (t * k) for t, k in zip(times, scales)),
        "setup_s": statistics.median(s * REF_S / r for s, r in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    named = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    named[plan.metric] = (statistics.median(plan.timed.items / t for t in times), "1/s")
    named["setup_wall_s"] = (statistics.median(s for s, _ in setup_samples), "s")
    # the user's view: every call made, the probe included
    named["error_rate"] = ((session.failed + session.probes_failed)
                           / (session.attempted + session.probes_attempted), "ratio")
    if session.probes_attempted:
        named["probe_failed"] = (session.probes_failed, "count")
    if latencies:
        units = {"latency_p50_ms": "ms", "latency_p99_ms": "ms", "latency_samples": "count"}
        for key, value in latency_metrics(latencies).items():
            named[f"monitor_{key}"] = (value, units[key])
    for name, (value, unit) in named.items():
        print(f"metric {name} {value!r} {unit}")
    return metrics


def per_layer(spec, bayesgof, plan, session, detail, times, latencies) -> dict:
    observed = traced_metrics(bayesgof, session, plan, detail)
    untraced = statistics.median(times)
    observed.update({
        "trace.untraced_op_s": untraced,
        "trace.traced_op_s": detail["traced_op_s"],
        "trace.overhead_pct": 100.0 * (detail["traced_op_s"] - untraced) / untraced,
    })
    for key, value in latency_metrics(latencies).items():
        observed[f"harness.stream_monitor.{key}"] = value
    # a metric of a span that did not run reads 0; a name that no span has is an error
    spans = set(detail["bindings"]) | {"probkit.stream_open", "cli.monitor.parse"}
    for m in spec["per_layer"]:
        if m["name"] not in observed and m["name"].rsplit(".", 1)[0] not in spans:
            sys.exit(f"bench: per-layer metric {m['name']} is not traced")
    return {m["name"]: {"value": observed.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def run(args, spec: dict, workdir: Path) -> int:
    if args.setup_probe:
        elapsed, ref = setup(args.workload, args.seed, workdir)[0]
        print(json.dumps({"setup_s": elapsed, "ref_s": ref}))
        return 0

    probes = [] if args.trace else [
        setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    sample, bayesgof, plan, session = setup(args.workload, args.seed, workdir)
    setup_samples = probes + [sample]
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "machine": machine(), "reference_s": REF_S,
                    "setup_samples_s": [s for s, _ in setup_samples],
                    "setup_ref_s": [r for _, r in setup_samples]}

    if plan.reference:
        session.run(plan.reference)
    # a traced run keeps room for its traced call after the untraced ones
    times, refs = measure(session, plan.timed, args.seconds, reserve=1.5 if args.trace else 0.0)
    if plan.reference and (session.digests.get(plan.reference.name)
                           != session.digests.get(plan.timed.name)):
        session.problems.append(f"{plan.timed.name}: outputs differ from {plan.reference.name}")
    latencies = []
    if plan.latency_draws:
        from workloads import CheckError

        try:
            latencies = monitor_latency(bayesgof, plan)
        except CheckError as exc:
            session.problems.append(str(exc))

    if args.trace:
        metrics = per_layer(spec, bayesgof, plan, session, detail, times, latencies)
    else:
        if plan.probe:
            session.run(plan.probe, probe=True)
        metrics = end_to_end(spec, plan, session, setup_samples, times, refs, latencies)

    detail.update({
        "call_s": times,
        "ref_s": refs,
        "exit_codes": session.exit_codes,
        "probes": {"attempted": session.probes_attempted, "failed": session.probes_failed},
        "problems": session.problems,
        "outputs_sha256": session.digests,
    })
    print("detail " + json.dumps(detail, sort_keys=True))
    for problem in session.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not session.problems, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

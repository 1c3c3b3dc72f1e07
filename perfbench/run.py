"""pdfactor benchmark: three closed-loop workloads, timed end to end and per module.

Usage (from the repository root)::

    python3 perfbench/run.py --workload factor_small --seed 1 --seconds 35 --trace 0

One caller runs one operation at a time and starts the next only when the
previous one has finished (a closed loop), until ``--seconds`` of wall time
have passed. Inputs are generated here from ``--seed``; pdfactor receives only
the generated matrices and particle files. Every output is checked with numpy
alone, independently of pdfactor's own ``verify``.

Workloads (see README.md for why each exists):

* ``factor_small``: ``factor_matrix`` then ``verify(tol=1e-8)`` in process,
  warm caches, general matrices with det > 0 and n in [2, 8].
* ``factor_large``: the same operation with n in [16, 24].
* ``cli_pipeline``: ``pdfactor factor``, ``simulate`` (16 particles, dt 1e-3)
  and ``verify`` as fresh interpreters, n in [2, 6].

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs spans
around pdfactor's public functions (``tracing.py``) and prints per-layer
metrics instead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Cap BLAS threads before numpy loads: the reference machine has two cores
# and every workload is a single caller.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, accumulate, empty_entry  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TOL = 1e-8
MAX_FACTORS = 6
SYM_RTOL = 1e-12
DT = 1e-3
PARTICLES = 16
CHILD_TIMEOUT_S = 120.0

# sizes: the range n is drawn from (see ``cases``).
# setup_reps: fresh set-ups per run.
# accuracy_ops: residuals are ranked over this many leading cases of the
# stream, so a faster program that completes more operations is judged on
# the same inputs as a slower one (a run that completes fewer uses all).
WORKLOADS = {
    "factor_small": {"sizes": range(2, 9), "setup_reps": 7, "accuracy_ops": 210},
    "factor_large": {"sizes": range(16, 25), "setup_reps": 7, "accuracy_ops": 45},
    "cli_pipeline": {"sizes": range(2, 7), "setup_reps": 4, "accuracy_ops": 10},
}
# The warm-up matrix is small and the same for every seed: factoring time
# depends on the entries, and set-up time should not.
WARM_N = 4
WARM_SEED = 0

# End-to-end metrics (name -> unit), reported with --trace 0. Times are in
# reference seconds (see ``host_scale``); the same metrics in wall seconds
# are printed next to them and kept in ``details``.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "accuracy_margin_digits": "digits",
    "peak_rss_mb": "MB",
}

# Host speed correction (README, "Host speed"). On the shared reference
# machine a fixed computation runs up to twice as slowly for seconds to
# minutes at a time, in CPU time as well as in wall time. So each timed piece
# of work is preceded by a fixed probe, and its wall time is multiplied by
# REF_PROBE_S / (probe time), REF_PROBE_S being the probe's usual time on
# the quiet machine: these are reference seconds.
REF_PROBE_S = 2.8e-3
_PROBE_MATRIX = np.array([[2.0, 0.5, -0.3, 0.1], [0.5, 1.5, 0.2, -0.4],
                          [-0.3, 0.2, 1.0, 0.6], [0.1, -0.4, 0.6, 0.8]])


def host_scale():
    """REF_PROBE_S over the time the probe takes now.

    The probe mixes interpreted float arithmetic with small LAPACK calls,
    the two kinds of work pdfactor does, and never calls pdfactor, so a
    change to pdfactor cannot move it.
    """
    t0 = time.perf_counter()
    x = 0.0
    for i in range(20000):
        x += (i * 0.5) ** 2
    M = _PROBE_MATRIX
    for _ in range(60):
        M = np.linalg.eigh(M @ M.T * 0.1 + _PROBE_MATRIX)[1] + _PROBE_MATRIX
    return REF_PROBE_S / (time.perf_counter() - t0)


# Per-layer metrics, reported with --trace 1. Busy and self time are shares
# of the traced wall time, so layers a workload never reaches read 0 %.
TRACED = {
    "planar.solve_theta": (), "planar.phi_sweep": (),
    "planar.plan_scheme": ("self",), "planar.build_chain": (),
    "matfun.sym_eig": (), "matfun.polar": (), "matfun.expm": (),
    "matfun.spd_log": (), "transport.ot_map": (),
    "spectral.block_diagonalize": (),
    "ballantine.factor_matrix": ("self",), "ballantine.verify": ("self",),
    "flowsim.simulate": (), "flowsim.write_trajectory_csv": (),
    "flowsim.segments_from_chain": (), "flowsim.transition_matrix": (),
    "cli.factor": (), "cli.simulate": (), "cli.verify": (),
}
SYM_EIG_SPLIT = {"polar": "matfun.polar", "block_diagonalize": "spectral.block_diagonalize",
                 "verify": "ballantine.verify", "ot_map": "transport.ot_map", "other": "other"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, extra in TRACED.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_pct"] = "%"
        if "self" in extra:
            units[f"{name}.self_pct"] = "%"
        units[f"{name}.failed"] = "count"
    units["planar.sweeps_per_plan"] = "ratio"
    for key in SYM_EIG_SPLIT:
        units[f"matfun.sym_eig.{key}_pct"] = "%"
    units["spectral.planes"] = "count"
    units["ballantine.factors"] = "count"
    units["flowsim.simulate.samples"] = "count"
    units["flowsim.write_trajectory_csv.bytes"] = "bytes"
    units["cli.startup_pct"] = "%"
    units["trace.overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------- inputs


def random_matrix(rng, n):
    """Standard normal n x n matrix, redrawn until det > 0."""
    while True:
        A = rng.standard_normal((n, n))
        if np.linalg.det(A) > 0.0:
            return A


def cases(seed, spec, with_particles):
    """Endless seeded stream of (matrix, particles or None).

    Sizes come in mirrored pairs (n, lo + hi - n), and each round runs every
    pair once in a seeded order. Every size is equally frequent, and since
    cost grows about linearly in n, any stretch of the stream has nearly the
    same mean cost whatever the seed; only the entries differ.
    """
    rng = np.random.default_rng([seed, 1])
    sizes = spec["sizes"]
    while True:
        for n in rng.permutation(sizes):
            for m in (int(n), sizes[0] + sizes[-1] - int(n)):
                A = random_matrix(rng, m)
                X = rng.standard_normal((PARTICLES, m)) if with_particles else None
                yield A, X


def warm_case():
    rng = np.random.default_rng([WARM_SEED, 0])
    return random_matrix(rng, WARM_N), rng.standard_normal((PARTICLES, WARM_N))


# ------------------------------------------------------- correctness gate


def check_chain(factors, A):
    """Independent numpy gate on a factor list. Returns (residual, problems)."""
    problems = []
    if not 1 <= len(factors) <= MAX_FACTORS:
        problems.append(f"{len(factors)} factors")
    P = np.eye(A.shape[0])
    for i, M in enumerate(factors):
        M = np.asarray(M, dtype=float)
        if not np.linalg.norm(M - M.T) <= SYM_RTOL * np.linalg.norm(M):
            problems.append(f"factor {i} is not symmetric")
        if not np.linalg.eigvalsh((M + M.T) / 2.0)[0] > 0.0:
            problems.append(f"factor {i} is not positive definite")
        P = M @ P
    residual = float(np.linalg.norm(P - A) / np.linalg.norm(A))
    if not residual <= TOL:
        problems.append(f"residual {residual:.3e} above {TOL:g}")
    return residual, problems


# ---------------------------------------------------------- operations


class Tally:
    """Outcome of a sequence of operations."""

    def __init__(self, accuracy_ops=math.inf):
        self.accuracy_ops = accuracy_ops
        self.latencies = []
        self.ref_latencies = []
        self.residuals = []
        self.failed = 0
        self.errors = []

    def add(self, latency, ref_latency, residual, problems):
        self.latencies.append(latency)
        self.ref_latencies.append(ref_latency)
        if residual is not None and len(self.latencies) <= self.accuracy_ops:
            self.residuals.append(residual)
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"op {len(self.latencies) - 1}: " + "; ".join(problems))


def run_loop(ops, stream, seconds):
    """Closed loop over successive cases until ``seconds`` of wall time pass.

    ``ops`` is a list of (operation, tally) pairs; each case runs through
    every operation in turn, and the order is reversed on every other case.
    """
    start = time.perf_counter()
    for i, case in enumerate(stream):
        for op, tally in (ops if i % 2 == 0 else ops[::-1]):
            tally.add(*op(case))
        if time.perf_counter() - start >= seconds:
            return


def factor_op(pdfactor):
    def op(case):
        A, _ = case
        scale = host_scale()
        t0 = time.perf_counter()
        try:
            chain = pdfactor.factor_matrix(A)
            passed = pdfactor.verify(chain, A, TOL).passed
        except Exception as exc:  # any raise is a failed operation
            latency = time.perf_counter() - t0
            return latency, latency * scale, None, [f"raised {exc!r}"]
        latency = time.perf_counter() - t0
        residual, problems = check_chain(chain.factors, A)
        if not passed:
            problems.append("verify() did not pass")
        return latency, latency * scale, residual, problems

    return op


def child_env():
    """The caller's environment with ``src`` first on the path.

    ``PYTHONDONTWRITEBYTECODE`` is dropped so that children load pdfactor
    from cached bytecode, as an installed package does; with it set, every
    child compiles the sources again (about 60 ms each), and that cost
    would depend on the caller's environment and grow with source length.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, cwd, stdout_name):
    """Run one child to completion. Returns (exit code, wall s, max RSS kB)."""
    with open(cwd / stdout_name, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
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
    return proc.returncode, wall, usage.ru_maxrss


def stderr_tail(work):
    """Last line the children wrote to stderr, for error messages."""
    lines = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def scan_lines(path, tail_size=1 << 16):
    """Count the lines of a file and return its last ``tail_size`` bytes.

    Streams the file, so the harness stays smaller than the children it
    measures: a child's reported peak RSS is never below its parent's RSS
    at the time it was started.
    """
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
        fh.seek(max(0, fh.tell() - tail_size))
        return lines, fh.read()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class CliPipeline:
    """The README's shell pipeline, one fresh interpreter per command.

    With ``trace`` set, each command runs through ``cli_boot.py`` and its
    spans are added to ``stats``; ``startup_s`` collects each process's wall
    time outside ``cli.main`` (interpreter start, imports, exit).
    ``peak_rss_kb`` is the largest child RSS seen; ``hashes`` records the
    sha256 of both CSV outputs of every pipeline that passed.
    """

    def __init__(self, work, trace=False):
        self.work = work
        self.trace = trace
        self.stats = {}
        self.startup_s = 0.0
        self.peak_rss_kb = 0
        self.hashes = []

    def commands(self):
        prefix = [sys.executable, "-m", "pdfactor"]
        if self.trace:
            prefix = [sys.executable, str(HERE / "cli_boot.py"), "spans.json"]
        return [
            (prefix + ["factor", "A.json", "--output", "chain.json"], "factor.json"),
            (prefix + ["simulate", "--chain", "chain.json", "--particles", "p.csv",
                       "--dt", repr(DT), "--out-prefix", "run"], "P.json"),
            (prefix + ["verify", "--chain", "chain.json", "--target", "P.json"], "verify.json"),
        ]

    def __call__(self, case):
        A, X = case
        n = A.shape[0]
        w = self.work
        for name in ("chain.json", "P.json", "run_trajectory.csv", "run_covariance.csv"):
            (w / name).unlink(missing_ok=True)
        (w / "A.json").write_text(json.dumps({"n": n, "data": A.ravel().tolist()}) + "\n")
        header = ",".join(f"x{i + 1}" for i in range(n))
        rows = "".join(",".join(repr(float(v)) for v in r) + "\n" for r in X)
        (w / "p.csv").write_text(header + "\n" + rows)

        codes = []
        latency = ref_latency = 0.0
        for argv, out in self.commands():
            scale = host_scale()
            rc, wall, rss = run_child(argv, w, out)
            latency += wall
            ref_latency += wall * scale
            codes.append(rc)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            if self.trace:
                self._collect(wall)
            if rc != 0:
                break
        if codes != [0, 0, 0]:
            return latency, ref_latency, None, [f"exit codes {codes}: {stderr_tail(w)}"]
        residual, problems = self._check(A, X)
        if not problems:
            self.hashes.append({
                "n": n,
                "trajectory_sha256": sha256_file(w / "run_trajectory.csv"),
                "covariance_sha256": sha256_file(w / "run_covariance.csv"),
            })
        return latency, ref_latency, residual, problems

    def _collect(self, wall):
        path = self.work / "spans.json"
        spans = json.loads(path.read_text())
        path.unlink()
        accumulate(self.stats, spans)
        main = sum(s[4] - s[3] for s in spans if s[2] == "cli.main" and s[1] < 0)
        self.startup_s += wall - main

    def _check(self, A, X):
        w = self.work
        n = A.shape[0]
        doc = json.loads((w / "chain.json").read_text())
        factors = [np.array(f, dtype=float).reshape(n, n) for f in doc["factors"]]
        residual, problems = check_chain(factors, A)
        P = np.array(json.loads((w / "P.json").read_text())["data"], dtype=float).reshape(n, n)
        k = len(factors)
        steps = 1 + k * int(math.floor(1.0 / DT + 1e-9))
        lines, tail_bytes = scan_lines(w / "run_trajectory.csv")
        if lines != steps * PARTICLES + 1:
            problems.append(f"trajectory has {lines} lines, expected {steps * PARTICLES + 1}")
            return residual, problems
        last = np.array([[float(v) for v in ln.split(b",")]
                         for ln in tail_bytes.rstrip(b"\n").rsplit(b"\n", PARTICLES)[-PARTICLES:]])
        if not (np.allclose(last[:, 0], float(k), rtol=0.0, atol=1e-9)
                and np.array_equal(last[:, 1], np.arange(PARTICLES))):
            problems.append("last trajectory block has the wrong time or particle ids")
        expect = X @ P.T
        drift = float(np.linalg.norm(last[:, 2:] - expect) / np.linalg.norm(expect))
        if not drift <= TOL:
            problems.append(f"final positions off the transition matrix by {drift:.3e}")
        return max(residual, drift), problems


# ----------------------------------------------------------- reporting


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or fewer
    there is no such percentile and the maximum is returned.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "thread_caps": THREAD_CAPS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def emit(metrics, units, tally, setup_errors, details):
    for name, value in metrics.items():
        print(f"{name:<42} {value:.6g} {units[name]}")
    details["errors"] = setup_errors + tally.errors
    print("details: " + json.dumps(details, sort_keys=True))
    failed = tally.failed + len(setup_errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# ------------------------------------------------------------- set-up


def measure_setup(workload, spec, work):
    """``setup_reps`` fresh set-ups, each in a new interpreter.

    A set-up is ``import pdfactor`` plus the warm-up: for the factor
    workloads, factor and verify the README's -I and one fixed matrix; for
    cli_pipeline, one pipeline run. Returns (set-up times in reference
    seconds, the same in wall seconds, problems found).
    """
    A, X = warm_case()
    cli = workload == "cli_pipeline"
    if not cli:
        (work / "warm.json").write_text(json.dumps([(-np.eye(2)).tolist(), A.tolist()]))
    probe = [sys.executable, str(HERE / "setup_probe.py")] + ([] if cli else ["warm.json"])
    samples, walls, errors = [], [], []
    pipeline = CliPipeline(work)
    for _ in range(spec["setup_reps"]):
        scale = host_scale()
        rc, _, _ = run_child(probe, work, "probe.json")
        if rc != 0:
            raise RuntimeError(f"set-up probe exited with {rc}: {stderr_tail(work)}")
        times = json.loads((work / "probe.json").read_text())
        wall = times["import_s"] + times["warmup_s"]
        sample = wall * scale
        if cli:
            latency, ref_latency, _, problems = pipeline((A, X))
            errors += [f"warm-up pipeline: {p}" for p in problems]
            wall += latency
            sample += ref_latency
        samples.append(sample)
        walls.append(wall)
    return samples, walls, errors


def warm_up(pdfactor):
    """In-process warm-up for the factor workloads; returns problems found."""
    A, _ = warm_case()
    op = factor_op(pdfactor)
    errors = []
    for M in (-np.eye(2), A):
        errors += [f"warm-up: {p}" for p in op((M, None))[3]]
    return errors


# --------------------------------------------------------------- main


def import_pdfactor():
    sys.path.insert(0, str(SRC))
    import pdfactor

    if SRC.resolve() not in Path(pdfactor.__file__).resolve().parents:
        raise RuntimeError(f"imported pdfactor from {pdfactor.__file__}, not {SRC}")
    return pdfactor


def layer_metrics(stats, window_s, overhead, startup_s):
    def pct(seconds):
        return 100.0 * seconds / window_s

    def get(name):
        return stats.get(name) or empty_entry()

    m = {}
    for name, extra in TRACED.items():
        e = get(name)
        m[f"{name}.calls"] = e["calls"]
        m[f"{name}.busy_pct"] = pct(e["busy_s"])
        if "self" in extra:
            m[f"{name}.self_pct"] = pct(e["self_s"])
        m[f"{name}.failed"] = e["failed"]
    plans = get("planar.plan_scheme")["calls"]
    m["planar.sweeps_per_plan"] = get("planar.phi_sweep")["calls"] / plans if plans else 0.0
    under = get("matfun.sym_eig")["under"]
    for key, span in SYM_EIG_SPLIT.items():
        m[f"matfun.sym_eig.{key}_pct"] = pct(under.get(span, 0.0))
    m["spectral.planes"] = get("spectral.block_diagonalize")["count"]
    m["ballantine.factors"] = get("ballantine.factor_matrix")["count"]
    m["flowsim.simulate.samples"] = get("flowsim.simulate")["count"]
    m["flowsim.write_trajectory_csv.bytes"] = get("flowsim.write_trajectory_csv")["count"]
    m["cli.startup_pct"] = pct(startup_s)
    m["trace.overhead_frac"] = overhead
    return m


def layer_table(stats, window_s, startup_s):
    """Every traced function and module, for the details line."""
    rows = {}
    for name, e in sorted(stats.items()):
        row = {"busy_s": e["busy_s"], "busy_pct": 100.0 * e["busy_s"] / window_s}
        if "." in name:
            row.update(calls=e["calls"], self_s=e["self_s"], failed=e["failed"])
        rows[name] = row
    rows["cli.startup"] = {"busy_s": startup_s, "busy_pct": 100.0 * startup_s / window_s}
    return rows


def run_traced(args, spec, work, pdfactor):
    """Per-layer metrics: every case runs traced and untraced back to back.

    Interleaving the two, with alternating order, lets slow drift of the
    machine cancel out of ``trace.overhead_frac``. Shares are of the traced
    window: the warm-up (factor workloads) plus the traced operations.
    """
    traced, plain = Tally(), Tally()
    setup_errors = []
    startup_s = 0.0
    if args.workload == "cli_pipeline":
        warm = CliPipeline(work)(warm_case())
        setup_errors = [f"warm-up pipeline: {p}" for p in warm[3]]
        traced_op = CliPipeline(work, trace=True)
        run_loop([(traced_op, traced), (CliPipeline(work), plain)],
                 cases(args.seed, spec, True), args.seconds)
        stats, startup_s = traced_op.stats, traced_op.startup_s
        window = sum(traced.latencies)
    else:
        tracer = Tracer()
        op = factor_op(pdfactor)

        def traced_op(case):
            tracer.install()
            try:
                return op(case)
            finally:
                tracer.uninstall()

        tracer.install()
        t0 = time.perf_counter()
        setup_errors = warm_up(pdfactor)
        window = time.perf_counter() - t0
        tracer.uninstall()
        run_loop([(traced_op, traced), (op, plain)], cases(args.seed, spec, False), args.seconds)
        window += sum(traced.latencies)
        stats = accumulate({}, tracer.spans)
    overhead = sum(traced.ref_latencies) / sum(plain.ref_latencies) - 1.0
    metrics = layer_metrics(stats, window, overhead, startup_s)
    details = {"provenance": provenance(args), "traced_ops": len(traced.latencies),
               "traced_window_s": window, "layers": layer_table(stats, window, startup_s)}
    traced.latencies += plain.latencies
    traced.failed += plain.failed
    traced.errors += plain.errors
    return metrics, per_layer_units(), traced, setup_errors, details


def run_untraced(args, spec, work, pdfactor):
    setup, setup_walls, setup_errors = measure_setup(args.workload, spec, work)
    tally = Tally(spec["accuracy_ops"])
    hashes = None
    if args.workload == "cli_pipeline":
        pipeline = CliPipeline(work)
        run_loop([(pipeline, tally)], cases(args.seed, spec, True), args.seconds)
        peak_kb = pipeline.peak_rss_kb
        hashes = pipeline.hashes
    else:
        setup_errors += warm_up(pdfactor)
        run_loop([(factor_op(pdfactor), tally)], cases(args.seed, spec, False), args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat, ref = tally.latencies, tally.ref_latencies
    ok = len(lat) - tally.failed
    ref_tail, tail_pct, beyond = tail(ref)
    wall_tail = tail(lat)[0]
    speeds = sorted(r / w for r, w in zip(ref, lat) if w > 0.0)
    # The worst residual is heavy-tailed across seeds (one ill-conditioned
    # input moves it by two digits), so the margin uses the same tail rule
    # as latency; any residual above TOL already fails its operation.
    # With no residual at all (every operation raised) count a total loss.
    res_tail, res_pct, _ = tail(tally.residuals or [1.0])
    res_tail = max(res_tail, np.finfo(float).tiny)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / sum(ref),
        "latency_ms_p50": 1e3 * statistics.median(ref),
        "latency_ms_tail": 1e3 * ref_tail,
        "accuracy_margin_digits": math.log10(TOL / res_tail),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    wall = {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": ok / sum(lat),
        "latency_ms_p50": 1e3 * statistics.median(lat),
        "latency_ms_tail": 1e3 * wall_tail,
    }
    print(f"{'failed_frac':<42} {tally.failed / len(lat):.6g} fraction")
    print(f"{'latency tail percentile':<42} p{tail_pct:.2f} of {len(lat)} samples, {beyond} beyond")
    print(f"{'residual tail percentile':<42} p{res_pct:.2f} of {len(tally.residuals)} samples")
    print(f"{'host speed (reference s per wall s)':<42} median {statistics.median(speeds):.4g},"
          f" range {speeds[0]:.4g} to {speeds[-1]:.4g}")
    for name, value in wall.items():
        print(f"{name + ' (wall)':<42} {value:.6g} {END_TO_END[name]}")
    details = {
        "provenance": provenance(args),
        "latency_tail": {"percentile": tail_pct, "samples": len(lat), "beyond": beyond},
        "latency_p50_samples": len(lat),
        "wall": wall,
        "host_speed": {"median": statistics.median(speeds), "min": speeds[0], "max": speeds[-1]},
        "setup_samples_s": setup,
        "setup_samples_wall_s": setup_walls,
        "residual_tail": {"value": res_tail, "percentile": res_pct,
                          "samples": len(tally.residuals)},
        "worst_residual": max(tally.residuals, default=None),
        "failed_frac": tally.failed / len(lat),
    }
    if hashes is not None:
        details["csv_sha256"] = hashes
        details["harness_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, END_TO_END, tally, setup_errors, details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pdfactor" / "__init__.py").is_file():
        print(f"error: no pdfactor sources under {SRC}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    # On SIGTERM, unwind through the ``finally`` blocks: they kill and reap
    # a running child and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        pdfactor = import_pdfactor()
        run = run_traced if args.trace else run_untraced
        emit(*run(args, spec, work, pdfactor))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

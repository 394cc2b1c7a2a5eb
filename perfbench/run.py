"""Benchmark of the starlift command line.

    python3 perfbench/run.py --workload lift|cohomology|theta|envelope|all
                             [--seed N] [--seconds S] [--trace 0|1]

It works on the checkout that holds it and builds nothing: the program is
run from ``src/``. Every file it writes goes under ``.perfbench-out/``.

Closed loop, one client. Jobs run one after another, each a fresh
``python -m starlift.cli <cmd> ... --emit full`` process with cold memos and
a cold import, the way a user pays for it; no threads, no parallel children.

Before any timing, the seed's inputs are written (see ``inputs.py``) and
each must pass ``starlift validate``. Every job is then checked: exit 0,
every certificate true, and the SHA-256 of its stdout equal to the digest
pinned in ``digests.json`` for its exact input and flags (every job at every
seed, except the dense sl2 lift, pinned at ``DEFAULT_SEED`` only). A miss
counts as a failed job. No job is skipped, retried or reseeded.

``--trace 0`` repeats whole passes over the workload's jobs until
``--seconds`` have gone by and reports the medians over passes of the
end-to-end metrics. ``--trace 1`` runs each job three times (plain, traced
and profiled, see ``traced_job.py``), reports the per-layer metrics,
``trace_overhead`` and ``coverage``, and checks the predicted call counts.

The host is a few shared cores whose speed drifts by tens of percent within
a minute, on every job alike. So the run is pinned to one core, and job
times are reported in units of a reference (the ``_ref`` metrics): a fixed
pure-Python ``Fraction`` and dict loop (``reference_s``), timed in this
process before and after every job, that uses no starlift code. Each job's
wall and CPU time is divided by the mean of the two reference times around
it. The raw seconds are printed on a comment line and kept in the record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those declared in ``BENCHMARK.json``. The full record of a run (samples,
layer statistics, each job's per-degree ``solve_coboundary`` log and the run
metadata) is written to ``.perfbench-out/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from inputs import WORKLOADS, Params, workload_jobs

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))  # before main() pins the run to one of them
OUT = Path(".perfbench-out")
PINS = Path("perfbench") / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
REFERENCE_TERMS = 24000  # about 0.25 s on a shared 2-vCPU VM, half the shortest job
JOB_TIMEOUT_S = 90

CLI = ("-m", "starlift.cli")
TRACED_JOB = str(Path("perfbench") / "traced_job.py")
# Fresh interpreter + import + load_lie_algebra on the workload's inputs;
# prints the rational backend for the run record.
SETUP_CODE = (
    "import sys, starlift\n"
    "from starlift._rat import QQ\n"
    "for path in sys.argv[1:]:\n"
    "    starlift.load_lie_algebra(path)\n"
    "print(QQ.__module__ + '.' + QQ.__qualname__)\n"
)

# Calls that must not happen on a workload (the bypass predictions) ...
PREDICTED_ZERO = {
    "lift": ("envelope._straighten", "duality.rho_product"),
    "cohomology": ("core.poisson_bracket", "envelope._straighten", "duality.rho_product"),
    "theta": (),
    "envelope": ("duality.rho_product",),
}
# ... and layers that must record calls on the workload meant to exercise them,
# so that a renamed or rebound function cannot silently drop out of the trace.
_EVERYWHERE = ("core.load_lie_algebra", "cli._print_report")
EXERCISED = {
    "lift": _EVERYWHERE + (
        "core.poisson_bracket", "core.coproduct_insert", "star.star", "cohochschild._d_raw",
        "cohochschild.solve_coboundary", "linsolve.echelonize", "lifts.lift_associator",
        "lifts.lift_twist", "lifts.pentagon_defect", "lifts.cocycle_defect"),
    "cohomology": _EVERYWHERE + (
        "core.coproduct_insert", "cohochschild._d_raw", "core.g_action",
        "cohochschild.invariant_basis", "cohochschild.cohomology_dimension",
        "linsolve.echelonize"),
    "theta": _EVERYWHERE + (
        "core.poisson_bracket", "star.star_conjugate", "lifts.gauge_rho",
        "duality.rho_product", "duality.twisted_coproduct", "duality.theta",
        "duality.convolution_bracket", "duality.poisson_traces", "duality.is_poisson_trace"),
    "envelope": _EVERYWHERE + (
        "linsolve.echelonize", "envelope._straighten", "envelope.pbw_product",
        "envelope.center", "envelope.invariants_s_dual", "quasitriangular.c_s_basis",
        "quasitriangular.sts_alpha", "quasitriangular.compare_images",
        "quasitriangular.qt_validate"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, invalid input)."""


@dataclass
class Sample:
    job: str
    mode: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    report_bytes: int
    problem: str  # empty when the job passed every check
    ref_s: float = 0.0  # mean reference time around the job; timed passes only


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # the program's counts and timings repeat exactly
    return env


def _spawn(args, stdout_path: Path, timeout: float = JOB_TIMEOUT_S):
    """Run ``python args`` to completion with stdout to a file.

    Returns (wall seconds, rusage, exit code, timed out). The child is waited
    for with ``os.wait4`` so its own rusage is available, and is killed and
    reaped if it overruns ``timeout`` or this process is interrupted.
    """
    stdout_path.parent.mkdir(parents=True, exist_ok=True)
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=_env())
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished = bool(select.select([pidfd], [], [], timeout)[0])
            finally:
                os.close(pidfd)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, not finished


def _problem(stdout: bytes, code: int, timed_out: bool, digest) -> str:
    """Why a job's output is wrong, or "" when it passes every check."""
    if timed_out:
        return "timeout"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    certificates = report.get("certificates") if isinstance(report, dict) else None
    if not certificates or not all(v is True for v in certificates.values()):
        return f"certificate not true: {certificates}"
    if digest is not None and hashlib.sha256(stdout).hexdigest() != digest:
        return "report digest differs from the pinned one"
    return ""


def run_job(job, mode: str, digest) -> tuple:
    """One fresh process for ``job``; mode is plain, trace or profile.

    Returns the checked Sample and, for trace and profile, the child's record.
    """
    base = OUT / "jobs" / f"{job.name}-{mode}"
    args = (*CLI, *job.argv, "--emit", "full")
    if mode != "plain":
        args = (TRACED_JOB, mode, str(base.with_suffix(".json")), *job.argv, "--emit", "full")
    wall, usage, code, timed_out = _spawn(args, base.with_suffix(".out"))
    stdout = base.with_suffix(".out").read_bytes()
    sample = Sample(job.name, mode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, len(stdout),
                    _problem(stdout, code, timed_out, digest))
    record = None
    if mode != "plain" and not sample.problem:
        record = json.loads(base.with_suffix(".json").read_text())
    return sample, record


def reference_s() -> float:
    """Wall time of a fixed loop of the kind the program spends its time in.

    Exact ``Fraction`` products and quotients summed into a dict under tuple
    keys, in this process. It uses no starlift code, so a change to the
    program cannot move it; only the host's speed does.
    """
    start = time.perf_counter()
    acc = {}
    for i in range(REFERENCE_TERMS):
        a = Fraction(i % 7 + 1, i % 5 + 2)
        b = Fraction(i % 11 + 1, i % 3 + 1)
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + a * b - a / b
    return time.perf_counter() - start


def validate_inputs(jobs) -> None:
    for path in sorted({job.argv[1] for job in jobs}):
        out = OUT / "jobs" / f"validate-{Path(path).stem}.out"
        _, _, code, timed_out = _spawn((*CLI, "validate", path, "--emit", "certificates"), out)
        problem = _problem(out.read_bytes(), code, timed_out, None)
        if problem:
            raise BenchError(f"input {path} fails starlift validate: {problem}")


def setup_sample(jobs) -> tuple:
    """Wall time of one set-up process on the jobs' inputs, and the backend it reports."""
    out = OUT / "jobs" / "setup.out"
    wall, _, code, timed_out = _spawn(("-c", SETUP_CODE, *sorted({j.argv[1] for j in jobs})), out)
    if code != 0 or timed_out:
        raise BenchError(f"set-up process failed (exit code {code})")
    return wall, out.read_text().strip()


def digest_key(job) -> str:
    """Pins are keyed by job, input bytes and flags: each seeded variant has its own."""
    digest = hashlib.sha256(Path(job.argv[1]).read_bytes())
    digest.update(" ".join(job.argv[2:]).encode())
    return f"{job.name}@{digest.hexdigest()[:16]}"


def pinned_digests(jobs, seed: int) -> dict:
    """Job name -> expected SHA-256 of its report, or None where none is pinned."""
    pins = json.loads(PINS.read_text())["digests"]
    expected = {}
    for job in jobs:
        key = digest_key(job)
        if key not in pins and (job.pinned or seed == DEFAULT_SEED):
            raise BenchError(f"no pinned digest for {key}")
        expected[job.name] = pins.get(key)
    return expected


def timed_passes(jobs, digests, seconds: float) -> tuple:
    """Whole passes over the jobs, untraced, within ``seconds``; set-up samples.

    A reference time is taken before the first job and after every job, and
    each sample gets the mean of the two around it as ``ref_s``. Set-up
    samples are taken between passes at a pace that reaches SETUP_SAMPLES
    by the end of the run, so they spread over it like the jobs do; any
    missing are taken at the end. A pass starts only if a pass of median
    length would end at most half a pass past ``seconds``, so a run lasts
    about ``seconds`` whatever the machine's speed; the first pass always
    runs.
    """
    passes, lengths, setups = [], [], []
    start = time.perf_counter()
    ref = reference_s()
    while not passes or time.perf_counter() - start + statistics.median(lengths) / 2 <= seconds:
        began = time.perf_counter()
        if len(setups) <= SETUP_SAMPLES * (began - start) / seconds:
            setups.append(setup_sample(jobs)[0])
        row = []
        for job in jobs:
            sample = run_job(job, "plain", digests[job.name])[0]
            after = reference_s()
            sample.ref_s = (ref + after) / 2
            ref = after
            row.append(sample)
        passes.append(row)
        lengths.append(time.perf_counter() - began)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(jobs)[0])
    return passes, setups


def end_to_end(passes, setups) -> tuple:
    """The declared metrics and the raw seconds they are made from.

    Times are per-job medians over the passes, summed (or, for the longest
    job, maximised) over the jobs; the ``_ref`` ones divide each sample by
    its reference time first.
    """
    def per_job(value):
        return [statistics.median(value(p[j]) for p in passes) for j in range(len(passes[0]))]

    wall_ref = per_job(lambda s: s.wall_s / s.ref_s)
    wall_s = per_job(lambda s: s.wall_s)
    declared = {
        "wall_ref": sum(wall_ref),
        "cpu_ref": sum(per_job(lambda s: s.cpu_s / s.ref_s)),
        "max_job_ref": max(wall_ref),
        "peak_rss_mb": max(s.rss_mb for p in passes for s in p),
        "setup_s": statistics.median(setups),
    }
    raw = {
        "wall_s": sum(wall_s),
        "cpu_s": sum(per_job(lambda s: s.cpu_s)),
        "max_job_s": max(wall_s),
        "ref_s": statistics.median(s.ref_s for p in passes for s in p),
    }
    return declared, raw


def _merge_layers(records) -> dict:
    merged = {}
    for record in records:
        for name, stats in record["layers"].items():
            into = merged.setdefault(name, {})
            for key, value in stats.items():
                if key != "log":
                    into[key] = into.get(key, 0) + value
    return merged


def per_layer(plain, traced, profiled) -> tuple:
    """Per-layer metrics of one workload from its (sample, record) job results."""
    traces = [record for _, record in traced]
    profiles = [record["rat"] for _, record in profiled]
    layers = _merge_layers(traces)
    metrics = {}
    for name, stats in layers.items():
        calls = stats["calls"]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = stats["self_ns"] / 1e9
        for key in ("pairs", "terms_out", "rhs_terms", "sol_terms", "rows_in", "nnz_in", "rank_out"):
            if key in stats:
                metrics[f"{name}.{key}"] = stats[key]
        if "zero_calls" in stats:
            metrics[f"{name}.zero_share"] = stats["zero_calls"] / calls if calls else 0.0
    calls = layers["envelope._straighten"]["calls"]
    growth = sum(t["straighten_memo_growth"] for t in traces)
    metrics["envelope._straighten.hit_ratio"] = 1 - growth / calls if calls else 0.0
    metrics["cli.report_bytes"] = sum(sample.report_bytes for sample, _ in traced)
    metrics["rat.ops"] = sum(p["ops"] for p in profiles)
    metrics["rat.share"] = sum(p["self_s"] for p in profiles) / sum(p["total_self_s"] for p in profiles)
    traced_wall = sum(sample.wall_s for sample, _ in traced)
    metrics["trace_overhead"] = traced_wall - sum(sample.wall_s for sample, _ in plain)
    metrics["coverage"] = sum(t["top_s"] for t in traces) / traced_wall
    return metrics, layers


def check_predictions(workload: str, layers: dict) -> list:
    """The predicted-zero and predicted-nonzero call counts that do not hold."""
    misses = [f"{name} made {layers[name]['calls']} calls, predicted none"
              for name in PREDICTED_ZERO[workload] if layers[name]["calls"]]
    misses += [f"{name} made no calls, predicted some"
               for name in EXERCISED[workload] if not layers[name]["calls"]]
    return misses


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; "unknown" outside a clone."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workload_jobs(workload, Params.from_seed(seed), OUT / "inputs" / f"seed{seed}")
    digests = pinned_digests(jobs, seed)
    validate_inputs(jobs)
    backend = setup_sample(jobs)[1]
    result = {
        "workload": workload,
        "trace": int(trace),
        "meta": {
            "rational_backend": backend,
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "src_sha256": _source_sha256(),
            "seed": seed,
            "nproc": NPROC,
            "cpu": sorted(os.sched_getaffinity(0)),
            "seconds": seconds,
            "jobs": {job.name: list(job.argv) for job in jobs},
        },
    }
    if not trace:
        passes, setups = timed_passes(jobs, digests, seconds)
        samples = [s for p in passes for s in p]
        metrics, result["raw_s"] = end_to_end(passes, setups)
        result["passes"] = [[asdict(s) for s in p] for p in passes]
        result["setup_samples_s"] = setups
        misses = []
    else:
        plain, traced, profiled = [], [], []
        for job in jobs:
            plain.append(run_job(job, "plain", digests[job.name]))
            traced.append(run_job(job, "trace", digests[job.name]))
            profiled.append(run_job(job, "profile", digests[job.name]))
        samples = [sample for sample, _ in plain + traced + profiled]
        metrics, layers, misses = {}, {}, []
        if not any(s.problem for s in samples):
            metrics, layers = per_layer(plain, traced, profiled)
            misses = check_predictions(workload, layers)
        result["samples"] = [asdict(s) for s in samples]
        result["layers"] = layers
        result["solve_coboundary_log"] = {
            job.name: record["layers"]["cohochschild.solve_coboundary"].get("log", [])
            for job, (_, record) in zip(jobs, traced) if record is not None}
        result["prediction_misses"] = misses
    failed = sum(1 for s in samples if s.problem)
    result.update(
        attempted=len(samples),
        failed=failed,
        fail_share=failed / len(samples),
        problems=[f"{s.job} ({s.mode}): {s.problem}" for s in samples if s.problem],
        correct=failed == 0 and not misses,
        metrics=metrics,
    )
    path = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["path"] = str(path)
    return result


def declared_metrics(trace: bool) -> list:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def report(result: dict, declared) -> dict:
    """Print a run's metrics by name with units; return them in result form."""
    meta = result["meta"]
    print(f"# {result['workload']}: seed {meta['seed']}, {meta['rational_backend']}, "
          f"Python {meta['python']}, nproc {meta['nproc']}, git {meta['git_sha']}, "
          f"record {result['path']}")
    for line in result["problems"] + result.get("prediction_misses", []):
        print(f"#   FAIL {line}")
    if "passes" in result:
        print(f"#   {len(result['passes'])} timed passes over {len(meta['jobs'])} jobs; "
              "raw seconds: " + ", ".join(f"{k} {v:.4f}" for k, v in result["raw_s"].items()))
    out = {}
    for name, unit in declared:
        if name not in result["metrics"]:
            continue
        value = result["metrics"][name]
        out[name] = {"value": value, "unit": unit}
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{result['workload']:<11} {name:<44} {shown} {unit}")
    print(f"{result['workload']:<11} {'fail_share':<44} {result['fail_share']:>16.6f} ratio "
          f"({result['failed']}/{result['attempted']} jobs)")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    # One core for this process and, by inheritance, every job: the reference
    # loop then runs on the core whose speed it stands for.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if not Path("src/starlift/cli.py").is_file():
            raise BenchError("src/starlift is missing: run from a full checkout")
        declared = declared_metrics(bool(args.trace))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        shown = report(result, declared)
        missing = [name for name, _ in declared if name not in shown]
        if missing and result["correct"]:
            print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
            return 2
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + name: m for name, m in shown.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

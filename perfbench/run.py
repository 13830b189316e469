"""threadwalk benchmark: real CLI commands on seeded synthetic corpora.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The package is not installed: every
command runs as ``python -m threadwalk.cli`` with ``PYTHONPATH=<checkout>/src``,
so each commit is measured from its own source. Workloads are defined in
``workloads.py``.

Load model: one user running a batch tool, a closed loop with one client.
Each command runs in a fresh process to completion before the next starts,
pinned to one BLAS thread, repeated until ``--seconds`` have passed (at
least three times). A set-up probe runs before each command.

Times are scaled to a reference host speed. On a shared host a core's
speed changes by up to 1.9x for seconds to minutes at a time, as other
tenants load it, and a process's CPU time moves with its wall time, so
raw times of the same code spread too wide to compare two commits. The
harness therefore keeps itself and every child on one CPU, and while a
process runs, a harness thread times a fixed loop of small numpy
operations (``reference_loop``) on that CPU every ``SAMPLE_EVERY_S``,
taking about 1 % of it. A process's scaled time is its launch-to-exit
time multiplied by its mean speed, ``REFERENCE_S`` over each loop time
sampled meanwhile: what it would have taken on a core where the loop
takes ``REFERENCE_S``. A loop that the child preempts reads as a speed
near zero, so it barely moves the mean. The loop does not depend on the
code under test, so a faster program still gives a lower scaled time.
Unscaled times are kept in the results file.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics: ``wall_s`` (median scaled launch-to-exit time of the command),
``pois_per_s`` (fixed work over ``wall_s``), ``setup_s`` (median scaled
time of the probes, fresh processes that import the CLI and load the
inputs) and ``peak_rss_mb`` (median peak resident memory of the command).
With ``--trace 1`` the same untraced runs are followed by one traced run
(see ``tracer.py``) and the per-layer metrics are reported instead, in
unscaled seconds, with the tracing overhead: the traced ``cli.total_s``
minus the untraced median ``wall_s`` at the traced run's host speed.

Every run's outputs are digested (see ``workloads.output_digest``).
``digests.json`` holds the digests recorded when the benchmark was added,
for each workload's default seed and seeds 0 to 21. At a recorded seed the
digest must match; at any other seed every run must give the same digest.
A run fails on a non-zero exit, a traceback or a digest mismatch. A results
file with the environment, input statistics, samples and digests is
written to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import THREAD_PINS, WORKLOADS, Workload, output_digest

# Before numpy loads BLAS: the harness shares its CPU with the command.
os.environ.update(THREAD_PINS)
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
MIN_RUNS = 3
RUN_TIMEOUT_S = 60.0  # a command that hangs is killed and counts as failed
# Time of ``reference_loop`` on an uncontended core of the 2-vCPU x86-64 VM
# the benchmark was defined on. Scaled times are in seconds on that core.
REFERENCE_S = 0.0006
SAMPLE_EVERY_S = 0.05
_REF_X = np.random.default_rng(0).random((32, 512))
_REF_W = np.random.default_rng(1).random((512, 2))
_REF_GROUPS = np.arange(32) % 5


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small numpy operations, like those
    of a training step: the current speed of this CPU. It tracks the
    commands' slowdowns about twice as closely as a pure-Python loop did."""
    start = time.perf_counter()
    for _ in range(20):
        z = _REF_X @ _REF_W
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        _REF_X.T @ p
        np.add.at(np.zeros((5, 2)), _REF_GROUPS, p)
    return time.perf_counter() - start


def sample_speed(stop: threading.Event, samples: list[float]) -> None:
    """Time ``reference_loop`` every ``SAMPLE_EVERY_S`` until ``stop`` is set."""
    while not stop.wait(SAMPLE_EVERY_S):
        samples.append(reference_loop())


def pin_to_one_cpu() -> None:
    """Keep the harness and its children on one CPU, so that the reference
    loop measures the speed of the core the commands run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ)  # holds THREAD_PINS, set at import
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("THREADWALK_OUT", None)
    return env


def timed_process(argv: list[str], stdout: Path, stderr: Path) -> dict:
    """Run ``argv`` to completion; wall time from launch to exit, that time
    scaled by the mean speed sampled on the same CPU meanwhile, and peak RSS."""
    samples: list[float] = []
    stop = threading.Event()
    sampler = threading.Thread(target=sample_speed, args=(stop, samples))
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            stop.set()
            sampler.join()
    # os.wait4 reaped the child; record its status so Popen does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not samples:  # a process shorter than one sampling period
        samples.append(reference_loop())
    speed = statistics.mean(REFERENCE_S / t for t in samples)
    return {
        "wall_s": wall,
        "scaled_s": wall * speed,
        "speed": speed,
        "reference_loop_s": samples,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def ensure_inputs(workload: Workload, seed: int) -> tuple[Path, dict]:
    """Generate the inputs for (spec, seed) once; later runs reuse them."""
    dest = WORK / "inputs" / f"{workload.name}-{seed}-{workload.input_key}"
    if not (dest / "stats.json").is_file():
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), workload.name, str(seed), str(dest)],
            env=child_env(), cwd=ROOT, check=True,
        )
    return dest, json.loads((dest / "stats.json").read_text(encoding="utf-8"))


def setup_probe(workload: Workload, inputs: Path, scratch: Path) -> dict:
    """Times of one set-up probe (see ``probe.py``)."""
    argv = [sys.executable, str(HERE / "probe.py"), str(inputs / "corpus.jsonl")]
    if workload.embedding_dim is not None:
        argv.append(str(inputs / "embeddings.txt"))
    probe = timed_process(argv, scratch / "probe.out", scratch / "probe.err")
    if probe["exit"] != 0:
        raise RuntimeError(f"set-up probe failed: {(scratch / 'probe.err').read_text()}")
    return probe


def run_command(workload: Workload, inputs: Path, rundir: Path, prefix: list[str]) -> dict:
    """One command in a fresh process; returns its measurements and digest."""
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    embeddings = inputs / "embeddings.txt" if workload.embedding_dim is not None else None
    argv = prefix + workload.command(inputs / "corpus.jsonl", embeddings, rundir / "out")
    record = timed_process(argv, rundir / "stdout.txt", rundir / "stderr.txt")
    stderr = (rundir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    record["error"] = None
    if record["exit"] != 0 or "Traceback" in stderr:
        record["error"] = f"exit {record['exit']}: {stderr.strip()[-500:]}"
    record["digest"] = None
    if record["error"] is None:
        try:
            record["digest"] = output_digest(workload, rundir / "out")
        except (OSError, KeyError, ValueError) as exc:
            record["error"] = f"unreadable output: {exc}"
    return record


def check_digests(runs: list[dict], recorded: str | None) -> str | None:
    """Mark runs whose digest differs from the reference; return the reference."""
    seen = collections.Counter(r["digest"] for r in runs if r["digest"] is not None)
    reference = recorded or (seen.most_common(1)[0][0] if seen else None)
    for r in runs:
        if r["error"] is None and r["digest"] != reference:
            r["error"] = f"digest {r['digest']} != expected {reference}"
    return reference


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


def layer_metrics(spans_path: Path, stats: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced run's spans and counters."""
    meta = json.loads(Path(str(spans_path) + ".json").read_text(encoding="utf-8"))
    with np.load(spans_path) as data:
        names = list(data["names"])
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    installed = set(meta["installed"])

    def select(span: str) -> np.ndarray:
        return name == names.index(span) if span in names else np.zeros(len(name), dtype=bool)

    def total(span: str) -> float:
        return float(dur[select(span)].sum())

    def count(span: str) -> int:
        return int(select(span).sum())

    def own(span: str) -> float:
        return float(self_time[select(span)].sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fixed_pois = stats["pois_per_replicate"] * stats["replicates"]
    walks = meta["walks"]
    total_s = traced_wall - meta["post_main_s"]
    m: dict[str, tuple[float, str]] = {}
    if "corpus.load" in installed:
        m["corpus.load_s"] = (total("corpus.load"), "s")
        m["corpus.nodes_per_s"] = (ratio(stats["nodes"], total("corpus.load")), "node/s")
    if "corpus.validate" in installed:
        m["corpus.validate_s"] = (total("corpus.validate"), "s")
    if "embeddings.provider" in installed:
        m["embeddings.provider_s"] = (total("embeddings.provider"), "s")
        m["embeddings.providers_built"] = (count("embeddings.provider"), "count")
    if "embeddings.lookup" in installed:
        m["embeddings.lookup_s"] = (total("embeddings.lookup"), "s")
        m["embeddings.lookups"] = (count("embeddings.lookup"), "count")
    if "embeddings.embed" in installed:
        m["embeddings.embeds"] = (count("embeddings.embed"), "count")
    if {"embeddings.lookup", "embeddings.embed"} <= installed:
        hit = 1.0 - ratio(count("embeddings.embed"), count("embeddings.lookup"))
        m["embeddings.hit_ratio"] = (hit, "ratio")
    if "walks.rng" in installed:
        m["walks.rng_s"] = (total("walks.rng"), "s")
    if "walks.sample" in installed:
        samples, raw = walks["samples"], walks["raw_steps"]
        m["walks.sample_s"] = (total("walks.sample"), "s")
        m["walks.samples"] = (samples, "count")
        m["walks.raw_steps"] = (raw, "count")
        m["walks.revisit_ratio"] = (ratio(raw - (walks["collected"] - samples), raw), "ratio")
        m["walks.mean_collected"] = (ratio(walks["collected"], samples), "count")
        m["walks.empty_context_fraction"] = (ratio(walks["len_hist"].get("1", 0), samples), "ratio")
        for k in range(1, 5):
            m[f"walks.len_hist.{k}"] = (walks["len_hist"].get(str(k), 0), "count")
    if "features.featurize" in installed:
        m["features.featurize_s"] = (total("features.featurize"), "s")
        m["features.self_s"] = (own("features.featurize"), "s")
        m["features.pois_per_s"] = (ratio(fixed_pois, total("features.featurize")), "PoI/s")
    if "features.aggregate" in installed:
        m["features.aggregate_s"] = (total("features.aggregate"), "s")
    if "model.train" in installed:
        m["model.train_s"] = (total("model.train"), "s")
        m["model.self_s"] = (own("model.train"), "s")
        m["pipeline.replicates"] = (count("model.train"), "count")
    if "model.minibatch" in installed:
        m["model.minibatch_s"] = (total("model.minibatch"), "s")
        m["model.minibatch_steps"] = (count("model.minibatch"), "count")
        m["model.epoch_loss_s"] = (total("model.epoch_loss"), "s")
        m["model.epoch_loss_passes"] = (count("model.epoch_loss"), "count")
    if "evaluation.split" in installed:
        m["evaluation.split_s"] = (total("evaluation.split"), "s")
    if "evaluation.evaluate" in installed:
        m["evaluation.evaluate_s"] = (total("evaluation.evaluate"), "s")
    if "pipeline.artifact_write" in installed:
        m["pipeline.artifact_write_s"] = (total("pipeline.artifact_write"), "s")
    m["pipeline.self_s"] = (own("cli.main"), "s")
    m["cli.import_s"] = (meta["import_s"], "s")
    m["cli.total_s"] = (total_s, "s")
    m["cli.trace_overhead_s"] = (total_s - untraced_wall, "s")

    baseline = None
    featurize = np.flatnonzero(select("features.featurize"))
    if "walks.sample" in installed and len(featurize) > 0:
        # The first featurization of a replicate is its train side.
        train_side = featurize[0]
        walks_in = select("walks.sample") & (parent == train_side)
        baseline = {
            "featurize_train_s": float(dur[train_side]),
            "train_pois": int(walks_in.sum()),
            "featurize_us_per_poi": 1e6 * ratio(float(dur[train_side]), int(walks_in.sum())),
            "walk_sampling_s": float(dur[walks_in].sum()),
            "train_s": total("model.train"),
            "minibatch_s": total("model.minibatch"),
            "epoch_loss_s": total("model.epoch_loss"),
            "evaluate_s": total("evaluation.evaluate"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return {"metrics": metrics, "baseline": baseline}


def environment(seed: int) -> dict:
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "harness_cpus": sorted(os.sched_getaffinity(0)),
        "reference_loop": {"reference_s": REFERENCE_S, "sample_every_s": SAMPLE_EVERY_S},
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
        "workload_seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "threadwalk" / "__init__.py").is_file():
        print(f"error: no threadwalk package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    inputs, stats = ensure_inputs(workload, args.seed)
    scratch = WORK / "runs" / workload.name
    scratch.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    if not args.trace:
        setup_probe(workload, inputs, scratch)  # warms the bytecode and page caches

    # A set-up probe precedes each command, so that set-up time is sampled
    # across the whole run, as the command is, and not in one burst.
    cli = [sys.executable, "-m", "threadwalk.cli"]
    runs: list[dict] = []
    probes: list[dict] = []
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < args.seconds:
        if not args.trace:
            probes.append(setup_probe(workload, inputs, scratch))
        runs.append(run_command(workload, inputs, scratch / f"run{len(runs)}", cli))
    traced = None
    if args.trace:
        spans = scratch / "spans.npz"
        tracer = [sys.executable, str(HERE / "tracer.py"), str(spans)]
        traced = run_command(workload, inputs, scratch / "traced", tracer)

    attempts = runs + ([traced] if traced else [])
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(workload.name, {}).get(str(args.seed))
    reference = check_digests(attempts, expected)
    ok = [r for r in runs if r["error"] is None] or runs
    wall = quartiles([r["scaled_s"] for r in ok])
    raw_wall = quartiles([r["wall_s"] for r in ok])
    rss = quartiles([r["rss_mb"] for r in ok])
    failed = sum(r["error"] is not None for r in attempts)
    fixed_pois = stats["pois_per_replicate"] * stats["replicates"]

    results = {
        "workload": workload.name,
        "environment": environment(args.seed),
        "inputs": stats,
        "command": workload.command(Path("corpus.jsonl"), Path("embeddings.txt"), Path("out")),
        "digest": reference,
        "digest_recorded": expected is not None,
        "attempted": len(attempts),
        "failed": failed,
        "error_rate": failed / len(attempts),
        "errors": [r["error"] for r in attempts if r["error"]],
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "peak_rss_mb": rss,
        "setup_s": quartiles([p["scaled_s"] for p in probes]) if probes else None,
        "raw_setup_s": quartiles([p["wall_s"] for p in probes]) if probes else None,
        "probes": probes,
        "runs": runs,
    }
    if traced:
        # The untraced median at the traced run's host speed, so the overhead
        # is not host-speed drift between the two.
        untraced = wall["median"] / traced["speed"]
        layers = layer_metrics(scratch / "spans.npz", stats, traced["wall_s"], untraced)
        results["traced_run"] = traced
        results["per_layer"] = layers["metrics"]
        results["baseline"] = layers["baseline"]
        metrics = layers["metrics"]
    else:
        metrics = {
            "wall_s": {"value": wall["median"], "unit": "s"},
            "pois_per_s": {"value": fixed_pois / wall["median"], "unit": "PoI/s"},
            "setup_s": {"value": results["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": rss["median"], "unit": "MB"},
        }
    outdir = WORK / "results"
    outdir.mkdir(parents=True, exist_ok=True)
    result_file = outdir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(
        f"{workload.name} seed={args.seed}: {stats['trees']} trees, {stats['nodes']} nodes, "
        f"{fixed_pois} PoIs over {stats['replicates']} replicates"
    )
    print(
        f"wall_s median {wall['median']:.3f} (q1 {wall['q1']:.3f}, q3 {wall['q3']:.3f}, "
        f"n={wall['n']}; unscaled {raw_wall['median']:.3f}); "
        f"error_rate {failed}/{len(attempts)}; digest {reference}"
        + (" (recorded)" if expected else "")
    )
    if traced:
        print(f"tracing overhead {metrics['cli.trace_overhead_s']['value']:.3f} s")
    for error in results["errors"]:
        print(f"failed run: {error}")
    if results.get("baseline"):
        print("baseline: " + json.dumps(results["baseline"]))
    print(f"results: {result_file.relative_to(ROOT)}")
    summary = {"correct": failed == 0, "attempted": len(attempts), "failed": failed}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

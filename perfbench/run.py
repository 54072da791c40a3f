"""End-to-end and per-layer benchmark of the PS compiler and runtime.

Usage (from the repository root)::

    python3 perfbench/run.py --workload relax --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload relax --seed 1 --seconds 12 --trace 1

Workloads: ``relax``, ``recur``, ``compile`` and ``serve`` (see
``perfbench/README.md``). One closed-loop caller in one process runs a
fixed number of operations, ``ROUNDS_PER_SECOND[workload] * seconds``
whole rounds after untimed warm-up rounds, and checks each operation's
output against an independent reference. The last line printed is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
spans around every layer are recorded and the per-layer metrics are
printed instead, and the spans are written as Chrome trace-event JSON
under ``.perfbench/``.

Every run points ``$REPRO_NATIVE_CACHE`` (and ``$TMPDIR``) at a fresh
directory under ``.perfbench/`` and deletes it at the end, so no run
inherits compiled kernels or calibration from another and ``~/.cache``
is never touched.
"""

import time

T_START = time.perf_counter()  # set-up probes time from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: whole rounds per second of ``--seconds``: sized so that the timed
#: phase lasts about ``--seconds`` on a 2-CPU x86 host for ``relax``,
#: and longer for the workloads whose set-up is short, so that every
#: run spans about the same wall time (``serve``, whose short operations
#: drift most with the host, about twice ``--seconds``)
ROUNDS_PER_SECOND = {"relax": 20, "recur": 27, "compile": 6, "serve": 200}
#: untimed rounds before the timed phase
WARMUP_ROUNDS = {"relax": 3, "recur": 3, "compile": 1, "serve": 30}
#: fresh-process set-ups per run; ``setup_s`` is their median. More where
#: a set-up is short (``compile`` builds no native kernels).
SETUP_PROBES = {"relax": 3, "recur": 3, "compile": 7, "serve": 3}
#: a pinned backend slower than this multiple of auto on its first run
#: is not run again when ``plan.auto_over_best`` is measured
PIN_CUTOFF = 5.0
PIN_REPEATS = 7


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["relax", "recur", "compile", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_probe(workload: str) -> int:
    """Child-process body: set the workload up from a cold interpreter and
    print how long it took from the top of this file."""
    from workloads import WORKLOADS

    w = WORKLOADS[workload]()
    try:
        w.setup()
        elapsed = time.perf_counter() - T_START
    finally:
        w.close()
        _stop_children()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _setup_probe_run(args, run_dir: Path, k: int) -> float:
    """One set-up in a fresh interpreter with its own empty cache."""
    env = dict(os.environ, REPRO_NATIVE_CACHE=str(run_dir / f"probe-{k}"))
    # A session of its own, so that a probe that hangs is killed together
    # with every process it started.
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"set-up probe {k} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def _stop_children() -> None:
    """Stop and wait for every process this one started. The process
    backend forks pool workers, and its shared-memory segments start
    ``multiprocessing``'s resource-tracker process, which would otherwise
    outlive this one for a moment after it exits."""
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _timed_phase(w, args, run_dir: Path, first: int, rounds: int, tracer) -> tuple[dict, list]:
    """The timed rounds, cut into slices with one set-up probe between
    each two. The host's speed drifts over tens of seconds; spreading a
    run's timed work over the whole run, at no extra wall time, lets
    each run sample more of that drift and so repeat better. A traced
    run does no probes."""
    probes = 0 if tracer is not None else SETUP_PROBES[args.workload]
    slices = probes + 1
    total = {"latencies": [], "by_label": {}, "failed": 0, "mismatched": 0, "ok_by_label": {}}
    setup_samples = []
    start = first
    for k in range(slices):
        n = rounds // slices + (1 if k < rounds % slices else 0)
        part = _run_rounds(w, start, n, tracer, timed=True)
        start += n
        total["latencies"] += part["latencies"]
        for label, times in part["by_label"].items():
            total["by_label"].setdefault(label, []).extend(times)
        total["failed"] += part["failed"]
        total["mismatched"] += part["mismatched"]
        for label, count in part["ok_by_label"].items():
            total["ok_by_label"][label] = total["ok_by_label"].get(label, 0) + count
        if k < probes:
            setup_samples.append(_setup_probe_run(args, run_dir, k))
    return total, setup_samples


def _run_rounds(w, first: int, rounds: int, tracer, timed: bool) -> dict:
    """Run ``rounds`` whole rounds; per operation, time the call alone and
    then check its output (the check is outside the timing). Returns the
    operation times, also grouped by operation label."""
    latencies: list[float] = []
    by_label: dict[str, list[float]] = {}
    failed = mismatched = 0
    ok_by_label: dict[str, int] = {}
    for r in range(first, first + rounds):
        for label, call, check in w.round(r):
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # an operation that raises is a failed one
                out = exc
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed)
            by_label.setdefault(label, []).append(elapsed)
            if isinstance(out, Exception):
                failed += 1
                if timed:
                    sys.stderr.write(f"{label}: raised {type(out).__name__}: {out}\n")
            elif check(out):
                ok_by_label[label] = ok_by_label.get(label, 0) + 1
            else:
                failed += 1
                mismatched += 1
                if timed:
                    sys.stderr.write(f"{label}: output differs from the reference\n")
            del out
    return {"latencies": latencies, "by_label": by_label, "failed": failed,
            "mismatched": mismatched, "ok_by_label": ok_by_label}


def _end_to_end(result: dict, setup: list[float]) -> dict:
    """Throughput is the operations that succeeded over the summed time
    of every timed operation: the rate of the closed loop with the
    set-up probes and the output checks taken out."""
    lat = result["latencies"]
    metrics = {
        "throughput_ops_s": (len(lat) - result["failed"]) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}; run from a full checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        return _setup_probe(args.workload)

    STATE.mkdir(exist_ok=True)
    run_dir = STATE / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    os.environ["REPRO_NATIVE_CACHE"] = str(run_dir / "main")
    # the C compiler's and Python's temporary files stay in the checkout
    (run_dir / "tmp").mkdir()
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    try:
        return _main(args, run_dir)
    finally:
        _stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)


def _main(args, run_dir: Path) -> int:
    from workloads import WORKLOADS

    rounds = ROUNDS_PER_SECOND[args.workload] * args.seconds
    warmup = WARMUP_ROUNDS[args.workload]
    traced = bool(args.trace)

    w = WORKLOADS[args.workload]()
    w.inputs(args.seed)

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    w.setup()
    try:
        if tracer is not None:
            tracer.phase = "warmup"
        _run_rounds(w, 0, warmup, tracer, timed=False)
        if tracer is not None:
            tracer.phase = "timed"
        result, setup_samples = _timed_phase(w, args, run_dir, warmup, rounds, tracer)
        if tracer is not None:
            tracer.enabled = False
        if args.workload == "compile":
            for label in w.verify():
                sys.stderr.write(f"{label}: compiled program differs from its reference\n")
                moved = result["ok_by_label"].pop(label, 0)
                result["failed"] += moved
                result["mismatched"] += moved
        e2e = _end_to_end(result, setup_samples)
        if traced:
            metrics, auto_rows = _per_layer(tracer, w, len(result["latencies"]))
            _write_trace(tracer, args, e2e, metrics, auto_rows)
        else:
            metrics = e2e
            sys.stderr.write(f"setup samples (s): {setup_samples}\n")
            if len(result["latencies"]) >= 100:
                p90 = statistics.quantiles(result["latencies"], n=10)[8] * 1e3
                sys.stderr.write(f"latency p90 (ms, not a gated metric): {p90:.4f}\n")
    finally:
        w.close()
        if tracer is not None:
            tracer.uninstall()

    units = _units("per_layer" if traced else "end_to_end")
    print(json.dumps({
        "correct": result["mismatched"] == 0,
        "attempted": len(result["latencies"]),
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


# -- per-layer metrics --------------------------------------------------------

def _units(kind: str) -> dict:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"), in
    ``BENCHMARK.json`` order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _per_layer(t, w, ops: int) -> tuple[dict, list[dict]]:
    """Derive every per-layer metric from the spans.

    Times named ``*_ms`` are self time per timed operation. A layer that
    did no work in the timed phase (the front end on the warm workloads)
    reports its total over set-up instead, which is what set-up time
    pays for it."""
    def phase_of(name: str) -> str:
        return "timed" if t.calls("timed", name) else "setup"

    def per_op(seconds_in_timed: float, seconds_in_setup: float) -> float:
        return 1e3 * seconds_in_timed / ops if seconds_in_timed else 1e3 * seconds_in_setup

    def self_ms(*names: str) -> float:
        return per_op(sum(t.self_s("timed", n) for n in names),
                      sum(t.self_s("setup", n) for n in names))

    def incl_ms(name: str) -> float:
        return 1e3 * t.incl_s("timed", name) / ops

    def mean_value(value: str, span: str) -> float:
        phase = phase_of(span)
        calls = t.calls(phase, span)
        return t.values.get((phase, value), 0.0) / calls if calls else 0.0

    def all_phases(fn, name: str) -> float:
        return sum(fn(p, name) for p in ("setup", "warmup", "timed"))

    lex_phase = phase_of("ps.lex")
    lex_s = t.self_s(lex_phase, "ps.lex")
    roundtrip = t.incl_s("timed", "serve.roundtrip")
    transport = (roundtrip - t.incl_s("timed", "serve.handle")
                 - t.values.get(("timed", "serve.client_codec_s"), 0.0))
    m = {
        "ps.lex_ms": self_ms("ps.lex"),
        "ps.parse_ms": self_ms("ps.parse"),
        "ps.analyze_ms": self_ms("ps.analyze"),
        "ps.tokens_per_s": t.values.get((lex_phase, "ps.tokens"), 0.0) / lex_s if lex_s else 0.0,
        "hyperplane.transform_ms": self_ms("hyperplane.transform"),
        "graph.build_ms": self_ms("graph.build"),
        "graph.edges": mean_value("graph.edges", "graph.build"),
        "schedule.schedule_ms": self_ms("schedule.schedule", "schedule.annotate"),
        "schedule.merge_ms": self_ms("schedule.merge"),
        "schedule.loops": mean_value("schedule.loops", "schedule.schedule"),
        "codegen.c_ms": self_ms("codegen.c"),
        "codegen.python_ms": self_ms("codegen.python"),
        "codegen.c_bytes": mean_value("codegen.c_bytes", "codegen.c"),
        "plan.build_ms": self_ms("plan.build"),
        "plan.lookup_ms": 1e3 * t.self_s("timed", "plan.lookup") / ops,
        "plan.builds_per_op": t.calls("timed", "plan.build") / ops,
        "plan.auto_over_best": 0.0,
        "kernels.warm_s": all_phases(t.incl_s, "kernels.warm"),
        "kernels.libraries_loaded": float(len(t.libraries)),
        "kernels.load_library_s": all_phases(t.incl_s, "kernels.load_library"),
        "backends.equation_evals_per_op": t.calls("timed", "backends.exec_equation") / ops,
        "runtime.execute_ms": incl_ms("runtime.execute"),
        "runtime.session_overhead_ms": incl_ms("runtime.session_run") - incl_ms("runtime.execute"),
        "runtime.gc_collected_per_op": t.values.get(("timed", "gc.collected"), 0.0) / ops,
        "serve.roundtrip_ms": 1e3 * roundtrip / ops,
        "serve.handle_ms": 1e3 * t.self_s("timed", "serve.handle") / ops,
        "serve.transport_ms": 1e3 * transport / ops,
        "serve.encode_ms": 1e3 * t.self_s("timed", "serve.encode") / ops,
        "serve.decode_ms": 1e3 * t.self_s("timed", "serve.decode") / ops,
        "serve.request_bytes": _mean_per_call(t, "serve.request_bytes", "serve.request"),
        "serve.response_bytes": _mean_per_call(t, "serve.response_bytes", "serve.response"),
    }
    for name in ("vector_span", "nest_kernel", "chunked_loop", "collapsed_loop",
                 "sequential_loop", "scan_loop", "pipeline_group", "fission_loop"):
        m[f"backends.{name}_ms"] = 1e3 * t.self_s("timed", f"backends.{name}") / ops
    rows: list[dict] = []
    if w.modules():
        m["plan.auto_over_best"], rows = _auto_over_best(w)
    return m, rows


def _mean_per_call(t, value: str, span: str) -> float:
    calls = t.calls("timed", span)
    return t.values.get(("timed", value), 0.0) / calls if calls else 0.0


def _auto_over_best(w) -> tuple[float, list[dict]]:
    """Per module: the auto plan's measured time over the fastest backend
    pinned by hand, among every candidate auto chooses from. A candidate
    whose first run is slower than ``PIN_CUTOFF`` times auto keeps that
    one time; the rest run interleaved with auto, so drift in the host
    hits every side alike. Returns the geometric mean of the ratios over
    the modules, and one row per module."""
    import oracles
    from repro.plan.planner import AUTO_CANDIDATES

    def timed_run(session, module, call_args, **pin) -> tuple[float, dict]:
        t0 = time.perf_counter()
        out = session.run(module, call_args, **pin)
        return (time.perf_counter() - t0) * 1e3, out

    rows = []
    for session, module, call_args, want in w.modules():
        sizes = {k: v for k, v in call_args.items() if not hasattr(v, "shape")}
        row = {"module": module, "auto_backend": session.plan(module, sizes).backend}
        first_auto, _ = timed_run(session, module, call_args)
        times: dict[str, list[float]] = {"auto": []}
        for backend in AUTO_CANDIDATES:
            session.warm(module, sizes, prime=False, backend=backend)
            first, out = timed_run(session, module, call_args, backend=backend)
            row[f"{backend}_correct"] = oracles.matches(out, want)
            del out
            if first > PIN_CUTOFF * first_auto:
                row[f"{backend}_ms"] = first
            else:
                times[backend] = []
        for _ in range(PIN_REPEATS):
            for variant, samples in times.items():
                pin = {} if variant == "auto" else {"backend": variant}
                samples.append(timed_run(session, module, call_args, **pin)[0])
        for variant, samples in times.items():
            row[f"{variant}_ms"] = statistics.median(samples)
        row["ratio"] = row["auto_ms"] / min(row[f"{b}_ms"] for b in AUTO_CANDIDATES)
        rows.append(row)
    return statistics.geometric_mean([r["ratio"] for r in rows]), rows


def _write_trace(t, args, e2e: dict, metrics: dict, auto_rows: list[dict]) -> None:
    stem = STATE / f"trace-{args.workload}-seed{args.seed}"
    meta = {"workload": args.workload, "seed": args.seed, "host": _host()}
    t.write_chrome(f"{stem}.json", meta)
    with open(f"{stem}-summary.json", "w", encoding="utf-8") as fh:
        json.dump({**meta, "end_to_end_traced": e2e, "per_layer": metrics,
                   "auto_over_best": auto_rows,
                   "spans": t.summary()}, fh, indent=1)
    sys.stderr.write(f"trace written to {stem}.json and {stem}-summary.json\n")


def _host() -> dict:
    import sysconfig

    import numpy

    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {"cpus": os.cpu_count(), "gil": gil, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "cc": sysconfig.get_config_var("CC")}


if __name__ == "__main__":
    sys.exit(main())

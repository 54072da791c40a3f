"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

* Every workload runs end to end in a short mode (``--seconds 1``) and
  prints the result line ``BENCHMARK.json`` promises, in both modes.
* Every oracle counts a deliberately corrupted output as a failed
  operation: a float result moved by one ulp, an int result by one.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import progen
import run
from workloads import COMPILE_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_prints_every_end_to_end_metric(workload):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1")
    assert out["correct"] is True
    assert out["failed"] == 0
    per_round = len(COMPILE_UNITS) + 2 if workload == "compile" else 3
    assert out["attempted"] == run.ROUNDS_PER_SECOND[workload] * per_round
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["compile", "serve"])
def test_traced_run_prints_every_per_layer_metric(workload):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert out["correct"] is True
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    trace = json.loads((run.STATE / f"trace-{workload}-seed3.json").read_text())
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    layer = "ps" if workload == "compile" else "serve"
    assert any(e["cat"] == layer for e in events)


#: Runs the command in its argv as a child and becomes the reaper of its
#: descendants (``PR_SET_CHILD_SUBREAPER``), so that a process that outlives
#: the one that started it is handed to this one and counted when it ends.
REAPER = """
import ctypes, os, subprocess, sys
if ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) != 0:
    sys.exit("prctl failed")
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=False).returncode
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
print(code, orphans)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl")
def test_run_leaves_no_process_behind():
    # A traced relax run pins the process backend, whose shared memory
    # starts multiprocessing's resource tracker; the set-up probes are
    # processes too. Each must end before the process that started it.
    proc = subprocess.run(
        [sys.executable, "-c", REAPER, sys.executable, str(HERE / "run.py"),
         "--workload", "relax", "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"], proc.stderr


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "relax", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=False, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _corrupt(out: dict) -> dict:
    """The smallest change to the first result array: one ulp for a float
    element, one unit for an int element."""
    bad = dict(out)
    name = next(k for k, v in out.items() if isinstance(v, np.ndarray))
    arr = np.array(out[name])
    flat = arr.reshape(-1)
    k = flat.size // 2
    if arr.dtype.kind == "f":
        flat[k] = np.nextafter(flat[k], np.inf)
    else:
        flat[k] += 1
    bad[name] = arr
    return bad


class _Corrupting:
    """A workload whose every operation returns a corrupted output."""

    def __init__(self, inner, corrupt):
        self.inner, self.corrupt = inner, corrupt

    def round(self, r):
        return [
            (label, lambda c=call: self.corrupt(c()), check)
            for label, call, check in self.inner.round(r)
        ]


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))


@pytest.mark.parametrize("workload", ["relax", "recur", "serve"])
def test_corrupted_outputs_count_as_failed(workload, private_cache):
    w = WORKLOADS[workload]()
    w.inputs(7)
    w.setup()
    try:
        clean = run._run_rounds(w, 0, 1, None, timed=False)
        assert clean["failed"] == 0
        bad = run._run_rounds(_Corrupting(w, _corrupt), 0, 1, None, timed=False)
        assert bad["failed"] == bad["mismatched"] == len(bad["latencies"]) == 3
    finally:
        w.close()


def test_corrupted_compiles_count_as_failed(private_cache):
    w = WORKLOADS["compile"]()
    w.inputs(7)
    w.setup()
    clean = run._run_rounds(w, 0, 1, None, timed=False)
    assert clean["failed"] == 0
    assert w.verify() == set()
    # Answer every compile with the next program's result: signatures,
    # the Figure-6 property and the executed outputs all disagree.
    ops = w.round(1)
    swapped = [
        (label, ops[(k + 1) % len(ops)][1], check)
        for k, (label, _, check) in enumerate(ops)
    ]
    w.round = lambda r: swapped
    bad = run._run_rounds(w, 0, 1, None, timed=False)
    assert bad["failed"] == bad["mismatched"] == len(ops)
    labels = list(w.first)
    w.first = {label: w.first[labels[(k + 1) % len(labels)]] for k, label in enumerate(labels)}
    assert w.verify() == set(labels)


@pytest.mark.parametrize("reference", [
    oracles.jacobi, oracles.gauss_seidel,
])
def test_relaxation_oracles_reject_one_ulp(reference):
    grid = {"M": 6, "maxK": 4, "InitialA": np.random.default_rng(1).random((8, 8))}
    want = reference(grid)
    assert oracles.matches(want, want)
    assert not oracles.matches(_corrupt(want), want)


def test_generated_reference_rejects_a_corrupted_output():
    program = progen.generate(11, 5)
    args = program.inputs(32, 1)
    want = program.reference(args)
    assert oracles.matches(want, want)
    assert not oracles.matches(_corrupt(want), want)

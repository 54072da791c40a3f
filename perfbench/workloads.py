"""The four workloads: what each sets up, one round of its operations,
and how every operation's output is checked.

An operation is one call into the public API. A workload is built in
three steps, kept apart so that only the program's own work is charged
to ``setup_s``:

1. ``inputs(seed)`` draws the inputs and computes their references
   (never timed);
2. ``setup()`` imports ``repro``, loads and compiles the modules, builds
   the native kernels into the private cache, warms and primes
   (``setup_s``);
3. ``round()`` returns the operations of one round, each a ``(label,
   call, check)`` triple: ``call()`` does the operation and ``check``
   says whether its output is right.

Every Session runs with the defaults a user gets: ``backend="auto"``
and one worker per CPU.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import oracles
import progen

Op = tuple[str, Callable[[], Any], Callable[[Any], bool]]

NPROC = os.cpu_count() or 1

JACOBI_SIZES = {"M": 128, "maxK": 30}
LINE_SWEEP_SIZES = {"n": 400, "m": 400}
MIXED_N = 200_000
ILINREC_N = 500_000
COUPLED_N = 200_000
COUPLED_COEFFS = {"c1": 0.45, "c2": 0.25, "c3": 0.35, "c4": 0.15}
SERVE_JACOBI = {"M": 16, "maxK": 8}
SERVE_N = 256
SCAN_A = 0.97

#: distinct inputs per module; operations cycle through them
POOL = {"relax": 3, "recur": 2, "serve": 8}

#: unit counts of the generated programs in the compile pool
COMPILE_UNITS = (2, 3, 4, 5, 6, 7) * 4
COMPILE_N = 100_000
#: the size each compiled program is run at when its output is checked
CHECK_N = 64
CHECK_JACOBI = {"M": 12, "maxK": 5}


def _options():
    from repro.runtime.executor import ExecutionOptions

    return ExecutionOptions(backend="auto", workers=NPROC)


def _session(**compiler):
    from repro.core.pipeline import CompilerOptions
    from repro.serve import Session

    return Session(_options(), CompilerOptions(**compiler))


def _rng(seed: int, salt: int):
    import numpy as np

    return np.random.default_rng([seed, salt])


def _checked(reference: dict) -> Callable[[Any], bool]:
    return lambda out: oracles.matches(out, reference)


class Relax:
    """Jacobi (Figure 1), Gauss-Seidel after the hyperplane rewrite and
    the Gauss-Seidel-style line sweep, each call a warm ``Session.run``."""

    name = "relax"

    def inputs(self, seed: int) -> None:
        m = JACOBI_SIZES["M"]
        n, w = LINE_SWEEP_SIZES["n"], LINE_SWEEP_SIZES["m"]
        self.grids = []
        for k in range(POOL["relax"]):
            rng = _rng(seed, k)
            grid = {**JACOBI_SIZES, "InitialA": rng.random((m + 2, m + 2))}
            sweep = {**LINE_SWEEP_SIZES, "G": rng.random((n + 1, w + 2))}
            self.grids.append((
                grid, oracles.jacobi(grid), oracles.gauss_seidel(grid),
                sweep, oracles.line_sweep(sweep),
            ))

    def setup(self) -> None:
        from repro.core.paper import (
            RELAXATION_GAUSS_SEIDEL_SOURCE,
            RELAXATION_JACOBI_SOURCE,
        )
        from repro.core.recurrences import LINE_SWEEP_SOURCE

        self.plain = _session()
        self.hyper = _session(hyperplane=True)
        self.jacobi = self.plain.load(RELAXATION_JACOBI_SOURCE)
        self.sweep = self.plain.load(LINE_SWEEP_SOURCE)
        self.gs = self.hyper.load(RELAXATION_GAUSS_SEIDEL_SOURCE)
        self.plain.warm(self.jacobi, JACOBI_SIZES)
        self.plain.warm(self.sweep, LINE_SWEEP_SIZES)
        self.hyper.warm(self.gs, JACOBI_SIZES)

    def modules(self) -> list[tuple[Any, str, dict, dict]]:
        """(session, module, args, reference) per module, first input."""
        grid, jac, gs, sweep, ls = self.grids[0]
        return [
            (self.plain, self.jacobi, grid, jac),
            (self.hyper, self.gs, grid, gs),
            (self.plain, self.sweep, sweep, ls),
        ]

    def round(self, r: int) -> list[Op]:
        grid, jac, gs, sweep, ls = self.grids[r % len(self.grids)]
        return [
            ("jacobi", lambda: self.plain.run(self.jacobi, grid), _checked(jac)),
            ("gauss_seidel", lambda: self.hyper.run(self.gs, grid), _checked(gs)),
            ("line_sweep", lambda: self.plain.run(self.sweep, sweep), _checked(ls)),
        ]

    def close(self) -> None:
        self.plain.close()
        self.hyper.close()


class Recur:
    """The recurrence corpus: Mixed after loop merging (fission), ILinRec
    (scan) and Coupled (pipeline), each call a warm ``Session.run``."""

    name = "recur"

    def inputs(self, seed: int) -> None:
        self.sets = []
        for k in range(POOL["recur"]):
            rng = _rng(seed, k)
            mixed = {
                "X": rng.integers(-9, 10, MIXED_N),
                "A": rng.integers(-1, 2, MIXED_N),
                "B": rng.integers(-9, 10, MIXED_N),
                "n": MIXED_N,
            }
            ilinrec = {
                "A": rng.integers(0, 2, ILINREC_N),
                "B": rng.integers(-1000, 1000, ILINREC_N),
                "n": ILINREC_N,
            }
            coupled = {"X": rng.random(COUPLED_N), **COUPLED_COEFFS, "n": COUPLED_N}
            self.sets.append((
                mixed, oracles.mixed(mixed), ilinrec, oracles.ilinrec(ilinrec),
                coupled, oracles.coupled(coupled),
            ))

    def setup(self) -> None:
        from repro.core.recurrences import COUPLED_SOURCE, ILINREC_SOURCE, MIXED_SOURCE

        # Loop merging fuses Mixed's three recurrences into one DO nest,
        # which the planner then splits (fission); ILinRec and Coupled
        # schedule the same with or without it.
        self.session = _session(merge_loops=True)
        self.mixed = self.session.load(MIXED_SOURCE)
        self.ilinrec = self.session.load(ILINREC_SOURCE)
        self.coupled = self.session.load(COUPLED_SOURCE)
        self.session.warm(self.mixed, {"n": MIXED_N})
        self.session.warm(self.ilinrec, {"n": ILINREC_N})
        self.session.warm(self.coupled, {**COUPLED_COEFFS, "n": COUPLED_N})

    def modules(self) -> list[tuple[Any, str, dict, dict]]:
        mixed, mref, ilin, iref, coup, cref = self.sets[0]
        return [
            (self.session, self.mixed, mixed, mref),
            (self.session, self.ilinrec, ilin, iref),
            (self.session, self.coupled, coup, cref),
        ]

    def round(self, r: int) -> list[Op]:
        mixed, mref, ilin, iref, coup, cref = self.sets[r % len(self.sets)]
        run = self.session.run
        return [
            ("mixed", lambda: run(self.mixed, mixed), _checked(mref)),
            ("ilinrec", lambda: run(self.ilinrec, ilin), _checked(iref)),
            ("coupled", lambda: run(self.coupled, coup), _checked(cref)),
        ]

    def close(self) -> None:
        self.session.close()


def _figure6(shape: list) -> bool:
    """Whether some top-level loop of ``Flowchart.shape()`` is Figure 6's
    ``DO K (DOALL I (DOALL J (...)))``: a DO whose only child is a DOALL
    whose only child is a DOALL."""
    def nest(node, keywords: tuple) -> bool:
        if not (isinstance(node, tuple) and node[0] == keywords[0]):
            return False
        return len(keywords) == 1 or (
            len(node[2]) == 1 and nest(node[2][0], keywords[1:])
        )
    return any(nest(node, ("DO", "DOALL", "DOALL")) for node in shape)


class Compile:
    """Cold compiles: ``compile_source`` then ``CompileResult.plan`` at
    the program's sizes, with no execution and no native build."""

    name = "compile"

    def inputs(self, seed: int) -> None:
        from_paper = _paper_programs()
        generated = [
            (f"gen{k}", p.source, {"merge_loops": True}, {"n": COMPILE_N},
             lambda p=p: _generated_case(p))
            for k, p in enumerate(progen.program_pool(seed, COMPILE_UNITS))
        ]
        self.programs = from_paper + generated
        # Filled from the first (warm-up) round; every later compile of
        # the same source must reproduce it, and check() runs it.
        self.signatures: dict[str, tuple] = {}
        self.first: dict[str, Any] = {}

    def setup(self) -> None:
        from repro.core.pipeline import CompilerOptions, compile_source

        self.compile_source = compile_source
        self.compiler_options = CompilerOptions
        self.options = _options()

    def _compile(self, source: str, compiler: dict, sizes: dict):
        result = self.compile_source(source, self.compiler_options(**compiler))
        return result, result.plan(sizes, execution=self.options)

    def modules(self) -> list:
        return []  # nothing runs warm here, so there is no auto plan to rank

    def _check(self, label: str, shape_property: bool):
        def check(out) -> bool:
            result, plan = out
            sig = (result.flowchart.pretty(), plan.backend, tuple(plan.strategies()))
            if label not in self.signatures:
                self.signatures[label] = sig
                self.first[label] = result
            if shape_property and not _figure6(result.flowchart.shape()):
                return False
            return sig == self.signatures[label]
        return check

    def round(self, r: int) -> list[Op]:
        return [
            (label, lambda s=src, c=comp, z=sizes: self._compile(s, c, z),
             self._check(label, label in ("jacobi", "gauss_seidel")))
            for label, src, comp, sizes, _ in self.programs
        ]

    def verify(self) -> set[str]:
        """Run every distinct program once at a small size against its
        reference; returns the labels whose output was wrong."""
        wrong = set()
        for label, _, _, _, case in self.programs:
            result = self.first.get(label)
            if result is None:
                continue  # never compiled successfully; its ops already failed
            args, want = case()
            try:
                out = result.run(args, execution=_options())
            except Exception:
                wrong.add(label)
                continue
            if not oracles.matches(out, want):
                wrong.add(label)
        return wrong

    def close(self) -> None:
        """Nothing outlives an operation here."""


def _generated_case(program: progen.Program) -> tuple[dict, dict]:
    """Inputs at the check size and the program's own reference."""
    args = program.inputs(CHECK_N, program.seed)
    return args, program.reference(args)


def _paper_case(reference) -> Callable[[], tuple[dict, dict]]:
    def case() -> tuple[dict, dict]:
        m = CHECK_JACOBI["M"]
        args = {**CHECK_JACOBI, "InitialA": _rng(0, m).random((m + 2, m + 2))}
        return args, reference(args)
    return case


def _paper_programs() -> list[tuple]:
    from repro.core.paper import RELAXATION_GAUSS_SEIDEL_SOURCE, RELAXATION_JACOBI_SOURCE

    return [
        ("jacobi", RELAXATION_JACOBI_SOURCE, {}, JACOBI_SIZES, _paper_case(oracles.jacobi)),
        ("gauss_seidel", RELAXATION_GAUSS_SEIDEL_SOURCE, {"hyperplane": True},
         JACOBI_SIZES, _paper_case(oracles.gauss_seidel)),
    ]


class Serve:
    """Small ``run`` requests through one ``ReproClient`` connection to an
    in-process ``ReproDaemon`` on a localhost TCP socket."""

    name = "serve"

    def inputs(self, seed: int) -> None:
        m = SERVE_JACOBI["M"]
        self.requests = []
        for k in range(POOL["serve"]):
            rng = _rng(seed, k)
            grid = {**SERVE_JACOBI, "InitialA": rng.random((m + 2, m + 2))}
            isum = {"X": rng.integers(-1000, 1000, SERVE_N), "n": SERVE_N}
            scan = {"X": rng.random(SERVE_N), "a": SCAN_A, "n": SERVE_N}
            self.requests.append((
                grid, oracles.jacobi(grid), isum, oracles.isum(isum),
                scan, oracles.scan(scan),
            ))

    def setup(self) -> None:
        from repro.core.paper import RELAXATION_JACOBI_SOURCE
        from repro.core.recurrences import ISUM_SOURCE, SCAN_SOURCE
        from repro.serve import DaemonThread, ReproClient

        session = _session()
        self.jacobi = session.load(RELAXATION_JACOBI_SOURCE)
        self.isum = session.load(ISUM_SOURCE)
        self.scan = session.load(SCAN_SOURCE)
        session.warm(self.jacobi, SERVE_JACOBI)
        session.warm(self.isum, {"n": SERVE_N})
        session.warm(self.scan, {"a": SCAN_A, "n": SERVE_N})
        self.thread = DaemonThread(session, host="127.0.0.1", port=0)
        daemon = self.thread.start()
        self.client = ReproClient(host=daemon.address[0], port=daemon.address[1])
        self.client.ping()

    def modules(self) -> list:
        return []  # auto's choice is ranked on relax and recur, not here

    def round(self, r: int) -> list[Op]:
        grid, jac, isum, iref, scan, sref = self.requests[r % len(self.requests)]
        run = self.client.run
        return [
            ("jacobi", lambda: run(self.jacobi, grid), _checked(jac)),
            ("isum", lambda: run(self.isum, isum), _checked(iref)),
            ("scan", lambda: run(self.scan, scan), _checked(sref)),
        ]

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.thread.stop()  # closes the daemon's session too


WORKLOADS = {w.name: w for w in (Relax, Recur, Compile, Serve)}

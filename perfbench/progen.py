"""Seeded PS recurrence programs, each emitted with its own reference.

The ``compile`` workload draws its sources from here. Every program is
one module over ``I = 1 .. n`` whose equations are integer *units*, each
writing an array ``Vj`` (a base case ``Vj[0]`` plus a loop equation).
A unit may read the inputs ``X`` and ``C`` and earlier units at offset
``[I]`` or ``[I-1]``, which are the shapes the merge pass fuses into one
``DO`` nest and fission later splits apart. The unit kinds are:

* ``map``: a pointwise combination (``+``, ``-`` or ``max``);
* ``scan+`` and ``scanmax``: associative self-recurrences;
* ``linrec``: ``Vj[I] = C[I] * Vj[I-1] + term``, loop-varying;
* ``coupled``: a mutually recursive pair, bounded by ``max``/``min``.

Every value grows at most polynomially in ``n``, so at the sizes the
check runs the arithmetic stays far from the int64 range and Python's
unbounded ints give the same answer as any backend.

The reference is a plain Python loop written from the same unit list
the source text is printed from. It never calls into ``repro``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

KINDS = ("map", "scan+", "scanmax", "linrec", "coupled")


@dataclass(frozen=True)
class Term:
    """One operand: an input element, a constant, or an earlier unit."""

    kind: str  # "x", "const" or "var"
    value: int = 0  # the constant, or the unit index for "var"
    lag: int = 0  # 0 reads [I], 1 reads [I-1]

    def source(self) -> str:
        if self.kind == "x":
            return "X[I]"
        if self.kind == "const":
            return str(self.value)
        return f"V{self.value}[{'I-1' if self.lag else 'I'}]"

    def eval(self, v: list[list[int]], x: list[int], i: int) -> int:
        if self.kind == "x":
            return x[i]
        if self.kind == "const":
            return self.value
        return v[self.value][i - self.lag]


@dataclass(frozen=True)
class Unit:
    kind: str  # a KINDS entry, or "coupled-b" for a pair's second half
    base: int
    op: str = "+"
    a: Term | None = None
    b: Term | None = None


@dataclass(frozen=True)
class Program:
    """One generated module: its source, its result names and the unit
    list both the source and :meth:`reference` are printed from."""

    seed: int
    units: tuple[Unit, ...]
    outputs: tuple[str, ...]
    source: str

    def inputs(self, n: int, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "X": rng.integers(-5, 6, n),
            "C": rng.integers(-1, 2, n),
            "n": n,
        }

    def reference(self, args: dict) -> dict[str, np.ndarray]:
        """Evaluate the equations in index order with Python ints."""
        n = int(args["n"])
        x = [0] + [int(e) for e in args["X"]]  # 1-based like the module
        c = [0] + [int(e) for e in args["C"]]
        v = [[0] * (n + 1) for _ in self.units]
        for j, u in enumerate(self.units):
            v[j][0] = u.base
        for i in range(1, n + 1):
            for j, u in enumerate(self.units):
                t = u.a.eval(v, x, i) if u.a is not None else 0
                if u.kind == "map":
                    s = u.b.eval(v, x, i)
                    val = t + s if u.op == "+" else t - s if u.op == "-" else max(t, s)
                elif u.kind == "scan+":
                    val = v[j][i - 1] + t
                elif u.kind == "scanmax":
                    val = max(v[j][i - 1], t)
                elif u.kind == "linrec":
                    val = c[i] * v[j][i - 1] + t
                elif u.kind == "coupled":
                    val = max(v[j][i - 1], v[j + 1][i - 1]) + t
                else:  # coupled-b
                    val = min(v[j][i - 1] + 1, v[j - 1][i])
                v[j][i] = val
        return {
            f"V{j}": np.array(v[j], dtype=np.int64)
            for j in range(len(self.units))
            if f"V{j}" in self.outputs
        }


def _term(rng: random.Random, j: int) -> Term:
    choice = rng.randrange(3 if j else 2)
    if choice == 0:
        return Term("x")
    if choice == 1:
        return Term("const", rng.randint(1, 5))
    return Term("var", rng.randrange(j), rng.randrange(2))


def _rhs(u: Unit, j: int) -> str:
    t = f"V{j}"
    if u.kind == "map":
        a, b = u.a.source(), u.b.source()
        return f"max({a}, {b})" if u.op == "max" else f"{a} {u.op} {b}"
    if u.kind == "scan+":
        return f"{t}[I-1] + {u.a.source()}"
    if u.kind == "scanmax":
        return f"max({t}[I-1], {u.a.source()})"
    if u.kind == "linrec":
        return f"C[I] * {t}[I-1] + {u.a.source()}"
    if u.kind == "coupled":
        return f"max({t}[I-1], V{j + 1}[I-1]) + {u.a.source()}"
    return f"min({t}[I-1] + 1, V{j - 1}[I])"


def generate(seed: int, n_units: int) -> Program:
    """A program of exactly ``n_units`` units, drawn from ``seed``."""
    rng = random.Random(seed)
    kinds: list[str] = []
    while len(kinds) < n_units:
        kind = rng.choice(KINDS)
        if kind == "coupled":
            if len(kinds) + 2 > n_units:
                continue
            kinds += ["coupled", "coupled-b"]
        else:
            kinds.append(kind)
    units = []
    for j, kind in enumerate(kinds):
        base = rng.randint(-3, 3)
        if kind == "map":
            units.append(
                Unit(kind, base, rng.choice("+-") if rng.random() < 0.7 else "max",
                     _term(rng, j), _term(rng, j))
            )
        elif kind == "coupled-b":
            units.append(Unit(kind, base))
        else:
            units.append(Unit(kind, base, a=_term(rng, j)))
    # The last unit is always a result; earlier ones may be locals, which
    # are window candidates and so change what fission may do.
    outputs = tuple(
        f"V{j}" for j in range(n_units) if j == n_units - 1 or rng.random() >= 0.35
    )
    locals_ = [f"V{j}" for j in range(n_units) if f"V{j}" not in outputs]
    decls = ";\n       ".join(f"{t}: array[0 .. n] of int" for t in outputs)
    var_block = (
        "var\n" + "".join(f"    {t}: array [0 .. n] of int;\n" for t in locals_)
        if locals_ else ""
    )
    lines = [f"    V{j}[0] = {u.base};" for j, u in enumerate(units)]
    lines += [f"    V{j}[I] = {_rhs(u, j)};" for j, u in enumerate(units)]
    source = (
        "GenProg: module (X: array[1 .. n] of int;"
        " C: array[1 .. n] of int; n: int):\n"
        f"      [{decls}];\n"
        "type\n"
        "    I = 1 .. n;\n"
        f"{var_block}"
        "define\n" + "\n".join(lines) + "\n"
        "end GenProg;\n"
    )
    return Program(seed, tuple(units), outputs, source)


def program_pool(seed: int, sizes: tuple[int, ...]) -> list[Program]:
    """One program per entry of ``sizes`` (its unit count), each from its
    own seed derived from ``seed``. Fixing the unit counts keeps the
    pool's compile cost alike from seed to seed; only the kinds, terms
    and constants vary."""
    rng = random.Random(seed)
    return [generate(rng.randrange(1 << 30), k) for k in sizes]

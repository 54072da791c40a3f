"""Independent references for every module the benchmark runs.

Each function takes the same argument dict the module receives and
returns its results, computed with NumPy or plain Python and never with
``repro``. Every reference adds and multiplies in the order the PS
equation is written (left to right, as the parser associates it), so
results compare bit for bit under the project's exactness contract:
float results must be identical, not merely close.
"""

from __future__ import annotations

import numpy as np


def jacobi(args: dict) -> dict[str, np.ndarray]:
    """Figure 1 / Equation 1: every interior point from the previous grid."""
    a = np.array(args["InitialA"], dtype=np.float64)
    for _ in range(2, int(args["maxK"]) + 1):
        new = a.copy()
        new[1:-1, 1:-1] = (
            a[1:-1, :-2] + a[:-2, 1:-1] + a[1:-1, 2:] + a[2:, 1:-1]
        ) / 4
        a = new
    return {"newA": a}


def gauss_seidel(args: dict) -> dict[str, np.ndarray]:
    """Equation 2: west and north neighbours from the current sweep.

    Evaluated one anti-diagonal ``i + j = d`` at a time: every point on a
    diagonal depends only on the diagonal before it in the current grid
    and on the previous grid, which is the same set of values the
    sequential row-by-row sweep reads."""
    old = np.array(args["InitialA"], dtype=np.float64)
    m = int(args["M"])
    for _ in range(2, int(args["maxK"]) + 1):
        new = old.copy()
        for d in range(2, 2 * m + 1):
            i = np.arange(max(1, d - m), min(m, d - 1) + 1)
            j = d - i
            new[i, j] = (
                new[i, j - 1] + new[i - 1, j] + old[i, j + 1] + old[i + 1, j]
            ) / 4
        old = new
    return {"newA": old}


def line_sweep(args: dict) -> dict[str, np.ndarray]:
    g = np.asarray(args["G"], dtype=np.float64)
    n = int(args["n"])
    line = np.empty_like(g)
    line[0] = g[0]
    for i in range(1, n + 1):
        line[i] = g[i]
        line[i, 1:-1] = (
            line[i - 1, :-2] + line[i - 1, 1:-1] + line[i - 1, 2:]
        ) / 3.0 + g[i, 1:-1]
    d = line[1:] - g[1:]
    return {"Mout": d * d}


def _linrec(a, b, s0: int) -> np.ndarray:
    """``S[0] = s0; S[I] = A[I] * S[I-1] + B[I]`` with Python ints.
    The loops below fill preallocated arrays so a reference never holds
    a Python object per element: the run's peak memory stays the
    program's."""
    out = np.empty(len(a) + 1, dtype=np.int64)
    out[0] = s = s0
    for i in range(len(a)):
        s = int(a[i]) * s + int(b[i])
        out[i + 1] = s
    return out


def _prefix_sum(x: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(np.asarray(x, dtype=np.int64))))


def mixed(args: dict) -> dict[str, np.ndarray]:
    x = np.asarray(args["X"], dtype=np.int64)
    return {
        "T": _prefix_sum(x),
        "S": _linrec(np.asarray(args["A"]), np.asarray(args["B"]), 0),
        "M": np.maximum.accumulate(np.concatenate(([x[0]], x))),
    }


def ilinrec(args: dict) -> dict[str, np.ndarray]:
    return {"S": _linrec(np.asarray(args["A"]), np.asarray(args["B"]), 0)}


def coupled(args: dict) -> dict[str, np.ndarray]:
    c1, c2, c3, c4 = (float(args[k]) for k in ("c1", "c2", "c3", "c4"))
    x = np.asarray(args["X"], dtype=np.float64)
    r = np.empty_like(x)
    p, q = 0.0, 1.0
    for i in range(len(x)):
        xi = float(x[i])
        p, q_prev = p * c1 + q * c2 + xi, q
        q = q_prev * c3 + p * c4
        r[i] = p * q + xi
    return {"R": r}


def isum(args: dict) -> dict[str, np.ndarray]:
    return {"T": _prefix_sum(args["X"])}


def scan(args: dict) -> dict[str, np.ndarray]:
    a = float(args["a"])
    x = np.asarray(args["X"], dtype=np.float64)
    y = np.empty_like(x)
    s = 0.0
    for i in range(len(x)):
        xi = float(x[i])
        s = s * a + xi
        y[i] = s * s + xi
    return {"Y": y}


def matches(out: dict, want: dict[str, np.ndarray]) -> bool:
    """Every reference result present and bit-identical (shape, dtype
    kind and value; ``NaN`` never matches)."""
    for name, ref in want.items():
        got = out.get(name)
        if got is None:
            return False
        got = np.asarray(got)
        if got.shape != ref.shape or got.dtype.kind != ref.dtype.kind:
            return False
        if not np.array_equal(got, ref):
            return False
    return True

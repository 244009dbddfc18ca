"""The four benchmark workloads.

Each workload turns a seed into model files written under a work directory
and a cycle of operations.  An operation calls a public divexp entry point
with its default options; its check compares the output with a reference
from ``oracles`` and returns the error divided by the accuracy the operation
promised (at most 1 when it kept its contract).  Entry points are looked up
on their module at call time so that the traced run's wrappers apply.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracles

GRID_TOL = 1e-10  # the CLI's default --tol, which grid ops rely on
DECOMPOSE_RTOL = 1e-10  # piece sums against the series term, acceptance criterion 5
#: resummed classes against the fitted ones: criterion 6's 1e-8, taken
#: relative to the class, since at weak coupling every class is far below 1
SECULAR_RTOL = 1e-8
GOLDEN_RTOL = 1e-3  # rate correction against a refined quadrature, criterion 10
IDENTITY_RTOL = 1e-12  # delta against p_improved - p_usual


class CheckError(AssertionError):
    """An output broke its contract in a way no error ratio expresses."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], float]
    out: str | None = None


def _hermitian(rng, dim, scale):
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2.0
    return h * (scale / np.max(np.abs(h)))


def _spread_levels(rng, dim, width, min_gap):
    while True:
        e = np.sort(rng.uniform(0.0, width, size=dim))
        if np.min(np.diff(e)) >= min_gap:
            return e


def write_model(path, energies, h1) -> str:
    doc = {
        "energies": [float(x) for x in energies],
        "h1": [[[float(z.real), float(z.imag)] for z in row] for row in h1],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _cli(argv):
    from divexp import cli

    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"divexp {argv[0]} exited with {rc}")


def _load(path):
    from divexp import model

    return model.redivide(model.load_model_path(path))


# ---------------------------------------------------------------------------
# grid: `divexp propagate` with the automatic order
# ---------------------------------------------------------------------------

GRID_DIMS = (6, 8, 10)
GRID_ORDERS = range(10, 16)  # the automatic orders for x = |g| t_max in [0.5, 1.4]
GRID_TIMES = 51


def _x_limit(L):
    """Largest x = |g| t at which the tail bound of order L is below GRID_TOL."""
    lo, hi = 0.0, 10.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        tail = math.exp((L + 1) * math.log(mid) - math.lgamma(L + 2) + mid)
        lo, hi = (mid, hi) if tail < GRID_TOL else (lo, mid)
    return lo


def grid(rng, workdir):
    """One model per dimension and automatic order L.

    x is drawn from the middle 80% of the part of [0.5, 1.4] where the
    automatic order is L, so every seed runs the same (D, L) mix.
    """
    out = os.path.join(workdir, "grid.csv")
    ops = []
    for L in GRID_ORDERS:
        lo, hi = max(_x_limit(L - 1), 0.5), min(_x_limit(L), 1.4)
        for dim in GRID_DIMS:
            x = lo + (hi - lo) * rng.uniform(0.1, 0.9)
            energies = rng.uniform(0.0, 3.0, size=dim)
            h1 = _hermitian(rng, dim, 0.5)
            _, g = oracles.split(energies, h1)
            t_stop = x / np.linalg.norm(g, 2)
            path = write_model(os.path.join(workdir, f"grid{len(ops)}.json"), energies, h1)
            argv = ["propagate", "--model", path, "--t-stop", repr(float(t_stop)),
                    "--t-count", str(GRID_TIMES), "--out", out]
            ops.append(Op(f"D{dim}L{L}", lambda a=argv: _cli(a),
                          _grid_check(energies, h1, t_stop, out), out))
    return ops


def _grid_check(energies, h1, t_stop, out):
    def check(_):
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        dim = energies.size
        times = np.linspace(0.0, t_stop, GRID_TIMES)
        if rows.shape != (GRID_TIMES * dim, 6):
            raise CheckError(f"propagate wrote {rows.shape} values")
        if np.any(rows[:, 1] != np.tile(np.arange(dim), GRID_TIMES)):
            raise CheckError("level column out of order")
        if np.max(np.abs(rows[::dim, 0] - times)) > 1e-15 * t_stop:
            raise CheckError("time column differs from the requested grid")
        if np.any(rows[:, 5] >= GRID_TOL):
            raise CheckError("automatic order left a tail bound above --tol")
        psi0 = np.zeros(dim)
        psi0[0] = 1.0
        want = oracles.Eigensolve(energies, h1).evolve(psi0, times).reshape(-1)
        got = rows[:, 2] + 1j * rows[:, 3]
        if np.max(np.abs(rows[:, 4] - np.abs(got) ** 2)) > 1e-14:
            raise CheckError("prob column is not |c|^2")
        return float(np.max(np.abs(got - want))) / GRID_TOL

    return check


# ---------------------------------------------------------------------------
# matrix: library truncated_propagator, one large block exponential per op
# ---------------------------------------------------------------------------

# (D, L) per op; (48, 8) appears twice so that the median op lies inside one
# kind rather than between two.
MATRIX_KINDS = ((48, 6), (48, 8), (48, 8), (64, 6), (64, 8), (96, 6), (96, 8))


def matrix(rng, workdir):
    from divexp import propagator

    ops = []
    for i, (dim, L) in enumerate(MATRIX_KINDS):
        energies = rng.uniform(0.0, 3.0, size=dim)
        h1 = _hermitian(rng, dim, 0.3)
        _, g = oracles.split(energies, h1)
        t = 1.0 / np.linalg.norm(g, 2)
        m = _load(write_model(os.path.join(workdir, f"matrix{i}.json"), energies, h1))
        ops.append(Op(f"D{dim}L{L}",
                      lambda m=m, L=L, t=t: propagator.truncated_propagator(m, L, t),
                      _matrix_check(energies, h1, t)))
    return ops


def _matrix_check(energies, h1, t):
    def check(res):
        want = oracles.Eigensolve(energies, h1).matrix(t)
        return float(np.linalg.norm(res.matrix - want, 2)) / res.tail_bound

    return check


# ---------------------------------------------------------------------------
# decompose: `divexp decompose`, half the models with a near-degenerate pair
# ---------------------------------------------------------------------------

DECOMPOSE_DIMS = (8, 12, 16)
DEGENERATE_GAP = 1e-9


def decompose(rng, workdir):
    out = os.path.join(workdir, "decompose.json")
    ops = []
    for dim in DECOMPOSE_DIMS:
        for near in (False, True):
            shifted = _spread_levels(rng, dim, 3.0, 0.5 / dim)
            if near:
                j = int(rng.integers(1, dim))
                shifted[j] = shifted[j - 1] + DEGENERATE_GAP
            h1 = _hermitian(rng, dim, 0.3)
            energies = shifted - np.diag(h1).real
            path = write_model(os.path.join(workdir, f"dec{len(ops)}.json"), energies, h1)
            for order in (2, 3):
                argv = ["decompose", "--model", path, "--order", str(order),
                        "--format", "json", "--out", out]
                ops.append(Op(f"D{dim}l{order}{'near' if near else ''}",
                              lambda a=argv: _cli(a),
                              _decompose_check(energies, h1, order, out), out))
    return ops


def _decompose_check(energies, h1, order, out):
    def check(_):
        with open(out) as fh:
            doc = json.load(fh)
        pieces = doc["pieces"]
        if len(pieces) != {2: 2, 3: 5}[order]:
            raise CheckError(f"{len(pieces)} pieces at order {order}")
        total = sum(
            np.array([[complex(re, im) for re, im in row] for row in p["matrix"]])
            for p in pieces
        )
        shifted, g = oracles.split(energies, h1)
        want = oracles.block_order(shifted, g, order, float(doc["t"]))
        scale = np.linalg.norm(want)
        err = max(np.linalg.norm(total - want), doc["residual_vs_series_term"])
        return float(err / scale) / DECOMPOSE_RTOL

    return check


# ---------------------------------------------------------------------------
# improved: the revision-energy scheme, a fixed mix of five op kinds
# ---------------------------------------------------------------------------

IMPROVED_DIM = 5
IMPROVED_COUPLING = 0.05
IMPROVED_MODELS = 4
TRANSITION_TIMES = 501
SOLUTION_TIMES = 201
GOLDEN_T = 6.0
SECULAR_ORDERS = (4, 5, 6, 4)  # one secular op per model
#: ops per model: 1 golden < 3 energy < 4 transition < 6 solution < 1 secular
#: in cost, so the median op is a transition and the 90th percentile a
#: solution, and the secular fit takes about half of the time
IMPROVED_MIX = ("transition", "energy", "solution", "transition", "solution",
                "energy", "transition", "solution", "golden", "solution",
                "transition", "energy", "solution", "solution", "secular")


def _chain(rng, dim, coupling):
    """Well-separated ladder with weak nearest-neighbour coupling."""
    shifted = np.arange(dim, dtype=float) + rng.uniform(-0.05, 0.05, size=dim)
    h1 = np.diag(rng.uniform(-0.05, 0.05, size=dim)).astype(complex)
    for i in range(dim - 1):
        v = coupling * rng.uniform(0.9, 1.1) * np.exp(2j * math.pi * rng.uniform())
        h1[i, i + 1] = v
        h1[i + 1, i] = np.conj(v)
    return shifted - np.diag(h1).real, h1


def improved(rng, workdir):
    ops = []
    for i in range(IMPROVED_MODELS):
        energies, h1 = _chain(rng, IMPROVED_DIM, IMPROVED_COUPLING)
        path = write_model(os.path.join(workdir, f"imp{i}.json"), energies, h1)
        m = _load(path)
        for n, kind in enumerate(IMPROVED_MIX):
            if kind == "transition":
                ops.append(_transition_op(workdir, path, energies, h1, n % IMPROVED_DIM))
            elif kind == "energy":
                ops.append(_energy_op(workdir, path, energies, h1, n % IMPROVED_DIM))
            elif kind == "solution":
                ops.append(_solution_op(m, energies, h1))
            elif kind == "golden":
                ops.append(_golden_op(rng, m, energies, h1))
            else:
                ops.append(_secular_op(m, energies, h1, SECULAR_ORDERS[i]))
    return ops


def _transition_op(workdir, path, energies, h1, level):
    out = os.path.join(workdir, "transition.csv")
    to = level + 1 if level + 1 < energies.size else level - 1
    shifted, g = oracles.split(energies, h1)
    omega = shifted[to] - shifted[level]
    argv = ["transition", "--model", path, "--from", str(level), "--to", str(to),
            "--t-stop", repr(float(40.0 * math.pi / abs(omega))),
            "--t-count", str(TRANSITION_TIMES), "--out", out]

    def check(_):
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["t", "p_usual", "p_improved", "delta"]:
            raise CheckError(f"transition header {rows[0]}")
        vals = np.array(rows[1:], dtype=float)
        if vals.shape != (TRANSITION_TIMES, 4):
            raise CheckError(f"transition wrote {vals.shape} values")
        peak = 4.0 * abs(g[to, level]) ** 2 / omega**2
        if np.any(vals[:, 1:3] < 0) or np.any(vals[:, 1:3] > peak * (1 + 1e-12)):
            raise CheckError("transition probability outside [0, peak]")
        err = np.max(np.abs(vals[:, 3] - (vals[:, 2] - vals[:, 1])))
        return float(err / peak) / IDENTITY_RTOL

    return Op("transition", lambda: _cli(argv), check, out)


def _min_gap(shifted):
    gaps = np.abs(shifted[:, None] - shifted[None, :])
    return float(np.min(gaps + np.diag(np.full(shifted.size, np.inf))))


def _energy_op(workdir, path, energies, h1, level):
    out = os.path.join(workdir, "energy.json")
    argv = ["energy", "--model", path, "--level", str(level), "--max-order", "5",
            "--format", "json", "--out", out]
    shifted, g = oracles.split(energies, h1)
    gap = _min_gap(shifted)
    # Rayleigh-Schroedinger through order 5: the error is of order r^6 gap
    tol = (np.linalg.norm(g, 2) / gap) ** 6 * gap

    def check(_):
        with open(out) as fh:
            doc = json.load(fh)
        w = oracles.Eigensolve(energies, h1).w
        exact = w[np.argmin(np.abs(w - shifted[level]))]
        return abs(doc["improved_energy"] - exact) / tol

    return Op("energy", lambda: _cli(argv), check, out)


def _solution_op(m, energies, h1):
    from divexp import improved as imp
    from divexp import model

    shifted, g = oracles.split(energies, h1)
    gap = _min_gap(shifted)
    times = np.linspace(0.0, 10.0 / gap, SOLUTION_TIMES)
    psi0 = model.basis_state(energies.size, 0)
    # orders 0..3 together are accurate to fourth order in r = |g| / gap
    tol = 4.0 * (np.linalg.norm(g, 2) / gap) ** 4

    def run():
        return [imp.improved_solution(m, psi0, times, order) for order in range(4)]

    def check(sols):
        total = sum(s.amplitudes for s in sols)
        want = oracles.Eigensolve(energies, h1).evolve(psi0.amplitudes, times)
        if np.max(np.abs(sols[0].amplitudes[0] - psi0.amplitudes)) > 1e-15:
            raise CheckError("order-0 improved solution differs from psi0 at t=0")
        return float(np.max(np.abs(total - want))) / tol

    return Op("solution", run, check)


def _golden_op(rng, m, energies, h1):
    from divexp import improved as imp

    shifted, g = oracles.split(energies, h1)
    level = 0
    half = 0.4 * _min_gap(shifted)
    rho_e = shifted[level] + np.linspace(-half, half, 41)
    a, b, c = rng.uniform(0.2, 0.4), rng.uniform(2.0, 4.0), rng.uniform(0.4, 0.7)
    w = (rho_e - shifted[level]) / half
    rho_v = 0.5 + a * np.tanh(b * (w + c)) - a * np.tanh(b * (w - c))

    def check(rep):
        usual, delta = oracles.golden_rule_delta(shifted, g, level, rho_e, rho_v, GOLDEN_T)
        if abs(rep.rate_usual - usual) > 1e-12 * abs(usual):
            raise CheckError("usual golden-rule rate differs from 2 pi rho |g|^2")
        return abs(rep.rate_delta - delta) / (abs(delta) * GOLDEN_RTOL)

    return Op("golden", lambda: imp.revised_golden_rule(m, level, (rho_e, rho_v), GOLDEN_T), check)


def _secular_op(m, energies, h1, l):
    from divexp import contraction

    shifted, g = oracles.split(energies, h1)

    def check(coeffs):
        fit = oracles.secular_fit(shifted, g, l, max_power=l // 2)
        return max(
            float(np.max(np.abs(pred - fit[..., a])) / np.max(np.abs(fit[..., a])))
            for a, pred in coeffs.items()
        ) / SECULAR_RTOL

    return Op(f"secular{l}", lambda: contraction.secular_aggregate_coefficients(m, l), check)


WORKLOADS = {"grid": grid, "matrix": matrix, "decompose": decompose, "improved": improved}

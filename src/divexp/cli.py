"""Command-line front door.

Subcommands: propagate, transition, energy, decompose, verify-identity,
demo, bench.  Outputs are deterministic given (inputs, seed): CSV uses '.'
decimals, '\\n' line endings and a header row; JSON is one line with sorted
keys.  Failures exit nonzero with a machine-readable error record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import chain

import numpy as np

from . import contraction, improved, propagator, reference
from .coeff import NodeList, c_closed
from .model import (
    DegeneracyError,
    ModelError,
    SplitHamiltonian,
    StateVector,
    _complex_pairs,
    basis_state,
    load_model_path,
    redivide,
)


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows):
    lines = [",".join(header)]
    if rows:
        # one format per table, from the types of the first row
        fmt = ",".join(
            "%s" if isinstance(x, str)
            else "%d" if isinstance(x, (int, np.integer))
            else "%.17g"
            for x in rows[0]
        )
        lines.append("\n".join([fmt] * len(rows)) % tuple(chain(*rows)))
    return "\n".join(lines) + "\n"


def _json_text(doc):
    # one line: with indent set, json falls back to its pure-Python encoder
    return json.dumps(doc, sort_keys=True) + "\n"


def _times(args) -> np.ndarray:
    if args.t_count < 1:
        raise ValueError("--t-count must be >= 1")
    if not (np.isfinite(args.t_start) and np.isfinite(args.t_stop)):
        raise ValueError("--t-start and --t-stop must be finite")
    return np.linspace(args.t_start, args.t_stop, args.t_count)


def _load(args):
    return redivide(load_model_path(args.model))


def cmd_propagate(args) -> int:
    m = _load(args)
    times = _times(args)
    if args.state is not None:
        amps = json.loads(args.state)
        if not isinstance(amps, list) or not all(
            isinstance(z, list) and len(z) == 2 and {type(x) for x in z} <= {int, float}
            for z in amps
        ):
            raise ValueError("--state must be a JSON list of [re, im] number pairs")
        psi0 = StateVector([complex(re, im) for re, im in amps])
    else:
        psi0 = basis_state(m.dim, args.initial)
    L = args.order
    if L is None:
        L = propagator.auto_order(m, float(np.max(np.abs(times))), args.tol)
    res = propagator.evolve(m, psi0, times, L)
    if args.format == "csv":
        amps = res.amplitudes.ravel()
        columns = (
            np.repeat(res.times, m.dim).tolist(),
            np.tile(np.arange(m.dim), res.times.size).tolist(),
            amps.real.tolist(),
            amps.imag.tolist(),
            # Python's abs: np.abs differs from it in the last bit
            [abs(c) ** 2 for c in amps.tolist()],
            np.repeat(res.tail_bounds, m.dim).tolist(),
        )
        header = ["t", "gamma", "re_c", "im_c", "prob", "tail_bound"]
        text = _csv_text(header, list(zip(*columns)))
    else:
        doc = {
            "order_cap": int(L),
            "times": [float(t) for t in res.times],
            "amplitudes": _complex_pairs(res.amplitudes),
            "tail_bounds": [float(b) for b in res.tail_bounds],
        }
        text = _json_text(doc)
    _write_text(args.out, text)
    return 0


def cmd_transition(args) -> int:
    m = _load(args)
    times = _times(args)
    rep = improved.improved_transition(m, args.from_level, args.to_level, times)
    if args.format == "csv":
        rows = list(zip(rep.times, rep.p_usual, rep.p_improved, rep.delta))
        text = _csv_text(["t", "p_usual", "p_improved", "delta"], rows)
    else:
        text = _json_text(
            {
                "from": args.from_level,
                "to": args.to_level,
                "times": [float(t) for t in rep.times],
                "p_usual": [float(p) for p in rep.p_usual],
                "p_improved": [float(p) for p in rep.p_improved],
                "delta": [float(p) for p in rep.delta],
            },
        )
    _write_text(args.out, text)
    return 0


def cmd_energy(args) -> int:
    model = load_model_path(args.model)
    doc = {
        "level": args.level,
        "max_order": args.max_order,
        "improved_energy": improved.improved_energy(model, args.level, args.max_order),
    }
    if args.format == "csv":
        text = _csv_text(
            ["level", "max_order", "improved_energy"],
            [(doc["level"], doc["max_order"], doc["improved_energy"])],
        )
    else:
        text = _json_text(doc)
    _write_text(args.out, text)
    return 0


def cmd_decompose(args) -> int:
    m = _load(args)
    t = args.t
    if args.decompose_order not in (2, 3):
        raise ValueError("decompose supports --order 2 or 3")
    # one evaluation of the term gives the pieces and the residual
    term = propagator.series_term(m, args.decompose_order, t)
    pieces = contraction._pieces_from_term(m, t, args.decompose_order, term.matrix)
    total = sum(p.matrix for p in pieces)
    residual = float(np.linalg.norm(total - term.matrix))
    doc = {
        "order": args.decompose_order,
        "t": t,
        "residual_vs_series_term": residual,
        "pieces": [
            {
                "label": p.label,
                "time_class": p.time_class,
                "diag_class": p.diag_class,
                "matrix": _complex_pairs(p.matrix),
            }
            for p in pieces
        ],
    }
    _write_text(args.out, _json_text(doc))
    return 0


def cmd_verify_identity(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.l_max < 1:
        raise ValueError(f"--l-max must be >= 1, got {args.l_max}")
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    if not 0.0 <= args.l_max * args.min_gap < 2.0:
        # l_max + 1 nodes in [-1, 1], every pair at least min_gap apart
        raise ValueError(
            f"--l-max * --min-gap must lie in [0, 2), got {args.l_max} * {args.min_gap}"
        )
    rng = np.random.default_rng(args.seed)
    worst_zero = 0.0
    worst_one = 0.0
    for _ in range(args.trials):
        l = int(rng.integers(1, args.l_max + 1))
        # uniform over the node lists whose gaps are all >= min_gap: sorted
        # uniforms on [-1, 1 - l min_gap], spread by min_gap per rank
        spread = args.min_gap * np.arange(l + 1)
        low = np.sort(rng.uniform(-1.0, 1.0 - l * args.min_gap, size=l + 1))
        nodes = rng.permutation(low + spread)
        nl = NodeList(tuple(nodes))
        for K in range(l):
            worst_zero = max(worst_zero, abs(c_closed(nl, K)))
        worst_one = max(worst_one, abs(c_closed(nl, l) - 1.0))
    doc = {
        "trials": args.trials,
        "l_max": args.l_max,
        "min_gap": args.min_gap,
        "seed": args.seed,
        "max_abs_below_order": worst_zero,
        "max_abs_at_order_minus_one": worst_one,
        "pass": bool(worst_zero < args.tol and worst_one < args.tol),
    }
    _write_text(args.out, _json_text(doc))
    return 0 if doc["pass"] else 3


def cmd_demo(args) -> int:
    if args.system != "two-state":
        raise ValueError("demo knows only the 'two-state' system")
    ts = reference.TwoStateExact(e1=args.e1, e2=args.e2, v=args.v)
    model = ts.to_split_hamiltonian()
    usual = reference.usual_pt_quantities(ts)
    e1_t, e2_t = ts.eigvals
    rev = improved.revision_energies(redivide(model), max_order=4)
    e1_i, e2_i = (float(x) for x in rev.shifted)
    rows = [
        ("E1", ts.e1, usual.e1_p, e1_i, e1_t),
        ("E2", ts.e2, usual.e2_p, e2_i, e2_t),
    ]
    lines = [
        f"two-state demo: E=({ts.e1:g},{ts.e2:g}), |V|={abs(ts.v):g}",
        f"{'level':<8}{'bare':>14}{'usual':>14}{'improved':>14}{'exact':>14}",
    ]
    for name, bare, us, imp, exact in rows:
        lines.append(f"{name:<8}{bare:>14.8f}{us:>14.8f}{imp:>14.8f}{exact:>14.8f}")
    w = ts.omega
    wt = ts.omega_total
    w_i = float(rev.shifted[1] - rev.shifted[0])
    lines.append(
        f"{'omega21':<8}{w:>14.8f}{w:>14.8f}{w_i:>14.8f}{wt:>14.8f}"
    )
    t_peak = np.pi / wt
    lines.append(
        "peak transition probability at t=pi/omega_T: "
        f"usual={float(usual.probability(t_peak)):.8f} "
        f"exact={reference.exact_transition(ts, t_peak):.8f}"
    )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    dims = [int(x) for x in args.dims.split(",")]
    orders = [int(x) for x in args.orders.split(",")]
    models = []
    for dim in dims:
        h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h1 = (h1 + h1.conj().T) / 2.0
        np.fill_diagonal(h1, 0.0)
        model = SplitHamiltonian(energies=np.arange(dim, dtype=float), perturbation=h1)
        m = redivide(model)
        # a pair truncated_propagator would refuse fails before any eigensolve
        for L in orders:
            if L > 0 and np.any(m.offdiagonal):
                propagator._block_side(dim, L)
        models.append((model, m))
    rows = []
    for dim, (model, m) in zip(dims, models):
        scale = propagator.coupling_strength(m)
        t = args.t / max(scale, 1e-12)
        exact = propagator.oracle_eigensolve(model, t)
        for L in orders:
            t0 = time.perf_counter()
            U = propagator.truncated_propagator(m, L, t)
            wall = time.perf_counter() - t0
            err = float(np.linalg.norm(U.matrix - exact))
            rows.append((dim, L, "block", wall, err, U.tail_bound))
    header = ["dim", "order_cap", "method", "wall_time_s", "error_vs_oracle", "tail_bound"]
    _write_text(args.out, _csv_text(header, rows))
    return 0


@functools.cache  # built once per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="divexp",
        description="order-by-order propagators, contraction decompositions, "
        "and the improved perturbation scheme for split Hamiltonians",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q, times=False, formats=("csv", "json")):
        q.add_argument("--model", required=True, help="path to a JSON model file")
        if times:
            q.add_argument("--t-start", type=float, default=0.0)
            q.add_argument("--t-stop", type=float, default=1.0)
            q.add_argument("--t-count", type=int, default=11)
        q.add_argument("--out", default=None, help="output path (default stdout)")
        q.add_argument("--format", choices=formats, default=formats[0])

    q = sub.add_parser("propagate", help="evolve a state on a time grid")
    add_common(q, times=True)
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--order", type=int, default=None, help="order cap (default: auto)")
    q.add_argument("--initial", type=int, default=0, help="initial basis level")
    q.add_argument(
        "--state", default=None, help="initial amplitudes as JSON [[re,im],...]"
    )
    q.set_defaults(func=cmd_propagate)

    q = sub.add_parser("transition", help="usual vs improved transition probability")
    add_common(q, times=True)
    q.add_argument("--from", dest="from_level", type=int, required=True)
    q.add_argument("--to", dest="to_level", type=int, required=True)
    q.set_defaults(func=cmd_transition)

    q = sub.add_parser("energy", help="improved perturbed energy of one level")
    add_common(q)
    q.add_argument("--level", type=int, required=True)
    q.add_argument("--max-order", type=int, default=5)
    q.set_defaults(func=cmd_energy)

    q = sub.add_parser("decompose", help="contraction pieces of one series order")
    add_common(q, formats=("json",))
    q.add_argument("--order", dest="decompose_order", type=int, default=2)
    q.add_argument("--t", type=float, default=1.0)
    q.set_defaults(func=cmd_decompose)

    q = sub.add_parser("verify-identity", help="randomized power-sum identity suite")
    q.add_argument("--l-max", type=int, default=8)
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--min-gap", type=float, default=1e-3)
    q.add_argument("--tol", type=float, default=1e-9)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_verify_identity)

    q = sub.add_parser("demo", help="closed-form reference system tables")
    q.add_argument("system", choices=("two-state",))
    q.add_argument("--e1", type=float, default=0.0)
    q.add_argument("--e2", type=float, default=1.0)
    q.add_argument("--v", type=float, default=0.1)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_demo)

    q = sub.add_parser("bench", help="timing and error sweep of truncated propagators")
    q.add_argument("--dims", default="4,8,16")
    q.add_argument("--orders", default="2,4,8")
    q.add_argument("--t", type=float, default=1.0, help="time in units of 1/|g|")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ModelError,
        DegeneracyError,
        ValueError,
        IndexError,
        OSError,
        propagator.BudgetExceededError,
        propagator.EigensolveError,
        improved.GoldenRuleError,
    ) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

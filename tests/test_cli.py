import inspect
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from divexp import (
    SplitHamiltonian,
    TwoStateExact,
    basis_state,
    c_closed,
    cli,
    contraction,
    dump_model,
    evolve,
    improved,
    load_model_path,
    propagator,
    redivide,
)
from divexp.cli import _csv_text, main
from divexp.propagator import EvolutionResult
from oracles import mp_propagator


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "two_state.json"
    path.write_bytes(dump_model(TwoStateExact(0.0, 1.0, 0.1).to_split_hamiltonian()))
    return str(path)


def run_cli(args):
    return main(args)


def test_propagate_csv(model_path, tmp_path, capsys):
    out = tmp_path / "prop.csv"
    rc = run_cli(
        [
            "propagate",
            "--model",
            model_path,
            "--t-start",
            "0",
            "--t-stop",
            "2",
            "--t-count",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,gamma,re_c,im_c,prob,tail_bound"
    assert len(lines) == 1 + 5 * 2
    first = lines[1].split(",")
    assert float(first[2]) == 1.0 and float(first[4]) == 1.0


def test_propagate_phase_only_when_coupling_zero(tmp_path):
    from divexp import SplitHamiltonian

    path = tmp_path / "free.json"
    path.write_bytes(
        dump_model(SplitHamiltonian(energies=[0.0, 1.0], perturbation=np.zeros((2, 2))))
    )
    out = tmp_path / "free.csv"
    rc = run_cli(
        ["propagate", "--model", str(path), "--t-count", "7", "--t-stop", "5",
         "--initial", "1", "--out", str(out)]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    probs = {(r[1]): set() for r in rows}
    for r in rows:
        probs[r[1]].add(round(float(r[4]), 12))
    assert probs["0"] == {0.0}
    assert probs["1"] == {1.0}


def test_propagate_determinism(model_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["propagate", "--model", model_path, "--t-count", "9", "--t-stop", "3"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_transition_and_energy(model_path, tmp_path):
    out = tmp_path / "tr.csv"
    rc = run_cli(
        ["transition", "--model", model_path, "--from", "0", "--to", "1",
         "--t-count", "4", "--t-stop", "3", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p_usual,p_improved,delta"
    assert len(lines) == 5

    out_json = tmp_path / "en.json"
    rc = run_cli(
        ["energy", "--model", model_path, "--level", "0", "--max-order", "4",
         "--format", "json", "--out", str(out_json)]
    )
    assert rc == 0
    doc = json.loads(out_json.read_text())
    assert doc["improved_energy"] == pytest.approx(-0.0099, abs=1e-14)


def test_energy_takes_any_max_order_the_library_takes(model_path, capsys):
    argv = ["energy", "--model", model_path, "--level", "0", "--format", "json"]
    assert run_cli(argv + ["--max-order", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_order"] == 7
    # the two-state series -v^2 + v^4 - 2 v^6 + 5 v^8 ..., here at v = 0.1
    exact = TwoStateExact(0.0, 1.0, 0.1).eigvals[0]
    assert abs(doc["improved_energy"] - exact) < 1e-7


@pytest.mark.parametrize(
    "v, max_order, message",
    [
        (0.1, "1", "max_order must be >= 2, got 1"),
        (100.0, "200", "Rayleigh-Schroedinger term is not finite"),
    ],
    ids=["below-two", "divergent"],
)
def test_energy_max_order_errors_give_the_error_record(tmp_path, capsys, v, max_order,
                                                        message):
    path = tmp_path / "model.json"
    path.write_bytes(dump_model(TwoStateExact(0.0, 1.0, v).to_split_hamiltonian()))
    argv = ["energy", "--model", str(path), "--level", "0", "--max-order", max_order]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "ValueError" and message in record["message"]


def test_decompose(model_path, tmp_path):
    out = tmp_path / "dec.json"
    rc = run_cli(
        ["decompose", "--model", model_path, "--order", "2", "--t", "1.0",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["residual_vs_series_term"] < 1e-12
    assert len(doc["pieces"]) == 2


def test_json_documents_are_one_line_of_the_library_values(model_path, capsys):
    # every JSON subcommand writes one line of sorted keys, the form of the
    # stderr error records, and its floats read back as the library's own
    model = load_model_path(model_path)
    m = redivide(model)
    times = np.linspace(0.0, 1.0, 3)
    pieces = contraction.third_order_pieces(m, 1.0)
    cases = [
        (["propagate", "--order", "4"], "amplitudes",
         [[[z.real, z.imag] for z in row]
          for row in evolve(m, basis_state(2, 0), times, 4).amplitudes]),
        (["transition", "--from", "0", "--to", "1"], "p_improved",
         list(improved.improved_transition(m, 0, 1, times).p_improved)),
        (["energy", "--level", "0", "--max-order", "4"], "improved_energy",
         improved.improved_energy(model, 0, 4)),
        (["decompose", "--order", "3"], "pieces",
         [[[[z.real, z.imag] for z in row] for row in p.matrix] for p in pieces]),
    ]
    for argv, key, want in cases:
        time_args = ["--t-count", "3"] if argv[0] in ("propagate", "transition") else []
        assert run_cli([*argv, "--model", model_path, "--format", "json", *time_args]) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True) + "\n", argv[0]
        got = [p["matrix"] for p in doc["pieces"]] if key == "pieces" else doc[key]
        assert got == want, argv[0]
    assert run_cli(["verify-identity", "--l-max", "3", "--trials", "5"]) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_decompose_rejects_a_non_finite_time(model_path, capsys, value):
    assert run_cli(["decompose", "--model", model_path, f"--t={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record == {"error": "ValueError", "message": "t must be finite"}


def test_verify_identity(tmp_path):
    out = tmp_path / "id.json"
    rc = run_cli(
        ["verify-identity", "--l-max", "6", "--trials", "100", "--seed", "7",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["max_abs_below_order"] < 1e-9


def test_verify_identity_min_gap_above_one(tmp_path):
    out = tmp_path / "id.json"
    rc = run_cli(["verify-identity", "--min-gap", "1.5", "--l-max", "1",
                  "--trials", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["trials"] == 5 and doc["pass"] is True


def test_verify_identity_tests_every_order(monkeypatch, tmp_path):
    orders = []

    def recording(nl, n):
        orders.append(nl.order)
        return c_closed(nl, n)

    monkeypatch.setattr(cli, "c_closed", recording)
    out = tmp_path / "id.json"
    rc = run_cli(["verify-identity", "--min-gap", "0.3", "--l-max", "6",
                  "--trials", "200", "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert set(orders) == set(range(1, 7))
    assert json.loads(out.read_text())["trials"] == 200


def test_verify_identity_rejects_gaps_that_do_not_fit(capsys):
    # five nodes at least 0.5 apart need a window of 2, the whole of [-1, 1]
    assert run_cli(["verify-identity", "--min-gap", "0.5", "--l-max", "4"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert "--min-gap" in record["message"] and "--l-max" in record["message"]


@pytest.mark.parametrize("gap", ["2", "-0.5", "nan"])
def test_verify_identity_rejects_unreachable_min_gap(gap, capsys):
    assert run_cli(["verify-identity", "--min-gap", gap, "--trials", "5"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError" and "--min-gap" in record["message"]


@pytest.mark.parametrize(
    "argv, option",
    [(["--trials", "0"], "--trials"), (["--l-max", "0"], "--l-max")],
)
def test_verify_identity_rejects_empty_suites(argv, option, capsys):
    assert run_cli(["verify-identity"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "ValueError" and option in record["message"]


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_verify_identity_rejects_a_tol_that_checks_nothing(tol, capsys):
    # inf passes every suite and the others fail every suite
    assert run_cli(["verify-identity", "--trials", "5", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "ValueError"
    assert "--tol must be finite and > 0" in record["message"]


def test_bad_labels_give_the_error_record(tmp_path, capsys):
    path = tmp_path / "labels.json"
    doc = json.loads(dump_model(TwoStateExact(0.0, 1.0, 0.1).to_split_hamiltonian()))
    path.write_text(json.dumps(dict(doc, labels=5)))
    assert run_cli(["propagate", "--model", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ModelParseError"


@pytest.mark.parametrize("state", ["[1, 0]", "[[1, 0], [0]]", '[[1, 0], ["0", 0]]', "{}"])
def test_propagate_rejects_a_malformed_state(model_path, state, capsys):
    assert run_cli(["propagate", "--model", model_path, "--state", state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "ValueError" and "--state" in record["message"]


def test_propagate_rejects_negative_initial_level(model_path, capsys):
    assert run_cli(["propagate", "--model", model_path, "--initial", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "IndexError"


@pytest.mark.parametrize(
    "command, option, value",
    [
        (["transition", "--from", "0", "--to", "1"], "--t-stop", "nan"),
        (["transition", "--from", "0", "--to", "1"], "--t-stop", "inf"),
        (["transition", "--from", "0", "--to", "1"], "--t-start", "-inf"),
        (["propagate", "--order", "4"], "--t-stop", "nan"),
    ],
)
def test_time_grid_rejects_non_finite_ends(model_path, tmp_path, capsys, command, option, value):
    out = tmp_path / "out.csv"
    argv = command[:1] + ["--model", model_path, f"{option}={value}", "--out", str(out)]
    assert run_cli(argv + command[1:]) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError" and "finite" in record["message"]


def test_import_leaves_the_quadrature_oracle_unloaded():
    # scipy.integrate serves only the tests' Dyson oracle, outside the package
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for path in src.rglob("*.py"):
        assert "scipy.integrate" not in path.read_text(), path.name
    code = "import sys, divexp, divexp.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_import_leaves_the_interpolator_unloaded():
    # scipy.interpolate serves only revised_golden_rule, which imports it
    code = "import sys, divexp.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_csv_cells_match_repr_17g():
    floats = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
              1.0 / 3.0, np.float64(-2.5e300), 7.0]
    rows = [(float(x), k, np.int64(k), "tuples") for k, x in enumerate(floats)]
    lines = _csv_text(["x", "k", "n", "s"], rows).split("\n")
    assert lines[0] == "x,k,n,s" and lines[-1] == ""
    for line, (x, k, _, s) in zip(lines[1:-1], rows, strict=True):
        assert line == f"{format(float(x), '.17g')},{k},{k},{s}"


def test_demo(capsys):
    rc = run_cli(["demo", "two-state", "--v", "0.1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "-0.01000000" in text
    assert "-0.00990000" in text


def test_bench_small(tmp_path, monkeypatch):
    calls = []
    eigensolve = propagator.oracle_eigensolve
    monkeypatch.setattr(
        propagator,
        "oracle_eigensolve",
        lambda m, t: calls.append(m.dim) or eigensolve(m, t),
    )
    out = tmp_path / "bench.csv"
    rc = run_cli(["bench", "--dims", "3,4", "--orders", "2,3", "--seed", "1",
                  "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dim,order_cap,method,wall_time_s,error_vs_oracle,tail_bound"
    assert len(lines) == 1 + 2 * 2  # one row per (dim, order)
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "block"
        float(cells[3])
        float(cells[4])
    assert calls == [3, 4]  # one eigensolve per dim


def test_bench_reports_a_pair_past_the_block_budget(tmp_path, capsys):
    # order 700 at D = 3 needs a block of side 701 * 3 = 2103 > MAX_BLOCK_SIDE
    out = tmp_path / "bench.csv"
    argv = ["bench", "--dims", "3,4", "--orders", "2,700", "--out", str(out)]
    assert run_cli(argv) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record == {
        "error": "BudgetExceededError",
        "message": "block matrix of side 2103 exceeds 2048",
    }


def test_bench_checks_the_block_budget_before_the_eigensolve(tmp_path, capsys, monkeypatch):
    # order 2 at D = 700 needs a block of side 3 * 700 = 2100 > MAX_BLOCK_SIDE;
    # the D = 700 eigensolve would only slow the failure down
    calls = []
    monkeypatch.setattr(
        propagator, "oracle_eigensolve", lambda m, t: calls.append(m.dim)
    )
    out = tmp_path / "bench.csv"
    argv = ["bench", "--dims", "700,4", "--orders", "2", "--out", str(out)]
    assert run_cli(argv) == 2
    assert calls == [] and not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record == {
        "error": "BudgetExceededError",
        "message": "block matrix of side 2100 exceeds 2048",
    }


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_bench_rejects_a_non_finite_time(tmp_path, capsys, value):
    out = tmp_path / "bench.csv"
    argv = ["bench", "--dims", "3", "--orders", "2", f"--t={value}", "--out", str(out)]
    assert run_cli(argv) == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record == {"error": "ValueError", "message": "t must be finite"}


def test_error_record_on_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = run_cli(["propagate", "--model", str(bad)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ModelParseError"


def test_module_entry_point(model_path, tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-m", "divexp.cli", "propagate", "--model", model_path,
         "--t-count", "5", "--t-stop", "2"],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0
    assert out.stdout.startswith("t,gamma")


def test_propagate_auto_order_past_cap_is_an_error(model_path, tmp_path, capsys):
    # |g| = 0.1, so t = 50 puts x = |g| t at 5, far past what order 16
    # covers; at t = 10^4 the tail bound itself passes the float range
    out = tmp_path / "prop.csv"
    for t_stop, x, bound in (("50", "5", ""), ("10000", "1000", "inf")):
        rc = run_cli(["propagate", "--model", model_path, "--t-stop", t_stop,
                      "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        for part in (f"x=|g|*t={x}", "up to 16", f"order 16 is {bound}"):
            assert part in record["message"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_propagate_rejects_a_tol_no_order_can_meet(model_path, tmp_path, capsys, tol):
    out = tmp_path / "prop.csv"
    rc = run_cli(["propagate", "--model", model_path, f"--tol={tol}", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert "tol must be finite and > 0" in record["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--format", "csv"],
        ["decompose", "--seed", "1"],
        ["transition", "--from", "0", "--to", "1", "--tol", "1e-6"],
        ["energy", "--level", "0", "--seed", "1"],
        ["propagate", "--seed", "1"],
        ["propagate", "--method", "block"],
    ],
)
def test_model_commands_reject_unread_options(model_path, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv[:1] + ["--model", model_path] + argv[1:])
    assert exc.value.code == 2


def test_no_evaluation_knobs(capsys):
    for name in ("series_order_matrix", "series_term", "truncated_propagator",
                 "evolve"):
        params = inspect.signature(getattr(propagator, name)).parameters
        assert not [p for p in params if p == "method" or p.endswith("budget")], name
    params = inspect.signature(improved.revised_golden_rule).parameters
    assert "coupling_sq" not in params and "max_refine" not in params
    with pytest.raises(SystemExit):
        run_cli(["propagate", "--help"])
    assert "--method" not in capsys.readouterr().out
    src = pathlib.Path(propagator.__file__).parent
    for path in src.glob("*.py"):
        assert "environ" not in path.read_text(), path.name


def test_propagate_one_time_close_first_and_last_levels(tmp_path, capsys):
    # levels 0 and 1e-10 first and last: the amplitudes hold within the
    # tail bound they are printed with, against a 40-digit propagator
    rng = np.random.default_rng(0)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2.0
    np.fill_diagonal(h, 0.0)
    t = 2.0
    h *= 1.5 / (t * np.linalg.norm(h, 2))  # x = ||g|| t = 1.5
    path = tmp_path / "close.json"
    path.write_bytes(dump_model(SplitHamiltonian([0.0, 1.3, 2.1, 1e-10], h)))
    argv = ["propagate", "--model", str(path), "--t-start", "2", "--t-stop", "2",
            "--t-count", "1"]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    cells = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert cells.shape == (4, 6) and np.all(cells[:, 0] == t)
    want = mp_propagator(redivide(load_model_path(path)).total(), t)[:, 0]
    err = np.linalg.norm(cells[:, 2] + 1j * cells[:, 3] - want)
    assert err <= cells[0, 5] + 1e-14


def _rowwise_csv(header, rows):
    # the reference text: one format applied row by row
    fmt = ",".join(
        "%s" if isinstance(x, str)
        else "%d" if isinstance(x, (int, np.integer))
        else "%.17g"
        for x in rows[0]
    )
    return "\n".join([",".join(header)] + [fmt % tuple(row) for row in rows]) + "\n"


def test_propagate_csv_from_columns_matches_the_rowwise_text(
    model_path, monkeypatch, capsys
):
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-20.0, 3.0, size=(n, dim))
        amps = (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))) * scale
        amps[rng.uniform(size=(n, dim)) < 0.1] = -0.0
        res = EvolutionResult(
            times=np.sort(rng.uniform(-5.0, 5.0, size=n)), amplitudes=amps,
            order_cap=3, tail_bounds=10.0 ** rng.uniform(-300.0, 3.0, size=n),
            norm_drift=np.zeros(n),
        )
        monkeypatch.setattr(propagator, "evolve", lambda *args, res=res: res)
        monkeypatch.setattr(cli, "_load", lambda args, dim=dim: SimpleNamespace(dim=dim))
        assert run_cli(["propagate", "--model", model_path, "--order", "3"]) == 0
        rows = [
            (t, g, c.real, c.imag, abs(c) ** 2, res.tail_bounds[k])
            for k, t in enumerate(res.times)
            for g, c in enumerate(res.amplitudes[k])
        ]
        header = ["t", "gamma", "re_c", "im_c", "prob", "tail_bound"]
        assert capsys.readouterr().out == _rowwise_csv(header, rows)


def test_transition_energy_and_bench_tables_match_the_rowwise_text(
    model_path, monkeypatch, capsys
):
    tables = []

    def recording_csv_text(header, rows):
        text = _csv_text(header, rows)
        tables.append(text == _rowwise_csv(header, rows))
        return text

    monkeypatch.setattr(cli, "_csv_text", recording_csv_text)
    for argv in (
        ["transition", "--model", model_path, "--from", "0", "--to", "1",
         "--t-count", "7"],
        ["energy", "--model", model_path, "--level", "0"],
        ["bench", "--dims", "3,4", "--orders", "1,2"],
    ):
        assert run_cli(argv) == 0
    capsys.readouterr()
    assert tables == [True, True, True]

import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from divexp import TwoStateExact, dump_model, improved, propagator
from divexp.cli import _csv_text, main


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


@pytest.mark.parametrize("gap", ["2", "-0.5", "nan"])
def test_verify_identity_rejects_unreachable_min_gap(gap, capsys):
    assert run_cli(["verify-identity", "--min-gap", gap, "--trials", "5"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError" and "--min-gap" in record["message"]


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
    # scipy.integrate serves only the Dyson oracle and is imported on its call
    code = "import sys, divexp.cli; print('scipy.integrate' in sys.modules)"
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


def test_bench_small(tmp_path):
    out = tmp_path / "bench.csv"
    rc = run_cli(["bench", "--dims", "3,4", "--orders", "2,3", "--seed", "1",
                  "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dim,order_cap,method,wall_time_s,error_vs_oracle,tail_bound"
    assert len(lines) == 1 + 2 * 2  # one row per (dim, order)
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "tuples"
        float(cells[3])
        float(cells[4])


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
    # |g| = 0.1, so t = 50 puts x = |g| t at 5, far past what order 16 covers
    out = tmp_path / "prop.csv"
    rc = run_cli(["propagate", "--model", model_path, "--t-stop", "50",
                  "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "ValueError"
    for part in ("x=|g|*t=5", "up to 16", "order 16 is"):
        assert part in record["message"]


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
                 "evolve", "oracle_block_order"):
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

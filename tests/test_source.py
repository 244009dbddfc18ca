import ast
import importlib
import inspect
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "divexp"


def _unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # a package __init__ imports names to re-export them, so it is left out
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p) for p in modules}
    assert not {name: found for name, found in unused.items() if found}


# Parameter names of the public entry points of improved, model, propagator,
# contraction and coeff.  An option added to one of them fails here until it
# is pinned on purpose.
ENTRY_POINT_PARAMETERS = {
    "improved.revision_energies": ("m", "max_order"),
    "improved.improved_kernel": ("e", "g", "freq", "order", "t"),
    "improved.improved_solution": ("m", "psi0", "times", "order"),
    "improved.improved_transition": ("m", "from_level", "to_level", "times"),
    "improved.revised_golden_rule": ("m", "from_level", "rho", "T"),
    "improved.improved_energy": ("m", "level", "max_order"),
    "improved.improved_state_coefficients": ("m", "level", "order"),
    "model.SplitHamiltonian": ("energies", "perturbation", "labels"),
    "model.RedividedHamiltonian": ("base",),
    "model.StateVector": ("amplitudes",),
    "model.basis_state": ("dim", "index"),
    "model.load_model": ("source",),
    "model.load_model_path": ("path",),
    "model.dump_model": ("m",),
    "model.redivide": ("m",),
    "model.require_nondegenerate": ("m",),
    "model.default_gap_tol": ("m",),
    "propagator.series_order_matrix": ("energies", "coupling", "l", "t"),
    "propagator.series_term": ("m", "l", "t"),
    "propagator.coupling_strength": ("m",),
    "propagator.truncated_propagator": ("m", "L", "t"),
    "propagator.auto_order": ("m", "t_max", "tol"),
    "propagator.evolve": ("m", "psi0", "times", "L"),
    "propagator.oracle_eigensolve": ("m", "t"),
    "contraction.enumerate_patterns": ("l",),
    "contraction.pattern_piece_matrix": ("energies", "coupling", "pattern", "t"),
    "contraction.second_order_pieces": ("m", "t"),
    "contraction.third_order_pieces": ("m", "t"),
    "contraction.mixed_second_order_pieces": ("m", "t"),
    "contraction.extract_secular_coefficients": ("sample_fn", "energies", "max_power"),
    "contraction.secular_classes_for_order": ("l",),
    "contraction.secular_aggregate_coefficients": ("m", "l"),
    "contraction.secular_aggregates": ("m", "t", "l"),
    "coeff.denominators": ("nl",),
    "coeff.c_closed": ("nl", "n"),
    "coeff.dd_exp_batch": ("nodes", "t"),
    "coeff.dd_exp": ("nl", "t"),
}


def test_entry_point_parameters():
    modules = {
        module: importlib.import_module(f"divexp.{module}")
        for module in {name.split(".")[0] for name in ENTRY_POINT_PARAMETERS}
    }
    found = {}
    for name in ENTRY_POINT_PARAMETERS:
        module, attr = name.split(".")
        params = inspect.signature(getattr(modules[module], attr)).parameters
        found[name] = tuple(params)
    assert found == ENTRY_POINT_PARAMETERS
    # every public function of these modules is pinned
    functions = {
        f"{module_name}.{attr}"
        for module_name, module in modules.items()
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }
    assert functions <= set(ENTRY_POINT_PARAMETERS)


def test_the_tuple_sum_serves_only_the_reference_pieces():
    # every production piece comes from the term or a shared divided-difference
    # table; the tuple sum is left to pattern_piece_matrix, the reference
    defined, used = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            if isinstance(top, ast.FunctionDef) and top.name == "_tuple_sum":
                defined.append(where)
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "_tuple_sum") or (
                    isinstance(node, ast.Attribute) and node.attr == "_tuple_sum"
                ):
                    used.append(where)
    assert defined == ["propagator._tuple_sum"]
    assert used == ["contraction.pattern_piece_matrix"]


def test_the_block_budget_has_one_owner():
    # only propagator sizes the block exponential and refuses past the cap
    names = {"_block_side", "MAX_BLOCK_SIDE"}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id in names) or (
                isinstance(node, ast.Attribute) and node.attr in names
            ):
                used.add(path.stem)
    assert used == {"propagator"}


def test_oracles_import_only_classes_from_divexp():
    # an oracle that called divexp code would check the engine against itself
    tree = ast.parse((TESTS / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "divexp"]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "divexp":
            module = importlib.import_module(node.module)
            imported += [(a.name, getattr(module, a.name)) for a in node.names]
    assert imported
    assert not [name for name, obj in imported if not inspect.isclass(obj)]


def test_the_eigensolve_is_the_one_public_oracle():
    import divexp

    assert [n for n in divexp.__all__ if n.startswith("oracle_")] == ["oracle_eigensolve"]

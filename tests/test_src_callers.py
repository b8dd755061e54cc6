"""Every top-level function and class in src/mlve has a caller in src/mlve,
every module-level constant there a reader, and every defaulted parameter
of a called function a call that sets it.

A name is called when module-level code, or a function or class that is
itself called, refers to it.  Import statements at module level do not
count: a name only imported is not run.  ``cli.main`` is reached from the
``__main__`` guard of ``cli``, and the ``verify`` suites from its suite
table.  A constant is read when module-level code or a called function or
class loads it; assigning it does not count.  A defaulted parameter of a
called function or method is set by a call in src/mlve or the tests that
passes it, by keyword or by position; one that no call sets is a constant
in disguise.

The one exemption is REFERENCE_ROUTES: second implementations that tests
compare a production route against, and bounds of the paper that the
acceptance criteria verify.  Every exempt name must still be used by a
test, and none may be reached from src/mlve without the exemption: an
exemption goes as soon as its route gains a caller.

Every name a module imports is also loaded in that module, except the
package's re-exports in ``__all__`` and BENCH_BINDINGS, which stay bound
unused, and only while unused.  Every name the benchmark's layer trace
(``bench/layertrace.py``) wraps must still resolve.
"""

import ast
import importlib.util
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mlve"
LAYER_TRACE = TESTS.parent / "bench" / "layertrace.py"

# Second routes that only the tests call, the scalar kernel sums with
# their Faa di Bruno partition sum and compensated sum, the single-rule
# Z quadrature, the exact rational series of log Z in g and the power
# expansion of log(1 + A) among them, live in conftest.py and need no
# exemption.
REFERENCE_ROUTES = {
    # the lifted Y as path minima at any point of the weights
    "fermionic_factor": "engine.fermionic_weight_integral, Y gathered one ordering cell at a time",
    # one checked minor per exchange pattern; exchange_sum takes its
    # determinants directly, and the Berezin algebra that locks the
    # minor's sign is in the tests
    "grassmann_minor": "grassmann.exchange_sum, one pattern at a time",
    # paper bounds verified by acceptance criteria 7-9
    "block_bound_complex": "the block bound on the domain |lam|^2 < cos(2 gamma)",
    "summed_series_bound": "geometric convergence of the summed series for large M",
    "inner_tail_bound": "the inner sum bound 1 / (M^(1/8) - |lam|^2)",
    "convergence_condition": "the Kotecky-Preiss condition of the Mayer expansion",
}

# names imported unused, as module.name: bench/layertrace.py wraps them there
BENCH_BINDINGS = {"engine.enumerate_jungles", "engine.fermionic_factor"}


def test_every_traced_name_is_bound(monkeypatch):
    # the benchmark's layer trace wraps mlve functions by module and name;
    # one it cannot find is skipped, and its layer reads 0 in the trace
    spec = importlib.util.spec_from_file_location("layertrace", LAYER_TRACE)
    layertrace = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layertrace)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.unbound == []


# package metadata that only importers read
MODULE_DUNDERS = {"__version__", "__all__"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node) -> set:
    """Every identifier a node refers to, other than by assigning it: names,
    attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
    return out


def _source_graph():
    """Top-level definitions as {name: (module, names it refers to)}, the
    module-level constants as (module, name) pairs, and the names that
    module-level code other than imports refers to."""
    defs, constants, roots = {}, [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, _DEFS):
                assert node.name not in defs, f"{node.name} is defined twice in src/mlve"
                defs[node.name] = (path.stem, _names(node) - {node.name})
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name)]
    return defs, constants, roots


def _called(defs, roots) -> set:
    """The definitions that the names in roots reach."""
    called, todo = set(), [n for n in roots if n in defs]
    while todo:
        name = todo.pop()
        if name not in called:
            called.add(name)
            todo.extend(n for n in defs[name][1] if n in defs)
    return called


def _calls() -> dict:
    """{callee: [positional argument count, keywords]}, the most positional
    arguments and every keyword of any call in src/mlve or the tests, the
    callee named by its name or attribute.  A call with *args or **kwargs
    adds the keyword None, which sets everything."""
    calls = {}
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            entry = calls.setdefault(name, [0, set()])
            entry[0] = max(entry[0], len(node.args))
            entry[1] |= {k.arg for k in node.keywords}  # None for **kwargs
            if any(isinstance(a, ast.Starred) for a in node.args):
                entry[1].add(None)
    return calls


def _defaulted(definition):
    """(callee, parameter, position) for each defaulted parameter of a
    top-level function, or of a method of a top-level class, where a call
    by callee passes the parameter as its argument at position; a
    keyword-only parameter has no position.  A class is called by its own
    name for __init__, a method by its name, without self."""
    if isinstance(definition, ast.ClassDef):
        methods = [f for f in definition.body if isinstance(f, ast.FunctionDef)]
        funcs = [(definition.name if f.name == "__init__" else f.name, 1, f) for f in methods]
    else:
        funcs = [(definition.name, 0, definition)]
    for callee, offset, func in funcs:
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], start=first):
            yield callee, a.arg, i - offset
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, a.arg, None


def test_every_definition_has_a_caller():
    defs, _, roots = _source_graph()
    assert set(REFERENCE_ROUTES) <= set(defs), sorted(set(REFERENCE_ROUTES) - set(defs))
    uncalled = sorted(f"{defs[n][0]}.{n}" for n in set(defs) - _called(defs, roots | set(REFERENCE_ROUTES)))
    assert not uncalled, f"no caller in src/mlve: {uncalled}"


def test_every_constant_has_a_reader():
    defs, constants, roots = _source_graph()
    read = roots.union(*(defs[n][1] for n in _called(defs, roots | set(REFERENCE_ROUTES))))
    unread = sorted(f"{module}.{name}" for module, name in constants if name not in read | MODULE_DUNDERS)
    assert not unread, f"no reader in src/mlve: {unread}"


def test_no_exemption_is_reached_from_src():
    defs, _, roots = _source_graph()
    stale = sorted(f"{defs[n][0]}.{n}" for n in set(REFERENCE_ROUTES) & _called(defs, roots))
    assert not stale, f"reached from src/mlve, so no longer exempt: {stale}"


def test_reference_routes_are_used_by_tests():
    used = set()
    for path in TESTS.glob("test_*.py"):
        if path.name != Path(__file__).name:
            used |= _names(ast.parse(path.read_text(encoding="utf-8")))
    assert not set(REFERENCE_ROUTES) - used, sorted(set(REFERENCE_ROUTES) - used)


def test_every_defaulted_parameter_is_set():
    defs, _, roots = _source_graph()
    reached = _called(defs, roots) - set(REFERENCE_ROUTES)
    calls = _calls()
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, _DEFS) and node.name in reached:
                for callee, param, position in _defaulted(node):
                    count, keywords = calls.get(callee, (0, set()))
                    if not keywords & {param, None} and (position is None or position >= count):
                        unset.append(f"{path.stem}.{callee}({param})")
    assert not unset, f"defaulted, and set by no call: {sorted(unset)}"


def test_every_import_is_used():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    (exports,) = [node.value for node in init.body if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"]
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
                unused |= {f"{path.stem}.{name}" for name in bound - loaded}
    unused -= {f"__init__.{name}" for name in ast.literal_eval(exports)}
    assert unused == BENCH_BINDINGS, f"imported and never loaded: {sorted(unused - BENCH_BINDINGS)}; exempt but loaded or gone: {sorted(BENCH_BINDINGS - unused)}"

"""The names that the benchmark's tracer (``perfbench/tracer.py``) wraps.

The tracer finds each function by name and skips one that is missing, so a
rename in the package would drop the per-layer metrics built on it without
an error. These tests read the tracer's tables and check every name and
every argument its work counters read against the package. The tracer file
is only read, never imported as a package module.
"""

import ast
import importlib
import inspect
import pathlib
import types

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


def _resolve(module_name, *attrs):
    obj = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{obj.__name__} has no {attr}"
        obj = getattr(obj, attr)
    assert callable(obj)
    return obj


class _Arg(int):
    """An argument value that also serves as a chain (``.n``)."""

    n = 3


class _Reads(dict):
    """Bound arguments that record the names a work counter reads."""

    def __getitem__(self, key):
        self.setdefault(key, _Arg(2))
        return super().__getitem__(key)


@pytest.mark.parametrize("name,module_name,attr,counter", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_target_resolves(name, module_name, attr, counter):
    assert name == f"{module_name}.{attr}"
    _resolve(module_name, attr)


@pytest.mark.parametrize("module_name,cls,meth", tracer.COUNTED_METHODS, ids=[".".join(m) for m in tracer.COUNTED_METHODS])
def test_counted_method_resolves(module_name, cls, meth):
    _resolve(module_name, cls, meth)


COUNTED = [t for t in tracer.TARGETS if t[3] is not None]


@pytest.mark.parametrize("name,module_name,attr,counter", COUNTED, ids=[t[0] for t in COUNTED])
def test_work_counter_reads_parameters(name, module_name, attr, counter):
    reads = _Reads()
    assert tracer._work(counter, reads) > 0
    params = inspect.signature(_resolve(module_name, attr)).parameters
    assert reads.keys() and reads.keys() <= params.keys(), (name, sorted(reads), list(params))


def test_counters_read_the_documented_arguments():
    read = set()
    for counter in {t[3] for t in COUNTED}:
        reads = _Reads()
        tracer._work(counter, reads)
        read |= reads.keys()
    assert read == {"T", "chain", "k", "trials"}


WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")


def _library_calls():
    """``(name, positional count, keyword names, line)`` of every call in the
    workloads file to ``mp.<module>.<name>``, also through a local name
    bound to ``mp.<module>``. A ``**name`` argument gives the keywords of
    its ``name = dict(...)`` assignment. The file is parsed, not run."""
    tree = ast.parse(WORKLOADS_PATH.read_text())
    aliases, dicts = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name, value = node.targets[0].id, node.value
            if isinstance(value, ast.Attribute) and getattr(value.value, "id", None) == "mp":
                aliases[name] = value.attr
            elif isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict":
                dicts[name] = [kw.arg for kw in value.keywords]
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if isinstance(owner, ast.Attribute) and getattr(owner.value, "id", None) == "mp":
            module = owner.attr
        elif isinstance(owner, ast.Name) and owner.id in aliases:
            module = aliases[owner.id]
        else:
            continue
        assert not any(isinstance(arg, ast.Starred) for arg in node.args), node.lineno
        keywords = [name for kw in node.keywords for name in ([kw.arg] if kw.arg else dicts[kw.value.id])]
        calls.append((f"{module}.{node.func.attr}", len(node.args), keywords, node.lineno))
    return sorted(calls, key=lambda call: call[3])


LIBRARY_CALLS = _library_calls()


def test_workloads_calls_are_found():
    names = {name for name, *_ in LIBRARY_CALLS}
    assert {"engine.ratio_report", "engine.exact_cost", "audit.run_audit", "learn.estimate_transition"} <= names


@pytest.mark.parametrize("name,positional,keywords,line", LIBRARY_CALLS, ids=[f"{c[0]}@{c[3]}" for c in LIBRARY_CALLS])
def test_workload_call_binds(name, positional, keywords, line):
    """Each library call of a workload binds to the function's signature
    with placeholder arguments, and each positional argument fills a
    parameter without a default, so that a dropped parameter is not hidden
    by a later parameter's default."""
    signature = inspect.signature(_resolve(*name.split(".")))
    bound = signature.bind(*range(positional), **{kw: None for kw in keywords})
    filled = list(bound.arguments)[:positional]
    assert all(signature.parameters[p].default is inspect.Parameter.empty for p in filled), (name, line, filled)

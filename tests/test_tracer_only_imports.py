"""Every import that `src/` keeps only for the benchmark's span tracer is
one that the tracer patches.

`bench/tracing.py` patches a name in each module listed in its `SPANS`,
so a module may bind a name it never calls, marked `# noqa: F401`, only so
that the tracer finds it there. This test fails when such an import binds
anything that `SPANS` does not patch in that module, so that imports kept
for a span that is gone cannot pile up unnoticed.
"""

import ast
import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACING = ROOT / "bench" / "tracing.py"
NOQA = "# noqa: F401"


def spanned_names() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("satguide_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(owner.__name__, attr) for owner, attr, *_ in module.SPANS + module.COUNTERS
            if isinstance(owner, types.ModuleType)}


def noqa_imports():
    """(module, bound name, file, line) for each name bound by an import
    that carries the marker."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not any(NOQA in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield module, name, path.name, node.lineno


def test_tracer_only_imports_are_spanned():
    found = list(noqa_imports())
    assert found, "no tracer-only import found; is the marker still in use?"
    spanned = spanned_names()
    stray = [f"{file}:{line} binds {name!r}" for module, name, file, line in found
             if (module, name) not in spanned]
    assert not stray, f"imports kept for no span of bench/tracing.py: {stray}"

"""Static enforcement of the kernel API boundary.

The pluggable-kernel design only holds if no consumer reaches around
:class:`repro.bdd.api.BddKernel` into a concrete backend: backend
modules may restructure their node tables, cache layouts, and handle
packing freely as long as the ``BddKernel`` surface is stable.  These
tests AST-parse every module under ``src/repro`` and fail on any import
that resolves into ``repro.bdd.backends`` from outside the backend
package itself.
"""

import ast
import pathlib

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent.parent
BACKEND_PKG = "repro.bdd.backends"


def _module_name(path: pathlib.Path) -> str:
    rel = path.resolve().relative_to(SRC_ROOT).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: pathlib.Path):
    """Absolute module names imported by ``path`` (relative resolved)."""
    module = _module_name(path)
    package_parts = module.split(".")
    if not path.name == "__init__.py":
        package_parts = package_parts[:-1]
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - node.level + 1]
                prefix = ".".join(base)
                target = f"{prefix}.{node.module}" if node.module else prefix
            else:
                target = node.module or ""
            yield target
            # ``from pkg import sub`` can bind submodules too; include
            # the joined names so package-level pulls are caught.
            for alias in node.names:
                yield f"{target}.{alias.name}"


def _source_files():
    files = sorted((SRC_ROOT / "repro").rglob("*.py"))
    assert len(files) > 30, "source tree not found; check PYTHONPATH=src"
    return files


def test_no_consumer_imports_backend_internals():
    offenders = []
    for path in _source_files():
        module = _module_name(path)
        if module.startswith(BACKEND_PKG):
            continue  # backends may import each other (packed extends reference)
        for target in _imports(path):
            if target == BACKEND_PKG or target.startswith(BACKEND_PKG + "."):
                offenders.append(f"{module} imports {target}")
    assert not offenders, (
        "backend internals leaked past the BddKernel API:\n  "
        + "\n  ".join(offenders)
    )


def test_backend_registry_is_lazy():
    """Importing ``repro.bdd`` must not import any backend module; the
    registry resolves by module path only when a kernel is created."""
    import subprocess
    import sys

    code = (
        "import sys, repro.bdd; "
        "mods = [m for m in sys.modules if m.startswith('repro.bdd.backends')]; "
        "sys.exit(1 if mods else 0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, "importing repro.bdd eagerly loaded a backend"

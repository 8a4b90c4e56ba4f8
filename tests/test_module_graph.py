"""Every module of ``src/repro`` is imported by another one.

A module that no other module imports is code only its own tests reach:
either dead, or a second implementation of a job the program does
elsewhere.  The check reads the sources with :mod:`ast` (nothing is
imported), so a lazy import inside a function counts, and so does a
re-export in a package ``__init__``.  Console entry points are the only
exemption: their caller is the installed script.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Modules only an installed console script imports (see ``setup.py``).
ENTRY_POINTS = {"repro.cli"}


def _module_name(path):
    parts = list(path.relative_to(SOURCE).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(path, name, known):
    """Modules of ``known`` that the module at ``path`` imports."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            # ``from package import name`` imports the submodule when
            # ``name`` is one.
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            # Importing ``a.b.c`` imports ``a`` and ``a.b`` too.
            parts = target.split(".")
            found.update(".".join(parts[:end]) for end in range(1, len(parts) + 1))
    return found & known


def orphaned_modules():
    """Non-``__init__`` modules of ``src/repro`` no other module imports."""
    paths = {_module_name(path): path for path in sorted(SOURCE.glob("repro/**/*.py"))}
    imported = set()
    for name, path in paths.items():
        imported |= _imported_modules(path, name, set(paths)) - {name}
    return sorted(name for name, path in paths.items()
                  if path.name != "__init__.py" and name not in imported
                  and name not in ENTRY_POINTS)


def test_every_module_has_an_importer():
    assert orphaned_modules() == []


def test_entry_points_are_console_scripts():
    setup = (ROOT / "setup.py").read_text(encoding="utf-8")
    for module in ENTRY_POINTS:
        assert f"= {module}:" in setup

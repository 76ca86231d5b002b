"""The package's import surface: every module, every export, every example."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import repro

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def test_modules_exports_and_examples_import():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    dangling = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert dangling == []

    examples = sorted(EXAMPLES_DIR.glob("*.py"))
    assert examples
    for path in examples:
        # A module name other than "__main__" leaves the example's
        # ``if __name__ == "__main__":`` block unrun.
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        assert spec is not None and spec.loader is not None
        spec.loader.exec_module(importlib.util.module_from_spec(spec))

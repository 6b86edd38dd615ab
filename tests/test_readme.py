"""README's library layout and the package's export list name only what the
package has."""
import importlib
import pkgutil
import re
from pathlib import Path

import fujitalab

README = Path(__file__).resolve().parent.parent / "README.md"
IDENTIFIER = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)`")


def layout_rows():
    text = README.read_text(encoding="utf-8")
    table = text.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    return [line for line in table.splitlines() if line.startswith("| `fujitalab.")]


def resolves(name, modules):
    if name.startswith("fujitalab."):
        return name[len("fujitalab."):] in modules
    head, _, attr = name.rpartition(".")
    if head:
        return head in modules and hasattr(modules[head], attr)
    return any(hasattr(module, name) for module in modules.values())


def test_every_identifier_in_the_library_layout_names_a_package_attribute():
    modules = {info.name: importlib.import_module(f"fujitalab.{info.name}")
               for info in pkgutil.iter_modules(fujitalab.__path__)}
    rows = layout_rows()
    assert len(rows) == len(modules)
    names = [name for row in rows for name in IDENTIFIER.findall(row)]
    assert names
    assert [name for name in names if not resolves(name, modules)] == []


def test_every_exported_name_is_a_package_attribute():
    assert [name for name in fujitalab.__all__ if not hasattr(fujitalab, name)] == []

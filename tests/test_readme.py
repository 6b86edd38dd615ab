"""README's library layout and the package's export list name only what the
package has, every exported name has a reader, and README's scenario
example parses."""
import ast
import importlib
import json
import pkgutil
import re
from pathlib import Path

import fujitalab
from fujitalab.cli import parse_scenario

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


# exported with no reader yet: the forced-problem classifier a planned verdict reads
UNREAD_EXPORTS = {"classify_inhomogeneous"}


def _identifiers(tree, own=()):
    """Every name, attribute, import alias and string constant under ``tree``
    except those in ``own``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(part for name in (node.name, node.asname) if name
                         for part in name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found - set(own)


def _defined(statement):
    """The names a top-level def, class or assignment defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {node.id for target in statement.targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def test_every_exported_name_has_a_reader():
    root = README.parent
    read = set()
    for path in sorted((root / "src" / "fujitalab").glob("*.py")):
        if path.name == "__init__.py":  # re-exports are not readers
            continue
        # a definition that names itself does not read itself
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            read |= _identifiers(statement, _defined(statement))
    for path in [*sorted((root / "bench").glob("*.py")),
                 root / "tests" / "test_acceptance.py"]:
        read |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    unread = {name for name in fujitalab.__all__ if name not in read}
    assert unread == UNREAD_EXPORTS


def test_the_run_section_example_is_a_valid_scenario():
    run_section = README.read_text(encoding="utf-8").split("### run", 1)[1]
    example = run_section.split("```json\n", 1)[1].split("```", 1)[0]
    config = parse_scenario(json.loads(example))[2]
    assert config.trace_stride == 5

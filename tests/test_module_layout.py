"""No module of the ``qdecay`` package uses a private name of another one."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qdecay")
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))


def private_uses(source: str) -> list:
    """``module.name`` for each private name the source takes from a sibling module of the package.

    Counted are ``from .module import _name`` (or ``from qdecay.module``) and
    ``module._name`` where ``module`` was bound by ``from . import module``
    (or ``import qdecay.module as module``).
    """
    tree = ast.parse(source)
    found, siblings = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 or (node.level == 0 and (node.module or "").split(".")[0] == "qdecay")
            module = (node.module or "").removeprefix("qdecay").lstrip(".")
            if not package:
                continue
            for alias in node.names:
                if not module:  # from . import sibling
                    siblings[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.append(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qdecay.") and alias.asname:
                    siblings[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"{siblings[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_no_private_name_of_a_sibling(module):
    with open(os.path.join(PACKAGE, module + ".py"), encoding="utf-8") as fh:
        assert private_uses(fh.read()) == []


def test_guard_finds_each_form_of_private_use():
    source = (
        "from . import models, stats as st\n"
        "import qdecay.rabi as rb\n"
        "from .core import _mulhilo, EncodedColumn\n"
        "from qdecay.models import (_CODE, run_decay_ensemble)\n"
        "from .lockstep import merge_rows as _merge_rows\n"
        "def f():\n"
        "    from .models import _step_rows\n"
        "    return models._NSM_GROUP, st._private, rb._driven_plan, models.run_decay_ensemble, models.__name__\n"
    )
    found = private_uses(source)
    assert sorted(found) == sorted(
        ["core._mulhilo", "models._CODE", "models._step_rows", "models._NSM_GROUP", "stats._private", "rabi._driven_plan"]
    )

"""Layering: the simulator and protocol layers never import upward.

``docs/architecture.md`` orders the packages ``sim`` -> ``eth`` -> ``netgen``
-> ``core`` -> ``service``; the lower three must be usable (and auditable)
without the measurement logic or the job service on the import path.
"""

import ast
from pathlib import Path

import repro

LOWER = ("sim", "eth", "netgen")
UPPER = ("repro.core", "repro.service")


def _imported_modules(tree: ast.AST):
    """Every absolute module named by an import anywhere in ``tree`` —
    module level, function level and ``TYPE_CHECKING`` blocks alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # Joined form, so ``from repro import core`` is caught too.
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_lower_layers_do_not_import_core_or_service():
    root = Path(repro.__file__).parent
    offenders = []
    for package in LOWER:
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for lineno, module in _imported_modules(tree):
                if any(module == up or module.startswith(up + ".") for up in UPPER):
                    offenders.append(f"{path.relative_to(root)}:{lineno} {module}")
    assert not offenders, "upward imports:\n" + "\n".join(offenders)


def test_campaign_stages_are_the_only_seam_into_toposhot():
    """Other modules drive a campaign through ``TopoShot``'s public stages
    (open / run / close): no ``shot._name`` / ``x.shot._name`` attribute
    access anywhere under ``src/`` outside ``core/campaign.py``."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "core" / "campaign.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            owner_name = getattr(owner, "id", None) or getattr(owner, "attr", None)
            if owner_name == "shot" and node.attr.startswith("_"):
                offenders.append(
                    f"{path.relative_to(root)}:{node.lineno} shot.{node.attr}"
                )
    assert not offenders, "private TopoShot reach-ins:\n" + "\n".join(offenders)

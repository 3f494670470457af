import importlib
import pkgutil
import re
from pathlib import Path

import polytx as px

README = Path(__file__).resolve().parents[1] / "README.md"


def surface_calls() -> list[str]:
    """Names in the first column of the README's "Library surface" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        call_column = line.split("|")[1]
        names += re.findall(r"`([A-Za-z_]\w*)", call_column)
    return names


def test_library_surface_table_matches_exports():
    names = surface_calls()
    assert "edge_aligned_candidates" in names
    missing = [n for n in names if n not in px.__all__ or not hasattr(px, n)]
    assert missing == []


def module_references() -> list[tuple[str, str]]:
    """Every ``module.name`` inside backticks in the README whose module is a
    polytx module, such as ``visibility.reach``, with or without ``polytx.``."""
    modules = {m.name for m in pkgutil.iter_modules(px.__path__)}
    refs = []
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        refs += [
            (module, name)
            for module, name in re.findall(r"(?<![\w.])(?:polytx\.)?(\w+)\.(\w+)", span)
            if module in modules
        ]
    return refs


def test_module_references_resolve():
    refs = module_references()
    assert ("visibility", "reach") in refs
    stale = [f"{m}.{n}" for m, n in refs if not hasattr(importlib.import_module(f"polytx.{m}"), n)]
    assert stale == []

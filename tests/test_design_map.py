"""DESIGN.md §2's module map must match ``src/repro``.

Every module under ``src/repro`` (package ``__init__.py`` files aside)
appears in the map, and every file the map lists exists.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Entry lines are indented by two spaces per level; deeper lines are
#: wrapped descriptions.
_MAX_ENTRY_INDENT = 8


def _map_block() -> list[str]:
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 2. System inventory", 1)[1]
    block = section.split("```", 2)[1]
    lines = block.splitlines()
    assert lines[1] == "src/repro/", lines[:2]
    return lines[2:]


def _listed_paths() -> set[str]:
    listed = set()
    stack: list[str] = []
    for line in _map_block():
        entry = line.lstrip()
        indent = len(line) - len(entry)
        if not entry or indent > _MAX_ENTRY_INDENT:
            continue
        name = entry.split()[0]
        stack = stack[: indent // 2 - 1]
        if name.endswith("/"):
            stack.append(name[:-1])
        else:
            listed.add("/".join(stack + [name]))
    return listed


def _modules() -> set[str]:
    return {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_module_is_in_the_map():
    missing = _modules() - _listed_paths()
    assert not missing, f"DESIGN.md §2 does not list: {sorted(missing)}"


def test_every_listed_file_exists():
    listed = {p for p in _listed_paths() if not p.endswith("__init__.py")}
    stale = listed - _modules()
    assert not stale, f"DESIGN.md §2 lists missing files: {sorted(stale)}"

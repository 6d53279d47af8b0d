"""The README's Layout and the package docstring's subpackage map name
every module of the package."""

import re
from pathlib import Path

import masksep

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "masksep").glob("*.py")
                 if p.name != "__init__.py")


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^  (\w+)\.py ", layout, re.MULTILINE))
    assert [m for m in MODULES if m not in listed] == []


def test_package_docstring_maps_every_module():
    listed = set(re.findall(r"^- ``(\w+)``", masksep.__doc__, re.MULTILINE))
    assert [m for m in MODULES if m not in listed] == []

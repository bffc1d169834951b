"""The README's library layout table matches the package."""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_library_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `polycomp\.(\w+)` \|", table, flags=re.MULTILINE)
    modules = sorted(p.stem for p in (ROOT / "src" / "polycomp").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    assert sorted(rows) == modules
    assert len(rows) == len(set(rows))

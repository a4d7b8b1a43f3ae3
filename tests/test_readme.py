"""The README names only what the package has."""

import re
from pathlib import Path

import netcoh as nc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_nc_name_in_the_readme_resolves():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    assert "import netcoh as nc" in tour
    names = set(re.findall(r"\bnc\.\w+(?:\.\w+)*", text))
    assert {"nc.p_variance", "nc.graphs.family_spectrum"} <= names
    missing = []
    for name in sorted(names):
        obj = nc
        for part in name.split(".")[1:]:
            if not hasattr(obj, part):
                missing.append(name)
                break
            obj = getattr(obj, part)
    assert missing == []

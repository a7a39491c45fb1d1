"""The package root exports exactly the names README.md imports from it."""

import re
import types
from pathlib import Path

import bend

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
# Code lines and inline code spans alike: (module, "name, name").
IMPORTS = re.findall(r"(?:^|`)from (bend[\w.]*) import ([\w, ]+)(?:$|`)", README, re.MULTILINE)


def test_every_readme_import_runs():
    assert ("bend", "SplitSpec, read_dataset, split_reference_target, write_dataset") in IMPORTS
    for module, names in IMPORTS:
        exec(f"from {module} import {names}", {})


def test_the_root_exports_only_what_readme_imports_from_it():
    shown = {
        name.strip() for module, names in IMPORTS if module == "bend" for name in names.split(",")
    }
    exported = {
        name for name, value in vars(bend).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == shown
    assert bend.__version__

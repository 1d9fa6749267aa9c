"""Start-up: what importing the package and the CLI loads.

A CLI call runs in a fresh interpreter, so every module it imports is paid
for on every call.  These checks run the imports in a child process, where
``sys.modules`` starts empty of homalt.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import homalt

SRC = Path(__file__).resolve().parent.parent / "src"


def _modules_after(statement: str) -> set[str]:
    """The modules loaded in a fresh interpreter after ``statement``."""
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_skips_dataclasses_and_catalog():
    loaded = _modules_after("import homalt.cli")
    assert "homalt.cli" in loaded
    assert not {"dataclasses", "inspect", "homalt.catalog"} & loaded


def test_bare_package_import_loads_no_submodule():
    loaded = _modules_after("import homalt")
    assert "homalt" in loaded
    assert not [name for name in loaded if name.startswith("homalt.")]


def test_submodules_stay_reachable_as_attributes():
    loaded = _modules_after("import homalt\nassert homalt.catalog.DIM == 13")
    assert "homalt.catalog" in loaded


def test_every_public_name_resolves():
    for name in homalt.__all__:
        assert getattr(homalt, name) is not None, name
    assert set(homalt.__all__) <= set(dir(homalt))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from homalt import *", namespace)
    assert set(homalt.__all__) <= set(namespace)
    assert namespace["verify"] is homalt.proof_replay.verify
    assert namespace["FamilyParams"] is homalt.catalog.FamilyParams


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        homalt.no_such_name

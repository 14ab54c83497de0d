"""Package namespace: lazily resolved exports and submodules."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import longevity


def test_every_export_resolves_from_its_home_module_and_is_listed():
    listed = dir(longevity)
    assert len(set(longevity.__all__)) == len(longevity.__all__)
    for name in longevity.__all__:
        value = getattr(longevity, name)
        assert name in listed
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from longevity import *", namespace)
    assert set(longevity.__all__) <= set(namespace)


@pytest.mark.parametrize("module", longevity._SUBMODULES)
def test_submodule_star_import_binds_its_whole_all(module):
    namespace = {}
    exec(f"from longevity.{module} import *", namespace)
    assert set(importlib.import_module(f"longevity.{module}").__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        longevity.no_such_name


def test_submodules_load_on_attribute_access():
    # a fresh interpreter, where nothing has imported the submodules yet
    probe = ("import sys, longevity; "
             "print('longevity.pricing' in sys.modules, longevity.pricing.__name__, "
             "longevity.cli.run.__module__)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"False longevity.pricing longevity.cli\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    root = README.parent
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    done = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_mortality_option_example_prints_what_it_shows(capsys):
    # the README's seeded price-mortality-option command, run in process,
    # prints its text block byte for byte
    from longevity.cli import run

    text = README.read_text()
    commands = re.findall(r"^longevity (price-mortality-option (?:.*\\\n)*.*)$", text, re.M)
    assert len(commands) == 1 and commands[0].endswith("--seed 7")
    blocks = re.findall(r"```text\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    assert run(commands[0].replace("\\\n", " ").split()) == 0
    assert capsys.readouterr() == (blocks[0], "")

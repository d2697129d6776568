import ast
import dataclasses
import importlib
import os
import re

import pytest

import spherediss as sd

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", _readme(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], README, "exec"), namespace)
    seconds, curve, problem = (namespace[k] for k in ("seconds", "curve", "problem"))
    assert isinstance(seconds, sd.DimensionalCurve)
    assert seconds.times_s.tolist() == (curve.times * problem.time_scale).tolist()


@pytest.mark.parametrize("config", [sd.PdeConfig])
def test_settings_table_lists_each_config_field(config):
    # one row per config class: `name` (default), ... in field order
    row = re.search(rf"^\| `{config.__name__}` \| (.*) \|$", _readme(), flags=re.MULTILINE)
    assert row is not None
    listed = re.findall(r"`(\w+)` \(", row.group(1))
    assert listed == [field.name for field in dataclasses.fields(config)]


def test_module_constants_hold_their_listed_values():
    # one bullet per setting: * `spherediss.<module>.<NAME> = ... = <value>`: ...
    bullets = re.findall(r"^\* `((?:spherediss\.\w+\.\w+ = )+)([^`]+)`:", _readme(),
                         flags=re.MULTILINE)
    listed = [(module, name, ast.literal_eval(value))
              for names, value in bullets
              for module, name in re.findall(r"spherediss\.(\w+)\.(\w+)", names)]
    assert len(listed) == 7
    for module, name, value in listed:
        assert getattr(importlib.import_module(f"spherediss.{module}"), name) == value, name

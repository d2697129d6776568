import os
import re

import spherediss as sd

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quick_start_runs():
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], README, "exec"), namespace)
    seconds, curve, problem = (namespace[k] for k in ("seconds", "curve", "problem"))
    assert isinstance(seconds, sd.DimensionalCurve)
    assert seconds.times_s.tolist() == (curve.times * problem.time_scale).tolist()

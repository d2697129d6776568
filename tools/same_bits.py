"""Print three sha256 digests that pin a source tree's results bit for bit.

    python3 tools/same_bits.py [TREE]

TREE is the root of a checkout of this repository (default: the one this
file belongs to); its ``src/`` and ``bench/`` are imported, so running the
tool on two trees and comparing the digests checks that a change keeps the
bits.  No bytecode is written, so the tree is left as it was.

* ``pde``: seeds 0-19 of the benchmark's ``pde-reference`` workload; per
  solve, the sampled times and radii, the final field and radius, and the
  ``nfev``, ``njev``, ``nlu``, ``steps`` and ``solute_drift`` metadata.
* ``cli``: exit code, stdout and every written file of the argv lists in
  ``tests/data/*.json``, the ``spherediss`` commands in ``README.md`` and
  the benchmark's ``cli`` inputs for seeds 0-19, each run in-process by
  ``spherediss.cli.main`` inside a fresh temporary directory, with
  ``{tmp}`` in an argv standing for that directory.
* ``lib``: the library's results at full precision.  Per ``integrate_radius``
  run at the oracle test's reference epsilons (to t = 50 for growth), the
  curve's times, radii and metadata and ``radius_at`` on 257 points spanning
  the run; per blended epsilon, ``blended_t0`` (for dissolution) and
  ``approx_curve``'s times and radii (to t = 50 for growth).  Then the closed
  forms: per epsilon of every regime, ``time_to_dissolution`` (for
  dissolution) and the exact ``radius_at`` on a fixed grid of fractions of
  t0 (of t = 50 for growth and static), each time as a float and the grid as
  an array; ``exact_curve`` and the five explicit ``approx_curve`` at one
  dissolving and one growth epsilon; each ``param_point_*`` at a few
  parameters; and ``nondimensionalize`` of a few scenarios.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile

sys.dont_write_bytecode = True

SEEDS = range(20)


def pde_digest(workloads) -> str:
    sha = hashlib.sha256()
    for seed in SEEDS:
        work = workloads.PdeReference(seed)
        work.prepare()
        for _, eps, ratio, t_end in work.cases:
            result = work._solve(eps, ratio, t_end)
            curve, field, meta = result.curve, result.final_field, result.curve.metadata
            for chunk in (curve.times.tobytes(), curve.radii.tobytes(),
                          field.concentration.tobytes(), repr(field.radius).encode()):
                sha.update(chunk)
            for key in ("nfev", "njev", "nlu", "steps", "solute_drift"):
                sha.update(repr(meta[key]).encode())
    return sha.hexdigest()


ODE_EPSILONS = [1e-4, 1e-3, 0.1, 1.0, 2.0, 5.0, 100.0, 1e4, -1e-3, -0.1, -1.0, -10.0]
BLENDED_EPSILONS = [sign * eps for eps in (1e-3, 0.05, 0.1, 0.3, 0.5) for sign in (1.0, -1.0)]
GROWTH_END = 50.0
EXACT_EPSILONS = [0.0, 1e-300, 1e-3, 0.1, 1.0, 1.999, 2.0, 2.001, 5.0, 100.0, 1e6,
                  -1e-300, -1e-3, -0.1, -1.0, -10.0, -1e6]
FRACTIONS = [0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0]
EXPLICIT = ["qss", "small-time", "intuitive", "duda", "blended"]
PARAM_POINTS = [("dissolution", (0.1, 0.25)), ("dissolution", (0.1, 3.0)),
                ("dissolution", (1.5, 1.8)), ("growth", (-0.1, 1.001)), ("growth", (-5.0, 40.0)),
                ("supercritical", (5.0, 1.3)), ("supercritical", (5.0, 10.0)),
                ("critical", (0.0,)), ("critical", (2.5,))]
SCENARIOS = [(1.0, 0.0, 1200.0, 1000.0, 1e-9, 2e-6), (2.0, 5.0, 2500.0, 1000.0, 3e-10, 1e-4),
             (1.0, 1.0, 1000.0, 1000.0, 1e-9, 1e-6), (900.0, 0.0, 1.0, 1000.0, 1e-12, 1e-3)]


def lib_digest() -> str:
    import numpy as np
    import spherediss as sd

    sha = hashlib.sha256()
    for eps in ODE_EPSILONS:
        run = sd.integrate_radius(eps, t_end=None if eps > 0 else GROWTH_END)
        curve = run.curve
        for chunk in (curve.times.tobytes(), curve.radii.tobytes(),
                      repr(sorted(curve.metadata.items())).encode(),
                      run.radius_at(np.linspace(0.0, run.t_end, 257)).tobytes()):
            sha.update(chunk)
    for eps in BLENDED_EPSILONS:
        if eps > 0:
            sha.update(repr(sd.blended_t0(eps)).encode())
        curve = sd.approx_curve(sd.MethodId.BLENDED, eps, t_max=None if eps > 0 else GROWTH_END)
        sha.update(curve.times.tobytes())
        sha.update(curve.radii.tobytes())
    closed_forms(sha)
    return sha.hexdigest()


def closed_forms(sha) -> None:
    """Hash the exact layer, the explicit formulas and the reduction to epsilon."""
    import numpy as np
    import spherediss as sd

    for eps in EXACT_EPSILONS:
        t0 = sd.time_to_dissolution(eps) if eps > 0 else GROWTH_END
        times = [fraction * t0 for fraction in FRACTIONS]
        sha.update(repr([t0] + [sd.radius_at(eps, t) for t in times]).encode())
        sha.update(sd.radius_at(eps, np.array(times)).tobytes())
    for eps in (0.1, -0.2):
        t_max = None if eps > 0 else GROWTH_END
        curves = [sd.exact_curve(eps, t_max=t_max)]
        curves += [sd.approx_curve(sd.MethodId.from_string(name), eps, t_max=t_max)
                   for name in EXPLICIT]
        for curve in curves:
            sha.update(curve.times.tobytes())
            sha.update(curve.radii.tobytes())
    for branch, args in PARAM_POINTS:
        sha.update(repr(getattr(sd, f"param_point_{branch}")(*args)).encode())
    for fields in SCENARIOS:
        sha.update(repr(sd.nondimensionalize(sd.PhysicalScenario(*fields))).encode())


def readme_commands(path: str) -> list[list[str]]:
    """The argv of each ``spherediss`` command in the README's shell blocks."""
    with open(path, encoding="utf-8") as handle:
        blocks = re.findall(r"^```\n(.*?)^```", handle.read(), flags=re.DOTALL | re.MULTILINE)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["spherediss"]:
                commands.append(words[1:])
    return commands


def cli_commands(tree: str, workloads) -> list[list[str]]:
    commands = []
    for path in sorted(glob.glob(os.path.join(tree, "tests", "data", "*.json"))):
        with open(path, encoding="utf-8") as handle:
            commands += [case["argv"] for case in json.load(handle)]
    commands += readme_commands(os.path.join(tree, "README.md"))
    for seed in SEEDS:
        work = workloads.Cli(seed, tempfile.gettempdir())
        work.prepare()
        commands += work.commands
    return commands


def run_in(directory: str, main, argv: list[str]) -> list:
    """Exit code, stdout and written files of one in-process run in ``directory``."""
    argv = [arg.replace("{tmp}", directory) for arg in argv]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            files[name] = handle.read()
    return [code, stdout.getvalue(), files]


def cli_digest(tree: str, workloads) -> tuple[str, int]:
    from spherediss.cli import main

    sha = hashlib.sha256()
    commands = cli_commands(tree, workloads)
    for argv in commands:
        with tempfile.TemporaryDirectory() as directory:
            record = run_in(directory, main, argv)
        # the temporary directory's name never reaches a hashed byte
        sha.update(json.dumps([argv, record], sort_keys=True).encode())
    return sha.hexdigest(), len(commands)


def main(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
    tree = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    if not os.path.isdir(os.path.join(tree, "src", "spherediss")):
        sys.exit(f"usage: python3 tools/same_bits.py [TREE]\nno src/spherediss in {tree}")
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import spherediss
    import workloads

    if not spherediss.__file__.startswith(os.path.join(tree, "src", "")):
        sys.exit(f"spherediss was imported from {spherediss.__file__}, not from {tree}")
    print(f"tree {tree}")
    print(f"pde  {pde_digest(workloads)}")
    digest, count = cli_digest(tree, workloads)
    print(f"cli  {digest}  ({count} commands)")
    print(f"lib  {lib_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Module layout: private names stay private and public names resolve.

Every module under ``src/heavyagg`` is parsed; importing an underscore-prefixed
name from a sibling (``from .x import _name``) or reading one through a
sibling module (``x._name``) fails the test.  Dunder names are public.  No
module reads the process environment, and only ``numerics`` calls scipy's
adaptive ``quad`` (inside ``checked_quad``, which keeps its error bound).
The package imports only ``special`` and ``integrate`` from scipy.
Only ``streams`` builds a random source, in the package and in these tests.
No module imports ``warnings`` or calls a ``.warn`` method.
No function gives a draw count (``size`` or ``n_rep``) a None default.
Every ``__all__`` entry must exist.  Every module but ``__init__`` declares
``__all__`` and lists each public top-level function and class in it, and
every listed name is read somewhere in the package or the benchmark, is
the target of a script that ``pyproject.toml`` declares, or sits on
``TEST_ONLY_NAMES`` with its reason.  The benchmark's span tracer must still
find every entry point it wraps and see every duration draw, every declared
script must resolve, and the benchmark's Telecom point count must match the
sampler.
"""

import ast
import copy
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from heavyagg import limit_fields, shot_noise, streams
from heavyagg.heavy_tail import DegenerateDist, RegVaryingDist
from heavyagg.pulses import RectIndep

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heavyagg"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "heavyagg"


def private_uses(path: Path) -> list[str]:
    """Lines of ``path`` that import or read a sibling module's private name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling_module(node):
            package_level = node.module in (None, "heavyagg")
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif package_level:
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("heavyagg.") and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_a_sibling_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [use for path in modules for use in private_uses(path)]
    assert not found, found


def test_checker_sees_both_forms(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .shot_noise import _helper\nfrom . import pulses as pl\npl._kernel(1)\npl.__name__\n"
    )
    assert private_uses(src) == ["mod.py:1 imports _helper", "mod.py:3 reads pl._kernel"]


ENVIRONMENT_READS = ("environ", "environb", "getenv", "getenvb")


def environment_reads(path: Path) -> list[str]:
    """Lines of ``path`` that read the process environment through ``os``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno} imports os.{a.name}" for a in node.names
                      if a.name in ENVIRONMENT_READS]
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
            found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    return found


def test_no_module_reads_the_environment(tmp_path):
    # block sizes and budgets are module constants: a knob read from the
    # environment would make a run's draws and memory depend on the shell
    probe = tmp_path / "mod.py"
    probe.write_text("import os\nfrom os import getenv\nos.environ.get('X')\n")
    assert environment_reads(probe) == ["mod.py:2 imports os.getenv", "mod.py:3 reads .environ"]
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in environment_reads(path)]
    assert not found, found


def quad_calls(path: Path) -> list[str]:
    """Lines of ``path`` that import or read ``quad`` from ``scipy.integrate``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.integrate":
            found += [f"{path.name}:{node.lineno} imports quad" for a in node.names if a.name == "quad"]
        elif (isinstance(node, ast.Attribute) and node.attr == "quad"
              and "integrate" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))):
            found.append(f"{path.name}:{node.lineno} reads integrate.quad")
    return found


def test_only_numerics_calls_quad(tmp_path):
    # numerics.checked_quad raises above its error bound; a bare quad call
    # would drop that bound without a trace
    probe = tmp_path / "mod.py"
    probe.write_text("from scipy.integrate import quad\nimport scipy.integrate\n"
                     "integrate.quad(f, 0, 1)\nscipy.integrate.quad(f, 0, 1)\n")
    assert quad_calls(probe) == ["mod.py:1 imports quad", "mod.py:3 reads integrate.quad",
                                 "mod.py:4 reads integrate.quad"]
    numerics = PACKAGE / "numerics.py"
    checked = next(node for node in ast.parse(numerics.read_text()).body
                   if isinstance(node, ast.FunctionDef) and node.name == "checked_quad")
    lines = [int(use.split(":")[1].split()[0]) for use in quad_calls(numerics)]
    assert len(lines) == 1 and checked.lineno <= lines[0] <= checked.end_lineno
    found = [use for path in sorted(PACKAGE.glob("*.py")) if path.stem != "numerics" for use in quad_calls(path)]
    assert not found, found


SCIPY_ALLOWED = ("special", "integrate")


def scipy_imports(path: Path) -> list[str]:
    """Lines of ``path`` that import a scipy subpackage other than ``SCIPY_ALLOWED``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "scipy":
            subs = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("scipy."):
            subs = [node.module.split(".")[1]]
        elif isinstance(node, ast.Import):
            subs = [a.name.partition(".")[2].split(".")[0] for a in node.names if a.name.split(".")[0] == "scipy"]
        else:
            continue
        found += [f"{path.name}:{node.lineno} imports scipy.{sub}" for sub in subs if sub not in SCIPY_ALLOWED]
    return found


def test_package_imports_only_special_and_integrate_from_scipy(tmp_path):
    # every other scipy subpackage adds import time and memory to each run
    probe = tmp_path / "mod.py"
    probe.write_text("from scipy import signal\nimport scipy.optimize\nfrom scipy.signal import fftconvolve\n"
                     "from scipy import integrate, special\nimport scipy.special\n")
    assert scipy_imports(probe) == ["mod.py:1 imports scipy.signal", "mod.py:2 imports scipy.optimize",
                                    "mod.py:3 imports scipy.signal"]
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in scipy_imports(path)]
    assert not found, found


RANDOM_SOURCES = ("default_rng", "SeedSequence", "RandomState", "BitGenerator",
                  "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64")
NUMPY_NAMES = ("np", "numpy")


def random_sources(path: Path) -> list[str]:
    """Lines of ``path`` that build a random source other than through ``streams``.

    Seen: any name in ``RANDOM_SOURCES`` (read, called or imported), any
    ``np.random.<name>`` or ``from numpy.random import <name>`` other than the
    ``Generator`` type, and ``import numpy.random``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in sorted(ast.walk(tree), key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0))):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            found += [f"{path.name}:{node.lineno} imports numpy.random.{a.name}" for a in node.names
                      if a.name != "Generator"]
        elif isinstance(node, ast.ImportFrom):
            found += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names
                      if a.name in RANDOM_SOURCES]
        elif isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno} imports numpy.random" for a in node.names
                      if a.name == "numpy.random"]
        elif isinstance(node, ast.Attribute) and node.attr in RANDOM_SOURCES:
            found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
        elif (isinstance(node, ast.Attribute) and node.attr != "Generator"
              and isinstance(node.value, ast.Attribute) and node.value.attr == "random"
              and getattr(node.value.value, "id", None) in NUMPY_NAMES):
            found.append(f"{path.name}:{node.lineno} reads np.random.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in RANDOM_SOURCES:
            found.append(f"{path.name}:{node.lineno} names {node.id}")
    return found


def test_only_streams_builds_a_random_source(tmp_path):
    # every draw comes from a stream keyed by (seed, tag, index); a generator
    # built anywhere else would tie results to its own seed and bit generator
    probe = tmp_path / "mod.py"
    probe.write_text("import numpy as np\nimport numpy.random\nfrom numpy.random import default_rng\n"
                     "from numpy.random import Generator\nnp.random.default_rng(1)\n"
                     "np.random.Generator(np.random.Philox(1))\nnp.random.normal(size=3)\n"
                     "numpy.random.seed(0)\nrng = np.random.RandomState(0)\n"
                     "SeedSequence(5)\nrng: np.random.Generator\n")
    assert random_sources(probe) == [
        "mod.py:2 imports numpy.random", "mod.py:3 imports numpy.random.default_rng",
        "mod.py:5 reads .default_rng", "mod.py:6 reads .Philox", "mod.py:7 reads np.random.normal",
        "mod.py:8 reads np.random.seed", "mod.py:9 reads .RandomState", "mod.py:10 names SeedSequence",
    ]
    tests = Path(__file__).resolve().parent
    scanned = sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py"))
    assert PACKAGE / "streams.py" in scanned and Path(__file__).resolve() in scanned
    found = [use for path in scanned if path != PACKAGE / "streams.py" for use in random_sources(path)]
    assert not found, found
    assert "Philox" not in "".join(path.read_text() for path in PACKAGE.glob("*.py"))


def warning_uses(path: Path) -> list[str]:
    """Lines of ``path`` that import ``warnings`` or call a ``.warn`` method."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno} imports warnings" for a in node.names
                      if a.name.split(".")[0] == "warnings"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "warnings":
            found.append(f"{path.name}:{node.lineno} imports warnings")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "warn":
            found.append(f"{path.name}:{node.lineno} calls .warn")
    return found


def test_package_never_warns(tmp_path):
    # what a sampler or oracle did goes back to its caller as data: a warning
    # is text on stderr that a caller can neither read nor test
    probe = tmp_path / "mod.py"
    probe.write_text("import warnings\nfrom warnings import warn\nimport os\n"
                     "warnings.warn('x')\nlog.warn('y')\nlog.warning('z')\n")
    assert warning_uses(probe) == ["mod.py:1 imports warnings", "mod.py:2 imports warnings",
                                   "mod.py:4 calls .warn", "mod.py:5 calls .warn"]
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in warning_uses(path)]
    assert not found, found


COUNT_PARAMETERS = ("size", "n_rep")


def optional_counts(path: Path) -> list[str]:
    """Lines of ``path`` where a function gives a draw-count parameter a None default.

    Seen: positional parameters (defaults align with the last of them) and
    keyword-only ones, in functions, methods and lambdas.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found += [f"{path.name}:{a.lineno} {a.arg}=None" for a, d in pairs
                  if a.arg in COUNT_PARAMETERS and isinstance(d, ast.Constant) and d.value is None]
    return found


def test_no_sampler_takes_an_optional_count(tmp_path):
    # every sampler takes its draw count and returns arrays: a None default
    # would bring back a scalar mode that drops the draw or replicate axis
    probe = tmp_path / "mod.py"
    probe.write_text("def f(rng, size=None):\n    pass\n"
                     "def g(rng, *, n_rep=None, cap=None):\n    pass\n"
                     "def h(rng, size, n_rep=1, *, other=None):\n    pass\n")
    assert optional_counts(probe) == ["mod.py:1 size=None", "mod.py:3 n_rep=None"]
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in optional_counts(path)]
    assert not found, found


def test_every_public_name_exists():
    modules = [p.stem for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    missing = []
    for name in modules:
        module = importlib.import_module(f"heavyagg.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing


# public names that no package or benchmark code reads, each kept on purpose
TEST_ONLY_NAMES = {
    "aggregation.rect_increment": "rectangle increments of a field sample, which tests of V's increments read",
    "limit_fields.fbs_covariance": "covariance of the FBS limit, the oracle for Cov V in the Gaussian regime",
    "limit_fields.telecom_variance": "closed-form variance of the Telecom limit, the oracle of its sampler",
    "regenerative.cycle_sample": "fresh cycle lengths and masses, the reference of the cycle-tail tests",
    "regenerative.cov_decomposition": "Cov = R + h on a grid, the covariance oracle of regenerative sources",
    "pulses.vanishing_reward": "the model's bounded coupled reward with limit 0, a renewal-reward input",
    "pulses.RectCoupled": "pulse family: model vocabulary that sources are built from",
    "pulses.ExpDamped": "pulse family: model vocabulary that sources are built from",
    "pulses.BrownianPulse": "pulse family: model vocabulary that sources are built from",
    "pulses.Workload": "pulse family: model vocabulary that sources are built from",
    "pulses.RenewalReward": "pulse family: model vocabulary that sources are built from",
    "pulses.MixturePulse": "pulse family: model vocabulary that sources are built from",
}


def exports(path: Path) -> tuple[list[str] | None, list[str]]:
    """(``__all__`` of ``path``, or None without one; its public top-level defs and classes not listed)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    listed = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            listed = list(ast.literal_eval(node.value))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not _private(node.name)]
    return listed, [name for name in defined if name not in (listed or ())]


def referenced(paths) -> set[str]:
    """Every name that ``paths`` read: ``Name`` ids, ``Attribute`` attrs and imported names."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def unreferenced_exports(modules, scanned) -> list[str]:
    """``module.name`` for each ``__all__`` entry of ``modules`` that no file in ``scanned`` reads."""
    names = referenced(scanned)
    return [f"{path.stem}.{name}" for path in modules for name in exports(path)[0] or () if name not in names]


def test_every_public_name_has_a_package_caller(tmp_path):
    # a name only tests call is a decision to keep code the program never
    # runs: it either gets a caller or goes on TEST_ONLY_NAMES with a reason
    probe = tmp_path / "mod.py"
    probe.write_text('__all__ = ["used", "unused"]\n\n\ndef used():\n    pass\n\n\n'
                     'def unused():\n    return used()\n\n\ndef unlisted():\n    pass\n')
    assert exports(probe) == (["used", "unused"], ["unlisted"])
    assert unreferenced_exports([probe], [probe]) == ["mod.unused"]
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    gaps = []
    for path in modules:
        listed, unlisted = exports(path)
        if listed is None:
            gaps.append(f"{path.stem} has no __all__")
        gaps += [f"{path.stem}.{name} not in __all__" for name in unlisted]
    assert not gaps, gaps
    scanned = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "bench").glob("*.py"))
    # a declared console script is the caller of its target
    scripts = {f"{module.rpartition('.')[2]}.{attr}"
               for module, _, attr in (target.partition(":") for target in declared_scripts().values())}
    found = [name for name in unreferenced_exports(modules, scanned) if name not in scripts]
    assert sorted(found) == sorted(TEST_ONLY_NAMES), sorted(set(found) ^ set(TEST_ONLY_NAMES))


def declared_scripts() -> dict:
    """``[project.scripts]`` of pyproject.toml: script name -> "module:function"."""
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"].get("scripts", {})


def test_every_declared_script_resolves():
    # an installed console script imports its module and looks up its
    # function, so a dangling [project.scripts] target fails at every start
    scripts = declared_scripts()
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _bench_module(name: str):
    path = PACKAGE.parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_resolves_every_target():
    # importing bench/layers.py looks up every (owner, attribute) it patches,
    # so a renamed or deleted entry point fails here rather than in a traced run
    layers = _bench_module("layers")
    assert len(layers.ORIGINALS) == len(layers.TARGETS) > 0
    assert layers.patched_targets() == []


def test_benchmark_tracer_sees_every_duration_draw():
    # heavy_tail.draws counts the n of RegVaryingDist.sample calls, so it is a
    # pulse count only while every fresh and aged duration is drawn there:
    # the pulses a call walks are its first two draws (the Poisson counts),
    # replayed on a copy of its generator
    layers = _bench_module("layers")
    spec = limit_fields.TelecomSpec(1.5, eps=0.05)
    tele = shot_noise.ShotNoiseSource(RectIndep(DegenerateDist(1.0), RegVaryingDist(spec.alpha, spec.eps)),
                                      rate=spec.c * spec.eps**-spec.alpha)
    rect = shot_noise.ShotNoiseSource(RectIndep(DegenerateDist(1.0), RegVaryingDist(1.5, 1.0)), rate=3.0)
    cuts = np.array([0.5, 1.0, 2.5, 4.0])
    calls = [
        (tele, np.array([1.0]), 40, lambda rng: limit_fields.sample_telecom(spec, [1.0], 1.0, rng, 40)),
        (rect, cuts, 30, lambda rng: shot_noise.integrated_path_batch(rect, cuts, rng, 30)),
    ]
    for i, (src, grid, n_rep, call) in enumerate(calls):
        rng = streams.stream(24, "layout/tracer-draws", i)
        replay = copy.deepcopy(rng)
        fresh = replay.poisson(src.rate * np.diff(grid, prepend=0.0), (n_rep, grid.size)).sum()
        aged = replay.poisson(src.rate * src.mean_duration, n_rep).sum()
        with layers.Tracer() as tracer:
            call(rng)
        sizes = [span[4][1] for span in tracer.spans if span[0] == "heavy_tail.sample"]
        assert sum(sizes) == fresh + aged and aged > 0, (i, sizes, fresh, aged)


def test_benchmark_telecom_contract():
    # bench/workloads.py reads TelecomSpec.u_pad and left_pad_variance; its
    # point count must stay the expected pulses of the eps-cut shot-noise
    # source that sample_telecom runs on one unit window
    check = _bench_module("workloads").TelecomCheck()
    check.setup()
    a, c, eps = check.spec.alpha, check.spec.c, check.spec.eps
    src = shot_noise.ShotNoiseSource(RectIndep(DegenerateDist(1.0), RegVaryingDist(a, eps)), rate=c * eps**-a)
    want = check.telecom_reps * src.rate * (1.0 + src.mean_duration)
    assert abs(check.telecom_points_per_job() - want) <= 1e-12 * want
    assert limit_fields.left_pad_variance(check.spec, 1.0) == 0.0

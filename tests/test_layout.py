"""Module layout: private names stay private and public names resolve.

Every module under ``src/heavyagg`` is parsed; importing an underscore-prefixed
name from a sibling (``from .x import _name``) or reading one through a
sibling module (``x._name``) fails the test.  Dunder names are public.  Every
``__all__`` entry must exist, the benchmark's span tracer must still find
every entry point it wraps, and the benchmark's Telecom point count must match
the sampler.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from heavyagg import limit_fields, shot_noise
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


def test_every_public_name_exists():
    modules = [p.stem for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    missing = []
    for name in modules:
        module = importlib.import_module(f"heavyagg.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing


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

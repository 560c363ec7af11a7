"""Import footprint: the package loads only the libraries it runs.

Every replica and trainer process pays for whatever ``import repro``
drags in.  The package runs on numpy alone: GELU's ``Tensor.erf`` is a
numpy port of SciPy's, so a trainer never loads SciPy, and the one heavy
optional import, ``http.server``, loads with the first
:class:`~repro.obs.live.MetricsExposition`.  The dependency guard keeps
every third-party import in ``src/repro`` declared in ``pyproject.toml``
and pins numpy as the only one, so a clean install of the declared
dependencies can import the package.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_DIR = Path(repro.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: Runs in a fresh interpreter: import every module under ``repro``, then
#: run a GELU and open the exposition one at a time, reporting which of
#: the heavy modules are loaded after each stage.
FOOTPRINT_SCRIPT = """
import importlib, json, pkgutil, sys

import numpy as np

import repro

HEAVY = ("networkx", "scipy", "scipy.special", "http.server")
stages = {}
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
stages["import"] = [name for name in HEAVY if name in sys.modules]

from repro.neural import TinyViT, no_grad

model = TinyViT(
    image_size=16, patch_size=4, dim=16, depth=1, heads=2, mlp_ratio=2.0
)
with no_grad():
    model(np.zeros((16, 16)))
stages["gelu"] = [name for name in HEAVY if name in sys.modules]

from repro.obs import MetricsExposition

MetricsExposition(lambda: "").close()
stages["exposition"] = [name for name in HEAVY if name in sys.modules]
print(json.dumps(stages))
"""


def run_footprint_script() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_heavy_modules_load_only_on_first_use(self):
        stages = run_footprint_script()
        assert stages["import"] == []
        assert stages["gelu"] == []
        assert stages["exposition"] == ["http.server"]


def declared_dependencies(text: str) -> set[str]:
    """Import names of ``[project].dependencies`` (Python 3.10 has no
    ``tomllib``, so the one array is read with a regex)."""
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    array = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S)
    requirements = re.findall(r"[\"']([^\"']+)[\"']", array.group(1))
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in requirements
    }


def imported_top_levels(root: Path) -> dict[str, set[str]]:
    """Top-level module -> files importing it, over every ``import`` and
    absolute ``from`` statement (module level and inside functions)."""
    found: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                found.setdefault(top, set()).add(path.relative_to(root).as_posix())
    return found


class TestDeclaredDependencies:
    def test_parser_reads_the_project_array(self):
        text = (
            '[project]\nname = "x"\ndependencies = [\n    "NumPy>=1.24",\n'
            "    'scikit-learn ; python_version>\"3.9\"',\n]\n\n"
            '[project.optional-dependencies]\ntest = ["pytest"]\n'
        )
        assert declared_dependencies(text) == {"numpy", "scikit_learn"}

    def test_third_party_imports_are_declared(self):
        declared = declared_dependencies(PYPROJECT.read_text())
        imported = imported_top_levels(PACKAGE_DIR)
        third_party = {
            name: sorted(files)
            for name, files in imported.items()
            if name not in sys.stdlib_module_names and name != "repro"
        }
        undeclared = {name: files for name, files in third_party.items() if name not in declared}
        assert undeclared == {}
        assert third_party.keys() == {"numpy"}

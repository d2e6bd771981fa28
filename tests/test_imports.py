"""Import hygiene: the package runs on the standard library, and each entry
point loads only the code it runs.

Both checks run in a fresh interpreter, because the test process itself has
long since imported most of the package.  Modules are pinned by name, not
by import time: a stray import is a fact, a stopwatch is noise.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Makes ``import numpy`` fail as on an interpreter without it.  A meta-path
#: finder, not ``sys.modules["numpy"] = None``: hypothesis reads
#: ``sys.modules["numpy"].ndarray`` and would crash on a None entry.
BLOCK_NUMPY = textwrap.dedent("""
    import sys

    class _NoNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ModuleNotFoundError(f"No module named {name!r}",
                                          name=name)
            return None

    sys.meta_path.insert(0, _NoNumpy())
""")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_module_imports_without_numpy():
    result = run_python(BLOCK_NUMPY + textwrap.dedent("""
        import importlib
        import pkgutil

        import repro

        failed = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            try:
                importlib.import_module(info.name)
            except ImportError as exc:
                failed.append(f"{info.name}: {exc}")
        print("\\n".join(failed))
    """))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", result.stdout


#: (entry statement, modules it must not load).  A name matches itself and
#: its submodules.
ENTRY_POINTS = [
    ("from repro.cassandra import Cluster",
     ("numpy", "repro.core", "repro.sweep", "repro.study", "repro.bench",
      "repro.faults", "multiprocessing")),
    ("import repro.core.scalecheck",
     ("numpy", "repro.analysis", "repro.sweep", "repro.study", "repro.bench",
      "multiprocessing")),
    ("import repro.cassandra.partition",
     ("numpy", "repro.core", "repro.sweep", "repro.study", "repro.bench")),
    ("import repro.workload",
     ("numpy", "repro.core", "repro.sweep", "repro.study", "repro.bench",
      "multiprocessing")),
    ("import repro.ci", ("numpy",)),
]


@pytest.mark.parametrize("entry, forbidden", ENTRY_POINTS,
                         ids=[entry for entry, _ in ENTRY_POINTS])
def test_entry_points_import_only_what_they_run(entry, forbidden):
    result = run_python(textwrap.dedent(f"""
        import sys
        {entry}
        forbidden = {forbidden!r}
        print("\\n".join(sorted(
            name for name in sys.modules
            if any(name == f or name.startswith(f + ".") for f in forbidden))))
    """))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", (
        f"{entry!r} loaded: {result.stdout.split()}")


def test_top_level_names_resolve_on_first_access():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018

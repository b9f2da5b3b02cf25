import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

from isotopelab import Field

ROOT = pathlib.Path(__file__).resolve().parent.parent

settings.register_profile(
    "exact",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def rationals():
    return Field.rationals()


@pytest.fixture(scope="session")
def f3():
    return Field.gf(3)


@pytest.fixture(scope="session")
def f5():
    return Field.gf(5)


@pytest.fixture(scope="session")
def f7():
    return Field.gf(7)


@pytest.fixture(scope="session")
def run_script():
    """Runs ``scripts/<name>`` from the repository root with this checkout's
    ``src`` first on the path, and returns the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def run(name, *args):
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, timeout=300,
        )

    return run

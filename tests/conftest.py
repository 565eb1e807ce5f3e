import os
import subprocess
import sys

import numpy as np
import pytest

import permlim
from permlim import (bridge_source, constant_source, cosine_source,
                     quadratic_cost, solve_potential)


@pytest.fixture(scope="session", autouse=True)
def _private_kernel_cache(tmp_path_factory):
    """Build the compiled Glynn kernel into a session directory, so the
    suite, and the CLI processes it starts, leave the user's cache alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        yield


@pytest.fixture
def source_env():
    """The environment of a subprocess that imports permlim from the
    sources under test."""
    src = os.path.dirname(os.path.dirname(permlim.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def peak_rss_growth(source_env):
    """growth(setup, snippet): how many bytes running ``snippet`` raises
    the peak resident size of a fresh interpreter that has run ``setup``.

    The peak is VmHWM in /proc/self/status, the high-water mark of the
    interpreter's own address space. Its ru_maxrss would not do: Linux
    starts an exec'd child's ru_maxrss at its parent's high-water mark, so
    once this pytest process has grown past the child, it reads 0 growth.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")

    def growth(setup, snippet):
        script = (
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh\n"
            "                    if line.startswith('VmHWM:'))\n"
            + setup + "before = peak()\n" + snippet
            + "print(1024 * (peak() - before))\n")
        return int(subprocess.run(
            [sys.executable, "-c", script], env=source_env,
            capture_output=True, text=True, check=True).stdout)
    return growth


@pytest.fixture(scope="session")
def quad_cost():
    return quadratic_cost(1.0)


@pytest.fixture(scope="session")
def quad_solution(quad_cost):
    """Converged potential for the quadratic cost at the default resolution."""
    return solve_potential(quad_cost, m=400, tol=1e-12)


@pytest.fixture(scope="session")
def quad_solution_fine(quad_cost):
    """The potential at m = 256, below the default of 400: on this analytic
    cost it is within 1.4e-15 of the m = 3200 potential over 101 points in
    [0, 1], so quadrature error stays out of rate studies."""
    return solve_potential(quad_cost, m=256, tol=1e-12)


@pytest.fixture(scope="session")
def quad_source(quad_solution_fine):
    return bridge_source(quad_solution_fine)


@pytest.fixture(scope="session")
def cosine_half():
    return cosine_source(0.5)


@pytest.fixture(scope="session")
def const_source():
    return constant_source()


@pytest.fixture(scope="session")
def write_matrix():
    """Writer of the matrix file format that ``load_matrix`` reads: first
    line n, then n whitespace-separated rows, each value written with repr
    so a load round-trip is bit exact."""
    def write(path, K):
        entries = np.asarray(K, dtype=float)
        with open(path, "w") as fh:
            fh.write(f"{entries.shape[0]}\n")
            for row in entries:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    return write

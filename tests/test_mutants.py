"""The committed mutant suite: each mutant of `mutants.py` is killed by its tests.

Each mutant is applied to a fresh copy of `src/`, and its tests, or its
`sgp-lab` command line, run in a subprocess with that copy first on
PYTHONPATH, under a timeout.  Every named test must fail (a timeout counts
as a kill); the no-op mutant's tests must pass.  A command line runs as
`python -m sgplab.cli`, the console script's entry point, with
PYTHONOPTIMIZE=1, and must exit with the mutant's `exit_code`.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


def _apply(mutant, tmp_path) -> dict:
    """A copy of src/ with the mutant applied, and the environment that
    imports it."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "sgplab" / mutant.file
    text = path.read_text()
    assert text.count(mutant.fragment) == 1, (
        f"{mutant.name}: the fragment occurs {text.count(mutant.fragment)} times "
        f"in {mutant.file}, not once")
    path.write_text(text.replace(mutant.fragment, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(src))
    imported = subprocess.run([sys.executable, "-c", "import sgplab; print(sgplab.__file__)"],
                              env=env, capture_output=True, text=True, check=True)
    assert Path(imported.stdout.strip()).is_relative_to(src)
    return env


def _failed(mutant, env) -> set:
    """The named tests that fail against the mutant (all of them on a
    timeout), checking that each of them ran."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return set(mutant.tests)
    assert run.returncode in (0, 1), f"{mutant.name}: pytest exit {run.returncode}\n{run.stdout}"
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed)", run.stdout)}
    assert sum(counts.values()) == len(mutant.tests), run.stdout
    return set(re.findall(r"^FAILED (\S+)", run.stdout, re.MULTILINE))


def _cli_status(mutant, env):
    """The exit status of the mutant's command line under -O, None on a
    timeout, and its stderr."""
    try:
        run = subprocess.run([sys.executable, "-m", "sgplab.cli", *mutant.argv],
                             cwd=ROOT, env=dict(env, PYTHONOPTIMIZE="1"),
                             capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return run.returncode, run.stderr


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(mutant, tmp_path):
    env = _apply(mutant, tmp_path)
    if mutant.argv:
        status, err = _cli_status(mutant, env)
        assert status == mutant.exit_code, (
            f"{mutant.name}: sgp-lab {' '.join(mutant.argv)} exits {status}, "
            f"not {mutant.exit_code}\n{err}")
        return
    failed = _failed(mutant, env)
    if mutant.survives:
        assert not failed, f"{mutant.name} changes nothing, yet {sorted(failed)} fail"
    else:
        assert failed == set(mutant.tests), (
            f"{mutant.name} survives {sorted(set(mutant.tests) - failed)}")


def test_a_fragment_must_match_once(tmp_path):
    """A fragment that is not in the file, or is there twice, fails the
    harness instead of skipping the mutant."""
    for fragment in ("no such fragment", "import"):
        with pytest.raises(AssertionError, match="not once"):
            _apply(MUTANTS[0]._replace(fragment=fragment), tmp_path / fragment)

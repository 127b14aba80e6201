"""The committed mutant suite: each mutant of `mutants.py` is killed.

Each mutant is applied to a fresh copy of `src/`, and its tests, or its
pin, run in a subprocess with that copy first on PYTHONPATH, under a
timeout.  Every named test must fail (a timeout counts as a kill); the
no-op mutant's tests must pass.  A pin runs through the manifest's own
comparison, `pinned.main` given that one entry, with `python -m
sgplab.cli`, the console script's entry point, under PYTHONOPTIMIZE=1: it
must report a MISMATCH, and the command must exit with the mutant's
`exit_code` (a timeout is exit None, which no pin holds), so a mutant that
states 0 is killed by its stdout alone; the no-op CLI mutant's pin must be
reproduced.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pinned
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


def _pin_status(mutant, env) -> tuple:
    """(mismatch, exit status) of the mutant's pin: `pinned.main` runs that
    one entry under -O against the copy.  Its report and the command's
    stderr pass through to the test's captured output."""
    assert mutant.pin in {p.name for p in pinned.PINNED}, (
        f"{mutant.name}: no entry of tests/pinned.py is named {mutant.pin!r}")
    statuses = []

    def run(argv):
        try:
            done = subprocess.run([sys.executable, "-m", "sgplab.cli", *argv],
                                  cwd=ROOT, env=dict(env, PYTHONOPTIMIZE="1"),
                                  stdout=subprocess.PIPE, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            done = subprocess.CompletedProcess(argv, None, b"")
        statuses.append(done.returncode)
        return done.returncode, done.stdout

    return pinned.main(run, names=(mutant.pin,)) == 1, statuses[0]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(mutant, tmp_path):
    env = _apply(mutant, tmp_path)
    if mutant.pin:
        mismatch, status = _pin_status(mutant, env)
        if mutant.survives:
            assert not mismatch, f"{mutant.name} changes nothing, yet {mutant.pin} differs"
        else:
            assert mismatch and status == mutant.exit_code, (
                f"{mutant.name} survives {mutant.pin}: exit {status}, "
                f"killed by {mutant.exit_code} alone")
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


def test_a_pin_must_name_an_entry():
    """A CLI mutant whose pin is no entry of tests/pinned.py fails the
    harness before any command runs, instead of running nothing."""
    cli = next(m for m in MUTANTS if m.pin)
    with pytest.raises(AssertionError, match="no entry of tests/pinned.py"):
        _pin_status(cli._replace(pin="no_such_pin.json"), dict(os.environ))

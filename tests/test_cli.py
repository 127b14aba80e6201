"""The command-line front end: parsing, verbs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sgplab
from pinned import DIGESTS, GOLDEN, PINNED, main as run_pinned
from sgplab import gfield, groups
from sgplab.cli import (EXIT_FAIL, EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE,
                        _parse_group_specs, _parser, main, run)
from sgplab.errors import GroupSpecError
from sgplab.groups import build_group, conjugacy_classes


def _parse(text):
    """A command string as `main` parses its argv."""
    return _parse_group_specs(_parser().parse_args(text.split()))


def _run(text):
    lines = []
    code = run(_parse(text), out=lines.append)
    return code, "\n".join(lines)


def test_parse_spec_examples():
    ns = _parse("sgp sp4:4 wreath-sp2:4")
    assert ns.verb == "sgp" and ns.group == "sp4:4" and ns.subgroup == "wreath-sp2:4"
    assert ns.specs == {"group": ("sp4", (4,)), "subgroup": ("wreath-sp2", (4,))}
    ns = _parse("alpha-sum 8 4 1 2")
    assert (ns.q, ns.k, ns.m, ns.n) == (8, 4, 1, 2)


def test_parse_spec_rejects_sz4():
    with pytest.raises(GroupSpecError):
        _parse("chartab sz:4")


def test_parse_spec_rejects_unknown_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        _parse("frobnicate sl2:4")
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_alpha_sum_verb():
    code, out = _run("alpha-sum 8 4 1 2")
    assert code == EXIT_OK
    assert "3 (= q-5); inner product = 2" in out


def test_chartab_pretty_and_json():
    """The JSON form is pinned by its golden (tests/pinned.py)."""
    code, out = _run("chartab sl2:4")
    assert code == EXIT_OK and "order 60, 5 classes" in out


def test_chartab_csv():
    code, out = _run("--format csv chartab sl2:2")
    assert code == EXIT_OK and out.startswith("#") and "lossy" in out


def test_sgp_verb():
    code, out = _run("sgp s6 so4-:2")
    assert code == EXIT_OK and "sgp" in out
    code, out = _run("--format json sgp s6 ext-sp2q2-embedded:2")
    assert code == EXIT_OK and json.loads(out)["verdict"] == "sgp"


def test_sgp_of_sl2_2_over_the_trivial_group(capsys):
    """The trivial group is built on the GF(2) 2x2 ops of sl2:2, so it is a
    subgroup there; 1^G is the regular character of S3, in which the
    degree-2 irreducible has multiplicity 2."""
    assert main(["sgp", "sl2:2", "trivial"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ("(sl2:2, trivial): not_sgp via full_check  "
                            "[deg 2 restricts to deg 1 with multiplicity 2]\n")
    assert captured.err == ""


def test_sgp_non_subgroup_is_usage_error(capsys):
    """Exit 2 with the message on stderr, so stdout stays empty for JSON
    readers; the embedded form is named only for ext-sp2q2."""
    for argv, hint in [("sgp sl2:4 sl2:8", None),
                       ("--format json sgp sp4:4 sz:8", None),
                       ("--format json sgp sp4:2 ext-sp2q2:2",
                        "try ext-sp2q2-embedded:2")]:
        assert main(argv.split()) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not (set-wise) a subgroup of" in captured.err
        if hint:
            assert hint in captured.err
        else:
            assert "try" not in captured.err


def test_scan_maximal_q2():
    code, out = _run("scan-maximal 2")
    assert code == EXIT_OK
    assert out.count("sgp") == 7 and "not_sgp" not in out


def test_scan_maximal_q8_resource():
    assert main(["scan-maximal", "8"]) == EXIT_RESOURCE


@pytest.mark.parametrize("argv", ["families wreath 3", "families sp4 3",
                                  "families sp4 0", "families ext 6",
                                  "scan-maximal 3"])
def test_q_that_is_not_a_power_of_2_is_a_usage_error(argv, monkeypatch, capsys):
    """Refused with exit 2 before any work: no family is evaluated and no
    group is built."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("wreath_degree_spec", "ext_degree_spec", "sp4_degree_facts"):
        monkeypatch.setattr(sgplab.families, name, no_work)
    monkeypatch.setattr(sgplab.gelfand, "scan_maximal_sp4", no_work)
    assert main(argv.split()) == EXIT_USAGE
    assert "is not a power of 2" in capsys.readouterr().err


def test_max_order_refusal(capsys):
    """The first group above `--max-order` is refused (exit 3), not built,
    by every verb; `verify-paper` bounds every group its checks build."""
    for bound, argv, refused in ((100, "chartab sl2:16", "sl2:16: order 4080"),
                                 (100, "verify-paper", "sl2:8: order 504"),
                                 (10**5, "verify-paper --full", "sp4:4: order 979200")):
        assert main(["--max-order", str(bound), *argv.split()]) == EXIT_RESOURCE
        assert f"{refused} exceeds the enumeration bound {bound}\n" in capsys.readouterr().err


def test_a_refusal_inside_verify_paper_names_its_check_on_stdout(capsys):
    """The refused check's REFUSED line ends stdout, and the exit stays 3:
    the first check builds sl2:4 (60 elements)."""
    assert main(["--max-order", "10", "verify-paper"]) == EXIT_RESOURCE
    assert capsys.readouterr().out == ("REFUSED sl2-closed-form-small: sl2:4: order 60 "
                                       "exceeds the enumeration bound 10\n")


@pytest.mark.parametrize("argv", ["--max-order 0 scan-maximal 2",
                                  "--max-order -5 chartab trivial"])
def test_max_order_below_one_is_refused_when_parsed(argv, monkeypatch, capsys):
    """An enumeration bound below 1 is a usage error (exit 2) before any
    command runs, not a resource refusal (exit 3) or a bound nothing reads."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(sgplab.cli, "run", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == EXIT_USAGE
    assert "--max-order: must be at least 1" in capsys.readouterr().err


def test_families_verb():
    code, out = _run("families suzuki 8")
    assert code == EXIT_OK and "484" in out
    code, out = _run("families sp4 4")
    assert "4336" in out and "425" in out


def test_show_field():
    code, out = _run("show-field")
    assert code == EXIT_OK
    assert "x^4 + x + 1" in out


@pytest.mark.parametrize("argv", [["--show-field"], ["--seed", "1", "show-field"]])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


def test_usage_errors_from_main():
    assert main(["chartab", "sz:4"]) == EXIT_USAGE
    assert main(["alpha-sum", "8", "1", "2", "2"]) == EXIT_USAGE  # m = n


def test_verify_paper_times_checks_on_stderr_only(capsys):
    """stderr gets one timing line per check that runs, in check order;
    stdout, the pass/fail/skip lines, is pinned by its golden."""
    from sgplab.verify import CHECKS
    assert main(["verify-paper"]) == EXIT_OK
    cap = capsys.readouterr()
    ran = [c.name for c in CHECKS if c.tier <= 1]
    err = cap.err.splitlines()
    assert len(err) == len(ran)
    for name, line in zip(ran, err):
        assert re.fullmatch(rf"time {re.escape(name)}: \d+\.\d\d s", line), line


def test_inconsistent_closure_is_internal_error(monkeypatch, capsys, fresh_builds):
    """A closure that picks up an element without its inverse is a kernel
    bug: exit 4, naming the group, not an uncaught KeyError."""
    ctx = gfield.field_ctx(2)
    ops = groups.mat_ops(ctx, 2, "symplectic")
    outsider = ops.pack_one([[ctx.gamma, 0], [0, ctx.one]])   # order 3, not in sl2:4
    real = groups.mulclose

    def leaky(ops_, gens, max_order):
        return np.union1d(real(ops_, gens, max_order), [outsider])

    monkeypatch.setattr(groups, "mulclose", leaky)
    assert main(["chartab", "sl2:4"]) == EXIT_INTERNAL
    assert "sl2:4" in capsys.readouterr().err


def test_conjugate_outside_the_group_is_internal_error(monkeypatch, capsys, fresh_builds):
    """A kernel product that leaves the group (here one conjugate with one
    bit flipped) is a bug: exit 4, naming the group, not a KeyError."""
    real = groups.MatOps.conj

    def flipped(self, keys, g):
        out = real(self, keys, g)
        out[0] ^= np.uint64(1)
        return out

    monkeypatch.setattr(groups.MatOps, "conj", flipped)
    assert main(["chartab", "sl2:8"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "sl2:8" in err and "not in the group" in err


@pytest.mark.parametrize("argv", [[], ["--format", "json"]])
def test_no_command_is_a_usage_error_on_stderr(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "no command given" in captured.err


@pytest.mark.parametrize("entry", [pytest.param(p, id=p.name, marks=[pytest.mark.slow] * p.slow)
                                   for p in PINNED if not p.digest])
def test_pinned_output(entry, capsys):
    """In process, the entry's exit status and, if it has one, its golden."""
    assert main(list(entry.argv)) == entry.exit_code
    if entry.golden:
        assert capsys.readouterr().out == (GOLDEN / entry.golden).read_text()


def q8_digests(entry) -> dict:
    """SHA-256 digests of the q = 8 row of a digest entry: its sorted keys
    (little-endian uint64), its ClassData (sizes, reps, inverse classes,
    orders, power classes and the dtype of class_of as JSON, then the bytes
    of class_of) and the stdout of the entry's `chartab --format json`."""
    G = build_group(entry.digest)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(entry.argv)) == EXIT_OK
    cd = conjugacy_classes(G)
    classes = hashlib.sha256(json.dumps([cd.sizes, cd.reps, cd.inverse_class, cd.orders,
                                         cd.power_classes, cd.class_of.dtype.str]).encode())
    classes.update(cd.class_of.tobytes())
    return {"keys": hashlib.sha256(G.keys.astype("<u8").tobytes()).hexdigest(),
            "classes": classes.hexdigest(),
            "stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.mark.slow
def test_q8_rows_match_their_digests():
    """The q = 8 row of each digest entry keeps the keys, classes and JSON
    table pinned in tests/golden/q8_digests.json, recomputed in one
    process; a failure names each (row, digest) that differs."""
    want = json.loads((GOLDEN / DIGESTS).read_text())
    got = {p.digest: q8_digests(p) for p in PINNED if p.digest}
    differ = [(spec, name) for spec in want for name in ("keys", "classes", "stdout")
              if got[spec][name] != want[spec][name]]
    assert not differ, f"q = 8 digests that differ: {differ}"


def test_every_golden_is_compared_under_optimize():
    """Each file of tests/golden but the digest file, and each row of that
    file, is the pin of exactly one manifest entry, and each entry pins
    exactly one result; the one CI step with PYTHONOPTIMIZE=1 runs the
    whole manifest through the console script, so no pin can miss it."""
    files = {p.name for p in GOLDEN.iterdir()}
    assert Counter(p.golden for p in PINNED if p.golden) == Counter(files - {DIGESTS})
    assert (Counter(p.digest for p in PINNED if p.digest)
            == Counter(json.loads((GOLDEN / DIGESTS).read_text()).keys()))
    assert all(bool(p.golden) + bool(p.digest) + bool(p.exit_code) == 1 for p in PINNED)
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    steps = [s for s in workflow.split("- name: ") if 'PYTHONOPTIMIZE: "1"' in s]
    assert len(steps) == 1 and "run: python tests/pinned.py\n" in steps[0]


def test_the_pinned_runner_names_each_output_that_differs(tmp_path, capsys):
    """The -O step's runner, fed a stand-in for `sgp-lab` that prints every
    pin, passes on a copy of tests/golden and fails, naming both entries, once
    a byte of one golden and a character of one digest row are changed."""
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    digests = {p.digest: {"stdout": hashlib.sha256(p.digest.encode()).hexdigest()}
               for p in PINNED if p.digest}
    (tmp_path / DIGESTS).write_text(json.dumps(digests))
    pins = {p.argv: (p.exit_code, p.golden and (GOLDEN / p.golden).read_bytes()
                     or p.digest.encode()) for p in PINNED}
    assert run_pinned(pins.get, tmp_path) == 0 and "MISMATCH" not in capsys.readouterr().out
    flipped = bytearray((GOLDEN / "scan_maximal_2.json").read_bytes())
    flipped[100] ^= 1
    (tmp_path / "scan_maximal_2.json").write_bytes(flipped)
    digests["so4-:8"]["stdout"] = "0" + digests["so4-:8"]["stdout"][1:]   # was "6"
    (tmp_path / DIGESTS).write_text(json.dumps(digests))
    assert run_pinned(pins.get, tmp_path) == 1
    assert capsys.readouterr().out.splitlines() == [
        "MISMATCH scan_maximal_2.json (sgp-lab --format json scan-maximal 2): "
        "stdout differs from scan_maximal_2.json",
        "MISMATCH so4-:8 (sgp-lab --format json chartab so4-:8): "
        "stdout SHA-256 differs from its row of q8_digests.json",
        f"{len(PINNED) - 2} of {len(PINNED)} pinned outputs reproduced"]


def test_the_pinned_runner_runs_only_the_named_entries(capsys):
    """Given `names`, the runner runs and counts those entries alone: the
    mutant suite's selection of one pin."""
    ran = []

    def run(argv):
        ran.append(argv)
        return 0, (GOLDEN / "verify_paper.txt").read_bytes()

    assert run_pinned(run, names=("verify_paper.txt",)) == 0
    assert ran == [("verify-paper",)]
    assert capsys.readouterr().out == "1 of 1 pinned outputs reproduced\n"


def test_group_spec_is_parsed_once(monkeypatch):
    import sgplab.cli
    import sgplab.groups
    calls = []
    orig = sgplab.groups.parse_group_spec

    def counting(text):
        calls.append(text)
        return orig(text)

    monkeypatch.setattr(sgplab.cli, "parse_group_spec", counting)
    monkeypatch.setattr(sgplab.groups, "parse_group_spec", counting)
    assert main(["sgp", "sl2:4", "sl2:4"]) == EXIT_OK
    assert calls == ["sl2:4", "sl2:4"]     # once for the group, once for H


@pytest.mark.parametrize("spec", ["sl2:4", "sl2:16"])
def test_reader_closing_stdout_early_is_exit_1_without_traceback(spec):
    """The reader's end of the pipe is closed before the command writes; the
    small table fails at the final flush, the one over 8 KB inside print."""
    src = str(Path(sgplab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "sgplab.cli", "--format", "json", "chartab", spec],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert (res.returncode, res.stderr) == (EXIT_FAIL, b"")


@pytest.mark.parametrize("power", [1, 3, 8])
def test_ext_embedded_with_a_wrong_trace_is_internal_error(power, monkeypatch, capsys,
                                                           fresh_builds):
    """In GF(16), t = g + g^power in place of g + g^4 is 0, outside GF(4),
    or g^10, for which x^2 + t x + n has a root in GF(4), so the map is no
    embedding and 6240 of the 8160 images fail the Gram forms: exit 4,
    naming the group."""
    monkeypatch.setattr(gfield, "frobenius", lambda ctx, a, f: ctx.pow(a, power))
    assert main(["chartab", "ext-sp2q2-embedded:4"]) == EXIT_INTERNAL
    assert "ext-sp2q2-embedded:4" in capsys.readouterr().err


def test_ext_embedded_non_symplectic_generator_is_internal_error(monkeypatch, capsys,
                                                                 fresh_builds):
    """The map followed by gamma * 1, whose determinant gamma^2 != 1 scales
    the form: it is still injective, but no image, the generators' among
    them, is symplectic, and the Gram forms count all 8160."""
    embedding = groups._ext_embedding

    def scaled(q):
        ops, embed = embedding(q)
        g = ops.pack_one(ops._eye * ops.ctx.gamma)
        return ops, lambda keys: ops.mul(embed(keys), g)
    monkeypatch.setattr(groups, "_ext_embedding", scaled)
    assert main(["chartab", "ext-sp2q2-embedded:4"]) == EXIT_INTERNAL
    assert capsys.readouterr().err.endswith(
        "ext-sp2q2-embedded:4: 8160 enumerated elements fail its defining condition\n")

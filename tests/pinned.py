"""The pinned outputs of the `sgp-lab` console script, one entry each.

An entry is an argv and exactly one expected result: stdout byte for byte
as a file of tests/golden (`golden`) or, by its SHA-256, as the "stdout" of
a row of q8_digests.json (`digest`), each with exit 0; or an exit status
(`exit_code`, stdout not read).  `slow` marks the Sp4(4) and q = 8 tiers,
and sp4-sub:16:4, whose source is sp4:4.

`python tests/pinned.py` (no options) runs the installed `sgp-lab` once per
entry in the environment it is given (the CI step sets PYTHONOPTIMIZE=1),
prints a MISMATCH line naming each entry that differs, and exits 1 if any.
`main` has two callers: that step, which runs every entry, and the mutant
suite (tests/test_mutants.py), which runs the one entry a CLI mutant names
(`names`) through `python -m sgplab.cli` against the mutated copy.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = "q8_digests.json"


class Pinned(NamedTuple):
    argv: tuple
    golden: str = ""
    digest: str = ""
    exit_code: int = 0
    slow: bool = False

    @property
    def name(self) -> str:
        return self.golden or self.digest or "_".join(self.argv)


def _json(*argv, golden="", digest="", slow=False):
    return Pinned(("--format", "json", *argv), golden, digest, slow=slow)


PINNED = (
    *(_json("chartab", spec, golden=f"chartab_{spec.replace(':', '_')}.json",
            slow=spec in ("sp4:4", "sp4-sub:16:4"))
      for spec in ("sl2:4", "sz:8", "sp4:2", "ext-sp2q2:2", "so4-:2", "parabolic-p:2",
                   "ext-sp2q2-embedded:2", "ext-sp2q2-embedded:4", "sp4-sub:8:2", "ext-sp2q2:4",
                   "so4+:4", "wreath-sp2:4", "parabolic-q:4", "so4-:4", "a6",
                   "sp4:4", "sp4-sub:16:4")),
    # the bound refuses nothing here (11,520 elements), yet a build that
    # fails an internal check (a Schreier generator outside the Levi
    # subgroup) must be a bug (4), not the bound (3)
    _json("--max-order", "20000", "chartab", "parabolic-p:4",
          golden="chartab_parabolic-p_4.json"),
    _json("scan-maximal", "2", golden="scan_maximal_2.json"),
    _json("scan-maximal", "4", golden="scan_maximal_4.json", slow=True),
    *(_json("sgp", "--side", side, "sp4:4", sub, slow=True,
            golden=f"sgp_{side}_sp4_4_{sub.replace(':', '_')}.json")
      for side in ("restrict", "induce") for sub in ("parabolic-p:4", "parabolic-q:4")),
    _json("alpha-sum", "64", "60", "1", "2", golden="alpha_sum_64.json"),
    *(_json("families", family, q, golden=f"families_{family}_{q}.json")
      for family, q in (("wreath", "4"), ("wreath", "8"), ("ext", "4"), ("suzuki", "8"),
                        ("suzuki", "32"), ("sp4", "2"), ("sp4", "4"), ("sp4", "8"))),
    Pinned(("verify-paper",), "verify_paper.txt"),
    Pinned(("verify-paper", "--deep"), "verify_paper_deep.txt"),
    Pinned(("verify-paper", "--full"), "verify_paper_full.txt", slow=True),
    Pinned(("--max-order", "1000", "chartab", "sl2:16"), exit_code=3),
    Pinned(("--max-order", "10", "verify-paper"), exit_code=3),
    *(_json("chartab", spec, digest=spec, slow=True)
      for spec in ("parabolic-p:8", "parabolic-q:8", "wreath-sp2:8", "ext-sp2q2:8",
                   "ext-sp2q2-embedded:8", "so4+:8", "so4-:8")),
)


def _console_script(argv) -> tuple:
    done = subprocess.run(["sgp-lab", *argv], stdout=subprocess.PIPE)  # stderr passes through
    return done.returncode, done.stdout


def main(run=_console_script, golden: Path = GOLDEN, names=None) -> int:
    """Compare `run(argv) -> (exit status, stdout)` with each pin in `golden`,
    or with those of the entries named in `names` alone."""
    pins = [p for p in PINNED if names is None or p.name in names]
    digests, bad = json.loads((golden / DIGESTS).read_text()), 0
    for p in pins:
        status, stdout = run(p.argv)
        if status != p.exit_code:
            what = f"exit {status}, pinned {p.exit_code}"
        elif p.golden and stdout != (golden / p.golden).read_bytes():
            what = f"stdout differs from {p.golden}"
        elif p.digest and hashlib.sha256(stdout).hexdigest() != digests[p.digest]["stdout"]:
            what = f"stdout SHA-256 differs from its row of {DIGESTS}"
        else:
            continue
        bad += 1
        print(f"MISMATCH {p.name} (sgp-lab {' '.join(p.argv)}): {what}")
    print(f"{len(pins) - bad} of {len(pins)} pinned outputs reproduced")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

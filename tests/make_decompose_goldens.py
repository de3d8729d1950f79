"""Write tests/decompose_goldens.json: the stdout (input path replaced by
"<input>") and the exit code of `decompose` on each data file and each
synthetic source in tests/sources, at --tol 0, 1e-10 and 1e-3. Then
write tests/cli_goldens.json: the stdout, stderr, files written (by -o
and the derived region spec) and exit code of each command of
CLI_COMMANDS on the same sources, input path replaced the same way, and
tests/usage_goldens.json: the same for each command of USAGE_COMMANDS,
the --help of eacomp and of each subcommand and the known refusals,
with argparse wrapping at COLUMNS characters.

The synthetic sources are written first, from fixed seeds:
- rotated_sectors: two orthogonal sectors on A = C^4 under a Haar U_A,
  so the cross-sector overlaps sit at rounding level;
- rotated_sideinfo: the same psi rows with side information
  |0>, |0>, |+>, |+> on C, under Haar U_A and U_C;
- near_threshold_<tol>: on C^3, items p and q overlap at tol (1 + 1e-6)
  and r overlaps p at tol (1 - 1e-6), for tol 1e-10 and 1e-3;
- rotated_visible: 64 states on A = C^2 with side information
  sigma_x = U_C |x> for a Haar U_C on C^64, so every cross overlap of
  the sigmas sits at rounding level;
- near_visible_1e-10: psi_x = |0>, |1>, |+> on A = C^2 with the sigmas of
  near_threshold_1e-10 on C^3, one sigma pair at 1e-10 (1 + 1e-6) and
  one at 1e-10 (1 - 1e-6).

Run from the repository root:

    PYTHONPATH=src python tests/make_decompose_goldens.py

A change that rewrites a golden names it in CHANGES.md.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from eacomp import cli
from eacomp.ensemble import Ensemble, save_ensemble
from test_decomposition import PLUS, haar_unitary, near_threshold, two_sector_blind

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "tests" / "sources"
GOLDENS = ROOT / "tests" / "decompose_goldens.json"
TOLS = ("0", "1e-10", "1e-3")
CLI_GOLDENS = ROOT / "tests" / "cli_goldens.json"
# each with "<input>" for the source; an output named out.* goes to a scratch directory
CLI_COMMANDS = (
    "validate <input>",
    "validate <input> --tol 1e-3",
    "rates <input>",
    "rates <input> --apply-cnot",
    "region <input> --kind EQ -o out.csv",
    "region <input> --kind CE -o out.csv",
    "simulate <input> --rate 0.8 --n 1,2,3,4,5,6,7,8",
)
USAGE_GOLDENS = ROOT / "tests" / "usage_goldens.json"
COLUMNS = "80"  # the terminal width argparse wraps help and usage lines at
PAIR = "data/blind_pair.json"
TRIPLE = "data/sideinfo_triple.json"
# run as CLI_COMMANDS are, on the source given in each
USAGE_COMMANDS = (
    "--help",
    *(f"{command} --help" for command in ("validate", "decompose", "rates", "region", "simulate", "iepsilon")),
    f"rates {PAIR} --tol -1",
    f"rates {PAIR} --tol nan",
    f"rates {PAIR} --matrix-cap 0",
    f"simulate {PAIR} --rate 0.8 --n 0",
    f"iepsilon {TRIPLE} --eps 1.5",
    f"simulate {PAIR} --rate -1 --n 1",
    f"region {PAIR} --kind EQ --samples 1",
    f"rates {PAIR} -o {PAIR}",
    f"region {PAIR} --kind EQ -o out.csv --spec-out out.csv",
    f"region {PAIR} --kind EQ -o out.csv --spec-out out.spec.json",
    # negative numbers in scientific notation, and -inf and -nan, after a space
    f"region {PAIR} --kind EQ --lo -1e-3 -o out.csv",
    f"region {PAIR} --kind EQ --lo=-1e-3 -o out.csv",
    f"region {PAIR} --kind EQ --hi -1e-3",
    f"region {PAIR} --kind EQ --lo -inf",
    f"region {PAIR} --kind EQ --lo -nan",
    f"simulate {PAIR} --rate -1e-3 --n 1",
    f"rates {PAIR} --tol -1e-3",
    f"iepsilon {TRIPLE} --eps -1e-3",
    f"iepsilon {TRIPLE} --eps 0 --penalty -1e-3 --restarts 1 --max-iters 2",
)


def synthetic_sources() -> dict[str, Ensemble]:
    rng = np.random.default_rng(1808)
    e = two_sector_blind()
    u_a = haar_unitary(rng, 4)
    side = np.array([[1, 0], [1, 0], PLUS, PLUS])
    u_a2, u_c = haar_unitary(rng, 4), haar_unitary(rng, 2)
    rng64 = np.random.default_rng(2048)
    psi64 = rng64.standard_normal((64, 2)) + 1j * rng64.standard_normal((64, 2))
    near = near_threshold(1e-10)
    return {
        "rotated_sectors": Ensemble(e.labels, e.probs, e.psi @ u_a.T, e.sigma),
        "rotated_sideinfo": Ensemble(e.labels, e.probs, e.psi @ u_a2.T, side @ u_c.T),
        "near_threshold_1e-10": near,
        "near_threshold_1e-3": near_threshold(1e-3),
        "rotated_visible": Ensemble([str(x) for x in range(64)], np.full(64, 1 / 64),
                                    psi64 / np.linalg.norm(psi64, axis=1, keepdims=True),
                                    haar_unitary(rng64, 64).T),
        "near_visible_1e-10": Ensemble(near.labels, near.probs, [[1, 0], [0, 1], PLUS], near.psi),
    }


def decompose(path: str, tol: str) -> dict:
    """decompose's stdout, with the input path replaced, and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["decompose", path, "--tol", tol])
    return {"stdout": out.getvalue().replace(json.dumps(path), json.dumps("<input>")), "exit": code}


def cli_run(command: str) -> dict:
    """The stdout, stderr, files written and exit code of a CLI_COMMANDS
    entry with "<input>" replaced by a source path, or of a
    USAGE_COMMANDS entry, with the source path (the second word, unless
    it is an option) and the scratch directory replaced in the output
    and argparse wrapping at COLUMNS. An argparse exit is read as the
    exit code."""
    words = command.split()
    path = words[1] if len(words) > 1 and not words[1].startswith("-") else None
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS=COLUMNS):
        argv = [str(Path(tmp) / a) if a.startswith("out.") else a for a in words]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        files = {f.name: f.read_text() for f in sorted(Path(tmp).iterdir())}

    def scrub(text: str) -> str:
        text = text.replace(tmp, "<tmp>")
        return text.replace(path, "<input>") if path else text

    return {"stdout": scrub(out.getvalue()), "stderr": scrub(err.getvalue()),
            "files": {name: scrub(text) for name, text in files.items()}, "exit": code}


def sources() -> list[str]:
    """Every source the goldens cover, relative to the repository root."""
    return sorted(str(p.relative_to(ROOT)) for p in [*ROOT.glob("data/*.json"), *SOURCES.glob("*.json")])


def main():
    SOURCES.mkdir(exist_ok=True)
    for name, e in synthetic_sources().items():
        save_ensemble(e, SOURCES / f"{name}.json")
    with contextlib.chdir(ROOT):
        goldens = {f"{path} --tol {tol}": decompose(path, tol) for path in sources() for tol in TOLS}
        cli_goldens = {c.replace("<input>", path): cli_run(c.replace("<input>", path))
                       for path in sources() for c in CLI_COMMANDS}
        usage_goldens = {c: cli_run(c) for c in USAGE_COMMANDS}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    CLI_GOLDENS.write_text(json.dumps(cli_goldens, indent=1, sort_keys=True) + "\n")
    USAGE_GOLDENS.write_text(json.dumps(usage_goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Write tests/decompose_goldens.json: the stdout (input path replaced by
"<input>") and the exit code of `decompose` on each data file and each
synthetic source in tests/sources, at --tol 0, 1e-10 and 1e-3. Then
write tests/cli_goldens.json: the stdout, stderr, files written (by -o
and the derived region spec) and exit code of each command of
CLI_COMMANDS on the same sources, input path replaced the same way.

The synthetic sources are written first, from fixed seeds:
- rotated_sectors: two orthogonal sectors on A = C^4 under a Haar U_A,
  so the cross-sector overlaps sit at rounding level;
- rotated_sideinfo: the same psi rows with side information
  |0>, |0>, |+>, |+> on C, under Haar U_A and U_C;
- near_threshold_<tol>: on C^3, items p and q overlap at tol (1 + 1e-6)
  and r overlaps p at tol (1 - 1e-6), for tol 1e-10 and 1e-3.

Run from the repository root:

    PYTHONPATH=src python tests/make_decompose_goldens.py

A change that rewrites a golden names it in CHANGES.md.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

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
    "rates <input>",
    "rates <input> --apply-cnot",
    "region <input> --kind EQ -o out.csv",
    "region <input> --kind CE -o out.csv",
    "simulate <input> --rate 0.8 --n 1,2,3,4,5,6,7,8",
)


def synthetic_sources() -> dict[str, Ensemble]:
    rng = np.random.default_rng(1808)
    e = two_sector_blind()
    u_a = haar_unitary(rng, 4)
    side = np.array([[1, 0], [1, 0], PLUS, PLUS])
    u_a2, u_c = haar_unitary(rng, 4), haar_unitary(rng, 2)
    return {
        "rotated_sectors": Ensemble(e.labels, e.probs, e.psi @ u_a.T, e.sigma),
        "rotated_sideinfo": Ensemble(e.labels, e.probs, e.psi @ u_a2.T, side @ u_c.T),
        "near_threshold_1e-10": near_threshold(1e-10),
        "near_threshold_1e-3": near_threshold(1e-3),
    }


def decompose(path: str, tol: str) -> dict:
    """decompose's stdout, with the input path replaced, and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["decompose", path, "--tol", tol])
    return {"stdout": out.getvalue().replace(json.dumps(path), json.dumps("<input>")), "exit": code}


def cli_run(command: str) -> dict:
    """The stdout, stderr, files written and exit code of a CLI_COMMANDS
    entry with "<input>" replaced by a source path (and back in its
    output)."""
    path = command.split()[1]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [str(Path(tmp) / a) if a.startswith("out.") else a for a in command.split()]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        files = {f.name: f.read_text() for f in sorted(Path(tmp).iterdir())}
    return {"stdout": out.getvalue().replace(path, "<input>"), "stderr": err.getvalue().replace(path, "<input>"),
            "files": {name: text.replace(path, "<input>") for name, text in files.items()}, "exit": code}


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
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    CLI_GOLDENS.write_text(json.dumps(cli_goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

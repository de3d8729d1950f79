"""Fuzz the command line with malformed and with odd but valid ensemble files.

Each malformed example mutates one of data/*.json: keys dropped, values
replaced by ones of the wrong type or shape, numbers replaced by NaN or
+-Infinity literals, list items duplicated, the text truncated. A second
strategy keeps the files intact and replaces one numeric option with NaN,
+-inf, a negative or a huge value. Every command must exit 0, 1 or 2
without an uncaught exception or a failed entropy bound, and never exit 0
with a non-finite number in its output or a CSV number longer than
MAX_CSV_FIELD. A third strategy keeps the files valid (states permuted,
rephased or relabelled, or one probability zeroed and the rest
renormalised); there every command must exit 0, simulate's refusal of
side information aside, and a blind source's curve must not move.
"""

import cmath
import contextlib
import copy
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eacomp import cli
from eacomp.ensemble import load_ensemble
from eacomp.schumacher import fidelity_curve

DATA = Path(__file__).resolve().parent.parent / "data"
FILES = {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}

COMMANDS = (
    ["validate"],
    ["rates"],
    ["simulate", "--rate", "0.8", "--n", "1,2"],
    ["iepsilon", "--eps", "0,0.1"],
    ["region", "--kind", "EQ"],
)

# each command with every single-number option at a valid value
NUMERIC_COMMANDS = (
    ["validate", "--tol", "1e-10"],
    ["rates", "--tol", "1e-10"],
    ["simulate", "--rate", "0.8", "--n", "1,2"],
    ["iepsilon", "--eps", "0,0.1", "--restarts", "2", "--max-iters", "20", "--penalty", "64",
     "--env-cap", "4", "--seed", "1"],
    ["region", "--kind", "EQ", "--samples", "8", "--lo", "0", "--hi", "1"],
)
# the caps are left out: they count work, and a huge value asks for that
# much of it. A huge --n is a block size past the cap, a huge --restarts
# a count past MAX_RESTARTS.
NUMERIC_OPTIONS = {"--tol", "--rate", "--n", "--eps", "--restarts", "--max-iters", "--penalty",
                   "--env-cap", "--seed", "--samples", "--lo", "--hi"}
BAD_NUMBERS = ("nan", "inf", "-inf", "-1", "-1e-300", "1e300", str(10**30))
# the longest CSV number: fixed point stops below 1e15 in magnitude
MAX_CSV_FIELD = len("-999999999999999.000000")

WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -0.0, 10**400]),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.floats(-2, 2), max_size=3),
    st.just([[1.0, 0.0]]),
    st.just([[math.nan, 0.0], [0.0, math.inf]]),
).map(copy.deepcopy)  # a fresh value each draw: later mutations change it in place


def node_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def numeric_paths(doc):
    return [p for p in node_paths(doc) if _is_number(_get(doc, p))]


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_files(draw):
    doc = copy.deepcopy(FILES[draw(st.sampled_from(sorted(FILES)))])
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "retype", "nonfinite", "duplicate"]))
        numbers = numeric_paths(doc)
        if how == "nonfinite" and numbers:
            path, value = draw(st.sampled_from(numbers)), draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        else:
            path, value = draw(st.sampled_from(list(node_paths(doc)))), draw(WRONG)
        if not path:
            doc = value
            continue
        parent, key = _get(doc, path[:-1]), path[-1]
        if how == "drop":
            del parent[key]
        elif how == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = value
    text = json.dumps(doc)  # non-finite floats become NaN / Infinity literals
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _reject_constant(name):
    raise AssertionError(f"non-finite literal {name} in the output")


def assert_finite_output(command, out):
    if command in ("rates", "iepsilon"):
        json.loads(out, parse_constant=_reject_constant)
    elif command in ("simulate", "region"):
        for line in out.splitlines()[1:]:
            assert all(math.isfinite(float(v)) and len(v) <= MAX_CSV_FIELD for v in line.split(",")), line
    else:
        assert out.startswith("ok: ")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_clean_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a bad option value
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert "entropy bound" not in err.getvalue()  # the profile's inequalities hold on any source
    if code == 0:
        assert_finite_output(argv[0], out.getvalue())
    return code, out.getvalue(), err.getvalue()


@given(text=mutated_files())
def test_malformed_files_never_crash(workdir, text):
    path = workdir / "source.json"
    path.write_text(text)
    for command in COMMANDS:
        assert_clean_run([command[0], str(path), *command[1:]])


@st.composite
def bad_numeric_options(draw):
    command = list(draw(st.sampled_from(NUMERIC_COMMANDS)))
    slot = draw(st.sampled_from([i + 1 for i, a in enumerate(command) if a in NUMERIC_OPTIONS]))
    command[slot] = draw(st.sampled_from(BAD_NUMBERS))
    return command


@given(name=st.sampled_from(sorted(FILES)), command=bad_numeric_options())
def test_bad_numeric_options_never_crash(name, command):
    assert_clean_run([command[0], str(DATA / name), *command[1:]])


def test_huge_block_length_is_skipped(workdir):
    # at dimA = 1 every block has dimension 1, so only the block length
    # itself can stop a huge --n; at dimA = 2 the dimension stops it
    line = workdir / "line.json"
    line.write_text(json.dumps({"dimA": 1, "dimC": 1,
                                "states": [{"label": "a", "prob": 1.0, "psi": [[1.0, 0.0]]}]}))
    for path, fidelity, reason in ((line, "1.0000000000", "block length"),
                                   (DATA / "blind_pair.json", "0.9865048090", "block dimension 2^")):
        code, out, err = assert_clean_run(["simulate", str(path), "--rate", "0.9", "--n", f"2,{10**30}"])
        assert code == 0
        assert out == f"n,Q,fidelity\n2,0.900000,{fidelity}\n"
        assert err.startswith(f"skipped n={10**30}: {reason}")


# every command, at settings that keep an example short
VALID_COMMANDS = (
    ["rates"],
    ["region", "--kind", "EQ"],
    ["simulate", "--rate", "0.8", "--n", "1,2,3"],
    ["iepsilon", "--eps", "0,0.1", "--restarts", "2", "--max-iters", "20"],
)
SIM_NS = [1, 2, 3]


def _rephased(amplitudes, phase):
    return [[z.real, z.imag] for z in (complex(re, im) * phase for re, im in amplitudes)]


@st.composite
def valid_files(draw):
    """One of data/*.json under mutations that keep it a valid source. Returns
    the file name, the text, and whether the source is the same up to the
    order of its states, their global phases and their labels."""
    name = draw(st.sampled_from(sorted(FILES)))
    states = copy.deepcopy(FILES[name]["states"])
    same = True
    for how in draw(st.lists(st.sampled_from(["permute", "rephase", "relabel", "zero"]), min_size=1, max_size=3)):
        if how == "permute":
            states = draw(st.permutations(states))
        elif how == "rephase":
            for state in states:
                for key in ("psi", "sigma"):
                    if key in state:
                        state[key] = _rephased(state[key], cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))))
        elif how == "relabel":
            labels = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
                                   min_size=len(states), max_size=len(states), unique=True))
            for state, label in zip(states, labels):
                state["label"] = label
        else:
            live = [i for i, state in enumerate(states) if state["prob"] > 0.0]
            if len(live) > 1:
                states[draw(st.sampled_from(live))]["prob"] = 0.0
                total = sum(state["prob"] for state in states)
                for state in states:
                    state["prob"] /= total
                same = False
    return name, json.dumps({**FILES[name], "states": states}), same


@given(source=valid_files())
def test_valid_files_run_clean(workdir, source):
    name, text, same = source
    path = workdir / "valid.json"
    path.write_text(text)
    blind = load_ensemble(str(path)).is_blind()
    for command in VALID_COMMANDS:
        code, _, err = assert_clean_run([command[0], str(path), *command[1:]])
        refused = command[0] == "simulate" and not blind
        assert code == (1 if refused else 0), (command, err)
    if blind and same:
        got = fidelity_curve(load_ensemble(str(path)), SIM_NS, 0.8).points
        want = fidelity_curve(load_ensemble(str(DATA / name)), SIM_NS, 0.8).points
        assert [n for n, _ in got] == SIM_NS == [n for n, _ in want]
        assert all(abs(f - w) <= 1e-12 for (_, f), (_, w) in zip(got, want)), (got, want)

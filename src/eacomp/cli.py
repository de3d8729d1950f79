"""Command-line front end.

Exit codes: 0 success, 1 failed validation or an infeasible request on
well-formed input, 2 malformed input or bad usage. All file output is
written atomically and is byte-identical across reruns of the same
command on the same input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
from dataclasses import fields
import json
import os
import re
import sys

import numpy as np

from . import __version__, limits
from ._accel import active_backend
from .decomposition import DEFAULT_OVERLAP_TOL, irreducible_components
from .ensemble import (
    Ensemble,
    apply_product_unitary,
    cnot_unitary,
    check_tolerance,
    load_ensemble,
    matrix_from_json,
)
from .errors import EacompError, EnsembleFormatError
from .iepsilon import IsometrySearchConfig, check_lemma_properties, estimate_grid
from .rates import (
    analyze,
    classical_entanglement_corner,
    optimal_rates,
    blind_rates,
    visible_rates,
)
from .region import DEFAULT_SAMPLES, boundary_polyline, ce_region, check_samples, eq_region, polyline_csv
from .schumacher import fidelity_curve


def _atomic_write(path: str, text: str):
    # open(tmp, O_CREAT, 0o666) takes the umask as open(path, "w") would,
    # without reading it through os.umask, which sets it process-wide
    stem = os.path.join(os.path.dirname(os.path.abspath(path)), f".eacomp-{os.getpid()}-")
    for attempt in itertools.count():
        try:
            fd = os.open(tmp := f"{stem}{attempt}.tmp", os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out_path: str | None):
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load(args) -> Ensemble:
    e = load_ensemble(args.ensemble)
    if args.apply_cnot:
        e = apply_product_unitary(e, cnot_unitary())
    if args.pre_unitary:
        with open(args.pre_unitary, "r", encoding="utf-8") as fh:
            e = apply_product_unitary(e, matrix_from_json(json.load(fh), "--pre-unitary"))
    return e


# the caps that --vector-cap, --matrix-cap, ... override for one call
_CAPS = ("VECTOR_CAP", "MATRIX_CAP", "SEQUENCE_CAP", "CODE_DIM_CAP")


def cmd_validate(args) -> int:
    e = load_ensemble(args.ensemble)
    kind = "blind" if e.is_blind(args.tol) else ("visible" if e.is_visible(args.tol) else "general")
    print(f"ok: {e.size} states, dimA={e.dim_a}, dimC={e.dim_c}, {kind}")
    return 0


def cmd_decompose(args) -> int:
    e = _load(args)
    d = irreducible_components(e, args.tol)
    report = d.to_json()
    report["input"] = args.ensemble
    _emit(_dump_json(report), args.output)
    return 0


def cmd_rates(args) -> int:
    a = analyze(_load(args), args.tol)
    profile, d = a.profile, a.decomposition
    report = {
        "schema_version": 1,
        "input": args.ensemble,
        "tolerance": args.tol,
        "entropy_profile": profile.to_json(),
        "decomposition": {
            "num_components": d.size,
            "weights": [c.weight for c in d.components],
        },
        "rates": {
            "optimal": optimal_rates(a).to_json(),
            "unassisted": {"Q": profile.to_json()["S_A"], "note": "no shared entanglement"},
        },
    }
    if a.blind:
        report["rates"]["blind"] = blind_rates(a).to_json()
        report["rates"]["classical_corner"] = classical_entanglement_corner(a).to_json()
    if a.visible:
        report["rates"]["visible"] = visible_rates(a).to_json()
    _emit(_dump_json(report), args.output)
    return 0


def _spec_out(args) -> str | None:
    """region's --spec-out, by default the -o path with a .json extension."""
    if args.spec_out is None and args.output:
        return os.path.splitext(args.output)[0] + ".json"
    return args.spec_out


def _refuse_outputs(args) -> str | None:
    """The line refusing the first output of args that would overwrite
    the ensemble, the --pre-unitary file or an earlier output, or that
    cannot be a file in an existing directory; None when every output can
    be written."""
    outputs = []
    if getattr(args, "output", None):  # validate writes nothing
        outputs.append(("-o", args.output, "the CSV" if args.command == "region" else "the output"))
    if args.command == "region" and (spec_out := _spec_out(args)):
        outputs.append(("--spec-out", spec_out, "the region spec"))
    taken = {os.path.realpath(args.ensemble): f"the ensemble {args.ensemble}"}
    if getattr(args, "pre_unitary", None):
        taken[os.path.realpath(args.pre_unitary)] = f"the --pre-unitary file {args.pre_unitary}"
    for option, path, noun in outputs:
        real = os.path.realpath(path)
        if real in taken:
            return f"{noun} would overwrite {taken[real]}; give {option} another path"
        if not os.path.isdir(os.path.dirname(real)):
            return f"{noun} cannot be written to {path}: no such directory; give {option} another path"
        if os.path.isdir(real):
            return f"{noun} cannot be written to {path}: it is a directory; give {option} another path"
        taken[real] = f"{noun} {path}"
    return None


def cmd_region(args) -> int:
    e = _load(args)
    check_samples(args.samples)
    a = analyze(e, args.tol)
    if args.kind == "EQ":
        spec = eq_region(a)
        header = ("E", "Q")
    else:
        spec = ce_region(a)
        header = ("C", "E")
    points = boundary_polyline(spec, lo=args.lo, hi=args.hi, samples=args.samples)
    _emit(polyline_csv(points, header), args.output)
    if spec_out := _spec_out(args):
        _atomic_write(spec_out, _dump_json(spec.to_json()))
    return 0


def cmd_simulate(args) -> int:
    curve = fidelity_curve(_load(args), args.n, args.rate)
    for w in curve.warnings:
        print(f"skipped {w}", file=sys.stderr)
    _emit(curve.csv(), args.output)
    return 0


def cmd_iepsilon(args) -> int:
    e = _load(args)
    # each search flag sets the config field of its name
    config = IsometrySearchConfig(**{f.name: getattr(args, f.name) for f in fields(IsometrySearchConfig)})
    config.resolve_env_dim(e.dim_a, e.dim_c)  # refuses --env-dim above (dimA dimC)^2 before the analysis
    a = analyze(e, args.tol)
    report = {
        "schema_version": 1,
        "input": args.ensemble,
        "backend": active_backend(),
        "config": config.to_json(),
    }
    if args.check_lemma:
        lemma = check_lemma_properties(a, args.eps, config)
        floor = lemma.floor
        report["estimates"] = [
            {"eps": g, "estimate": v} for g, v in zip(lemma.eps_grid, lemma.estimates)
        ]
        report["lemma_checks"] = lemma.to_json()
    else:
        ests = estimate_grid(a, args.eps, config)
        floor = ests[0].identity_floor
        report["estimates"] = [est.to_json() for est in ests]
    report["bounds"] = {"floor_I_X_C": floor, "ceiling_S_CY": a.profile.s_cy}  # those the search ran against
    _emit(_dump_json(report), args.output)
    return 0


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite nonnegative float."""
    try:
        check_tolerance(tol := float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tol


def _finite(text: str) -> float:
    """argparse type for a numeric option: a finite float."""
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _rate(text: str) -> float:
    """argparse type for --rate: a finite float >= 0, with -0.0 read as 0.0."""
    if not (value := _finite(text)) >= 0.0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value + 0.0


def _listed(convert, accepts, what: str, sort: bool = False):
    """argparse type for a comma-separated list of what: each item read by
    convert and accepted by accepts, in ascending order if sort."""
    def parse(text: str) -> list:
        try:
            values = [convert(v) for v in text.split(",") if v.strip()]
        except ValueError:
            values = []
        if not values or not all(map(accepts, values)):
            raise argparse.ArgumentTypeError(f"needs a comma-separated list of {what}, got {text!r}")
        return sorted(values) if sort else values
    return parse


def _add_common(p: argparse.ArgumentParser, tol: bool = True):
    """The input, output, cap and preprocessing options every subcommand
    but validate takes, and the tolerance unless tol is false."""
    p.add_argument("ensemble", help="path to an ensemble JSON file")
    if tol:
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_OVERLAP_TOL,
                       help="overlap tolerance for the component graph (default %(default)s)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--vector-cap", type=limits.positive_int, help="override the state-vector size cap")
    p.add_argument("--matrix-cap", type=limits.positive_int, help="override the density-matrix side cap")
    p.add_argument("--sequence-cap", type=limits.positive_int, help="override the sequence-enumeration cap")
    p.add_argument("--code-dim-cap", type=limits.positive_int, help="override the block-dimension cap")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--apply-cnot", action="store_true",
                       help="rewrite signals under a CNOT from A onto C before the computation")
    group.add_argument("--pre-unitary", default=None, metavar="FILE",
                       help="JSON matrix of [re, im] pairs applied on A(x)C before the computation")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number with an exponent, and
    -inf and -nan, as a value, as it reads -1 and -0.5, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Each parse_args fills a fresh namespace, so the shared parser carries
    nothing from one main() call to the next. Callers must not modify it.
    """
    parser = _Parser(
        prog="eacomp",
        description="Optimal compression rates for pure-state sources with encoder side information",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check an ensemble file, print violations")
    p.add_argument("ensemble")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_OVERLAP_TOL)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("decompose", help="irreducible components of the source")
    _add_common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("rates", help="entropy profile and optimal rates")
    _add_common(p)
    p.set_defaults(fn=cmd_rates)

    p = sub.add_parser("region", help="boundary polyline of an achievable region")
    _add_common(p)
    p.add_argument("--kind", choices=("EQ", "CE"), required=True,
                   help="EQ: qubit/ebit region; CE: classical/ebit region (blind sources)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--lo", type=_finite)
    p.add_argument("--hi", type=_finite)
    p.add_argument("--spec-out", default=None,
                   help="where to write the region constraints as JSON "
                        "(default: alongside -o with a .json extension)")
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("simulate", help="finite-blocklength fidelity of typical-subspace coding")
    _add_common(p, tol=False)  # the simulator reads no overlap graph
    p.add_argument("--rate", type=_rate, required=True, help="qubit rate Q")
    p.add_argument("--n", type=_listed(int, lambda n: n >= 1, "positive integers"), required=True,
                   help="comma-separated block lengths")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("iepsilon", help="certified lower bounds on extractable label information")
    _add_common(p)
    p.add_argument("--eps", type=_listed(float, lambda x: 0.0 <= x <= 1.0, "values in [0, 1]", sort=True),
                   required=True, help="comma-separated disturbance levels in [0, 1]")
    p.add_argument("--restarts", type=int, default=IsometrySearchConfig.restarts)
    p.add_argument("--max-iters", type=int, default=IsometrySearchConfig.max_iters,
                   help="Riemannian gradient steps per search start (default %(default)s)")
    p.add_argument("--penalty", type=float, default=IsometrySearchConfig.penalty)
    p.add_argument("--env-dim", type=int, default=IsometrySearchConfig.env_dim)
    p.add_argument("--env-cap", type=int, default=IsometrySearchConfig.env_cap)
    p.add_argument("--seed", type=int, default=IsometrySearchConfig.seed)
    p.add_argument("--check-lemma", action="store_true",
                   help="also run the monotonicity/bounds diagnostics")
    p.set_defaults(fn=cmd_iepsilon)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved = {name: getattr(limits, name) for name in _CAPS}
    try:
        if refusal := _refuse_outputs(args):
            print(refusal, file=sys.stderr)
            return 2
        for name in _CAPS:
            value = getattr(args, name.lower(), None)  # validate takes no cap flags
            if value is not None:
                setattr(limits, name, value)
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return 2
    except EnsembleFormatError as exc:
        for line in exc.violations:
            print(line, file=sys.stderr)
        return 1
    except EacompError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        for name, value in saved.items():
            setattr(limits, name, value)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: spec-file ingestion, dispatch, report emission.

Every command reads one ring-spec file and writes a single report to stdout,
JSON by default (schema docs/report.schema.json, versioned froblab-report/1).
Exit codes: 0 for verdicts consistent with the hypotheses, 2 when a decisive
counterexample was found, 1 for errors.  Output for a fixed input and version
is byte-identical across runs unless --timings is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import froblab
from froblab.errors import FroblabError
from froblab.fsing import (
    CoverContext,
    cover_f_injectivity_criterion,
    even_char_degeneracy_check,
    fedder_f_pure,
    run_cover_pipeline,
)
from froblab.ideals import Ideal
from froblab.quotients import DEFAULT_CLOSURE_EMAX, suggest_parameter_sequence
from froblab.reports import DECISIVE_NOT_F_INJECTIVE, NOT_FROBENIUS_CLOSED
from froblab.specfile import load_ring_spec, matrix_minors

SCHEMA_NAME = "froblab-report/1"

_COMMANDS = ("gb", "dim", "membership", "minors", "fpure", "fclosure", "cover-check", "pipeline")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; 2 is reserved for
    decisive counterexamples, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call to main, then reused
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="froblab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"froblab {froblab.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("file", help="ring-spec file")
        mode = cmd.add_mutually_exclusive_group()
        mode.add_argument("--json", dest="json_out", action="store_true", default=True)
        mode.add_argument("--text", dest="json_out", action="store_false")
        cmd.add_argument("--timings", action="store_true", help="include wall-clock timing")
        if name == "membership":
            cmd.add_argument("--poly", required=True, help="element to test")
            cmd.add_argument("--ideal", help="comma-separated generators overriding the relations")
        if name in ("fclosure", "cover-check", "pipeline"):
            cmd.add_argument("--emax", type=int, help="Frobenius depth bound (overrides the file)")
            cmd.add_argument("--sop", help="comma-separated parameters (overrides the file)")
        if name in ("cover-check", "pipeline"):
            cmd.add_argument("--f", dest="twist", help="twist element (overrides the file)")
            cmd.add_argument("--search-sop", action="store_true", help="search for parameters instead")
            cmd.add_argument("--seed", type=int, default=0, help="seed for --search-sop")
    return parser


def _parse_list(ring, text):
    return [ring.parse(part.strip()) for part in text.split(",") if part.strip()]


def _effective_emax(args, spec) -> int:
    if getattr(args, "emax", None) is not None:
        return args.emax
    if spec.e_max is not None:
        return spec.e_max
    return DEFAULT_CLOSURE_EMAX


def _effective_sop(args, spec, ring, presentation, first_inside=None):
    if getattr(args, "search_sop", False):
        return suggest_parameter_sequence(
            presentation, presentation.dimension, seed=args.seed, first_inside=first_inside
        )
    if getattr(args, "sop", None):
        return _parse_list(ring, args.sop)
    return spec.sop_polys(ring)


def _flag_echo(args, sop) -> dict:
    return {
        "e_max": getattr(args, "emax", None),
        "f": getattr(args, "twist", None),
        "ideal": getattr(args, "ideal", None),
        "poly": getattr(args, "poly", None),
        "search_sop": getattr(args, "search_sop", False),
        "seed": getattr(args, "seed", None),
        "sop": [str(g) for g in sop] if sop is not None else getattr(args, "sop", None),
    }


def _run_command(args, spec):
    """Returns (result dict, assumptions list, sop used or None, decisive flag)."""
    ring = spec.ring()
    if args.command == "gb":
        basis = spec.presentation(ring).defining.groebner_basis()
        return {"order": "grevlex", "basis": [str(g) for g in basis.polys]}, [], None, False
    if args.command == "dim":
        return {"dimension": spec.presentation(ring).dimension}, [], None, False
    if args.command == "minors":
        minors = matrix_minors(spec.matrix_polys(ring))
        return {"count": len(minors), "minors": [str(g) for g in minors]}, [], None, False
    if args.command == "membership":
        generators = (
            _parse_list(ring, args.ideal) if args.ideal else spec.relation_polys(ring)
        )
        ideal = Ideal(ring, tuple(generators))
        poly = ring.parse(args.poly)
        nf = ideal.normal_form(poly)
        return (
            {"member": nf.is_zero, "poly": str(poly), "normal_form": str(nf)},
            [],
            None,
            False,
        )
    if args.command == "fpure":
        return {"f_pure": fedder_f_pure(spec.presentation(ring))}, [], None, False

    presentation = spec.presentation(ring)
    if args.command == "fclosure":
        sop = _effective_sop(args, spec, ring, presentation)
        report = presentation.frobenius_closure_test(
            Ideal(ring, tuple(sop)), e_max=_effective_emax(args, spec)
        )
        result = report.to_dict()
        return result, [], sop, report.verdict == NOT_FROBENIUS_CLOSED

    coefficient = spec.coefficient_ideal(ring)
    twist = ring.parse(args.twist) if args.twist else spec.twist_poly(ring)
    sop = _effective_sop(args, spec, ring, presentation, first_inside=coefficient)
    e_max = _effective_emax(args, spec)
    if args.command == "cover-check":
        context = CoverContext(presentation, coefficient, twist)
        if spec.p == 2:
            report = even_char_degeneracy_check(context, sop)
            result = report.to_dict()
            result.pop("assumptions", None)
            return result, list(report.assumptions), sop, False
        report = cover_f_injectivity_criterion(context, sop, e_max)
        result = report.to_dict()
        result.pop("assumptions", None)
        decisive_negative = report.verdict == DECISIVE_NOT_F_INJECTIVE
        return result, list(report.assumptions), sop, decisive_negative
    if args.command == "pipeline":
        report = run_cover_pipeline(presentation, coefficient, twist, sop, e_max)
        result = report.to_dict()
        result.pop("assumptions", None)
        decisive_negative = result["conclusion"]["status"] == "decisive-counterexample"
        return result, list(report.assumptions), sop, decisive_negative
    raise AssertionError(f"unhandled command {args.command}")


def _text_lines(envelope: dict) -> str:
    lines = [f"froblab {envelope['command']} on {envelope['input']['file']}"]
    if envelope["error"] is not None:
        lines.append(f"error[{envelope['error']['code']}]: {envelope['error']['message']}")
        return "\n".join(lines) + "\n"
    for key in sorted(envelope["result"]):
        value = envelope["result"][key]
        if isinstance(value, (dict, list, bool)) or value is None:
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    for note in envelope["assumptions"]:
        lines.append(f"assumption: {note}")
    if "timing" in envelope:
        lines.append(f"seconds: {envelope['timing']['seconds']}")
    return "\n".join(lines) + "\n"


def _emit(envelope: dict, json_out: bool) -> None:
    if json_out:
        sys.stdout.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_text_lines(envelope))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    envelope = {
        "schema": SCHEMA_NAME,
        "tool": {"name": "froblab", "version": froblab.__version__},
        "command": args.command,
        "input": {"file": os.path.basename(args.file)},
        "result": None,
        "assumptions": [],
        "error": None,
    }
    started = time.perf_counter()
    try:
        spec = load_ring_spec(args.file)
        envelope["input"]["p"] = spec.p
        envelope["input"]["vars"] = list(spec.variables)
        result, assumptions, sop, decisive_negative = _run_command(args, spec)
        envelope["input"]["flags"] = _flag_echo(args, sop)
        envelope["result"] = result
        envelope["assumptions"] = assumptions
        status = 2 if decisive_negative else 0
    except FroblabError as exc:
        error = {"code": exc.code, "message": str(exc)}
        if getattr(exc, "offset", -1) >= 0:
            error["offset"] = exc.offset
        if getattr(exc, "line", -1) >= 1:
            error["line"] = exc.line
        envelope["error"] = error
        status = 1
    except OSError as exc:
        envelope["error"] = {"code": "IOError", "message": str(exc)}
        status = 1
    if args.timings:
        envelope["timing"] = {"seconds": round(time.perf_counter() - started, 3)}
    _emit(envelope, args.json_out)
    return status


if __name__ == "__main__":
    sys.exit(main())

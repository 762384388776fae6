"""The three workloads as fixed job lists.

A job is one computation to a verdict through a public froblab entry point.
Its inputs are generated from the seed and parsed during set-up; ``run``
builds fresh library objects from the parsed polynomials on every call, so no
basis cached by one call can serve the next.  ``run`` looks each entry point
up through the module at call time, which lets the traced run wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
import gens

WORKLOADS = ("fedder-colon", "groebner-standard", "frobenius-reads")

GOLDEN_ARGV = {
    "dim_determinantal": (["dim", "determinantal_f3.ring"], 0),
    "minors_determinantal": (["minors", "determinantal_f3.ring"], 0),
    "gb_cusp": (["gb", "cusp_f5.ring"], 0),
    "membership_determinantal": (["membership", "determinantal_f3.ring", "--poly", "x1*x4"], 0),
    "fpure_cusp": (["fpure", "cusp_f5.ring"], 0),
    "fclosure_cusp": (["fclosure", "cusp_f5.ring"], 2),
    "cover_check_regular_f2": (["cover-check", "regular_f2.ring"], 0),
    "pipeline_determinantal": (["pipeline", "determinantal_f3.ring"], 0),
}


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    canon: Callable[[Any], Any]
    check: Callable[[Any], str | None]


# Inputs drawn from a constant seed, the same for every --seed: the jobs at
# and above the median, where a seeded draw would move the percentiles (the
# cost of one draw differs from the next by a third or more).  make_refs.py
# stores sympy's answers for them in refs.json, so their checks are lookups.


def fixed_determinantal() -> list[tuple[str, str]]:
    """The generic 2x3 matrix at p = 5, 7 and 2x4 at p = 3, then 2x3 and 2x4
    matrices whose entries are variables drawn from 5, 6 or 7 of them."""
    out = [(f"generic-2x{n}-p{p}", gens.generic_determinantal(n, p)) for n, p in ((3, 5), (3, 7), (4, 3))]
    fixed = random.Random("reference-variable-determinantal")
    for n, nvars, p, count in (
        (3, 6, 3, 4), (3, 5, 5, 8), (3, 6, 5, 2), (3, 5, 7, 2), (4, 5, 3, 2), (4, 6, 3, 1), (3, 7, 3, 4),
    ):
        out += [(f"ref-2x{n}-v{nvars}-p{p}-{i}", gens.variable_determinantal(fixed, n, nvars, p)) for i in range(count)]
    return out


def fixed_dense() -> list[gens.System]:
    """20 systems of 3 cubics in 3 variables and 20 of 4 quadrics in 4, spread
    evenly over p in {5, 7, 11, 13}; they hold the median and reach the 90th
    percentile of groebner-standard."""
    fixed = random.Random("reference-dense")
    out = []
    for nvars, npolys, degree, count in ((3, 3, 3, 20), (4, 4, 2, 20)):
        for i in range(count):
            system = gens.random_dense(fixed, len(out), (5, 7, 11, 13)[i % 4], nvars, npolys, degree)
            out.append(system._replace(name="ref-" + system.name))
    return out


def _report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _basis_terms(gb) -> frozenset:
    p = gb.ring.p
    return frozenset(checks.term_set(((m, int(c)) for m, c in g.terms()), p) for g in gb.polys)


class Builder:
    """Turns generated text into jobs against one freshly imported froblab."""

    def __init__(self, api, root: Path, refs: dict):
        self.api = api
        self.root = root
        self.refs = refs

    # -- job kinds ---------------------------------------------------------

    def basis(self, system: gens.System) -> Job:
        F = self.api.froblab
        ring = F.PolyRing(system.p, system.variables)
        polys = tuple(ring.parse(t) for t in system.polys)
        ref = self.refs.get("bases", {}).get(system.name)

        def expected():
            if ref is not None:
                return checks.basis_from_json(ref)
            return checks.sympy_reduced_basis(system.p, system.variables, system.polys)

        return Job(
            f"buchberger:{system.name}",
            lambda: self.api.froblab.buchberger(polys),
            _basis_terms,
            lambda got: checks.check_basis(expected(), got),
        )

    def fedder(self, name: str, text: str) -> Job:
        F = self.api.froblab
        spec, ring, relations, call = self._fedder_call(text)
        stored = self.refs.get("fedder_certificates", {}).get(text)

        def check(verdict: bool) -> str | None:
            if len(spec.relations) == 1:
                want = checks.hypersurface_f_pure(spec.p, spec.variables, spec.relations[0])
                return None if verdict == want else f"verdict {verdict}, f^(p-1) test says {want}"
            if stored is not None:
                # make_refs.py had sympy certify this colon element once
                return None if verdict else "False verdict, but refs.json holds a sympy-verified Fedder certificate"
            nonzero = [g for g in relations if not g.is_zero]
            if verdict:
                g = checks.fedder_certificate(F, ring, nonzero)
                return checks.check_fedder_certificate(spec.p, spec.variables, spec.relations, spec.matrix, g)
            # no finite certificate exists for False, so this is only a
            # consistency check: recompute in the reversed variable order,
            # which changes every Groebner basis on the way
            again = self._fedder_call(gens.reversed_vars(text))[-1]()
            return None if again is False else "False verdict flips in the reversed variable order"

        return Job(f"fedder:{name}", call, bool, check)

    def _fedder_call(self, text: str):
        F = self.api.froblab
        spec = self.api.specfile.parse_ring_spec(text)
        ring = spec.ring()
        relations = tuple(spec.relation_polys(ring))
        return spec, ring, relations, lambda: self.api.froblab.fedder_f_pure(
            F.QuotientPresentation(ring, F.Ideal(ring, relations))
        )

    def _cover_parts(self, text: str):
        spec = self.api.specfile.parse_ring_spec(text)
        ring = spec.ring()
        return (
            spec,
            ring,
            tuple(spec.relation_polys(ring)),
            spec.coefficient_ideal(ring).generators,
            spec.twist_poly(ring),
            spec.sop_polys(ring),
        )

    def pipeline(self, name: str, text: str) -> Job:
        F = self.api.froblab
        spec, ring, rels, coeff, twist, sop = self._cover_parts(text)
        return Job(
            f"pipeline:{name}",
            lambda: self.api.froblab.run_cover_pipeline(
                F.QuotientPresentation(ring, F.Ideal(ring, rels)),
                F.Ideal(ring, coeff), twist, sop, spec.e_max,
            ),
            _report_json,
            lambda got: checks.check_pipeline(json.loads(got), spec.e_max),
        )

    def criterion(self, name: str, text: str) -> Job:
        F = self.api.froblab
        spec, ring, rels, coeff, twist, sop = self._cover_parts(text)
        return Job(
            f"criterion:{name}",
            lambda: self.api.froblab.cover_f_injectivity_criterion(
                F.CoverContext(F.QuotientPresentation(ring, F.Ideal(ring, rels)), F.Ideal(ring, coeff), twist),
                sop, spec.e_max,
            ),
            _report_json,
            lambda got: checks.check_criterion(json.loads(got), spec.e_max),
        )

    def closure(self, name: str, text: str, check: Callable[[dict], str | None]) -> Job:
        F = self.api.froblab
        spec = self.api.specfile.parse_ring_spec(text)
        ring = spec.ring()
        rels = tuple(spec.relation_polys(ring))
        sop = tuple(spec.sop_polys(ring))
        return Job(
            f"closure:{name}",
            lambda: F.QuotientPresentation(ring, F.Ideal(ring, rels)).frobenius_closure_test(
                F.Ideal(ring, sop), spec.e_max
            ),
            _report_json,
            lambda got: check(json.loads(got)),
        )

    def cli(self, golden: str) -> Job:
        argv, code = GOLDEN_ARGV[golden]
        fixtures = self.root / "src" / "froblab" / "fixtures"
        argv = [argv[0], str(fixtures / argv[1])] + argv[2:]
        expected = (self.root / "tests" / "golden" / f"{golden}.json").read_text(encoding="utf-8")

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = self.api.cli.main(argv)
            return status, out.getvalue()

        return Job(f"cli:{golden}", run, tuple, lambda got: checks.check_golden(expected, code, got))

    # -- workloads ---------------------------------------------------------

    def fedder_colon(self, seed: int) -> list[Job]:
        jobs = [self.cli(g) for g in (
            "pipeline_determinantal", "fpure_cusp", "dim_determinantal", "minors_determinantal",
        )]
        jobs += [self.fedder(name, text) for name, text in fixed_determinantal()]
        # the seed draws the cheapest matrices, from 5 variables at p = 3,
        # which stay below the median; from 7 they cost up to above it.
        # Four of them put the median inside the block of p = 7 cones
        # rather than at its lower edge, where one draw could move it.
        rng = gens.family_rng(seed, "variable-determinantal")
        for i in range(4):
            jobs.append(self.fedder(f"var-2x3-v5-p3-{i}", gens.variable_determinantal(rng, 3, 5, 3)))
        rng = gens.family_rng(seed, "cubic-cone")
        for p, count in ((3, 3), (5, 5)):
            jobs += [self.fedder(f"cubic-p{p}-{i}", gens.ternary_cubic(rng, p)) for i in range(count)]
        # the cones at p = 7 are fixed for every seed: their cost varies from
        # one draw to the next by a third, and they hold the median
        fixed = random.Random("reference-cubic-cones")
        jobs += [self.fedder(f"cubic-ref-p7-{i}", gens.ternary_cubic(fixed, 7)) for i in range(12)]
        rng = gens.family_rng(seed, "cusp-hypersurface")
        for i in range(2):
            a = rng.randrange(2, 5)
            jobs.append(self.fedder(
                f"cusp-{i}", gens.cusp(a, a + rng.randrange(1, 4), rng.choice((3, 5, 7)), 1)
            ))
        # the pipelines sit among the jobs holding the 90th percentile, so
        # their variable orders are drawn once for every seed
        fixed = random.Random("reference-pipeline-orders")
        for i in range(2):
            jobs.append(self.pipeline(f"permuted-det-p3-{i}", gens.permuted_determinantal(fixed, 3)))
        return jobs

    def groebner_standard(self, seed: int) -> list[Job]:
        # cyclic-6 (3.4-6.8 s here) would be four fifths of a pass, and
        # jobs_per_s would follow that one input and the host's speed
        # during it
        jobs = [self.basis(s) for s in (gens.cyclic(5), gens.katsura(4), gens.katsura(5))]
        jobs += [self.basis(s) for s in fixed_dense()]
        # the seed draws the 16 cheaper systems, which sit below the median
        rng = gens.family_rng(seed, "dense")
        index = 0
        for nvars, npolys, degree, count in ((4, 3, 2, 10), (3, 2, 3, 6)):
            for i in range(count):
                p = (5, 7, 11, 13)[i % 4]
                jobs.append(self.basis(gens.random_dense(rng, index, p, nvars, npolys, degree)))
                index += 1
        return jobs

    def frobenius_reads(self, seed: int) -> list[Job]:
        jobs = [self.cli(g) for g in (
            "fclosure_cusp", "cover_check_regular_f2", "membership_determinantal", "gb_cusp",
        )]
        # The long sweeps come from arrangements drawn once for every seed:
        # one with six lines (242 socle combinations at two depths; the next
        # draw took 2.5 s, a quarter of a pass), 30 with five, which hold the
        # median and the 90th percentile, and one at depth 3; the cost of one
        # draw differs from the next by a third or more.  The seed draws the
        # cheaper ones, which stay below the median.
        # The four with three lines at p = 7 cost from a third of the median
        # to above it, so they are drawn once for every seed too.
        fixed = random.Random("reference-line-arrangements")
        arrangements = [
            (f"lines-ref-n{nvars}-p{p}-e{e_max}-{i}", nvars, p, e_max, gens.line_arrangement(fixed, nvars, p, e_max))
            for nvars, p, e_max, count in ((6, 3, 2, 1), (5, 3, 2, 20), (4, 3, 3, 1), (3, 7, 2, 4))
            for i in range(count)
        ]
        rng = gens.family_rng(seed, "line-arrangement")
        for nvars, p, e_max, count in ((4, 3, 2, 6), (3, 5, 2, 2)):
            arrangements += [
                (f"lines-n{nvars}-p{p}-e{e_max}-{i}", nvars, p, e_max, gens.line_arrangement(rng, nvars, p, e_max))
                for i in range(count)
            ]
        for name, nvars, p, e_max, text in arrangements:
            jobs.append(self.closure(
                name, text, lambda r, p=p, n=nvars, e=e_max: checks.check_line_closure(r, p, n, e)
            ))
        rng = gens.family_rng(seed, "cusp-closure")
        for i in range(6):
            a = rng.randrange(2, 5)
            b = a + rng.randrange(1, 5)
            p = rng.choice((3, 5, 7))
            e_max = rng.choice((2, 3))
            depth = gens.cusp_witness_depth(a, b, p, e_max)
            jobs.append(self.closure(
                f"cusp-{a}-{b}-p{p}-{i}", gens.cusp(a, b, p, e_max),
                lambda r, a=a, b=b, p=p, d=depth: checks.check_cusp_closure(r, p, a, b, d),
            ))
        # the criterion jobs cost about as much as the arrangements holding
        # the median, so their variable orders are drawn once for every seed
        fixed = random.Random("reference-criterion-orders")
        for i, p in enumerate((3, 3, 5, 5, 7, 7)):
            jobs.append(self.criterion(f"permuted-det-p{p}-{i}", gens.permuted_determinantal(fixed, p)))
        return jobs

    def build(self, workload: str, seed: int) -> list[Job]:
        return {
            "fedder-colon": self.fedder_colon,
            "groebner-standard": self.groebner_standard,
            "frobenius-reads": self.frobenius_reads,
        }[workload](seed)

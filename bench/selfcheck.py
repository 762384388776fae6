"""Fast self-check of the benchmark's generators and answer checks.

    python3 bench/selfcheck.py

Checks that the generators are deterministic per seed and produce the
documented systems, that the stored references match sympy where sympy is
quick, that every answer check accepts a right answer and rejects a wrong
one, and that the timing loop scales timings and keeps answers as documented.  Prints one line per check and exits non-zero on the first
failure.  Takes a few seconds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gens  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def check_generators() -> None:
    for workload in workloads.WORKLOADS:
        first = [job.name for job in build(workload, 7)]
        expect(first == [job.name for job in build(workload, 7)], f"{workload}: job list repeats per seed")
    for family, make in (
        ("variable-determinantal", lambda r: gens.variable_determinantal(r, 3, 5, 5)),
        ("line-arrangement", lambda r: gens.line_arrangement(r, 4, 3, 2)),
        ("cubic-cone", lambda r: gens.ternary_cubic(r, 7)),
        ("dense", lambda r: "".join(gens.random_dense(r, 0, 7, 3, 3, 3).polys)),
        ("determinantal-criterion", lambda r: gens.permuted_determinantal(r, 5)),
    ):
        a = make(gens.family_rng(3, family))
        expect(a == make(gens.family_rng(3, family)), f"{family}: same seed, same bytes")
        expect(a != make(gens.family_rng(4, family)), f"{family}: another seed, another input")

    k2 = gens.katsura(2)
    expect(k2.polys == (
        "u2*u2 + u1*u1 + u0*u0 + u1*u1 + u2*u2 - u0",
        "u1*u2 + u0*u1 + u1*u0 + u2*u1 - u1",
        "u0 + 2*u1 + 2*u2 - 1",
    ), "katsura-2 is u0^2+2u1^2+2u2^2-u0, 2u0u1+2u1u2-u1, u0+2u1+2u2-1")
    c3 = gens.cyclic(3)
    expect(c3.polys == ("x1 + x2 + x3", "x1*x2 + x2*x3 + x3*x1", "x1*x2*x3 - 1"), "cyclic-3 by formula")
    cols = gens.variable_determinantal(gens.family_rng(1, "t"), 4, 5, 3)
    expect("matrix_row" in cols and cols.count("matrix_row") == 2, "variable determinantal spec has two rows")
    for a, b, p, e_max in ((2, 3, 5, 3), (3, 4, 3, 2), (4, 5, 7, 2)):
        depth = gens.cusp_witness_depth(a, b, p, e_max)
        report = {"verdict": "NOT_FROBENIUS_CLOSED", "level": "decisive",
                  "witness": {"e": depth, "element": f"y^{a - 1}"}}
        expect(checks.check_cusp_closure(report, p, a, b, depth) is None,
               f"cusp y^{a}-x^{b} p={p}: closed-form witness depth {depth} agrees with sympy")
        report["witness"]["element"] = "y^0" if a > 1 else "x"
        expect(checks.check_cusp_closure(report, p, a, b, depth) is not None,
               f"cusp y^{a}-x^{b} p={p}: a unit witness is rejected")


def check_references() -> None:
    refs = json.loads((HERE / "refs.json").read_text())
    for system in (gens.cyclic(5), gens.katsura(4), workloads.fixed_dense()[0]):
        live = checks.sympy_reduced_basis(system.p, system.variables, system.polys)
        expect(checks.basis_from_json(refs["bases"][system.name]) == live, f"refs.json {system.name} equals sympy")
    fixed = workloads.fixed_determinantal()
    expect(all(text in refs["fedder_certificates"] for _, text in fixed),
           "refs.json certifies every fixed determinantal ring")
    name, text = fixed[0]
    spec = run.fresh_import().specfile.parse_ring_spec(text)
    expect(checks.check_fedder_certificate(spec.p, spec.variables, spec.relations, spec.matrix,
                                           refs["fedder_certificates"][text]) is None,
           f"refs.json certificate for {name} verifies in sympy")


def check_answer_checks() -> None:
    api = run.fresh_import()
    F = api.froblab
    system = gens.random_dense(gens.family_rng(1, "self"), 0, 7, 3, 3, 2)
    ring = F.PolyRing(system.p, system.variables)
    got = workloads._basis_terms(F.buchberger([ring.parse(t) for t in system.polys]))
    want = checks.sympy_reduced_basis(system.p, system.variables, system.polys)
    expect(checks.check_basis(want, got) is None, "froblab basis of a dense system equals sympy's")
    expect(checks.check_basis(want, frozenset(list(got)[1:])) is not None, "a basis missing a polynomial is rejected")

    expect(checks.hypersurface_f_pure(5, ("x", "y"), "y^2 - x^3") is False, "cusp is not F-pure by f^(p-1)")
    expect(checks.hypersurface_f_pure(3, ("x", "y"), "x*y") is True, "node is F-pure by f^(p-1)")

    spec = api.specfile.parse_ring_spec(gens.generic_determinantal(3, 5))
    ring = spec.ring()
    cert = checks.fedder_certificate(F, ring, spec.relation_polys(ring))

    def certify(g):
        return checks.check_fedder_certificate(spec.p, spec.variables, spec.relations, spec.matrix, g)

    expect(certify(cert) is None, "froblab's Fedder certificate verifies in sympy")
    expect(certify("1") is not None, "1 is rejected as a Fedder certificate")
    expect(certify("x1") is not None, "x1, outside m^[p] but not in the colon, is rejected")
    expect(certify(f"({cert}) * x1^5") is not None, "a certificate inside m^[p] is rejected")

    golden = (ROOT / "tests" / "golden" / "pipeline_determinantal.json").read_text()
    expect(checks.check_golden(golden, 0, (0, golden)) is None, "golden report accepted")
    expect(checks.check_golden(golden, 0, (0, golden.replace("x3", "x2", 1))) is not None, "changed byte rejected")
    expect(checks.check_golden(golden, 0, (2, golden)) is not None, "wrong exit code rejected")
    result = json.loads(golden)["result"]
    expect(checks.check_pipeline(result, 2) is None, "golden pipeline result passes the pipeline check")
    result["criterion"]["details"]["memberships"][0]["member"] = True
    expect(checks.check_pipeline(result, 2) is not None, "a silent membership hit is rejected")

    report = {"verdict": "CLOSED_UP_TO", "regular_sequence_verified": True, "partial": False,
              "socle_dimension": 3, "combinations_tested": 26, "e_max": 2}
    expect(checks.check_line_closure(report, 3, 4, 2) is None, "four general lines: socle 3, 26 combinations")
    expect(checks.check_line_closure(dict(report, partial=True), 3, 4, 2) is not None, "a partial sweep is rejected")


def check_timing() -> None:
    ref = run.PROBE_REF_S

    def scaled(durations, probes):
        return run.at_reference_speed(durations, probes)

    expect(all(map(math.isclose, scaled([1.0, 2.0], [ref] * 3), [1.0, 2.0])),
           "timings taken at the reference speed stay as measured")
    expect(all(map(math.isclose, scaled([1.0, 2.0], [2 * ref] * 3), [0.5, 1.0])),
           "timings taken at half the reference speed are halved")
    expect(all(map(math.isclose, scaled([1.0] * 3, [2 * ref, 2 * ref, ref, ref]), [0.5, 2 / 3, 1.0])),
           "each timing is scaled by the probes just before and after it")

    class Job:
        def __init__(self, name, answer, verdict=None):
            self.name, self.canon = name, lambda out: out
            self.run = lambda: answer
            self.check = lambda got: verdict

    jobs = [Job("right", 1), Job("wrong", 2, "wrong answer")]
    _, durations, outputs = run.run_passes(jobs, passes=2)
    expect(len(durations) == 4 and outputs[1][0] is outputs[0][0], "a repeated answer is kept once")
    expect(run.check_outputs(jobs, outputs) == ["wrong pass 0: wrong answer", "wrong pass 1: wrong answer"],
           "a wrong answer fails on every pass")
    flipping = iter([True, False])
    jobs = [Job("flip", None)]
    jobs[0].run = lambda: next(flipping)
    _, _, outputs = run.run_passes(jobs, passes=2)
    expect(run.check_outputs(jobs, outputs) == ["flip pass 1: answer differs from the first pass"],
           "an answer that changes between passes fails")


def build(workload: str, seed: int):
    api = run.fresh_import()
    refs = json.loads((HERE / "refs.json").read_text())
    return workloads.Builder(api, ROOT, refs).build(workload, seed)


def main() -> int:
    check_generators()
    check_references()
    check_answer_checks()
    check_timing()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

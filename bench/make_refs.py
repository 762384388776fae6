"""Regenerate bench/refs.json, the stored references for seed-independent jobs.

    python3 bench/make_refs.py

``bases`` holds sympy's reduced grevlex bases of cyclic-5, katsura-4 and
katsura-5 over GF(32003) and of the fixed dense systems of
groebner-standard.  ``fedder_certificates`` maps the spec text of each fixed
determinantal ring of fedder-colon to a colon element g with g outside m^[p]
and g*a in A^[p] for every generator a of A, which proves the ring F-pure.
froblab's colon proposes g; it is stored only after sympy has decided both
facts (checks.check_fedder_certificate).  sympy needs a few minutes for all
of it, so the benchmark reads them here instead of recomputing them on every
run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import froblab  # noqa: E402
import gens  # noqa: E402
import workloads  # noqa: E402
from froblab import specfile  # noqa: E402


def main() -> None:
    bases = {}
    for system in [gens.cyclic(5), gens.katsura(4), gens.katsura(5)] + workloads.fixed_dense():
        basis = checks.sympy_reduced_basis(system.p, system.variables, system.polys)
        bases[system.name] = checks.basis_to_json(basis)
        print(f"{system.name}: {len(basis)} polynomials", flush=True)

    certificates = {}
    for name, text in workloads.fixed_determinantal():
        spec = specfile.parse_ring_spec(text)
        ring = spec.ring()
        g = checks.fedder_certificate(froblab, ring, [a for a in spec.relation_polys(ring) if not a.is_zero])
        problem = checks.check_fedder_certificate(spec.p, spec.variables, spec.relations, spec.matrix, g)
        if problem:
            print(f"{name}: no certificate stored ({problem})", flush=True)
            continue
        certificates[text] = g
        print(f"{name}: certificate verified by sympy", flush=True)

    refs = {"bases": bases, "fedder_certificates": certificates}
    (HERE / "refs.json").write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

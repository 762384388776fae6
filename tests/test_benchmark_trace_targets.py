"""The benchmark's trace wraps froblab's functions by name from outside the
library; a renamed or deleted target would only fail under ``--trace 1``.
This installs the tracer on a fresh import and checks every target, and the
content keys it reads off the arguments of Groebner builds."""

TARGET_COUNT = 36


def test_every_trace_target_is_wrapped_and_restored(bench):
    _, spans, api = bench
    places = []
    for targets in spans.TARGETS.values():
        for place in targets:
            owner = api.modules[place[0]]
            if len(place) == 3:
                owner = getattr(owner, place[1])
            places.append((owner, place[-1], owner.__dict__[place[-1]]))
    assert len(places) == TARGET_COUNT

    tracer = spans.Tracer(api.modules)
    tracer.install()
    try:
        assert len(tracer._saved) == TARGET_COUNT
        for owner, attr, original in places:
            assert owner.__dict__[attr].__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in places:
        assert owner.__dict__[attr] is original, attr


def test_build_keys_read_the_ring_order_and_generators(bench):
    """``Tracer.build_keys`` takes a build's order from its positional
    arguments, so an order passed by keyword would be keyed as the ring's
    own.  A grevlex sum on a lex ring, seeded with a summand's basis, and a
    ``buchberger`` call in grevlex must both key as grevlex."""
    _, spans, api = bench
    F = api.froblab
    ring = F.PolyRing(5, ("x", "y", "z"), F.LEX)
    X = F.Ideal(ring, (ring.parse("x^2 - y*z"),))
    Y = F.Ideal(ring, (ring.parse("y^2 - x*z"), ring.parse("0"), ring.parse("z^3 - x")))
    X.groebner_basis(F.GREVLEX)
    gens = (ring.parse("x*y - z"), ring.parse("y^3 - x"))
    with spans.Tracer(api.modules) as tracer:
        (X + Y).groebner_basis(F.GREVLEX)
        F.buchberger(gens, F.GREVLEX)
    nonzero = tuple(g for g in X.generators + Y.generators if not g.is_zero)
    assert tracer.build_keys() == [(ring, F.GREVLEX, nonzero), (ring, F.GREVLEX, gens)]


def test_closure_targets_are_builds_keyed_by_their_full_generators(bench):
    """The closure test on the cubic cone x^3 + y^3 + z^3 at p = 7 with
    parameters (x, y), e_max = 2: the socle z^2 has degree 2, above the
    parameters' degree, so each target defining + (x, y)^[q] is built, and
    the trace records that build as a ``groebner.build`` span keyed by the
    target's full generator list, the seed's part included."""
    _, spans, api = bench
    F = api.froblab
    ring = F.PolyRing(7, ("x", "y", "z"))
    defining = F.Ideal(ring, (ring.parse("x^3 + y^3 + z^3"),))
    parameter = F.Ideal(ring, (ring.parse("x"), ring.parse("y")))
    Q = F.QuotientPresentation(ring, defining)

    with spans.Tracer(api.modules) as tracer:
        Q.frobenius_closure_test(parameter, e_max=2)
    keys = tracer.build_keys()
    targets = [
        (ring, F.GREVLEX, defining.generators + parameter.bracket_power(e).generators)
        for e in (1, 2)
    ]
    assert len(keys) == 5
    assert [key for key in keys if key in targets] == targets

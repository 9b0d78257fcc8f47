"""A seeded corpus of mutated circuit texts: each one either fails to
parse with diagnostics or gives a graph that every pass accepts."""

import genutil
from fabric_est import (
    Method,
    ParseError,
    canonicalize,
    compute,
    lower_gates,
    paper_default,
    parse,
    print_circuit,
    sectionize,
    validate,
)
from fabric_est.syntax import MAX_DIAGNOSTICS


def test_mutated_texts_parse_or_fail_cleanly():
    config, costs = paper_default()
    accepted = 0
    for text in genutil.mutation_corpus(seed=1, count=2000):
        try:
            g = parse(text)
        except ParseError as exc:
            assert 0 < len(exc.diagnostics) <= MAX_DIAGNOSTICS, text
            continue
        accepted += 1
        assert validate(g) == [], text
        printed = print_circuit(g)
        h = parse(printed)
        assert genutil.isomorphic(g, h), text
        assert print_circuit(h) == printed, text
        sectioned, _ = sectionize(g, config.usable_fcs_per_chip, costs)
        for out in (g, lower_gates(g), canonicalize(g), sectioned):
            assert validate(out) == [], text
            for method in Method:
                compute(out, method, config.unit_time_per_gate)
    # About a fifth of the corpus parses; far fewer would test little.
    assert accepted >= 300

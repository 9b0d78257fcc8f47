"""A seeded corpus of mutated circuit texts: each one either fails to
parse with diagnostics or gives a graph that every pass accepts.

One sha256 pins every parse outcome of the corpus: which texts parse,
and every diagnostic of the others with its message, line, column,
length and order.  When a change is meant to alter a diagnostic, print
the new hash and counts with `PYTHONPATH=src python tests/test_corpus.py`
and say why in the commit."""

import hashlib

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

# Texts with lexer errors past the point where the parser stops; the
# lexer's diagnostics come first all the same.
MULTI_ERROR_TEXTS = (
    # a fatal header error, then lexer errors further on
    "func f() -> {\n  return :\n}\n# $\n",
    # more lexer errors past a fatal header error than the cap holds
    "func @f(%a: !lwe -> !lwe {\n  return %a : !lwe\n}\n" + "#\n" * 25,
    # statement errors the parser recovers from, then lexer errors after
    # the body: together past the cap
    "func @f(%a: !lwe) -> !lwe {\n" + "  %x = : !lwe\n" * 15
    + "  return %a : !lwe\n}\n" + "$ " * 10,
    # a lexer error before and after a fatal parser error
    "func @f(%a: !lwe) -> !lwe # {\n  %b = scifr_bool.not %a : !lwe\n"
    "  return %b : !lwe ]\n} ?\n",
    # trailing input after the body, then a lexer error
    "func @f() -> {\n  return :\n} func ~\n",
    # the body never closes, with lexer and parser errors on each line
    "func @f(%a: !lwe) -> !lwe {\n" + "  %x = : !lwe &\n" * 12,
)

# sha256 of every parse outcome, texts that parse, texts that fail
OUTCOMES = ("a65a2bd222f9f5fecf50c9facea6c98720f6df28a14ae14c86ff683548d46739", 377, 1629)


def corpus():
    yield from genutil.mutation_corpus(seed=1, count=2000)
    yield from MULTI_ERROR_TEXTS


def outcomes() -> tuple[str, int, int]:
    digest = hashlib.sha256()
    parsed = failed = 0
    for text in corpus():
        try:
            parse(text)
        except ParseError as exc:
            failed += 1
            for d in exc.diagnostics:
                span = d.span
                digest.update(f"{span.line}:{span.column}:{span.length}: {d.message}\n".encode())
            digest.update(b"fails\n")
        else:
            parsed += 1
            digest.update(b"parses\n")
    return digest.hexdigest(), parsed, failed


def test_every_parse_outcome_is_unchanged():
    assert outcomes() == OUTCOMES


def test_mutated_texts_parse_or_fail_cleanly():
    config, costs = paper_default()
    accepted = 0
    for text in corpus():
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


if __name__ == "__main__":
    digest, parsed, failed = outcomes()
    print(f"OUTCOMES = ({digest!r}, {parsed}, {failed})")
    print(f"{parsed} texts parse, {failed} fail")

"""Run one ``tokipona`` CLI call and write where its time went.

Usage: python perfbench/cli_probe.py OUT.json ARG...

Equivalent to ``python -m tokipona.cli ARG...``, except that it times the
import of ``tokipona.cli`` and ``main``, wraps ``load_lexicon`` and, for
``wordnet build``, ``load_wordnet_db`` and ``build_mapping``, and then
writes the spans (name, start, end, parent) to OUT.json.  The times come
from ``time.perf_counter``, the system-wide monotonic clock, so the caller
can place them inside its own spans.
"""

import sys
import time

spans = []  # [name, start, end, parent index or -1]


def _span(name, t0, t1, parent=-1):
    spans.append([name, t0, t1, parent])
    return len(spans) - 1


def _wrap(module, attr, name, parent, calls=None):
    """Replace module.attr by a timed wrapper; return the original."""
    inner = getattr(module, attr)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = inner(*args, **kwargs)
        _span(name, t0, time.perf_counter(), parent)
        if calls is not None:
            calls.append(args)
        return result

    setattr(module, attr, wrapper)
    return inner


def main() -> int:
    import json

    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import tokipona.cli as cli
    from tokipona import wordnet

    _span("cli.import", t0, time.perf_counter())
    main_index = _span("cli.main", 0.0, 0.0)
    _wrap(cli, "load_lexicon", "lexicon.load_lexicon", main_index)
    build = argv[:2] == ["wordnet", "build"]
    calls = []
    if build:
        _wrap(wordnet, "load_wordnet_db", "wordnet.load_wordnet_db", main_index)
        build_mapping = _wrap(wordnet, "build_mapping", "wordnet.build_mapping.all",
                              main_index, calls)
    t0 = time.perf_counter()
    code = cli.main(argv)
    spans[main_index][1:3] = [t0, time.perf_counter()]
    sys.stdout.flush()
    if build and calls:
        # The CLI builds one mapping per call; time the other modes on the
        # same database, outside main.
        lex, db, _mode = calls[0]
        for mode in (wordnet.MappingMode.NO_PREPOSITIONS, wordnet.MappingMode.MATCHED_POS):
            t0 = time.perf_counter()
            build_mapping(lex, db, mode)
            _span(f"wordnet.build_mapping.{mode.value}", t0, time.perf_counter())
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

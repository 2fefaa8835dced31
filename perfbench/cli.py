"""Workload ``cli``: serial ``python -m tokipona.cli`` calls, one at a time.

A pass makes one light call per subcommand (stats, syllabify, validate,
count, parse, tag, synth, highlight render, wordnet relations) and one
``wordnet build`` against a generated database the size of WordNet 3.0.
Interpreter start, import and ``load_lexicon`` dominate the light calls;
``load_wordnet_db`` dominates the build call.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    HERE,
    ROOT,
    SGR_RE,
    TOKEN_RE,
    Outcome,
    PassSample,
    Stopwatch,
    child_env,
    lexicon_rows,
    lexicon_words,
)
from spans import OFF
from wndb import write_wndb

SETUP_EXTRA = ""
HELD_BACK_SHARE = 0.1
EXPECTED = json.loads((HERE / "expected" / "cli.json").read_text("utf-8"))


class Cli:
    def __init__(self, seed: int, smoke: bool):
        self.rng = random.Random(seed)
        self.work = HERE / ".work" / f"cli-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        rows = lexicon_rows()
        self.words = lexicon_words()
        self.content = sorted(s for s, tags, _ in rows if tags != {"PARTICLE"})
        text = (HERE / "data" / "document.txt").read_text("utf-8")
        self.sentences = [l for l in text.splitlines() if l.strip()]
        held_back, self.synsets = write_wndb(
            self.work / "wndb", {g for _, _, gl in rows for g in gl}, seed,
            HELD_BACK_SHARE, scale=0.01 if smoke else 1.0)
        # A lemma whose tags are only PRE or PARTICLE has no WordNet class to
        # look in, so all of its glosses stay unresolved too.
        self.expected_gaps = sorted(
            f"{surface}\t{g}" for surface, tags, glosses in rows if tags != {"PARTICLE"}
            for g in glosses if g in held_back or tags <= {"PRE", "PARTICLE"})
        self.passes = 0
        self.build_report: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- the calls and their checks -------------------------------------------

    def _light_calls(self):
        """(name, argv, check) per light call; arguments vary by seed and pass."""
        rng, n = self.rng, self.passes
        stats = (["stats", "--table", "pos"], ["stats", "--table", "lengths"],
                 ["stats", "--sentence-space", "1,1,1,1"])[n % 3]
        syllables = str(1 + n % 3)
        words = rng.sample(self.content, 3)
        sentence = rng.choice(self.sentences)
        return [
            ("stats", stats, self._check_stats),
            ("syllabify", ["--format", "tsv", "syllabify", *words],
             lambda out: [r.split("\t")[1].replace("-", "") for r in out.splitlines()[1:]] == words),
            ("validate", ["--format", "tsv", "validate", *words],
             lambda out: [r.split("\t")[1] for r in out.splitlines()[1:]] == ["ok"] * 3),
            ("count", ["count", "--syllables", syllables, "--mode", "paper"],
             lambda out: out.strip() == str(EXPECTED["count_paper"][syllables])),
            ("parse", ["--format", "json-lines", "parse", "--lenient", sentence],
             lambda out: len(out.splitlines()) == sum(sentence.count(t) for t in ".!?:")),
            ("tag", ["--format", "tsv", "tag", "--lenient", sentence],
             lambda out: [r.split("\t")[0] for r in out.splitlines()[1:]]
             == TOKEN_RE.findall(sentence)),
            ("synth", ["--seed", str(rng.randrange(10**6)), "synth", "--count", "3"],
             lambda out: len(out.splitlines()) == 3 and all(
                 w in self.words for w in out.replace(".", " ").split())),
            ("highlight", ["highlight", "render", sentence],
             lambda out: SGR_RE.sub("", out) == sentence + "\n"),
            ("wordnet_relations", ["--format", "tsv", "wordnet", "relations"],
             self._check_relations),
        ]

    @staticmethod
    def _check_stats(out: str) -> bool:
        if "\t" not in out and " " not in out.strip():  # the sentence-space count
            return int(out) == EXPECTED["sentence_space_1111"]
        rows = [r.split() for r in out.splitlines()[1:]]
        if rows and rows[-1][0] == "total":
            return [int(x) for x in rows[-1][1:]] == EXPECTED["pos_totals"]
        lengths = {r[0]: int(r[1]) for r in rows}
        return (lengths == EXPECTED["word_lengths"]
                and sum(lengths.values()) == EXPECTED["lexicon_total"])

    @staticmethod
    def _check_relations(out: str) -> bool:
        kinds = [r.split("\t")[0] for r in out.splitlines()[1:]]
        return {k: kinds.count(k) for k in set(kinds)} == EXPECTED["relations"]

    def _check_build(self, out: str) -> bool:
        report = dict(l.split(": ", 1) for l in out.splitlines() if ": " in l)
        self.build_report = report
        coverage = self.work / "coverage.txt"
        gaps = sorted(coverage.read_text("utf-8").splitlines()) if coverage.is_file() else None
        coverage.unlink(missing_ok=True)
        return (report.get("database synsets") == str(self.synsets)
                and report.get("unresolved glosses") == str(len(self.expected_gaps))
                and gaps == self.expected_gaps)

    # -- one pass -------------------------------------------------------------

    def _call(self, name, argv, rec, watch: Stopwatch, probe_out: Path):
        if rec is OFF:
            cmd = [sys.executable, "-m", "tokipona.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_probe.py"), str(probe_out), *argv]
        with watch:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)
            t1 = time.perf_counter()
        main_ms = 0.0
        if rec is not OFF and probe_out.is_file():
            call = rec.add(f"cli.call.{name}", t0, t1)
            index = []
            for span_name, start, end, parent in json.loads(probe_out.read_text("utf-8")):
                index.append(rec.add(span_name, start, end, index[parent] if parent >= 0 else call))
                if span_name == "cli.main":
                    main_ms = (end - start) * 1e3
            probe_out.unlink()
        return proc, main_ms

    def one_pass(self, rec, outcome: Outcome, watch: Stopwatch) -> PassSample:
        sample = PassSample()
        probe_out = self.work / "probe.json"
        calls = self._light_calls()
        build = ["wordnet", "build", "--db", str(self.work / "wndb"),
                 "--coverage", str(self.work / "coverage.txt")]
        calls.append(("wordnet_build", build, self._check_build))
        self.passes += 1
        since = 0 if rec is OFF else len(rec.spans)
        for name, argv, check in calls:
            proc, main_ms = self._call(name, argv, rec, watch, probe_out)
            if rec is not OFF:
                sample.layers[f"cli.main_ms.{name}"] = main_ms
            try:
                good = proc.returncode == 0 and check(proc.stdout)
            except (ValueError, IndexError, KeyError):
                good = False
            if not good:
                outcome.fail(f"{' '.join(argv[:4])}: exit {proc.returncode}, "
                             f"{(proc.stdout + proc.stderr)[:80]!r}", wrong=True)
                continue
            outcome.ok()
            if name == "wordnet_build":
                sample.heavy_s = watch.seconds
            else:
                sample.items += 1
                sample.busy_s += watch.seconds
                sample.calls_ms.append(watch.scaled * 1e3)
        if rec is not OFF:
            def ms(name):
                d = rec.durations(name, since)
                return statistics.median(d) * 1e3 if d else 0.0

            sample.layers.update({
                "cli.import_ms": ms("cli.import"),
                "lexicon.load_lexicon_ms": ms("lexicon.load_lexicon"),
                "wordnet.load_wordnet_db_s": ms("wordnet.load_wordnet_db") / 1e3,
                "wordnet.synsets": float(self.build_report.get("database synsets", 0)),
                "wordnet.unresolved_glosses": float(self.build_report.get("unresolved glosses", 0)),
            })
            for mode in ("all", "noprep", "matched"):
                sample.layers[f"wordnet.build_mapping_ms.{mode}"] = ms(f"wordnet.build_mapping.{mode}")
        return sample

    def layer_setup(self, rec) -> dict[str, float]:
        """Interpreter start on its own: ``python -c pass``."""
        for _ in range(5):
            with rec.span("cli.python_startup"):
                subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        return {"cli.python_startup_ms": statistics.median(rec.durations("cli.python_startup")) * 1e3}

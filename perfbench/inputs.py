"""Seeded input generator for the benchmark.

Everything here is self-contained: the generator is the benchmark's own
SplitMix64 and imports nothing from ``t2tbio``, so a change to the package's
random streams can never change the benchmark's inputs. The same seed gives
byte-identical files; different seeds give different ones.

It writes a synthetic unlabeled corpus (one 120-word document per line, with
a Zipfian pseudo-biomedical lexicon) and five raw task files in the formats the
``t2tbio.data_io`` readers accept: CoNLL BIO (ner), TSV (rel, nli, doc) and
factoid QA JSON (qa).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1

TASKS = ("ner", "rel", "nli", "doc", "qa")
REL_LABELS = ("activation", "inhibition", "none")
# document labels (short names for the hallmarks of cancer) and the cue words that signal them
DOC_TOPICS = {
    "proliferation": ("autocrine", "mitogenic"),
    "growth suppression": ("antigrowth", "unchecked"),
    "cell death": ("apoptosis", "survival"),
    "immortality": ("telomerase", "immortal"),
    "angiogenesis": ("vasculature", "angiogenic"),
    "metastasis": ("invasive", "metastatic"),
    "immune escape": ("immune", "escape"),
}
_REL_TRIGGERS = {"activation": "activates", "inhibition": "inhibits", "none": "accompanies"}
_QA_VERBS = ("regulates", "binds", "cleaves", "stabilizes")
CORPUS_LINE_WORDS = 120  # one document per line, all of the same length

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "cl", "gl", "pr", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "y", "ae", "io")
_CODAS = ("", "", "", "n", "r", "s", "l", "x", "th")


class Rng:
    """SplitMix64: the benchmark's private, fully specified stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def random(self) -> float:
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def zipf_index(self, n: int) -> int:
        """Index in [0, n) with probability roughly proportional to 1 / (i + 1)."""
        return min(n - 1, int(math.exp(self.random() * math.log(n + 1))) - 1)

    def fork(self, salt: int) -> "Rng":
        return Rng(self.u64() ^ (salt * 0xD1B54A32D192ED03 & _MASK64))


@dataclass(frozen=True)
class InputSizes:
    """How much text to generate."""

    lexicon_words: int  # distinct corpus words
    corpus_lines: int
    per_task: int  # raw records per task family (twice as many for ner)


def _word(rng: Rng, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(syllables))


def _lexicon(rng: Rng, n: int, lo: int, hi: int) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        w = _word(rng, rng.between(lo, hi))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


class _World:
    """Word lists shared by the corpus and every task family of one seed.

    Task sentences draw on two-syllable words and have a fixed shape per
    family, so output lengths, which set the cost of decoding, vary little
    between seeds; the corpus draws on words of one to four syllables.
    """

    def __init__(self, rng: Rng, sizes: InputSizes):
        self.words = _lexicon(rng, sizes.lexicon_words, 1, 4)
        self.task_words = _lexicon(rng, 200, 2, 2)
        self.genes = [w + str(rng.between(1, 9)) for w in _lexicon(rng, 60, 1, 2)]

    def filler(self, rng: Rng, n: int) -> list[str]:
        return [self.task_words[rng.zipf_index(len(self.task_words))] for _ in range(n)]


def _corpus(world: _World, rng: Rng, lines: int) -> str:
    out = []
    for _ in range(lines):
        out.append(" ".join(world.words[rng.zipf_index(len(world.words))] for _ in range(CORPUS_LINE_WORDS)))
    return "\n".join(out) + "\n"


def _ner(world: _World, rng: Rng, n: int) -> str:
    blocks = []
    for i in range(n):
        words = world.filler(rng, 6)
        tags = ["O"] * len(words)
        for k in range(2):  # two mentions, one of them two words long
            at = rng.below(len(words) + 1)
            span = [rng.choice(world.genes)] + (["receptor"] if k == i % 2 else [])
            words[at:at] = span
            tags[at:at] = ["B-GENE"] + ["I-GENE"] * (len(span) - 1)
        # two adjacent mentions would merge into one span; keep them apart
        for j in range(1, len(tags)):
            if tags[j] == "B-GENE" and tags[j - 1] != "O":
                tags[j] = "I-GENE"
        blocks.append("\n".join(f"{w}\t{t}" for w, t in zip(words, tags)))
    return "\n\n".join(blocks) + "\n"


def _rel(world: _World, rng: Rng, n: int) -> str:
    rows = []
    for i in range(n):
        label = REL_LABELS[i % len(REL_LABELS)]
        a, b = rng.choice(world.genes), rng.choice(world.genes)
        words = world.filler(rng, 2) + [a, _REL_TRIGGERS[label], b] + world.filler(rng, 2)
        rows.append(f"{' '.join(words)}\t{label}")
    return "\n".join(rows) + "\n"


def _nli(world: _World, rng: Rng, n: int) -> str:
    rows = []
    for i in range(n):
        premise = world.filler(rng, 6)
        label = ("entailment", "contradiction", "neutral")[i % 3]
        if label == "entailment":
            start = rng.below(len(premise) - 2)
            hypothesis = premise[start : start + 3]
        elif label == "contradiction":
            hypothesis = ["no"] + premise[:2]
        else:
            hypothesis = world.filler(rng, 3)
        rows.append(f"{' '.join(premise)}\t{' '.join(hypothesis)}\t{label}")
    return "\n".join(rows) + "\n"


def _doc(world: _World, rng: Rng, n: int) -> str:
    rows = []
    topics = sorted(DOC_TOPICS)
    for i in range(n):
        words = world.filler(rng, 8)
        labels: list[str] = []
        while len(labels) < i % 3:  # 0 to 2 labels
            label = rng.choice(topics)
            if label not in labels:
                labels.append(label)
        for label in labels:
            words.insert(rng.below(len(words) + 1), rng.choice(DOC_TOPICS[label]))
        rows.append(f"{' '.join(words)}\t{'|'.join(sorted(labels))}")
    return "\n".join(rows) + "\n"


def _qa(world: _World, rng: Rng, n: int) -> str:
    questions = []
    for i in range(n):
        verb = rng.choice(_QA_VERBS)
        answer = rng.choice(world.genes)
        target = rng.choice(world.task_words)
        support = world.filler(rng, 2) + [answer, verb, target]
        distractor = world.filler(rng, 5)
        snippets = [" ".join(support), " ".join(distractor)]
        if rng.below(2):
            snippets.reverse()
        questions.append(
            {
                "id": f"q{i:05d}",
                "body": f"which gene {verb} {target}",
                "snippets": snippets,
                "exact_answer": [answer],
            }
        )
    return json.dumps({"questions": questions}, indent=1, sort_keys=True) + "\n"


RAW_FILES = {"ner": "ner.conll", "rel": "rel.tsv", "nli": "nli.tsv", "doc": "doc.tsv", "qa": "qa.json"}


def generate(seed: int, sizes: InputSizes) -> dict[str, str]:
    """All input files for one seed, as {file name: text}."""
    root = Rng(seed)
    world = _World(root.fork(1), sizes)
    files = {"corpus.txt": _corpus(world, root.fork(2), sizes.corpus_lines)}
    n = sizes.per_task
    files[RAW_FILES["ner"]] = _ner(world, root.fork(10), 2 * n)
    files[RAW_FILES["rel"]] = _rel(world, root.fork(11), n)
    files[RAW_FILES["nli"]] = _nli(world, root.fork(12), n)
    files[RAW_FILES["doc"]] = _doc(world, root.fork(13), n)
    files[RAW_FILES["qa"]] = _qa(world, root.fork(14), n)
    return files


def write_inputs(out_dir: str, seed: int, sizes: InputSizes) -> dict[str, str]:
    """Write every generated file under ``out_dir``; returns {file name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, text in generate(seed, sizes).items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        paths[name] = path
    return paths

#!/usr/bin/env python3
"""md5 of ``khs compute --format json`` stdout over a fixed corpus.

Usage: python3 scripts/stdout_digests.py [--limit N]

Prints one line ``<input> <char> <theta> <exit> <md5>`` per run, for each
input × (char, theta) in (2, sq1), (0, zero) and (2, zero).  The corpus,
in this order:

* the builtins ``empty``, ``unknot``, ``trefoil``, ``trefoil_mirror``,
  ``hopf``, ``hopf_neg``, ``9_42``, ``torus:3:0`` and ``torus:3:1``
  (``--link NAME``);
* the unlinks ``loops=2`` … ``loops=8`` (``--pd "| loops=n"``);
* braid closures, named ``braid:<strands>:<word>`` with
  ``:rev=<strands>`` when any strand is reversed (``--pd`` with their PD
  code): the two 3-strand words with nonzero Sq¹ in degree 0, then 20
  seeded mixed-sign words on 3–4 strands with 4–9 letters.

``--limit N`` keeps the first N inputs.  Each run is a fresh
``python -m khs`` process on the ``src`` next to this script, so the
byte-identity gate between two checkouts is ``diff`` of this script's
output in each.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from khs.links import braid_closure, serialize_pd  # noqa: E402

BUILTINS = ("empty", "unknot", "trefoil", "trefoil_mirror", "hopf",
            "hopf_neg", "9_42", "torus:3:0", "torus:3:1")
SQ1_WORDS = ((1, 1, -2, 1, -2, -2, -2), (1, -2, -2, 1, 1, -2, 1))
FIELDS = (("2", "sq1"), ("0", "zero"), ("2", "zero"))


def closure(n: int, word, rev=()) -> tuple[str, str]:
    """(name, PD code) of the closure of ``word`` on ``n`` strands."""
    name = f"braid:{n}:" + ",".join(map(str, word))
    if rev:
        name += ":rev=" + ",".join(map(str, rev))
    return name, serialize_pd(braid_closure(n, word, rev))


def seeded_words(count: int = 20, seed: int = 36):
    """``count`` seeded (strands, mixed-sign word, reversed strands)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randrange(1, n)
                for _ in range(rng.randint(4, 9))]
        if min(word) > 0 or max(word) < 0:
            continue
        out.append((n, word,
                    [s for s in range(1, n + 1) if rng.random() < 0.25]))
    return out


def corpus():
    """(input name, ``compute`` source arguments) in corpus order."""
    yield from ((name, ["--link", name]) for name in BUILTINS)
    yield from ((f"loops={n}", ["--pd", f"| loops={n}"])
                for n in range(2, 9))
    for args in [(3, w) for w in SQ1_WORDS] + seeded_words():
        name, pd = closure(*args)
        yield name, ["--pd", pd]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, help="keep the first N inputs")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for k, (name, source) in enumerate(corpus()):
        if args.limit is not None and k >= args.limit:
            break
        for char, theta in FIELDS:
            proc = subprocess.run(
                [sys.executable, "-m", "khs", "compute", *source,
                 "--char", char, "--theta", theta, "--format", "json"],
                env=env, capture_output=True)
            md5 = hashlib.md5(proc.stdout).hexdigest()
            print(name, char, theta, proc.returncode, md5, flush=True)


if __name__ == "__main__":
    main()

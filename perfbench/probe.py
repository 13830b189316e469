"""Set-up probe: what a command pays before its first featurization.

    python perfbench/probe.py <corpus> [<embedding file>]

Imports the CLI, then loads and validates the corpus (and the embedding
file, if given). The harness times this process from launch to exit.
"""

import sys

import threadwalk.cli  # noqa: F401  (the import is part of the measured cost)
from threadwalk.corpus import load_corpus
from threadwalk.embeddings import load_external_embeddings

if __name__ == "__main__":
    load_corpus(sys.argv[1])
    if len(sys.argv) > 2:
        load_external_embeddings(sys.argv[2])

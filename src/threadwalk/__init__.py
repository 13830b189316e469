"""Context-aware classification of threaded discussions.

The toolkit samples the global context of a conversation with biased
root-seeking walks over the reply tree, discounts sampled nodes by their
walk position, concatenates the point-of-interest embedding with the
aggregated context, and trains a softmax classifier for reply-polarity
prediction or hate-speech detection.

The names below are the entry points; everything else lives in the
submodules listed in the README's package map.
"""

from .corpus import load_corpus, save_corpus
from .errors import ConfigError, ThreadwalkError
from .evaluation import EvalReport, evaluate, split_trees
from .pipeline import (
    RunConfig,
    ablate_concat,
    grid_search,
    read_manifest,
    run_pipeline,
    write_manifest,
)
from .synthetic import CorpusSpec, generate
from .tree import CommentNode, DiscussionTree, build_tree

__version__ = "0.1.0"

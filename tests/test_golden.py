"""Byte-identity guard: every subcommand's files on fixed small corpora.

The digests below pin the exact bytes the CLI writes for a 60-tree hate
corpus (seed 3, 5 epochs, d=32), and for a 60-tree polarity corpus (seed 3)
featurized with hashed bag-of-words and with an external embedding file. A
refactor that changes any output, even in the last digit of a float, fails
here and names the file.
"""

import hashlib

import numpy as np
import pytest

from threadwalk.cli import main
from threadwalk.corpus import load_corpus
from threadwalk.embeddings import save_external_embeddings

FLAGS = ["--task", "hate", "--seed", "3", "--epochs", "5", "--bow-dim", "32"]

GOLDEN = {
    "corpus.jsonl": "96e9440d80a4ba8b1d3ce3325943c7d4558c88150ac0fd72df9679ca9b2ea7c4",
    "run/metrics.json": "7e173fd88a312f5ff1a560a11f0e7f4a3f1cc8b984999991ed306d89e3d48933",
    "run/model.txt": "7c5ec001156458f1f676e2fa0b03a30004655d0f809347c9030eaef6bf1497dc",
    "run/report.txt": "65f06c79ac72ab6f5543841cf1c46f0a575d8ad0f60a5bea1ab0c238aa9402fc",
    "run/manifest.json": "48f50bf77ac2d7dd05da92e7cce3d5757cc1e62c6989bf0e4cb2f39723cd4091",
    "run/features.jsonl": "913a40bc8245f82704f86225356e46d086a398b1d32f94e33a0a95ef35e84eae",
    "grid/grid.csv": "baaeb1dab6ac30062f78bf75a375de7de7ff2c4c5dd9194fcfc5bbf869733f58",
    "ablate/ablation.csv": "836e0fff509b601b104379fe199a44d547028572ac5dc4f10caf03c3b6f8107a",
    "errors/errors.jsonl": "bcd15fb5bd7ac45e8c3900cd01270d64f0472c3ec630881c5359a5c6c709cf18",
    "featurize/features.jsonl": "a6a4385c2b6598868d5bfcbaeec65cf7789341203f9bff850c94f5cdb55f1f22",
    "featurize/traces.jsonl": "208ec967c32cd0c6ba9c0bce36adb31bddeedcc267d4093494055726b152e49c",
    "train/model.txt": "7c5ec001156458f1f676e2fa0b03a30004655d0f809347c9030eaef6bf1497dc",
    "train/manifest.json": "48f50bf77ac2d7dd05da92e7cce3d5757cc1e62c6989bf0e4cb2f39723cd4091",
    "evaluate/report.txt": "65f06c79ac72ab6f5543841cf1c46f0a575d8ad0f60a5bea1ab0c238aa9402fc",
    "evaluate/metrics.json": "f7366847df174811e99f544ecc9f1c01414479131b83e75313624b913044bc7c",
    # Polarity corpus. The external run's manifest and metrics.json hold the
    # embedding file's temporary path, so only its path-free files are pinned.
    "polarity/run/metrics.json": "a540e86af9cbb5dfff14467df39ef289e1ca603d89f2c3a45ce4a03ae204ddd0",
    "polarity/run/manifest.json": "8eaffe605c675deed90ec3e34c5eb2902d9052ec86bd46fd2bf8ced366e33dae",
    "polarity/run/model.txt": "59bd22ccad4bf9fc2178c30ad840ebc87811327945705a2d02f641e195e7e7e7",
    "polarity/run/report.txt": "ac6cd27313f1f26d64387fe701ca0faa2f6aba8ebb4f09df859de03b7b5a7fb8",
    "polarity/run/features.jsonl": "2c2af18cb7c123b2d384944e1af29b4230c186b009ff246a5f35e71b01db2db5",
    "polarity/external/model.txt": "89a9528e515c8a5c5d506464d1a6e4ff064fa6944b3a52ef224b8adc0cbfd3f7",
    "polarity/external/report.txt": "b05f32e3841757413a8a59269eb01149ae23d72a86fbb2759142afa4c22e6b0c",
    "polarity/external/features.jsonl": "84239113f532fa54175c3a1fecb476bc2716d34c1bcbfa9ed84f01c2f6758b09",
    "polarity/featurize/features.jsonl": "a634dd1f24e7d25d4da8aa9e09cba474c0b85cc144f05d61720f8bf9fd1762d5",
    "polarity/featurize/traces.jsonl": "1d3bd1a447536784f450b821bbc573ebe2a58f8e58182123e12579a16a7071d5",
}


def golden_outputs(root):
    """Run every subcommand under ``root``; return {relative path: sha256}."""
    corpus = root / "corpus.jsonl"
    commands = [
        ["generate", "--output", str(corpus), "--task", "hate", "--num-trees", "60",
         "--seed", "3"],
        ["run", "--corpus", str(corpus), "--out", str(root / "run"), "--dump-features"],
        ["grid-search", "--corpus", str(corpus), "--out", str(root / "grid"),
         "--p-values", "0.5,1.0", "--gamma-values", "0.0,0.8", "--seeds", "0,1",
         "--jobs", "1"],
        ["ablate-concat", "--corpus", str(corpus), "--out", str(root / "ablate"),
         "--seeds", "0,1"],
        ["error-analysis", "--corpus", str(corpus), "--model", str(root / "run/model.txt"),
         "--out", str(root / "errors")],
        ["featurize", "--corpus", str(corpus), "--output", str(root / "featurize/features.jsonl"),
         "--traces", str(root / "featurize/traces.jsonl")],
        ["train", "--corpus", str(corpus), "--out", str(root / "train")],
        ["evaluate", "--corpus", str(corpus), "--model", str(root / "train/model.txt"),
         "--out", str(root / "evaluate")],
    ]
    (root / "featurize").mkdir()
    for argv in commands:
        extra = FLAGS if argv[0] != "generate" else []
        assert main(argv + extra) == 0, argv
    polarity_outputs(root / "polarity")
    return {
        name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in GOLDEN
    }


def polarity_outputs(root):
    """Polarity runs: hashed bag-of-words, an external embedding file with
    seeded random vectors, and featurize with walk traces."""
    corpus = root / "corpus.jsonl"
    embeddings = root / "embeddings.txt"
    (root / "featurize").mkdir(parents=True)
    argv = ["generate", "--output", str(corpus), "--task", "polarity", "--num-trees", "60"]
    assert main(argv + ["--seed", "3"]) == 0
    rng = np.random.default_rng(3)
    node_ids = [node.id for tree in load_corpus(corpus) for node in tree]
    save_external_embeddings({nid: rng.standard_normal(16) for nid in node_ids}, embeddings)
    flags = ["--task", "polarity", "--seed", "3", "--epochs", "5", "--bow-dim", "32"]
    commands = [
        ["run", "--corpus", str(corpus), "--out", str(root / "run"), "--dump-features"],
        ["run", "--corpus", str(corpus), "--out", str(root / "external"), "--dump-features",
         "--embedding", "external", "--embedding-file", str(embeddings)],
        ["featurize", "--corpus", str(corpus), "--output", str(root / "featurize/features.jsonl"),
         "--traces", str(root / "featurize/traces.jsonl")],
    ]
    for argv in commands:
        assert main(argv + flags) == 0, argv


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(digests, name):
    assert digests[name] == GOLDEN[name]

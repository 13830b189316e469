"""Byte-identity guard: every subcommand's files on one fixed small corpus.

The digests below pin the exact bytes the CLI writes for a 60-tree hate
corpus (seed 3, 5 epochs, d=32). A refactor that changes any output, even
in the last digit of a float, fails here and names the file.
"""

import hashlib

import pytest

from threadwalk.cli import main

FLAGS = ["--task", "hate", "--seed", "3", "--epochs", "5", "--bow-dim", "32"]

GOLDEN = {
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
    return {
        name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in GOLDEN
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(digests, name):
    assert digests[name] == GOLDEN[name]

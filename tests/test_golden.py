"""Byte-identity guard: every subcommand's files on fixed small corpora.

The digests below pin the exact bytes the CLI writes for a 60-tree hate
corpus (seed 3, 5 epochs, d=32), and for a 60-tree polarity corpus (seed 3)
featurized with hashed bag-of-words and with an external embedding file,
plus what ``generate`` and ``validate`` print for both corpora. A refactor
that changes any output, even in the last digit of a float, fails here and
names the file. The order of a corpus file's records changes no output
either, as long as each tree keeps the order of its own records.
"""

import contextlib
import ctypes
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from threadwalk.cli import main
from threadwalk.corpus import load_corpus
from threadwalk.embeddings import save_external_embeddings

FLAGS = ["--task", "hate", "--seed", "3", "--epochs", "5", "--bow-dim", "32"]

GOLDEN = {
    "corpus.jsonl": "96e9440d80a4ba8b1d3ce3325943c7d4558c88150ac0fd72df9679ca9b2ea7c4",
    "run/metrics.json": "7e173fd88a312f5ff1a560a11f0e7f4a3f1cc8b984999991ed306d89e3d48933",
    "run/model.txt": "93ad18a9f7a9a60aba9f7adb0d95b4dbb5f760fa309edc31e817096d3609eac2",
    "run/report.txt": "65f06c79ac72ab6f5543841cf1c46f0a575d8ad0f60a5bea1ab0c238aa9402fc",
    "run/manifest.json": "48f50bf77ac2d7dd05da92e7cce3d5757cc1e62c6989bf0e4cb2f39723cd4091",
    "run/features.jsonl": "913a40bc8245f82704f86225356e46d086a398b1d32f94e33a0a95ef35e84eae",
    "grid/grid.csv": "baaeb1dab6ac30062f78bf75a375de7de7ff2c4c5dd9194fcfc5bbf869733f58",
    "ablate/ablation.csv": "836e0fff509b601b104379fe199a44d547028572ac5dc4f10caf03c3b6f8107a",
    "errors/errors.jsonl": "bcd15fb5bd7ac45e8c3900cd01270d64f0472c3ec630881c5359a5c6c709cf18",
    "featurize/features.jsonl": "a6a4385c2b6598868d5bfcbaeec65cf7789341203f9bff850c94f5cdb55f1f22",
    "featurize/traces.jsonl": "208ec967c32cd0c6ba9c0bce36adb31bddeedcc267d4093494055726b152e49c",
    "train/model.txt": "93ad18a9f7a9a60aba9f7adb0d95b4dbb5f760fa309edc31e817096d3609eac2",
    "train/manifest.json": "48f50bf77ac2d7dd05da92e7cce3d5757cc1e62c6989bf0e4cb2f39723cd4091",
    "evaluate/report.txt": "65f06c79ac72ab6f5543841cf1c46f0a575d8ad0f60a5bea1ab0c238aa9402fc",
    "evaluate/metrics.json": "f7366847df174811e99f544ecc9f1c01414479131b83e75313624b913044bc7c",
    # Polarity corpus. The external run's manifest and metrics.json hold the
    # embedding file's temporary path, so only its path-free files are pinned.
    "polarity/run/metrics.json": "a540e86af9cbb5dfff14467df39ef289e1ca603d89f2c3a45ce4a03ae204ddd0",
    "polarity/run/manifest.json": "8eaffe605c675deed90ec3e34c5eb2902d9052ec86bd46fd2bf8ced366e33dae",
    "polarity/run/model.txt": "7c581c6e7241fa7dbff89df735fc322f97002684526733399ed5395f9002ee24",
    "polarity/run/report.txt": "ac6cd27313f1f26d64387fe701ca0faa2f6aba8ebb4f09df859de03b7b5a7fb8",
    "polarity/run/features.jsonl": "2c2af18cb7c123b2d384944e1af29b4230c186b009ff246a5f35e71b01db2db5",
    "polarity/external/model.txt": "8f3d459d3a40a303a587cf6616e666c753f52f243ce6c26d7ff847bec50554ec",
    "polarity/external/report.txt": "b05f32e3841757413a8a59269eb01149ae23d72a86fbb2759142afa4c22e6b0c",
    "polarity/external/features.jsonl": "84239113f532fa54175c3a1fecb476bc2716d34c1bcbfa9ed84f01c2f6758b09",
    "polarity/featurize/features.jsonl": "a634dd1f24e7d25d4da8aa9e09cba474c0b85cc144f05d61720f8bf9fd1762d5",
    "polarity/featurize/traces.jsonl": "1d3bd1a447536784f450b821bbc573ebe2a58f8e58182123e12579a16a7071d5",
}

# What ``generate`` and ``validate`` print, with the output root spelled ROOT.
PRINTED = {
    "stdout/generate.txt": "2368a1a511ba9a2105e17a2aaa025cfde203b9214aa4c90815ddb09d52c85e73",
    "stdout/validate.txt": "4d952ea4c8060453aa84086ef047d914280776e4ceedffb48ad40a4295cfa3d2",
    "polarity/stdout/generate.txt": "3df4bc19588e4f9152d6d8513987f9a14b636da482c8406c6a2715aab7f82c23",
    "polarity/stdout/validate.txt": "0c2aa6ebb72b3fb509db6218eda7db862b306bd8009ee06317751e80f621754b",
}


def printed(root, argv, name):
    """Run one command; keep its stdout as ``root / name``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0, argv
    (root / name).parent.mkdir(parents=True, exist_ok=True)
    (root / name).write_text(buffer.getvalue().replace(str(root), "ROOT"))


def golden_outputs(root):
    """Run every subcommand under ``root``; return {relative path: sha256}."""
    corpus = root / "corpus.jsonl"
    printed(root, ["generate", "--output", str(corpus), "--task", "hate", "--num-trees",
                   "60", "--seed", "3"], "stdout/generate.txt")
    printed(root, ["validate", str(corpus)], "stdout/validate.txt")
    commands = [
        ["run", "--corpus", str(corpus), "--out", str(root / "run"), "--dump-features"],
        ["grid-search", "--corpus", str(corpus), "--out", str(root / "grid"),
         "--p-values", "0.5,1.0", "--gamma-values", "0.0,0.8", "--seeds", "0,1",
         "--jobs", "1"],
        ["ablate-concat", "--corpus", str(corpus), "--out", str(root / "ablate"),
         "--seeds", "0,1"],
        ["featurize", "--corpus", str(corpus), "--output", str(root / "featurize/features.jsonl"),
         "--traces", str(root / "featurize/traces.jsonl")],
        ["train", "--corpus", str(corpus), "--out", str(root / "train")],
    ]
    (root / "featurize").mkdir()
    for argv in commands:
        assert main(argv + FLAGS) == 0, argv
    # These two read the settings from the model file, so they take no FLAGS.
    for argv in (
        ["error-analysis", "--corpus", str(corpus), "--model", str(root / "run/model.txt"),
         "--out", str(root / "errors")],
        ["evaluate", "--corpus", str(corpus), "--model", str(root / "train/model.txt"),
         "--out", str(root / "evaluate")],
    ):
        assert main(argv) == 0, argv
    polarity_outputs(root / "polarity")
    return {
        name: hashlib.sha256((root / name).read_bytes()).hexdigest()
        for name in {**GOLDEN, **PRINTED}
    }


def polarity_outputs(root):
    """Polarity runs: hashed bag-of-words, an external embedding file with
    seeded random vectors, and featurize with walk traces."""
    corpus = root / "corpus.jsonl"
    embeddings = root / "embeddings.txt"
    (root / "featurize").mkdir(parents=True)
    argv = ["generate", "--output", str(corpus), "--task", "polarity", "--num-trees", "60"]
    printed(root, argv + ["--seed", "3"], "stdout/generate.txt")
    printed(root, ["validate", str(corpus)], "stdout/validate.txt")
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


def machine() -> str:
    """What a float digest may depend on beside the code: the numpy version,
    the OpenBLAS core numpy's bundled library runs on (``unknown`` if it
    cannot be asked) and numpy's enabled CPU features."""
    core = "unknown"
    package = Path(np.__file__).parent
    libraries = [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]
    for path in sorted(libraries):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
        break
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
    features = " ".join(name for name, on in umath.__cpu_features__.items() if on)
    return f"numpy {np.__version__}, OpenBLAS core {core}, CPU features: {features}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(digests, name):
    assert digests[name] == GOLDEN[name], f"{name} differs on {machine()}"


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_printed_output_unchanged(digests, name):
    assert digests[name] == PRINTED[name], f"{name} differs on {machine()}"


def test_record_order_changes_no_output(tmp_path):
    """The hate corpus with its trees reversed and their records dealt out
    round-robin, each tree's records in their order, gives the same files."""
    corpus = tmp_path / "corpus.jsonl"
    argv = ["generate", "--output", str(corpus), "--task", "hate", "--num-trees", "60"]
    assert main(argv + ["--seed", "3"]) == 0
    trees: dict[str, list[str]] = {}
    for line in corpus.read_text().splitlines(keepends=True):
        trees.setdefault(json.loads(line)["tree_id"], []).append(line)
    rounds = itertools.zip_longest(*reversed(trees.values()), fillvalue="")
    dealt = tmp_path / "dealt.jsonl"
    dealt.write_text("".join(itertools.chain(*rounds)))
    assert sorted(dealt.read_text().splitlines()) == sorted(corpus.read_text().splitlines())
    assert dealt.read_text() != corpus.read_text()
    for path, out in ((corpus, tmp_path / "a"), (dealt, tmp_path / "b")):
        (out / "featurize").mkdir(parents=True)
        commands = [
            ["run", "--out", str(out / "run"), "--dump-features"],
            ["featurize", "--output", str(out / "featurize/features.jsonl"),
             "--traces", str(out / "featurize/traces.jsonl")],
            ["grid-search", "--out", str(out / "grid"), "--p-values", "0.5,1.0",
             "--gamma-values", "0.0,0.8", "--seeds", "0,1", "--jobs", "1"],
        ]
        for argv in commands:
            assert main(argv + ["--corpus", str(path), *FLAGS]) == 0, argv
    written = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
    assert len(written) == 9
    for name in written:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), name

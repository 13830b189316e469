"""Pipeline orchestration: runs, manifests, grid search, ablation."""

import concurrent.futures
import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from threadwalk.errors import ConfigError
from threadwalk import pipeline
from threadwalk.evaluation import EvalReport
from threadwalk.features import CorpusSide, featurize_split
from threadwalk.pipeline import (
    LOCKSTEP_CAP,
    MANIFEST_FORMAT,
    MAX_BOW_DIM,
    MAX_EPOCHS,
    MAX_STEP_CAP,
    MAX_WALK_LENGTH,
    RunConfig,
    SeedAverage,
    ablate_concat,
    ablation_csv,
    average_over_seeds,
    best_cell,
    feature_dump_lines,
    grid_csv,
    grid_search,
    read_manifest,
    replicate,
    split_sides,
    write_manifest,
)
from threadwalk.synthetic import CorpusSpec, generate

SMALL_CONFIG = RunConfig(
    task="hate",
    p=0.8,
    gamma=0.8,
    epochs=10,
    bow_dim=64,
    class_weighting=True,
    seed=3,
)

# Settings RunConfig.validate rejects, each with its message.
VALIDATION_CASES = [
    ({"task": "stance"}, "task must be one of ('polarity', 'hate'), got 'stance'"),
    ({"p": 1.5}, "p must be in [0, 1], got 1.5"),
    ({"gamma": -0.2}, "gamma must be in [0, 1], got -0.2"),
    ({"walk_length": 0}, "walk length L must be >= 1, got 0"),
    ({"step_cap": 1}, "step_cap must be >= L - 1, got 1"),
    ({"bow_dim": 0}, f"bow_dim must be in [1, {MAX_BOW_DIM}], got 0"),
    ({"bow_dim": MAX_BOW_DIM + 1}, f"bow_dim must be in [1, {MAX_BOW_DIM}], got {MAX_BOW_DIM + 1}"),
    (
        {"aggregation": "maxpool"},
        "aggregation must be one of ('sum', 'average', 'weighted_average'), got 'maxpool'",
    ),
    (
        {"scheme": "uvw"},
        "scheme must be one of ('uv', 'uv_mul', 'uv_absdiff', 'uv_absdiff_mul'), got 'uvw'",
    ),
    ({"embedding": "magic"}, "embedding must be one of ('hashed-bow', 'external'), got 'magic'"),
    ({"split_fraction": 0.0}, "split_fraction must be in (0, 1), got 0.0"),
    ({"epochs": -2}, "epochs must be >= 0, got -2"),
    (
        {"embedding": "external", "embedding_file": None},
        "embedding 'external' needs embedding_file",
    ),
    (
        {"embedding": "external", "embedding_file": "/nonexistent/file.txt"},
        "embedding file not found: /nonexistent/file.txt",
    ),
    ({"p": -0.1}, "p must be in [0, 1], got -0.1"),
    ({"p": 1.1}, "p must be in [0, 1], got 1.1"),
    ({"gamma": 2.0}, "gamma must be in [0, 1], got 2.0"),
    ({"epochs": -1}, "epochs must be >= 0, got -1"),
    ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ({"learning_rate": 0.0}, "learning_rate must be > 0 and finite, got 0.0"),
    ({"l2": -0.1}, "l2 must be >= 0 and finite, got -0.1"),
    ({"momentum": 1.0}, "momentum must be in [0, 1), got 1.0"),
]


@pytest.fixture(scope="module")
def small_corpus():
    spec = CorpusSpec(
        num_trees=80,
        mean_tree_size=8.0,
        positive_fraction=0.25,
        context_signal=0.6,
        seed=21,
        task="hate",
    )
    return generate(spec).trees


class TestRunConfig:
    def test_round_trip(self):
        data = SMALL_CONFIG.to_dict()
        assert RunConfig.from_dict(data) == SMALL_CONFIG

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"tsak": "hate"})

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param(changes, message, id=f"changes{i}")
            for i, (changes, message) in enumerate(VALIDATION_CASES)
        ],
    )
    def test_validation(self, changes, message):
        with pytest.raises(ConfigError) as raised:
            SMALL_CONFIG.replace(**changes).validate()
        assert str(raised.value) == message

    def test_walk_length_floor(self):
        with pytest.raises(ConfigError, match=r"^walk length L must be >= 1, got 0$"):
            SMALL_CONFIG.replace(walk_length=0).validate()
        SMALL_CONFIG.replace(walk_length=1).validate()

    def test_step_cap_floor(self):
        with pytest.raises(ConfigError, match=r"^step_cap must be >= L - 1, got 2$"):
            SMALL_CONFIG.replace(walk_length=4, step_cap=2).validate()
        SMALL_CONFIG.replace(walk_length=4, step_cap=3).validate()
        assert SMALL_CONFIG.replace(walk_length=4).resolved_step_cap == 40
        assert SMALL_CONFIG.replace(walk_length=4, step_cap=3).resolved_step_cap == 3

    def test_bow_dim_limit_is_valid(self):
        SMALL_CONFIG.replace(bow_dim=MAX_BOW_DIM).validate()

    def test_walk_and_epoch_limits_are_valid(self):
        SMALL_CONFIG.replace(
            walk_length=MAX_WALK_LENGTH, step_cap=MAX_STEP_CAP, epochs=MAX_EPOCHS
        ).validate()
        SMALL_CONFIG.replace(walk_length=MAX_WALK_LENGTH, step_cap=None).validate()


class TestRunPipeline:
    def test_feature_dump_line_fields(self, small_corpus):
        side = CorpusSide(small_corpus[:2], SMALL_CONFIG.build_provider(), SMALL_CONFIG.task)
        examples = featurize_split(side, SMALL_CONFIG)
        lines = list(feature_dump_lines(examples))
        assert len(lines) == len(examples)
        record = json.loads(lines[0])
        assert set(record) == {"tree_id", "node_id", "label", "features"}
        assert record["node_id"] == examples.node_ids[0]
        assert record["features"] == examples.X[0].tolist()

    def test_external_embeddings_end_to_end(self, small_corpus, tmp_path):
        from threadwalk.embeddings import hashed_bow_embed, save_external_embeddings

        # stand-in for precomputed sentence embeddings, one row per node id
        table = {
            node.id: hashed_bow_embed(node.text, 24, normalize=True)
            for tree in small_corpus
            for node in tree
        }
        path = tmp_path / "embeddings.txt"
        save_external_embeddings(table, path)
        config = SMALL_CONFIG.replace(embedding="external", embedding_file=str(path))
        (result,) = replicate(*split_sides(small_corpus, config), [config])
        assert result.model.feature_dim == 24 * 3
        assert 0.0 <= result.report.macro_f1 <= 1.0


class TestManifest:
    def test_wrapped_and_bare_forms(self, tmp_path):
        wrapped = tmp_path / "manifest.json"
        write_manifest(SMALL_CONFIG, wrapped, extra={"seeds": [0, 1]})
        config, extras = read_manifest(wrapped)
        assert config == SMALL_CONFIG
        assert extras == {"seeds": [0, 1]}

        bare = tmp_path / "config.json"
        bare.write_text(json.dumps({"task": "hate", "p": 0.5, "seeds": [7]}))
        config, extras = read_manifest(bare)
        assert config.p == 0.5
        assert config.task == "hate"
        assert extras == {"seeds": [7]}

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            read_manifest(path)

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"task": "hate", "walk_lenght": 6}, "walk_lenght"),
            ({"format": MANIFEST_FORMAT, "config": {"task": "hate"}, "sedes": [0]}, "sedes"),
            ({"config": {"task": "hate"}, "p": 0.5}, "'p'"),
            ({"format": MANIFEST_FORMAT, "config": "hate"}, "config must be"),
            ({"config": None, "task": "hate"}, "config must be"),
            ({"format": "threadwalk-manifest-v0", "config": {"task": "hate"}}, "format"),
            ({"format": None, "task": "hate"}, "format"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, payload, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=named):
            read_manifest(path)

    @pytest.mark.parametrize(
        "fields",
        [
            {"p": "0.5"},
            {"epochs": 1.5},
            {"epochs": True},
            {"gamma": False},
            {"class_weighting": 1},
            {"task": 3},
            {"step_cap": 2.0},
            {"embedding_file": 7},
            {"seed": None},
        ],
    )
    @pytest.mark.parametrize("wrapped", [False, True])
    def test_mistyped_field_rejected(self, tmp_path, fields, wrapped):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"config": fields} if wrapped else fields))
        with pytest.raises(ConfigError, match=next(iter(fields))):
            read_manifest(path)

    def test_int_accepted_for_float_and_none_for_optional(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"p": 1, "learning_rate": 2, "step_cap": None}))
        config, _ = read_manifest(path)
        assert (config.p, config.learning_rate, config.step_cap) == (1, 2, None)


def _cell(p, gamma, macro_f1, accuracy):
    return SeedAverage(
        p=p,
        gamma=gamma,
        scheme="uv_absdiff",
        accuracy=accuracy,
        macro_f1=macro_f1,
        precision_pos=0.0,
        recall_pos=0.0,
        precision_macro=0.0,
        recall_macro=0.0,
    )


@pytest.fixture
def in_process_pool(monkeypatch) -> dict:
    """Stands in for ProcessPoolExecutor: records the worker count, the
    chunk size asked for and the mapped tasks, and maps in this process."""
    asked = {"workers": [], "chunksize": [], "tasks": []}

    class InProcessPool:
        def __init__(self, max_workers):
            asked["workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            asked["chunksize"].append(chunksize)
            asked["tasks"].extend(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return asked


class TestGridSearch:
    def test_tie_breaking(self):
        cells = [
            _cell(0.2, 0.4, 0.9, 0.8),
            _cell(0.4, 0.2, 0.9, 0.9),
            _cell(0.2, 0.2, 0.9, 0.9),
            _cell(0.2, 0.0, 0.8, 0.99),
        ]
        # macro-F1 tie at 0.9 -> higher accuracy -> lower p -> lower gamma
        for order in itertools.permutations(cells):
            best = best_cell(order)
            assert (best.p, best.gamma) == (0.2, 0.2)

    def test_single_cell_matches_direct_run(self, small_corpus):
        config = SMALL_CONFIG.replace(p=1.0, gamma=0.8, seed=4)
        (cell,) = grid_search(small_corpus, [1.0], [0.8], config, seeds=[4])
        assert (cell.p, cell.gamma) == (1.0, 0.8)
        (direct,) = replicate(*split_sides(small_corpus, config), [config])
        columns = {"precision_macro": "macro_precision", "recall_macro": "macro_recall"}
        for column in ("accuracy", "macro_f1", "precision_pos", "recall_pos", *columns):
            assert getattr(cell, column) == getattr(direct.report, columns.get(column, column))

    def test_full_cartesian_grid_and_csv(self, small_corpus):
        cells = grid_search(small_corpus, [1.0, 0.5], [0.5, 0.0, 1.0], SMALL_CONFIG, seeds=[0, 1])
        assert [(c.p, c.gamma) for c in cells] == [
            (p, g) for p in (0.5, 1.0) for g in (0.0, 0.5, 1.0)
        ]
        csv = grid_csv(cells)
        lines = csv.strip().split("\n")
        assert lines[0] == (
            "p,gamma,accuracy,macro_f1,precision_pos,recall_pos,precision_macro,recall_macro"
        )
        assert len(lines) == 7
        # mean over seeds, not pooled predictions
        train_side, test_side = split_sides(small_corpus, SMALL_CONFIG)
        cell_config = SMALL_CONFIG.replace(p=1.0, gamma=0.5)
        per_seed = [
            replicate(train_side, test_side, [cell_config.replace(seed=seed)])[0].report
            for seed in (0, 1)
        ]
        (cell,) = [c for c in cells if (c.p, c.gamma) == (1.0, 0.5)]
        assert cell.macro_f1 == pytest.approx(
            sum(r.macro_f1 for r in per_seed) / 2, abs=1e-15
        )

    def test_order_independent_of_jobs(self, small_corpus):
        kwargs = dict(
            trees=small_corpus,
            p_values=[0.5, 1.0],
            gamma_values=[0.2, 0.8],
            config=SMALL_CONFIG,
            seeds=[0],
        )
        serial = grid_search(**kwargs, jobs=1)
        parallel = grid_search(**kwargs, jobs=2)
        assert grid_csv(serial) == grid_csv(parallel)
        best, again = best_cell(serial), best_cell(parallel)
        assert (best.p, best.gamma) == (again.p, again.gamma)

    def test_empty_grid_rejected(self, small_corpus):
        with pytest.raises(ConfigError):
            grid_search(small_corpus, [], [0.5], SMALL_CONFIG, seeds=[0])

    @pytest.mark.parametrize(
        "p_values, jobs, pools",
        [([0.5, 1.0], 5000, [2]), ([0.5, 1.0], 2, [2]), ([0.5], 8, []), ([0.5, 1.0], 1, [])],
    )
    def test_workers_capped_by_cells(self, small_corpus, in_process_pool, p_values, jobs, pools):
        config = SMALL_CONFIG.replace(epochs=1)
        cells = grid_search(small_corpus, p_values, [0.8], config, seeds=[0], jobs=jobs)
        assert len(cells) == len(p_values)
        assert in_process_pool["workers"] == pools
        assert in_process_pool["chunksize"] == [1] * len(pools)  # one cell per worker

    def test_one_task_per_p(self, small_corpus, in_process_pool):
        config = SMALL_CONFIG.replace(epochs=1)
        grid_search(small_corpus, [0.5, 1.0], [0.2, 0.5, 0.8], config, seeds=[0], jobs=4)
        assert in_process_pool["workers"] == [2]
        tasks = [[(c.p, c.gamma) for c in task] for task in in_process_pool["tasks"]]
        assert tasks == [[(p, g) for g in (0.2, 0.5, 0.8)] for p in (0.5, 1.0)]

    def test_walks_sampled_once_per_poi_and_seed(self, small_corpus, sampled_walks):
        config = SMALL_CONFIG.replace(epochs=1)
        grid_search(small_corpus, [0.5], [0.2, 0.5, 0.8], config, seeds=[0, 1])
        assert len(sampled_walks) == 2 * sum(len(tree) for tree in small_corpus)

    def test_walks_sampled_once_per_p_and_seed(self, small_corpus, sampled_walks):
        config = SMALL_CONFIG.replace(epochs=1)
        grid_search(small_corpus, [0.5, 1.0], [0.2, 0.5, 0.8], config, seeds=[0, 1])
        assert len(sampled_walks) == 4 * sum(len(tree) for tree in small_corpus)

    @pytest.mark.parametrize(
        "p_values, gamma_values, seeds, named",
        [
            ([0.5, 1.0, 0.5], [0.5], [0], "p_values .*0.5"),
            ([0.5], [0.0, -0.0], [0], "gamma_values .*0.0"),
            ([0.5], [0.5], [3, 3], "seeds .*3"),
        ],
    )
    def test_repeated_value_rejected(self, small_corpus, p_values, gamma_values, seeds, named):
        with pytest.raises(ConfigError, match=named):
            grid_search(small_corpus, p_values, gamma_values, SMALL_CONFIG, seeds)

    def test_jobs_below_one_rejected(self, small_corpus):
        with pytest.raises(ConfigError, match="jobs"):
            grid_search(small_corpus, [0.5], [0.5], SMALL_CONFIG, seeds=[0], jobs=0)


class TestAblation:
    def test_walks_sampled_once_per_poi_and_seed(self, small_corpus, sampled_walks):
        ablate_concat(small_corpus, SMALL_CONFIG.replace(epochs=1), seeds=[0, 1])
        assert len(sampled_walks) == 2 * sum(len(tree) for tree in small_corpus)

    def test_repeated_seed_rejected(self, small_corpus):
        with pytest.raises(ConfigError, match="seeds .*0"):
            ablate_concat(small_corpus, SMALL_CONFIG, seeds=[0, 1, 0])

    def test_four_rows_in_scheme_order(self, small_corpus):
        rows = ablate_concat(small_corpus, SMALL_CONFIG, seeds=[0, 1])
        assert [r.scheme for r in rows] == ["uv", "uv_mul", "uv_absdiff", "uv_absdiff_mul"]
        again = ablate_concat(small_corpus, SMALL_CONFIG, seeds=[0, 1])
        assert rows == again  # identical seeds and split across reruns
        csv = ablation_csv(rows)
        assert csv.startswith("scheme,accuracy,macro_f1,precision_pos,recall_pos\n")
        assert len(csv.strip().split("\n")) == 5


class TestLockstepGroups:
    GAMMAS = (0.0, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0)
    SCHEMES = ("uv", "uv_mul", "uv_absdiff", "uv_absdiff_mul")

    @pytest.fixture
    def trained_groups(self, monkeypatch) -> list:
        """The number of models of every ``train`` call from the pipeline."""
        sizes = []
        real_train = pipeline.train

        def counted(labels, features, config):
            sizes.append(len(features))
            return real_train(labels, features, config)

        monkeypatch.setattr(pipeline, "train", counted)
        return sizes

    @pytest.mark.parametrize(
        "field, values, groups",
        [("gamma", GAMMAS, [3, 3, 1]), ("scheme", SCHEMES, [1, 2, 1])],
    )
    def test_groups_match_configs_run_alone(
        self, small_corpus, trained_groups, field, values, groups
    ):
        config = SMALL_CONFIG.replace(epochs=3)
        train_side, test_side = split_sides(small_corpus, config)
        configs = [config.replace(**{field: value}) for value in values]
        seeds = (0, 1)
        average_over_seeds(train_side, test_side, configs, seeds)
        assert trained_groups == groups * len(seeds)
        assert max(trained_groups) <= LOCKSTEP_CAP
        # each group trained in lockstep gives what its configs give alone
        bounds = [0, *itertools.accumulate(groups)]
        for seed in seeds:
            seeded = [c.replace(seed=seed) for c in configs]
            for start, stop in zip(bounds, bounds[1:]):
                together = replicate(train_side, test_side, seeded[start:stop])
                for config, a in zip(seeded[start:stop], together):
                    (b,) = replicate(train_side, test_side, [config])
                    assert a.report.to_dict() == b.report.to_dict()
                    assert np.array_equal(a.model.weights, b.model.weights)
                    assert np.array_equal(a.model.bias, b.model.bias)
                    assert a.model.metadata == b.model.metadata

    def test_stack_freed_before_next_group(self, small_corpus, monkeypatch):
        stacks = []  # a weak reference to each group's training stack
        featurized_with_live_stack = []
        real_train, real_featurize = pipeline.train, pipeline.featurize_split

        def spy_train(labels, features, config):
            stacks.append(weakref.ref(features))
            return real_train(labels, features, config)

        def spy_featurize(side, config, out=None):
            if out is not None:  # the train side of a group
                featurized_with_live_stack.append(any(ref() is not None for ref in stacks))
            return real_featurize(side, config, out)

        monkeypatch.setattr(pipeline, "train", spy_train)
        monkeypatch.setattr(pipeline, "featurize_split", spy_featurize)
        config = SMALL_CONFIG.replace(epochs=1)
        train_side, test_side = split_sides(small_corpus, config)
        configs = [config.replace(gamma=gamma) for gamma in self.GAMMAS]
        average_over_seeds(train_side, test_side, configs, (0, 1))
        assert len(stacks) == 6
        assert len(featurized_with_live_stack) == 2 * len(configs)
        assert not any(featurized_with_live_stack)

    def test_test_side_featurized_without_the_train_stack(self, small_corpus, monkeypatch):
        """When a test side is featurized, the memory allocated since the
        replicate began is less than one train feature matrix."""
        config = SMALL_CONFIG.replace(epochs=1, bow_dim=512)
        train_side, test_side = split_sides(small_corpus, config)
        train_matrix = len(train_side.labels) * 3 * 512 * 8  # bytes of (n, D) float64
        grown = []
        real_featurize = pipeline.featurize_split

        def spy_featurize(side, config, out=None):
            if out is None:  # a test side
                grown.append(tracemalloc.get_traced_memory()[0] - baseline)
            return real_featurize(side, config, out)

        monkeypatch.setattr(pipeline, "featurize_split", spy_featurize)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            replicate(train_side, test_side, [config, config.replace(gamma=0.5)])
        finally:
            tracemalloc.stop()
        assert len(grown) == 2 and max(grown) < train_matrix, (grown, train_matrix)

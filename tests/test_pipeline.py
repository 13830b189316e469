"""Pipeline orchestration: runs, manifests, grid search, ablation."""

import concurrent.futures
import itertools
import json
import signal
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
    ({"embedding": "external", "embedding_file": "/"}, "embedding file is a directory: /"),
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

    def test_json_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[]")
        with pytest.raises(ConfigError) as excinfo:
            read_manifest(path)
        assert str(excinfo.value) == f"{path}: expected a JSON object"

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
    worker initializer, the chunk size asked for and the mapped tasks, and
    maps in this process, without running the initializer. Setting
    ``asked["interrupt_after"]`` to a count raises KeyboardInterrupt, as
    Ctrl-C would, once that many results have been read."""
    asked = {"workers": [], "initializer": [], "chunksize": [], "tasks": [], "interrupt_after": None}

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            asked["workers"].append(max_workers)
            asked["initializer"].append((initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            asked["chunksize"].append(chunksize)
            asked["tasks"].extend(items)
            return self._results(fn, list(items))

        @staticmethod
        def _results(fn, items):
            for item in items:
                if asked["interrupt_after"] == 0:
                    raise KeyboardInterrupt
                yield fn(item)
                if asked["interrupt_after"] is not None:
                    asked["interrupt_after"] -= 1

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
        """Two workers take the three rows in two rounds, three in one."""
        kwargs = dict(
            trees=small_corpus,
            p_values=[0.0, 0.5, 1.0],
            gamma_values=[0.2, 0.8],
            config=SMALL_CONFIG,
            seeds=[0],
        )
        serial = grid_search(**kwargs, jobs=1)
        for jobs in (2, 3):
            parallel = grid_search(**kwargs, jobs=jobs)
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
        ignore_sigint = (signal.signal, (signal.SIGINT, signal.SIG_IGN))
        assert in_process_pool["initializer"] == [ignore_sigint] * len(pools)

    def test_one_task_per_p(self, small_corpus, in_process_pool):
        config = SMALL_CONFIG.replace(epochs=1)
        grid_search(small_corpus, [0.5, 1.0], [0.2, 0.5, 0.8], config, seeds=[0], jobs=4)
        assert in_process_pool["workers"] == [2]
        tasks = [[(c.p, c.gamma) for c in task] for task in in_process_pool["tasks"]]
        assert tasks == [[(p, g) for g in (0.2, 0.5, 0.8)] for p in (0.5, 1.0)]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_interrupt_leaves_no_task_queued(self, small_corpus, in_process_pool, jobs):
        """The pool holds one task per worker at a time, each of which a
        worker starts at once, so Ctrl-C finds no task waiting to start."""
        in_process_pool["interrupt_after"] = 1
        config = SMALL_CONFIG.replace(epochs=1)
        with pytest.raises(KeyboardInterrupt):
            grid_search(small_corpus, [0.0, 0.4, 0.8, 1.0], [0.5], config, seeds=[0], jobs=jobs)
        assert in_process_pool["workers"] == [jobs]
        assert len(in_process_pool["tasks"]) == jobs

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
    def calls(self, monkeypatch) -> list:
        """Every ``featurize_split`` and ``train`` call from the pipeline: the
        side and config featurized and whether into a stack; the configs
        trained, the number of matrices and the columns each model reads."""
        calls = []
        real_featurize, real_train = pipeline.featurize_split, pipeline.train

        def spy_featurize(side, config, out=None):
            calls.append(("featurize", side, config, out is not None))
            return real_featurize(side, config, out)

        def spy_train(labels, features, configs, columns):
            calls.append(("train", list(configs), len(features), columns))
            return real_train(labels, features, configs, columns=columns)

        monkeypatch.setattr(pipeline, "featurize_split", spy_featurize)
        monkeypatch.setattr(pipeline, "train", spy_train)
        return calls

    # Per seed, in call order: the configs of each group, the configs whose
    # matrices it holds and the (matrix, width / d) that each config reads.
    # The schemes (u, v) and (u, v, |u - v|) read the first columns of
    # (u, v, |u - v|, u*v), so they train on its matrix; without it, (u, v)
    # reads the first of the two equally wide layouts that begin with it.
    @pytest.mark.parametrize(
        "field, values, groups",
        [
            (
                "gamma",
                GAMMAS,
                [
                    ([0, 1, 2], [0, 1, 2], [(0, 3), (1, 3), (2, 3)]),
                    ([3, 4, 5], [3, 4, 5], [(0, 3), (1, 3), (2, 3)]),
                    ([6], [6], [(0, 3)]),
                ],
            ),
            ("scheme", SCHEMES, [([0, 2, 3], [3], [(0, 2), (0, 3), (0, 4)]), ([1], [1], [(0, 3)])]),
            ("scheme", SCHEMES[:3], [([0, 1, 2], [1, 2], [(0, 2), (0, 3), (1, 3)])]),
        ],
    )
    def test_groups_match_configs_run_alone(
        self, small_corpus, monkeypatch, calls, field, values, groups
    ):
        """Seeds are the outer loop; each group featurizes the train sides of
        the matrices it holds, trains them, then featurizes their test sides;
        and each config gives what it gives alone."""
        config = SMALL_CONFIG.replace(epochs=3)
        train_side, test_side = split_sides(small_corpus, config)
        configs = [config.replace(**{field: value}) for value in values]
        seeds = (0, 1)
        replicated = []  # (configs, results) of each replicate call
        real_replicate = pipeline.replicate

        def spy_replicate(train_side, test_side, configs):
            results = real_replicate(train_side, test_side, configs)
            replicated.append((list(configs), results))
            return results

        monkeypatch.setattr(pipeline, "replicate", spy_replicate)
        average_over_seeds(train_side, test_side, configs, seeds)
        seeded = [c.replace(seed=seed) for seed in seeds for c in configs]
        assert [configs for configs, _ in replicated] == [seeded]
        expected = []
        for s in (seeded[: len(configs)], seeded[len(configs) :]):
            for members, held, columns in groups:
                expected += [("featurize", train_side, s[k], True) for k in held]
                dim = config.bow_dim
                trained = [(b, w * dim) for b, w in columns]
                expected.append(("train", [s[k] for k in members], len(held), trained))
                expected += [("featurize", test_side, s[k], False) for k in held]
        assert calls == expected
        assert max(matrices for kind, _, matrices, _ in calls if kind == "train") <= LOCKSTEP_CAP
        # each config trained in its group gives what it gives alone
        for config, a in zip(seeded, replicated[0][1]):
            (b,) = real_replicate(train_side, test_side, [config])
            assert a.report.to_dict() == b.report.to_dict()
            assert a.model.weights.tobytes() == b.model.weights.tobytes()
            assert a.model.bias.tobytes() == b.model.bias.tobytes()
            assert a.model.metadata == b.model.metadata

    def test_one_call_runs_any_configs(self, small_corpus):
        """The four schemes at two seeds and a config that trains longer, in
        one call, each give what the config gives alone."""
        config = SMALL_CONFIG.replace(epochs=3)
        train_side, test_side = split_sides(small_corpus, config)
        configs = [config.replace(scheme=s, seed=seed) for seed in (0, 1) for s in self.SCHEMES]
        configs.insert(3, config.replace(scheme="uv_mul", epochs=4))
        together = replicate(train_side, test_side, configs)
        assert len(together) == len(configs)
        for config, a in zip(configs, together):
            (b,) = replicate(train_side, test_side, [config])
            assert a.report.to_dict() == b.report.to_dict()
            assert a.model.weights.tobytes() == b.model.weights.tobytes()
            assert a.model.bias.tobytes() == b.model.bias.tobytes()
            assert a.model.metadata == b.model.metadata

    def test_stack_freed_before_next_group(self, small_corpus, monkeypatch):
        """For the gamma row and the scheme ablation: a group's train stack
        is gone before its test sides are featurized, and its stack and test
        matrices before the next group's train side is."""
        stacks, tests = [], []  # weak references to each group's stack and test matrices
        featurized_with_live = []  # per featurization: (train side?, any of those refs live)
        real_train, real_featurize = pipeline.train, pipeline.featurize_split

        def spy_train(labels, features, configs, **kwargs):
            stacks.append(weakref.ref(features))
            return real_train(labels, features, configs, **kwargs)

        def spy_featurize(side, config, out=None):
            # A group's test matrices live on while it featurizes its next test side.
            refs = stacks + tests if out is not None else stacks
            featurized_with_live.append((out is not None, any(ref() is not None for ref in refs)))
            examples = real_featurize(side, config, out)
            if out is None:
                tests.append(weakref.ref(examples.X))
            return examples

        monkeypatch.setattr(pipeline, "train", spy_train)
        monkeypatch.setattr(pipeline, "featurize_split", spy_featurize)
        config = SMALL_CONFIG.replace(epochs=1)
        train_side, test_side = split_sides(small_corpus, config)
        # (the groups, the matrices featurized per side) over two seeds
        for field, values, groups, matrices in (
            ("gamma", self.GAMMAS, 6, 14),
            ("scheme", self.SCHEMES, 4, 4),
        ):
            for log in (stacks, tests, featurized_with_live):
                log.clear()
            configs = [config.replace(**{field: value}) for value in values]
            average_over_seeds(train_side, test_side, configs, (0, 1))
            assert len(stacks) == groups
            assert [into_stack for into_stack, _ in featurized_with_live].count(True) == matrices
            assert len(tests) == matrices
            assert not any(live for _, live in featurized_with_live), field

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

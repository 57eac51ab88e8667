"""The workloads and their parts: what each generates, times, traces
and checks.

Each part is a class with

* ``generate(seed)`` — inputs, made from the seed alone (timed in setup);
* ``warm_up(seed)`` — one untimed pass of its Spark code paths on a small
  input, which starts the Python workers and compiles the JVM side;
* ``run(seconds)`` — whole rounds of public ``repro.*`` calls until
  ``seconds`` have passed, then single-shot stages and the checks;
  returns the end-to-end metrics;
* ``trace(tracer)`` — the same work split into layer calls, each in a
  :class:`harness.Tracer` span with its output forced; returns the
  per-layer metrics.
"""
from __future__ import annotations

import dataclasses
import time
from functools import reduce

import numpy as np
from pyspark.sql import DataFrame

import checks as C
from harness import (
    Ledger, Stopwatch, Tracer, digest_frames, digest_rows, local_threads, median, metric,
)

from repro.core import ontology as O
from repro.core import graph_linker, profiler, schema_builder
from repro.core.lids_graph import build_lids_graph
from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS, abstract_corpus
from repro.core.triples import TripleStore
from repro.discovery import join_discovery
from repro.discovery import union_search as us
from repro.interfaces import api
from repro.lakegen.benchmarks import CONFIGS
from repro.lakegen.lake import LakeConfig, build_lake
from repro.pipelines_corpus.generator import make_corpus

THRESHOLDS = schema_builder.SimilarityThresholds()


def rounds(seconds: float, one_round) -> int:
    """Run ``one_round`` until ``seconds`` have passed; at least once."""
    t0, n = time.perf_counter(), 0
    while n == 0 or time.perf_counter() - t0 < seconds:
        one_round()
        n += 1
    return n


def _force(store: TripleStore) -> int:
    store.persist()
    return store.n_triples()


# ------------------------------------------------------------------ discovery
class Discovery:
    """Table-2 path on a SANTOS-small-shaped lake: preprocess, then union
    and join-path queries over the index."""

    LAKE = "santos_small"
    N_PAIRS = 16
    QUERY_REPEATS = 10
    P_AT_K_FLOOR = 0.75

    def __init__(self, spark, ledger: Ledger):
        self.spark, self.ledger = spark, ledger

    def generate(self, seed: int) -> None:
        self.lake = build_lake(dataclasses.replace(CONFIGS[self.LAKE], seed=seed))
        rng = np.random.default_rng(seed)
        names = self.names = sorted(self.lake.tables)
        pairs: set[tuple[str, str]] = set()
        while len(pairs) < self.N_PAIRS:
            a, b = rng.choice(len(names), 2, replace=False)
            pairs.add((names[a], names[b]))
        self.pairs = sorted(pairs)

    def warm_up(self, seed: int) -> None:
        lake = build_lake(LakeConfig(name="warmup", n_groups=2, members_per_group=2,
                                     rows=30, n_query=1, k=1, seed=seed))
        with self.ledger.op("warmup.build_index"):
            index = us.build_index(self.spark, lake)
            api.get_path_to_table(index, *sorted(lake.tables)[:2], 2)

    def info(self) -> dict:
        return {"lake": self.lake.name, "tables": len(self.lake.tables),
                "columns": self.lake.n_columns(),
                "lake_digest": digest_frames(self.lake.tables)}

    def run(self, seconds: float) -> dict:
        L, lake = self.ledger, self.lake
        pre, union_us, join_ms, digests = [], [], [], []
        state = {}

        def one_round():
            with L.op("union_search.build_index"), Stopwatch() as sw:
                index = us.build_index(self.spark, lake)
            pre.append(sw)
            digests.append(digest_rows(C.index_edge_set(index.edges)))
            for q in self.names:
                for _ in range(self.QUERY_REPEATS):
                    _, t = L.timed("union_search.query", index.query, q, lake.k)
                    union_us.append(t * 1e6)
            paths = {}
            for a, b in self.pairs:
                frame, t = L.timed("api.get_path_to_table", api.get_path_to_table,
                                   index, a, b, 2)
                join_ms.append(t * 1e3)
                paths[(a, b)] = len(frame)
            state.update(index=index, paths=paths)

        n = rounds(seconds, one_round)
        t0 = time.perf_counter()
        info = self._check(state["index"], state["paths"], digests)
        # Pure-Python query latencies move by a third between processes of
        # one input (11 vs 19 us per union query), so they are details here
        # and per-layer metrics in the traced run, not end-to-end metrics.
        info.update(rounds=n, check_s=time.perf_counter() - t0,
                    preprocess_wall_s=median([s.wall for s in pre]),
                    union_query_p50_us=median(union_us), join_path_p50_ms=median(join_ms))
        return {"preprocess_cpu_s": metric(median([s.cpu for s in pre]), "s")}, info

    def _check(self, index, paths, digests) -> dict:
        L, lake = self.ledger, self.lake
        with L.op("profiler.profile_tables"):
            profiles = profiler.profile_tables(self.spark, lake.tables, lake.name).toPandas()
        want, boundary = C.similarity_oracle(
            profiles, THRESHOLDS.alpha, THRESHOLDS.beta, THRESHOLDS.theta)
        L.check("discovery.similarity_edges_match_brute_force",
                *C.check_similarity_edges(index.edges, want, boundary))
        L.check("discovery.index_same_every_round", len(set(digests)) == 1,
                f"{len(set(digests))} distinct edge sets")
        L.check("discovery.join_path_counts",
                *C.check_join_paths(paths, C.content_adjacency(index.edges)))
        results = {q: [t for t, _ in index.query(q, k=lake.k)] for q in lake.query_tables}
        p_at_k = C.precision_at_k(results, lake.group_of)
        L.check("discovery.p_at_k_floor", p_at_k >= self.P_AT_K_FLOOR, f"P@k={p_at_k:.3f}")
        return {"edges": len(want), "boundary_pairs": len(boundary),
                "edge_digest": digests[-1], "p_at_k": round(p_at_k, 4),
                "paths_returned": sum(paths.values())}

    def trace(self, tr: Tracer) -> dict:
        spark, lake = self.spark, self.lake
        prof = _trace_dataset_graph(tr, spark, {lake.name: lake.tables})
        meta, sim = prof["meta"], prof["sim"]
        with tr.span("union_search", "index_load"):
            index = us.index_from_graph(TripleStore(spark, meta.unionByName(sim)), lake)
        for q in self.names:
            with tr.span("union_search", "query"):
                index.query(q, lake.k)
        for _ in range(5):
            with tr.span("join_discovery", "adjacency"):
                join_discovery.joinable_adjacency(index)
        paths = 0
        for a, b in self.pairs:
            with tr.span("join_discovery", "find_join_paths"):
                paths += len(join_discovery.find_join_paths(index, a, b, 2))
        out = _dataset_graph_metrics(tr, prof)
        out.update({
            "union_search.index_load_s": metric(tr.seconds("union_search", "index_load"), "s"),
            "union_search.index_edges": metric(len(index.edges), "count"),
            "union_search.query_p50_us": metric(
                median(tr.durations("union_search", "query")) * 1e6, "us"),
            "join_discovery.adjacency_s": metric(
                median(tr.durations("join_discovery", "adjacency")), "s"),
            "join_discovery.find_join_paths_p50_ms": metric(
                median(tr.durations("join_discovery", "find_join_paths")) * 1e3, "ms"),
            "join_discovery.paths_returned": metric(paths, "count"),
        })
        return out


def _trace_dataset_graph(tr: Tracer, spark, tables_by_dataset: dict) -> dict:
    """Algorithms 2 and 3 layer by layer, every output persisted."""
    metas, sims, columns, partitions, pairs = [], [], 0, 0, 0
    for dataset, tables in tables_by_dataset.items():
        with tr.span("profiler", "explode"):
            cdf = profiler.columns_dataframe(spark, tables, dataset).persist()
            cdf.count()
        with tr.span("profiler", "profile"):
            prof = profiler.profile_columns(cdf).persist()
            columns += prof.count()
        partitions += prof.rdd.getNumPartitions()
        counts = prof.groupBy("fgt").count().toPandas()["count"]
        pairs += int((counts * (counts - 1) // 2).sum())
        with tr.span("schema_builder", "metadata"):
            meta = schema_builder.build_metadata_subgraph(prof).persist()
            meta.count()
        with tr.span("schema_builder", "similarity"):
            sim = schema_builder.build_similarity_edges(spark, prof, THRESHOLDS).persist()
            sim.count()
        metas.append(meta)
        sims.append(sim)
    return {"meta": reduce(DataFrame.unionByName, metas),
            "sim": reduce(DataFrame.unionByName, sims), "columns": columns,
            "partitions": partitions, "pairs": pairs,
            "meta_triples": sum(m.count() for m in metas),
            "sim_edges": sum(s.count() for s in sims)}


def _dataset_graph_metrics(tr: Tracer, prof: dict) -> dict:
    return {
        "profiler.explode_s": metric(tr.seconds("profiler", "explode"), "s"),
        "profiler.profile_s": metric(tr.seconds("profiler", "profile"), "s"),
        "profiler.columns": metric(prof["columns"], "count"),
        "profiler.partitions": metric(prof["partitions"], "count"),
        "profiler.tasks": metric(tr.tasks("profiler"), "count"),
        "schema_builder.metadata_s": metric(tr.seconds("schema_builder", "metadata"), "s"),
        "schema_builder.metadata_triples": metric(prof["meta_triples"], "count"),
        "schema_builder.similarity_s": metric(tr.seconds("schema_builder", "similarity"), "s"),
        "schema_builder.similarity_edges": metric(prof["sim_edges"], "count"),
        "schema_builder.pairs_compared": metric(prof["pairs"], "count"),
        "schema_builder.tasks": metric(tr.tasks("schema_builder"), "count"),
    }


def _warm_up_abstraction(spark, ledger: Ledger, seed: int) -> None:
    # Two scripts for every local thread, so that every slice of the
    # scripts frame holds some: each task slot then starts its Python
    # worker and imports the abstraction here, not inside a timed stage.
    _, scripts = make_corpus(n_datasets=2, pipelines_per_dataset=local_threads(),
                             with_tables=False, seed=seed)
    with ledger.op("warmup.abstract_corpus"):
        store = abstract_corpus(spark, spark.createDataFrame(scripts[SCRIPTS_COLUMNS]))
        api.get_top_k_library_used(store, 3)


# ----------------------------------------------------------------------- lids
class Lids:
    """The linked LiDS graph: small datasets, each one table named after
    its dataset, plus their pipeline scripts, through ``build_lids_graph``
    (profiles, dataset graph, abstraction, linker). One dataset already
    costs about 15 s, so one is all a run can afford."""

    N_DATASETS = 1
    PIPELINES_PER_DATASET = 4
    ROWS = 60

    def __init__(self, spark, ledger: Ledger):
        self.spark, self.ledger = spark, ledger

    def generate(self, seed: int) -> None:
        datasets, self.scripts = make_corpus(
            n_datasets=self.N_DATASETS, pipelines_per_dataset=self.PIPELINES_PER_DATASET,
            rows=self.ROWS, seed=seed)
        self.tables = {d.name: {d.name: d.table} for d in datasets}
        self.scripts_df = self.spark.createDataFrame(self.scripts[SCRIPTS_COLUMNS])

    def warm_up(self, seed: int) -> None:
        _warm_up_abstraction(self.spark, self.ledger, seed)

    def info(self) -> dict:
        frames = {f"{ds}/{t}": df for ds, ts in self.tables.items() for t, df in ts.items()}
        frames["scripts"] = self.scripts[SCRIPTS_COLUMNS]
        return {"datasets": len(self.tables), "scripts": len(self.scripts),
                "columns": sum(len(df.columns) for ts in self.tables.values()
                               for df in ts.values()),
                "corpus_digest": digest_frames(frames)}

    def run(self, seconds: float) -> dict:
        L, builds, state = self.ledger, [], {}

        def one_round():
            if "kg" in state:
                state["kg"].df.unpersist()
            with L.op("lids_graph.build_lids_graph"), Stopwatch() as sw:
                kg = build_lids_graph(self.spark, self.tables, self.scripts_df, THRESHOLDS)
                n = _force(kg)
            builds.append(sw)
            state.update(kg=kg, n=n)

        n_rounds = rounds(seconds, one_round)
        t0 = time.perf_counter()
        with L.op("pipeline_abstraction.abstract_corpus"):
            predicted = abstract_corpus(self.spark, self.scripts_df).df.toPandas()
        kg = state["kg"].df.toPandas()
        for name, ok, detail in C.check_lids(kg, predicted, self.tables,
                                             list(self.scripts["pipeline_id"])):
            L.check(name, ok, detail)
        info = {"rounds": n_rounds, "kg_triples": state["n"],
                "check_s": time.perf_counter() - t0,
                "platform_build_wall_s": median([s.wall for s in builds]),
                "kg_digest": digest_rows(map(tuple, kg[["g", "s", "p", "o"]].to_numpy()))}
        return {"platform_build_cpu_s": metric(median([s.cpu for s in builds]), "s")}, info

    def trace(self, tr: Tracer) -> dict:
        spark = self.spark
        with tr.span("lids_graph", "build_lids_graph"):
            _force(build_lids_graph(spark, self.tables, self.scripts_df, THRESHOLDS))
        t0 = time.perf_counter()
        prof = _trace_dataset_graph(tr, spark, self.tables)
        dataset_store = TripleStore(spark, prof["meta"].unionByName(prof["sim"]))
        with tr.span("lids_graph", "dataset_graph"):
            _force(dataset_store)
        dataset_graph_s = time.perf_counter() - t0
        out = _dataset_graph_metrics(tr, prof)
        pipeline_store, abstraction = _trace_abstraction(
            tr, spark, self.scripts_df, len(self.scripts))
        out.update(abstraction)
        with tr.span("graph_linker", "link"):
            linked = graph_linker.link(pipeline_store, dataset_store)
            _force(linked)
        reads = [O.READS_TABLE, O.READS_COLUMN]
        out.update({
            "graph_linker.link_s": metric(tr.seconds("graph_linker", "link"), "s"),
            "graph_linker.predictions_in": metric(
                pipeline_store.df.filter(pipeline_store.df.p.isin(reads)).count(), "count"),
            "graph_linker.predictions_kept": metric(
                linked.df.filter(linked.df.p.isin(reads)).count(), "count"),
            "graph_linker.tasks": metric(tr.tasks("graph_linker"), "count"),
            "lids_graph.dataset_graph_s": metric(dataset_graph_s, "s"),
            "lids_graph.tasks": metric(
                sum(s["tasks"] for s in tr.spans if s["name"] == "build_lids_graph"), "count"),
        })
        return out


def _trace_abstraction(tr: Tracer, spark, scripts_df, n_scripts: int):
    with tr.span("pipeline_abstraction", "abstract"):
        store = abstract_corpus(spark, scripts_df)
        n = _force(store)
    pipes = store.match(p=O.RDF_TYPE, o=O.PIPELINE).count()
    return store, {
        "pipeline_abstraction.abstract_s": metric(
            tr.seconds("pipeline_abstraction", "abstract"), "s"),
        "pipeline_abstraction.scripts_in": metric(n_scripts, "count"),
        "pipeline_abstraction.pipelines_out": metric(pipes, "count"),
        "pipeline_abstraction.triples_out": metric(n, "count"),
        "pipeline_abstraction.tasks": metric(tr.tasks("pipeline_abstraction"), "count"),
    }


# ------------------------------------------------------------------ pipelines
def _bgp_shapes(function: str) -> dict[str, list[tuple[str, str, str]]]:
    """The basic graph patterns behind the §5 operations, by shape."""
    return {
        "calls_library": [("?stmt", O.CALLS_LIBRARY, "?lib"),
                          ("?stmt", O.IS_PART_OF, "?pipe")],
        "calls_library_task": [("?stmt", O.CALLS_LIBRARY, "?lib"),
                               ("?stmt", O.IS_PART_OF, "?pipe"),
                               ("?pipe", O.HAS_TASK, "classification")],
        "calls_function_meta": [("?stmt0", O.CALLS, O.res("library", *function.split("."))),
                                ("?stmt0", O.IS_PART_OF, "?pipe"),
                                ("?pipe", O.HAS_VOTES, "?votes"),
                                ("?pipe", O.HAS_AUTHOR, "?author")],
        "calls_dataset_votes": [("?stmt", O.CALLS, "?func"),
                                ("?stmt", O.IS_PART_OF, "?pipe"),
                                ("?pipe", O.USES_DATASET, "?ds"),
                                ("?pipe", O.HAS_VOTES, "?votes")],
        "has_parameter": [("?stmt", O.HAS_PARAMETER, "?param")],
    }


class Pipelines:
    """Table-3 corpus into the triple store, the §5 operations over it,
    then Tables 5/6 train-then-recommend."""

    N_DATASETS = 230
    PIPELINES_PER_DATASET = 12
    FUNCTION = "sklearn.impute.KNNImputer"
    # the four-pattern BGP three operations and both miners share
    CHECKED_BGPS = ("calls_dataset_votes",)
    TRAIN = dict(n_datasets=40, pipelines_per_dataset=8, rows=150)

    def __init__(self, spark, ledger: Ledger):
        self.spark, self.ledger = spark, ledger

    def generate(self, seed: int) -> None:
        from repro.datasets import cleaning_datasets, transformation_datasets

        _, self.scripts = make_corpus(
            n_datasets=self.N_DATASETS, pipelines_per_dataset=self.PIPELINES_PER_DATASET,
            with_tables=False, seed=seed)
        self.scripts_df = self.spark.createDataFrame(self.scripts[SCRIPTS_COLUMNS])
        self.dataset = f"kgds_{int(np.random.default_rng(seed).integers(self.N_DATASETS)):04d}"
        # the classifier its scripts fit most often (ties by name)
        fitted = self.scripts.loc[self.scripts["dataset"] == self.dataset, "script"]
        counts = fitted.str.extract(r"clf = (\w+)\(")[0].value_counts()
        self.classifier = min(counts.index, key=lambda c: (-counts[c], c))
        self.cleaning = [(s, cleaning_datasets.build_dataset(s, seed))
                         for s in cleaning_datasets.SPECS]
        self.transformation = [(s, transformation_datasets.build_dataset(s, seed)[0])
                               for s in transformation_datasets.SPECS]
        self.seed = seed

    def warm_up(self, seed: int) -> None:
        _warm_up_abstraction(self.spark, self.ledger, seed)

    def info(self) -> dict:
        frames = {"scripts": self.scripts[SCRIPTS_COLUMNS]}
        frames.update({f"cleaning/{s.name}": df for s, df in self.cleaning})
        frames.update({f"transformation/{s.name}": df for s, df in self.transformation})
        return {"scripts": len(self.scripts), "corpus_digest": digest_frames(frames)}

    def _operations(self, store: TripleStore) -> dict:
        from repro.automation import automl

        return {
            "get_top_k_library_used": lambda: api.get_top_k_library_used(store, 10),
            "get_top_used_libraries": lambda: api.get_top_used_libraries(
                store, 10, task="classification"),
            "get_pipelines_calling_libraries": lambda: api.get_pipelines_calling_libraries(
                store, self.FUNCTION),
            "recommend_ml_models": lambda: automl.recommend_ml_models(store, self.dataset),
            "recommend_hyperparameters": lambda: automl.recommend_hyperparameters(
                store, self.dataset, self.classifier),
        }

    def run(self, seconds: float) -> dict:
        from repro.automation import cleaning as cl
        from repro.automation import experiments
        from repro.automation import transformation as tf

        L, abstractions, query_ms, state = self.ledger, [], [], {}

        def one_round():
            if "store" in state:
                state["store"].df.unpersist()
            with L.op("pipeline_abstraction.abstract_corpus"), Stopwatch() as sw:
                store = abstract_corpus(self.spark, self.scripts_df)
                n = _force(store)
            abstractions.append(sw)
            results = {}
            for name, fn in self._operations(store).items():
                results[name], t = L.timed(f"api.{name}", fn)
                query_ms.append(t * 1e3)
            state.update(store=store, n=n, results=results)

        n_rounds = rounds(seconds, one_round)
        with L.op("experiments.train_platform"), Stopwatch() as train:
            platform = experiments.train_platform(self.spark, seed=self.seed, **self.TRAIN)
        # Recommendation latencies are details, not end-to-end metrics: the
        # whole distribution shifts by a fifth from one process to the next.
        rec_ms, apply_ms, cleaning_ops, transforms, leftover_nulls = [], [], [], [], []
        for spec, pdf in self.cleaning:
            features = pdf.drop(columns=["target"])
            op, t = L.timed("cleaning.recommend_cleaning_operations",
                            platform.cleaning.recommend_cleaning_operations, features)
            rec_ms.append(t * 1e3)
            cleaned, t = L.timed("cleaning.apply_cleaning_operations",
                                 cl.apply_cleaning_operations, op, pdf)
            apply_ms.append(t * 1e3)
            cleaning_ops.append((spec, op))
            if cleaned.isna().any().any():
                leftover_nulls.append(spec.name)
        for spec, pdf in self.transformation:
            (scaler, col_ops), t = L.timed(
                "transformation.recommend_transformations",
                platform.transformation.recommend_transformations, pdf.drop(columns=["target"]))
            rec_ms.append(t * 1e3)
            _, t = L.timed("transformation.apply_transformations",
                           tf.apply_transformations, scaler, col_ops, pdf)
            apply_ms.append(t * 1e3)
            transforms.append((scaler, col_ops))
        L.check("pipelines.cleaning_leaves_no_nulls", not leftover_nulls, str(leftover_nulls))
        t0 = time.perf_counter()
        info = self._check(state["store"], state["results"], cleaning_ops, transforms)
        # The §5 query latency is a detail: the discovery-lids workload has no
        # query that holds steady between processes (see the README), and
        # every end-to-end metric must come from every workload.
        info.update(rounds=n_rounds, kg_triples=state["n"], check_s=time.perf_counter() - t0,
                    kg_query_p50_ms=median(query_ms),
                    preprocess_wall_s=median([s.wall for s in abstractions]),
                    abstraction_scripts_per_s=len(self.scripts) / median(
                        [s.wall for s in abstractions]),
                    platform_build_wall_s=train.wall,
                    op_ms=dict(zip(state["results"], query_ms[-len(state["results"]):])),
                    cleaning_ops=[op for _, op in cleaning_ops],
                    recommend_p50_ms=median(rec_ms),
                    recommend_and_apply_p50_ms=median([r + a for r, a in zip(rec_ms, apply_ms)]))
        return {
            "preprocess_cpu_s": metric(median([s.cpu for s in abstractions]), "s"),
            "platform_build_cpu_s": metric(train.cpu, "s"),
        }, info

    def _check(self, store, results, cleaning_ops, transforms) -> dict:
        from repro.pipelines_corpus.generator import BEST_CLEANING_OF_KIND

        L = self.ledger
        oracle = C.QuadOracle(store.df.select("s", "p", "o").toPandas())
        try:
            for shape in self.CHECKED_BGPS:
                patterns = _bgp_shapes(self.FUNCTION)[shape]
                with L.op(f"triples.match_bgp.{shape}"):
                    got = store.match_bgp(patterns).toPandas()
                want = oracle.bgp(patterns)
                L.check(f"pipelines.bgp.{shape}", *C.frames_equal(got, want))
            expected = {
                "get_top_k_library_used": C.sql_top_libraries(oracle, 10),
                "get_top_used_libraries": C.sql_top_libraries(
                    oracle, 10, task="classification"),
                "get_pipelines_calling_libraries": C.sql_pipelines_calling(
                    oracle, self.FUNCTION),
                "recommend_ml_models": C.sql_ml_models(oracle, self.dataset),
                "recommend_hyperparameters": C.sql_hyperparameters(
                    oracle, self.dataset, self.classifier),
            }
            for name, want in expected.items():
                ok, detail = C.frames_equal(results[name], want, ordered=True)
                L.check(f"pipelines.op.{name}", ok and len(want) > 0, detail)
        finally:
            oracle.close()
        bad = [op for _, op in cleaning_ops if op not in C.CLEANING_OPS]
        bad += [s for s, _ in transforms if s not in C.SCALERS]
        bad += [o for _, ops in transforms for o in ops.values() if o not in C.UNARY_OPS]
        L.check("pipelines.recommendations_valid", not bad, f"invalid: {bad[:5]}")
        agree = sum(op == BEST_CLEANING_OF_KIND[s.kind] for s, op in cleaning_ops)
        L.check("pipelines.cleaning_majority_planted", 2 * agree > len(cleaning_ops),
                f"{agree}/{len(cleaning_ops)}")
        return {"cleaning_agree": f"{agree}/{len(cleaning_ops)}", "dataset": self.dataset,
                "classifier": self.classifier}

    def trace(self, tr: Tracer) -> dict:
        from repro.automation import cleaning as cl
        from repro.automation import embeddings
        from repro.automation import transformation as tf

        spark, out = self.spark, {}
        store, abstraction = _trace_abstraction(tr, spark, self.scripts_df, len(self.scripts))
        out.update(abstraction)
        # one call each: the traced pass covers every layer and has to end
        # well within the time a run may take
        for shape, patterns in _bgp_shapes(self.FUNCTION).items():
            with tr.span("triples", f"bgp_{shape}"):
                store.match_bgp(patterns).count()
        for name, fn in self._operations(store).items():
            with tr.span("api", name):
                fn()
        datasets, scripts = make_corpus(seed=self.seed, **self.TRAIN)
        tstore = abstract_corpus(spark, spark.createDataFrame(scripts[SCRIPTS_COLUMNS]))
        _force(tstore)
        tables = {d.name: d.table for d in datasets}
        with tr.span("cleaning", "mine"):
            cl.mine_cleaning_labels(tstore)
        with tr.span("cleaning", "fit"):
            cleaner = cl.CleaningRecommender().fit_from_kg(tstore, tables)
        with tr.span("transformation", "mine"):
            tf.mine_scaler_labels(tstore)
            tf.mine_column_transform_labels(tstore)
        with tr.span("transformation", "fit"):
            transformer = tf.TransformationRecommender().fit_from_kg(tstore, tables)
        for _, pdf in self.cleaning + self.transformation:
            with tr.span("embeddings", "table_embedding"):
                embeddings.table_embedding_1800(pdf.drop(columns=["target"]))
        for _, pdf in self.cleaning:
            with tr.span("cleaning", "recommend"):
                cleaner.recommend_cleaning_operations(pdf.drop(columns=["target"]))
        for _, pdf in self.transformation:
            with tr.span("transformation", "recommend"):
                transformer.recommend_transformations(pdf.drop(columns=["target"]))

        def p50_ms(layer, name):
            return metric(median(tr.durations(layer, name)) * 1e3, "ms")

        for shape in _bgp_shapes(self.FUNCTION):
            out[f"triples.bgp_{shape}_p50_ms"] = p50_ms("triples", f"bgp_{shape}")
        for name in self._operations(store):
            out[f"api.{name}_p50_ms"] = p50_ms("api", name)
        for layer in ("cleaning", "transformation"):
            out[f"{layer}.mine_s"] = metric(tr.seconds(layer, "mine"), "s")
            out[f"{layer}.fit_s"] = metric(tr.seconds(layer, "fit"), "s")
            out[f"{layer}.recommend_p50_ms"] = p50_ms(layer, "recommend")
        out["embeddings.table_embedding_p50_ms"] = p50_ms("embeddings", "table_embedding")
        return out


# A workload runs its parts in order in one process. Discovery and the
# LiDS graph share a process: both lean on the profiler and the schema
# builder, from opposite ends (many columns in one lake; a few tiny
# datasets, where Spark job overhead and recomputation dominate).
# Every workload reports the same end-to-end metrics: `preprocess_cpu_s`
# is its first stage (the lake's index, or the corpus KG) and
# `platform_build_cpu_s` its second (the linked LiDS graph, or the
# trained recommenders).
WORKLOADS = {
    "discovery-lids": (Discovery, Lids),
    "pipelines-automation": (Pipelines,),
}

# The traced pass is the same for every workload: it covers every layer,
# so each workload's traced run reports every per-layer metric.
TRACED = (Discovery, Lids, Pipelines)

"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must pass on the program's real output for a small input and
fail once that output is damaged by one item: one similarity edge (or
one direction of it), one join-path count, one BGP row, one row of a §5
operation, one linker decision. Exits 1 if any check misjudges.
"""
from __future__ import annotations

import shutil
import sys

from harness import SCRATCH, SRC, start_spark, stop_spark


def main() -> int:
    sys.path.insert(0, str(SRC))
    import pandas as pd

    import checks as C
    import workloads as W
    from repro.core import ontology as O
    from repro.core.lids_graph import build_lids_graph
    from repro.core.pipeline_abstraction import SCRIPTS_COLUMNS, abstract_corpus
    from repro.core.profiler import profile_tables
    from repro.discovery import union_search as us
    from repro.interfaces import api
    from repro.lakegen.lake import LakeConfig, build_lake
    from repro.pipelines_corpus.generator import make_corpus

    verdicts: list[tuple[str, bool, str]] = []

    def expect(name: str, outcome: tuple[bool, str], want: bool) -> None:
        verdicts.append((name, outcome[0] == want, outcome[1]))

    spark = start_spark()
    try:
        # discovery: similarity edges and join-path counts
        lake = build_lake(LakeConfig(name="selftest", n_groups=3, members_per_group=3,
                                     rows=60, n_query=2, k=2, seed=5))
        index = us.build_index(spark, lake)
        profiles = profile_tables(spark, lake.tables, lake.name).toPandas()
        t = W.THRESHOLDS
        want, boundary = C.similarity_oracle(profiles, t.alpha, t.beta, t.theta)
        edges = index.edges.reset_index(drop=True)
        expect("edges: program output", C.check_similarity_edges(edges, want, boundary), True)
        expect("edges: one direction dropped",
               C.check_similarity_edges(edges.drop(index=0), want, boundary), False)
        a = edges.iloc[0]
        mirror = ((edges["table_a"] == a.table_b) & (edges["col_a"] == a.col_b)
                  & (edges["table_b"] == a.table_a) & (edges["col_b"] == a.col_a)
                  & (edges["pred"] == a.pred))
        expect("edges: one edge dropped",
               C.check_similarity_edges(edges[~mirror].drop(index=0), want, boundary), False)
        adj = C.content_adjacency(edges)
        names = sorted(lake.tables)
        paths = {(x, y): len(api.get_path_to_table(index, x, y, 2))
                 for x in names[:3] for y in names[3:6]}
        expect("join paths: program output", C.check_join_paths(paths, adj), True)
        first = next(iter(paths))
        expect("join paths: one path lost",
               C.check_join_paths({**paths, first: paths[first] - 1}, adj), False)

        # pipelines: BGPs and §5 operations against DuckDB
        _, scripts = make_corpus(n_datasets=5, pipelines_per_dataset=4,
                                 with_tables=False, seed=5)
        store = abstract_corpus(spark, spark.createDataFrame(scripts[SCRIPTS_COLUMNS]))
        store.persist()
        oracle = C.QuadOracle(store.df.select("s", "p", "o").toPandas())
        for shape, patterns in W._bgp_shapes(W.Pipelines.FUNCTION).items():
            got = store.match_bgp(patterns).toPandas()
            want_rows = oracle.bgp(patterns)
            expect(f"bgp {shape}: program output", C.frames_equal(got, want_rows), True)
            expect(f"bgp {shape}: one row dropped",
                   C.frames_equal(got.iloc[1:], want_rows), False)
        top = api.get_top_k_library_used(store, 10)
        want_top = C.sql_top_libraries(oracle, 10)
        expect("top libraries: program output", C.frames_equal(top, want_top, ordered=True), True)
        expect("top libraries: one row dropped",
               C.frames_equal(top.iloc[1:], want_top, ordered=True), False)
        oracle.close()

        # lids: linker decisions and node counts
        datasets, lscripts = make_corpus(n_datasets=1, pipelines_per_dataset=2, rows=40, seed=5)
        tables = {d.name: {d.name: d.table} for d in datasets}
        sdf = spark.createDataFrame(lscripts[SCRIPTS_COLUMNS])
        kg = build_lids_graph(spark, tables, sdf).df.toPandas()
        predicted = abstract_corpus(spark, sdf).df.toPandas()
        ids = list(lscripts["pipeline_id"])

        def lids(frame):
            results = C.check_lids(frame, predicted, tables, ids)
            return all(ok for _, ok, _ in results), "; ".join(d for _, _, d in results)

        reads = kg.index[kg["p"] == O.READS_COLUMN]
        column = kg.index[(kg["p"] == O.RDF_TYPE) & (kg["o"] == O.COLUMN)]
        dangling = kg.loc[reads[:1]].assign(o=O.res("nowhere", "nothing", "none"))
        expect("lids: program output", lids(kg), True)
        expect("lids: one resolvable read dropped", lids(kg.drop(index=reads[:1])), False)
        expect("lids: one dangling read kept",
               lids(pd.concat([kg, dangling], ignore_index=True)), False)
        expect("lids: one Column node dropped", lids(kg.drop(index=column[:1])), False)
    finally:
        stop_spark(spark)
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for name, right, detail in verdicts:
        print(f"{'ok  ' if right else 'FAIL'} {name}: {detail}")
    wrong = sum(not right for _, right, _ in verdicts)
    print(f"{len(verdicts) - wrong}/{len(verdicts)} checks judged correctly")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness oracles, each computed outside the program under test.

Every check takes the program's output plus the inputs it was given and
returns ``(ok, detail)``; ``selftest.py`` shows that each one fails when
a single edge or a single BGP row is taken out of the program's output.

* discovery — a brute-force numpy recomputation of Algorithm 3's
  similarity edges from the profiles; join-path counts from the index's
  content edges; P@k against the lake's generated ground truth.
* lids — kept dataset reads point at nodes built from the input tables,
  no prediction with an existing target is dropped, one Column node per
  input column and one pipeline per script.
* pipelines — every BGP and every §5 operation against DuckDB SQL over
  the quads; recommendations are valid names and mostly match the
  operation planted by the generator.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

# the graph's vocabulary (URIs only) is shared with the program
from repro.core import ontology as O
from repro.core.ontology import res

LABEL_SIM, CONTENT_SIM = O.LABEL_SIMILARITY, O.CONTENT_SIMILARITY


# ---------------------------------------------------------------- discovery
def similarity_oracle(
    profiles: pd.DataFrame, alpha: float, beta: float, theta: float, eps: float = 1e-9
) -> tuple[set[tuple], set[tuple]]:
    """All same-type, cross-table column pairs over α / β / θ.

    Returns ``(edges, boundary)``: edges as ``(pred, (t, c), (t, c))``
    with the two endpoints sorted, and the pairs whose score lies within
    ``eps`` of a threshold — there the last bit of a dot product decides,
    so they are left out of the comparison.
    """
    edges: set[tuple] = set()
    boundary: set[tuple] = set()
    for fgt, grp in profiles.groupby("fgt"):
        keys = list(zip(grp["table"], grp["column"]))
        tables = grp["table"].to_numpy()
        lab = np.stack(grp["label_embedding"].to_numpy()).astype("float64")
        lab /= np.where(np.linalg.norm(lab, axis=1, keepdims=True) == 0, 1.0,
                        np.linalg.norm(lab, axis=1, keepdims=True))
        lab_sim = lab @ lab.T
        if fgt == "boolean":
            tr = grp["true_ratio"].fillna(0.5).to_numpy(dtype="float64")
            con_sim = 1.0 - np.abs(tr[:, None] - tr[None, :])
            con_thr = beta
        else:
            con = np.stack(grp["embedding"].to_numpy()).astype("float64")
            con /= np.where(np.linalg.norm(con, axis=1, keepdims=True) == 0, 1.0,
                            np.linalg.norm(con, axis=1, keepdims=True))
            con_sim = con @ con.T
            con_thr = theta
        iu, ju = np.triu_indices(len(keys), k=1)
        cross = tables[iu] != tables[ju]
        for pred, sim, thr in ((LABEL_SIM, lab_sim, alpha), (CONTENT_SIM, con_sim, con_thr)):
            s = sim[iu, ju]
            for i, j, v in zip(iu[cross], ju[cross], s[cross]):
                if v < thr - eps:
                    continue
                pair = (pred, *sorted((keys[i], keys[j])))
                (boundary if abs(v - thr) <= eps else edges).add(pair)
    return edges, boundary


def index_edge_set(edges: pd.DataFrame) -> set[tuple]:
    """The union-search index's edges as undirected ``(pred, end, end)``."""
    return {(p, *sorted(pair)) for p, *pair in _directed(edges)}


def _directed(edges: pd.DataFrame) -> set[tuple]:
    return set(zip(edges["pred"], zip(edges["table_a"], edges["col_a"]),
                   zip(edges["table_b"], edges["col_b"])))


def check_similarity_edges(edges: pd.DataFrame, want: set[tuple], boundary: set[tuple]):
    """The index holds exactly the oracle's edges, each in both directions."""
    directed = _directed(edges)
    one_way = [e for e in directed if (e[0], e[2], e[1]) not in directed]
    got = index_edge_set(edges) - boundary
    missing, extra = want - got, got - want
    return (not missing and not extra and not one_way,
            f"{len(want)} expected, {len(missing)} missing, {len(extra)} extra, "
            f"{len(one_way)} one-way")


def content_adjacency(edges: pd.DataFrame) -> dict[str, set[str]]:
    content = edges[edges["pred"] == CONTENT_SIM]
    adj: dict[str, set[str]] = {}
    for a, b in zip(content["table_a"], content["table_b"]):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def expected_paths_le2(adj: dict[str, set[str]], a: str, b: str) -> int:
    """≤2-hop paths a→b: the direct edge plus one per common neighbour."""
    na, nb = adj.get(a, set()), adj.get(b, set())
    return int(b in na) + len((na & nb) - {a, b})


def check_join_paths(got: dict[tuple, int], adj: dict[str, set[str]]):
    bad = [(p, n, expected_paths_le2(adj, *p)) for p, n in got.items()
           if n != expected_paths_le2(adj, *p)]
    return not bad, f"{len(got)} pairs, {len(bad)} wrong {bad[:3]}"


def precision_at_k(results: dict[str, list[str]], group_of: dict[str, int]) -> float:
    ps = []
    for q, ranked in results.items():
        truth = {t for t, g in group_of.items() if g == group_of[q] and t != q}
        ps.append(sum(t in truth for t in ranked) / len(ranked) if ranked else 0.0)
    return float(np.mean(ps))


# --------------------------------------------------------------------- lids
def check_lids(kg: pd.DataFrame, predicted: pd.DataFrame,
               tables: dict[str, dict[str, pd.DataFrame]], pipeline_ids: list[str]):
    """The four LiDS-graph checks; returns ``[(name, ok, detail), ...]``."""
    table_nodes = {res(ds, t) for ds, ts in tables.items() for t in ts}
    column_nodes = {res(ds, t, str(c)) for ds, ts in tables.items()
                    for t, df in ts.items() for c in df.columns}
    reads = {O.READS_TABLE: table_nodes, O.READS_COLUMN: column_nodes}
    kept = kg[kg["p"].isin(list(reads))]
    dangling = [o for p, o in zip(kept["p"], kept["o"]) if o not in reads[p]]
    key = ["g", "s", "p", "o"]
    pred = predicted[predicted["p"].isin(list(reads))]
    resolvable = pred[[o in reads[p] for p, o in zip(pred["p"], pred["o"])]]
    kept_keys = set(map(tuple, kept[key].to_numpy()))
    dropped = [k for k in map(tuple, resolvable[key].to_numpy()) if k not in kept_keys]
    typed = kg[kg["p"] == O.RDF_TYPE]
    cols = set(typed.loc[typed["o"] == O.COLUMN, "s"])
    pipes = set(typed.loc[typed["o"] == O.PIPELINE, "s"])
    want_pipes = {res("pipeline", p) for p in pipeline_ids}
    return [
        ("lids.reads_target_input_nodes", not dangling and len(kept) > 0,
         f"{len(kept)} kept, {len(dangling)} dangling {dangling[:3]}"),
        ("lids.resolvable_reads_kept", not dropped and len(resolvable) > 0,
         f"{len(resolvable)} resolvable, {len(dropped)} dropped {dropped[:3]}"),
        ("lids.one_column_node_per_input_column", cols == column_nodes,
         f"{len(cols)} Column nodes for {len(column_nodes)} input columns"),
        ("lids.one_pipeline_per_script", pipes == want_pipes,
         f"{len(pipes)} pipelines for {len(want_pipes)} scripts"),
    ]


# ---------------------------------------------------------------- pipelines
class QuadOracle:
    """DuckDB over the subject, predicate and object columns of the quads."""

    def __init__(self, quads: pd.DataFrame):
        self.con = duckdb.connect()
        self.con.register("quads", quads[["s", "p", "o"]])

    def close(self) -> None:
        self.con.close()

    def sql(self, q: str, *params) -> pd.DataFrame:
        return self.con.execute(q, list(params)).fetchdf()

    def bgp(self, patterns: list[tuple[str, str, str]]) -> pd.DataFrame:
        """A BGP as one SQL join: distinct bindings of its variables."""
        where, params, first = [], [], {}
        for i, triple in enumerate(patterns):
            for col, term in zip("spo", triple):
                ref = f"t{i}.{col}"
                if term.startswith("?"):
                    if term in first:
                        where.append(f"{ref} = {first[term]}")
                    else:
                        first[term] = ref
                else:
                    where.append(f"{ref} = ?")
                    params.append(term)
        select = ", ".join(f'{ref} AS "{v[1:]}"' for v, ref in first.items())
        frm = ", ".join(f"quads t{i}" for i in range(len(patterns)))
        return self.sql(
            f"SELECT DISTINCT {select} FROM {frm} WHERE {' AND '.join(where) or 'TRUE'}",
            *params,
        )


def frames_equal(got: pd.DataFrame, want: pd.DataFrame,
                 ordered: bool = False) -> tuple[bool, str]:
    """Equal rows over ``want``'s columns (as strings, floats rounded to
    six places); row order matters if ``ordered``."""
    cols = sorted(want.columns)
    if not set(cols) <= set(got.columns):
        return False, f"columns {sorted(got.columns)} lack {cols}"

    def canon(df):
        out = df[cols].copy()
        for c in cols:
            if pd.api.types.is_float_dtype(out[c]):
                out[c] = out[c].round(6)
            out[c] = out[c].astype(str)
        out = out.reset_index(drop=True)
        return out if ordered else out.sort_values(cols).reset_index(drop=True)

    g, w = canon(got), canon(want)
    if len(g) != len(w):
        return False, f"{len(g)} rows, expected {len(w)}"
    diff = (g != w).any(axis=1)
    return not diff.any(), f"{len(w)} rows, {int(diff.sum())} differ"


_TAIL = "regexp_extract({}, '[^/]*$')"
CLASSIFIERS = ("RandomForestClassifier", "LogisticRegression", "XGBClassifier", "SVC",
               "GradientBoostingClassifier", "KNeighborsClassifier", "DecisionTreeClassifier")


def sql_top_libraries(o: QuadOracle, k: int, task: str | None = None) -> pd.DataFrame:
    task_join = ("JOIN quads t ON t.s = b.o AND t.p = ? AND t.o = ?" if task else "")
    params = [O.CALLS_LIBRARY, O.IS_PART_OF]
    params += [O.HAS_TASK, task] if task else []
    return o.sql(f"""
        WITH calls AS (
          SELECT DISTINCT a.s AS stmt, a.o AS lib, b.o AS pipe
          FROM quads a JOIN quads b ON a.s = b.s AND a.p = ? AND b.p = ? {task_join})
        SELECT {_TAIL.format('lib')} AS library, COUNT(DISTINCT pipe) AS n_pipelines
        FROM calls GROUP BY library ORDER BY n_pipelines DESC, library LIMIT {int(k)}
    """, *params)


def sql_pipelines_calling(o: QuadOracle, function: str) -> pd.DataFrame:
    return o.sql(f"""
        SELECT DISTINCT {_TAIL.format('b.o')} AS pipeline, d.o AS author,
               CAST(CAST(c.o AS DOUBLE) AS BIGINT) AS votes
        FROM quads a JOIN quads b ON b.s = a.s AND b.p = ?
             JOIN quads c ON c.s = b.o AND c.p = ?
             JOIN quads d ON d.s = b.o AND d.p = ?
        WHERE a.p = ? AND a.o = ? ORDER BY pipeline
    """, O.IS_PART_OF, O.HAS_VOTES, O.HAS_AUTHOR,
        O.CALLS, res("library", *function.split(".")))


def _classifier_calls_sql() -> str:
    names = ", ".join(f"'{c}'" for c in CLASSIFIERS)
    return f"""
        SELECT DISTINCT a.s AS stmt, {_TAIL.format('a.o')} AS classifier, b.o AS pipe,
               {_TAIL.format('c.o')} AS dataset, CAST(d.o AS DOUBLE) AS votes
        FROM quads a JOIN quads b ON b.s = a.s AND b.p = ?
             JOIN quads c ON c.s = b.o AND c.p = ?
             JOIN quads d ON d.s = b.o AND d.p = ?
        WHERE a.p = ? AND {_TAIL.format('a.o')} IN ({names})"""


_CALL_PARAMS = (O.IS_PART_OF, O.USES_DATASET, O.HAS_VOTES, O.CALLS)


def sql_ml_models(o: QuadOracle, dataset: str) -> pd.DataFrame:
    return o.sql(f"""
        WITH calls AS ({_classifier_calls_sql()})
        SELECT classifier, COUNT(DISTINCT pipe) AS n_pipelines, SUM(votes) AS votes
        FROM calls WHERE dataset = ? GROUP BY classifier
        ORDER BY votes DESC, classifier
    """, *_CALL_PARAMS, dataset)


def sql_hyperparameters(o: QuadOracle, dataset: str, classifier: str) -> pd.DataFrame:
    return o.sql(f"""
        WITH calls AS ({_classifier_calls_sql()}),
        params AS (SELECT DISTINCT s AS stmt, o AS param FROM quads WHERE p = ?),
        weighted AS (
          SELECT split_part(param, '=', 1) AS hyperparameter,
                 substr(param, strpos(param, '=') + 1) AS value, SUM(votes) AS weight
          FROM calls JOIN params USING (stmt)
          WHERE dataset = ? AND classifier = ? GROUP BY ALL)
        SELECT hyperparameter, value, weight FROM weighted
        QUALIFY row_number() OVER (PARTITION BY hyperparameter
                                   ORDER BY weight DESC, value) = 1
        ORDER BY hyperparameter
    """, *_CALL_PARAMS, O.HAS_PARAMETER, dataset, classifier)


CLEANING_OPS = {"Fillna", "Interpolate", "SimpleImputer", "KNNImputer", "IterativeImputer"}
SCALERS = {"MinMaxScaler", "RobustScaler", "StandardScaler"}
UNARY_OPS = {"log", "sqrt", "none"}
